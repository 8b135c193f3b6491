"""The four public anycast resolver models (Table 1 behaviours)."""

import re

import pytest

from repro.dnswire import QClass, QType, RCode, make_query
from repro.dnswire.chaosnames import make_version_bind_query
from repro.resolvers.directory import (
    AKAMAI_WHOAMI,
    GOOGLE_MYADDR,
    OPENDNS_DEBUG,
    build_default_directory,
)
from repro.resolvers.public import (
    ANYCAST_SITES,
    PROVIDER_SPECS,
    Provider,
    PublicResolverNode,
    default_catchment,
)

from .harness import wire_up

from tests.simstate import make_id_server_query


def make_provider(provider):
    return PublicResolverNode(provider, build_default_directory())


class TestSpecs:
    def test_every_provider_has_four_service_addresses(self):
        for spec in PROVIDER_SPECS.values():
            assert len(spec.v4_addresses) == 2
            assert len(spec.v6_addresses) == 2

    def test_well_known_addresses(self):
        assert "8.8.8.8" in PROVIDER_SPECS[Provider.GOOGLE].v4_addresses
        assert "1.1.1.1" in PROVIDER_SPECS[Provider.CLOUDFLARE].v4_addresses
        assert "9.9.9.9" in PROVIDER_SPECS[Provider.QUAD9].v4_addresses
        assert "208.67.222.222" in PROVIDER_SPECS[Provider.OPENDNS].v4_addresses

    def test_egress_ownership(self):
        google = PROVIDER_SPECS[Provider.GOOGLE]
        assert google.owns_egress("172.253.0.35")
        assert not google.owns_egress("24.0.0.53")
        assert google.owns_egress(google.egress_address(4))
        assert google.owns_egress(google.egress_address(6))

    def test_catchment_deterministic(self):
        import ipaddress

        a = default_catchment(ipaddress.ip_address("24.0.4.1"))
        b = default_catchment(ipaddress.ip_address("24.0.4.1"))
        assert a == b
        assert a in ANYCAST_SITES


class TestCloudflare:
    def test_id_server_is_iata(self):
        client = wire_up(make_provider(Provider.CLOUDFLARE))
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=1))
        text = result.response.txt_strings()[0]
        assert re.fullmatch(r"[A-Z]{3}", text)

    def test_secondary_address_answers(self):
        client = wire_up(make_provider(Provider.CLOUDFLARE))
        result = client.exchange("1.0.0.1", make_id_server_query(msg_id=2))
        assert result.response is not None

    def test_v6_address_answers(self):
        client = wire_up(make_provider(Provider.CLOUDFLARE))
        result = client.exchange(
            "2606:4700:4700::1111", make_id_server_query(msg_id=3)
        )
        assert result.response is not None

    def test_version_bind_refused(self):
        client = wire_up(make_provider(Provider.CLOUDFLARE))
        result = client.exchange("1.1.1.1", make_version_bind_query(msg_id=4))
        assert result.response.rcode == RCode.REFUSED


class TestGoogle:
    def test_myaddr_returns_google_egress(self):
        client = wire_up(make_provider(Provider.GOOGLE))
        result = client.exchange(
            "8.8.8.8", make_query(GOOGLE_MYADDR, QType.TXT, msg_id=5)
        )
        text = result.response.txt_strings()[0]
        assert PROVIDER_SPECS[Provider.GOOGLE].owns_egress(text)

    def test_version_bind_refused(self):
        client = wire_up(make_provider(Provider.GOOGLE))
        result = client.exchange("8.8.8.8", make_version_bind_query(msg_id=6))
        assert result.response.rcode == RCode.REFUSED

    def test_ordinary_resolution_works(self):
        client = wire_up(make_provider(Provider.GOOGLE))
        result = client.exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=7)
        )
        assert result.response.a_addresses() == ["93.184.216.34"]

    def test_whoami_shows_google_egress(self):
        client = wire_up(make_provider(Provider.GOOGLE))
        result = client.exchange(
            "8.8.8.8", make_query(AKAMAI_WHOAMI, QType.A, msg_id=8)
        )
        address = result.response.a_addresses()[0]
        assert PROVIDER_SPECS[Provider.GOOGLE].owns_egress(address)


class TestQuad9:
    def test_id_server_is_pch_instance(self):
        client = wire_up(make_provider(Provider.QUAD9))
        result = client.exchange("9.9.9.9", make_id_server_query(msg_id=9))
        text = result.response.txt_strings()[0]
        assert re.fullmatch(r"res\d+\.[a-z]{3}\.rrdns\.pch\.net", text)

    def test_version_bind_answered(self):
        """Quad9 is the only provider answering version.bind (§3.2)."""
        client = wire_up(make_provider(Provider.QUAD9))
        result = client.exchange("9.9.9.9", make_version_bind_query(msg_id=10))
        assert result.response.txt_strings()[0].startswith("Q9-")


class TestOpenDNS:
    def test_debug_returns_machine_tag(self):
        client = wire_up(make_provider(Provider.OPENDNS))
        result = client.exchange(
            "208.67.222.222", make_query(OPENDNS_DEBUG, QType.TXT, msg_id=11)
        )
        text = result.response.txt_strings()[0]
        assert re.fullmatch(r"server m\d+\.[a-z]{3}", text)

    def test_version_bind_servfail(self):
        client = wire_up(make_provider(Provider.OPENDNS))
        result = client.exchange("208.67.222.222", make_version_bind_query(msg_id=12))
        assert result.response.rcode == RCode.SERVFAIL


class TestCommon:
    @pytest.mark.parametrize("provider", list(Provider))
    def test_chaos_class_in_query_not_resolved(self, provider):
        client = wire_up(make_provider(provider))
        address = PROVIDER_SPECS[provider].v4_addresses[0]
        query = make_query("example.com.", QType.TXT, QClass.HS, msg_id=13)
        result = client.exchange(address, query)
        assert result.response.rcode in (RCode.NOTIMP, RCode.REFUSED)

    @pytest.mark.parametrize("provider", list(Provider))
    def test_nxdomain_for_unknown(self, provider):
        client = wire_up(make_provider(provider))
        address = PROVIDER_SPECS[provider].v4_addresses[0]
        result = client.exchange(
            address, make_query("no.such.domain.invalid.", QType.A, msg_id=14)
        )
        assert result.response.rcode == RCode.NXDOMAIN
