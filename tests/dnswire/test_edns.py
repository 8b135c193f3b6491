"""EDNS(0): OPT record packing and the Client-Subnet option."""

import ipaddress

import pytest

from repro.dnswire import (
    Message,
    QType,
    get_edns,
    make_query,
    with_edns,
)
from repro.dnswire.edns import (
    DEFAULT_PAYLOAD_SIZE,
    ClientSubnet,
    Edns,
    EdnsOption,
    OPTION_CLIENT_SUBNET,
)
from repro.dnswire.wire import WireError


def with_client_subnet(message, network):
    option = ClientSubnet(network=ipaddress.ip_network(network)).to_option()
    return with_edns(message, options=(option,))


class TestOptRecord:
    def test_message_without_edns(self):
        query = make_query("example.com.", QType.A, msg_id=1)
        assert get_edns(query) is None

    def test_with_edns_roundtrip(self):
        query = with_edns(make_query("example.com.", QType.A, msg_id=1))
        decoded = Message.decode(query.encode())
        edns = get_edns(decoded)
        assert edns is not None
        assert edns.payload_size == DEFAULT_PAYLOAD_SIZE
        assert not edns.dnssec_ok

    def test_dnssec_ok_flag(self):
        query = with_edns(
            make_query("example.com.", QType.A, msg_id=1), dnssec_ok=True
        )
        edns = get_edns(Message.decode(query.encode()))
        assert edns.dnssec_ok

    def test_payload_size_carried(self):
        query = with_edns(
            make_query("example.com.", QType.A, msg_id=1), payload_size=4096
        )
        assert get_edns(Message.decode(query.encode())).payload_size == 4096

    def test_with_edns_replaces_existing(self):
        query = with_edns(make_query("example.com.", QType.A, msg_id=1))
        query = with_edns(query, payload_size=512)
        decoded = Message.decode(query.encode())
        opts = [r for r in decoded.additionals if int(r.rdtype) == int(QType.OPT)]
        assert len(opts) == 1
        assert get_edns(decoded).payload_size == 512

    def test_from_record_rejects_non_opt(self):
        from repro.dnswire import a_record

        with pytest.raises(WireError):
            Edns.from_record(a_record("x.example.", "1.2.3.4"))

    def test_extended_rcode_and_version(self):
        record = Edns(extended_rcode=1, version=0).to_record()
        decoded = Edns.from_record(record)
        assert decoded.extended_rcode == 1
        assert decoded.version == 0


class TestClientSubnet:
    def test_v4_roundtrip(self):
        ecs = ClientSubnet(ipaddress.ip_network("192.0.2.0/24"))
        back = ClientSubnet.from_option(ecs.to_option())
        assert back.network == ipaddress.ip_network("192.0.2.0/24")
        assert back.scope_prefix_len == 0

    def test_v6_roundtrip(self):
        ecs = ClientSubnet(ipaddress.ip_network("2001:db8::/56"))
        back = ClientSubnet.from_option(ecs.to_option())
        assert back.network == ipaddress.ip_network("2001:db8::/56")

    def test_address_truncated_to_prefix_bytes(self):
        ecs = ClientSubnet(ipaddress.ip_network("10.0.0.0/8"))
        option = ecs.to_option()
        # 2 family + 1 source + 1 scope + 1 address byte.
        assert len(option.data) == 5

    def test_from_option_rejects_other_codes(self):
        with pytest.raises(WireError):
            ClientSubnet.from_option(EdnsOption(99, b""))

    def test_unknown_family_rejected(self):
        with pytest.raises(WireError):
            ClientSubnet.from_option(EdnsOption(OPTION_CLIENT_SUBNET, b"\x00\x03\x18\x00"))

    def test_through_full_message(self):
        query = with_client_subnet(
            make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=7),
            "198.51.100.0/24",
        )
        decoded = Message.decode(query.encode())
        subnet = get_edns(decoded).client_subnet()
        assert str(subnet.network) == "198.51.100.0/24"

    def test_no_ecs_returns_none(self):
        query = with_edns(make_query("example.com.", QType.A, msg_id=1))
        assert get_edns(query).client_subnet() is None


class TestGoogleEcsEcho:
    def test_myaddr_echoes_client_subnet(self):
        from repro.resolvers.directory import build_default_directory
        from repro.resolvers.public import Provider, PublicResolverNode
        from tests.resolvers.harness import wire_up

        client = wire_up(PublicResolverNode(Provider.GOOGLE, build_default_directory()))
        query = with_client_subnet(
            make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=1),
            "198.51.100.0/24",
        )
        result = client.exchange("8.8.8.8", query)
        texts = result.response.txt_strings()
        assert len(texts) == 2
        assert texts[1] == "edns0-client-subnet 198.51.100.0/24"

    def test_matcher_tolerates_ecs_echo(self):
        """The location-query matcher must not be confused by the extra
        TXT string (it keys on the first)."""
        from repro.core.matchers import match_google
        from repro.resolvers.directory import build_default_directory
        from repro.resolvers.public import Provider, PublicResolverNode
        from tests.resolvers.harness import wire_up

        client = wire_up(PublicResolverNode(Provider.GOOGLE, build_default_directory()))
        query = with_client_subnet(
            make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=2),
            "198.51.100.0/24",
        )
        result = client.exchange("8.8.8.8", query)
        assert match_google(result.response).standard
