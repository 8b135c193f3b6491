"""Adversarial interceptors: garbage, forgery, and mimicry.

The measurement must stay sound when the interceptor is actively
hostile: answering with non-DNS bytes, or trying to *mimic* standard
location-query answers to evade detection.
"""

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.detector import InterceptionStatus, detect_all, detect_provider
from repro.dnswire import DNS_PORT, QClass, decode_or_none, txt_record
from repro.net import Packet, Protocol, make_reply
from repro.net.router import Router
from repro.resolvers.public import Provider

from tests.conftest import make_spec


class GarbageInterceptor(Router):
    """Answers every DNS query with spoofed-source garbage bytes."""

    def inspect_transit(self, packet: Packet) -> bool:
        if (
            packet.protocol is Protocol.UDP
            and packet.udp is not None
            and packet.udp.dport == DNS_PORT
        ):
            junk = make_reply(packet, b"\xff\x00definitely not dns\x07")
            self.forward_by_route(junk)
            return True
        return False


class MimicInterceptor(Router):
    """Tries to evade Step 1 by forging *standard-looking* answers.

    It can fake Cloudflare's IATA code and Quad9's PCH hostname — those
    are just strings. But Google's oracle answers with the resolver's
    *egress address*, and the mimic cannot put a Google address in that
    TXT record truthfully; forging one means the lie is self-consistent
    only until any cross-check (whoami) — and forging requires knowing
    each provider's format exactly. We model a mimic that fakes the
    CHAOS-based formats but resolves Google's myaddr honestly through
    its own resolver, which is the realistic failure mode.
    """

    def __init__(self, name, alternate, **kwargs):
        super().__init__(name, **kwargs)
        self.alternate = alternate
        self._flows = {}

    def inspect_transit(self, packet: Packet) -> bool:
        if packet.protocol is not Protocol.UDP or packet.udp is None:
            return False
        if packet.udp.dport == DNS_PORT:
            query = decode_or_none(packet.udp.payload)
            if query is None or query.question is None:
                return False
            question = query.question
            if int(question.qclass) == int(QClass.CH) and question.qname == "id.server.":
                # Forge a plausible IATA code / PCH hostname.
                fake = "ORD" if str(packet.dst).startswith("1.") else (
                    "res101.ord.rrdns.pch.net"
                )
                response = query.reply(
                    answers=(
                        txt_record(question.qname, fake, rdclass=int(QClass.CH)),
                    )
                )
                self.forward_by_route(make_reply(packet, response.encode()))
                return True
            # Everything else: classic redirect to the alternate resolver.
            self._flows[(packet.src, packet.udp.sport)] = packet.dst
            self.forward_by_route(packet.with_dst(self.alternate))
            return True
        if packet.udp.sport == DNS_PORT and packet.src == self.alternate:
            original = self._flows.get((packet.dst, packet.udp.dport))
            if original is not None:
                self.forward_by_route(packet.with_src(original))
                return True
        return False


def splice_interceptor(scenario, interceptor_cls, **kwargs):
    """Replace the access->border hop with a custom interceptor."""
    net = scenario.network
    org_prefix = scenario.spec.organization.v4_prefix
    node = interceptor_cls(
        "adversary",
        addresses=[],
        **kwargs,
    )
    net.add_node(node)
    net.connect("access", "adversary", 0.5)
    net.connect("adversary", "border", 0.5)
    access = net.nodes["access"]
    access.routes.replace("0.0.0.0/0", "adversary")
    node.routes.add(org_prefix, "access")
    node.routes.add_default("border", family=4)
    # ISP resolver host-route fixups (mirrors the scenario builder).
    resolver_v4 = next(
        a for a in scenario.isp_resolver.addresses() if a.version == 4
    )
    access.routes.replace(f"{resolver_v4}/32", "adversary")
    node.routes.add(f"{resolver_v4}/32", "border")
    border = net.nodes["border"]
    border.routes.replace(org_prefix, "adversary")
    return node


@pytest.fixture
def org():
    return organization_by_name("Comcast")


class TestGarbageInterceptor:
    def test_garbage_is_not_a_verdict(self, org):
        """Unparseable spoofed answers are rejected; status becomes
        NO_RESPONSE (conservative), never a crash, never NOT_INTERCEPTED
        with a bogus answer."""
        sc = build_scenario(make_spec(org, probe_id=2500))
        splice_interceptor(sc, GarbageInterceptor)
        client = MeasurementClient(sc.network, sc.host)
        report = detect_all(client, rng=random.Random(1))
        for provider in Provider:
            assert (
                report.verdict(provider, 4).status
                is InterceptionStatus.NO_RESPONSE
            )

    def test_garbage_counted_as_rejected(self, org):
        from tests.simstate import make_id_server_query
        from repro.atlas.transport import udp53_exchange

        sc = build_scenario(make_spec(org, probe_id=2501))
        splice_interceptor(sc, GarbageInterceptor)
        result = udp53_exchange(
            sc.network, sc.host, "1.1.1.1", make_id_server_query(msg_id=3)
        )
        assert result.status is ExchangeStatus.TIMEOUT
        assert result.rejected  # the junk arrived and was discarded


class TestMimicInterceptor:
    def test_chaos_mimicry_fools_chaos_matchers(self, org):
        sc = build_scenario(make_spec(org, probe_id=2502))
        resolver_v4 = next(
            a for a in sc.isp_resolver.addresses() if a.version == 4
        )
        splice_interceptor(sc, MimicInterceptor, alternate=resolver_v4)
        client = MeasurementClient(sc.network, sc.host)
        cf = detect_provider(client, Provider.CLOUDFLARE, rng=random.Random(2))
        # The forged IATA code passes Cloudflare's format matcher.
        assert cf.status is InterceptionStatus.NOT_INTERCEPTED

    def test_google_oracle_catches_the_mimic(self, org):
        """The egress-echo oracle cannot be mimicked without owning
        Google address space: detection survives."""
        sc = build_scenario(make_spec(org, probe_id=2503))
        resolver_v4 = next(
            a for a in sc.isp_resolver.addresses() if a.version == 4
        )
        splice_interceptor(sc, MimicInterceptor, alternate=resolver_v4)
        client = MeasurementClient(sc.network, sc.host)
        report = detect_all(client, rng=random.Random(3))
        assert report.verdict(Provider.GOOGLE, 4).intercepted
        # OpenDNS's IN-class debug name is also redirected -> NODATA,
        # which the matcher flags as non-standard.
        assert report.verdict(Provider.OPENDNS, 4).intercepted
        # Probe-level: interception detected despite the mimicry.
        assert report.any_intercepted(4)
