"""On-path middlebox interception: redirect, block, drop, replicate."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus, MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.dnswire import QType, RCode, make_query
from repro.dnswire.chaosnames import make_id_server_query, make_version_bind_query
from repro.interceptors.middlebox import MiddleboxRouter
from repro.interceptors.policy import (
    InterceptMode,
    InterceptionPolicy,
    allow_only,
    intercept_all,
    intercept_only,
)

from tests.conftest import make_spec


@pytest.fixture
def org():
    return organization_by_name("Rostelecom")


def build(org, policies, probe_id=300, **kw):
    sc = build_scenario(
        make_spec(org, probe_id=probe_id, middlebox_policies=policies, **kw)
    )
    return sc, MeasurementClient(sc.network, sc.host)


class TestConstruction:
    def test_needs_a_policy(self):
        with pytest.raises(ValueError):
            MiddleboxRouter("mb")

    def test_policy_xor_policies(self):
        with pytest.raises(ValueError):
            MiddleboxRouter(
                "mb", policy=intercept_all(), policies=(intercept_all(),)
            )

    def test_policy_property(self):
        mb = MiddleboxRouter("mb", policy=intercept_all())
        assert mb.policy is mb.policies[0]


class TestRedirect:
    def test_location_query_gets_nonstandard_answer(self, org):
        sc, client = build(org, [intercept_all()])
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=1))
        # Rostelecom's resolver answers NOTIMP or an identity string —
        # either way, not an IATA code.
        assert result.response is not None

    def test_spoofed_source_accepted_by_stub(self, org):
        sc, client = build(org, [intercept_all()])
        result = client.exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=2)
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.response.a_addresses() == ["93.184.216.34"]

    def test_traced_dnat_details(self, org):
        sc, client = build(org, [intercept_all()])
        sc.network.recorder.enabled = True
        client.exchange("8.8.8.8", make_query("example.com.", QType.A, msg_id=4))
        alternate = sc.middlebox.alternate_for_family(4)
        assert [
            (e.action, e.detail)
            for e in sc.network.recorder.events
            if e.node == "middlebox" and e.action in ("intercept", "rewrite")
        ] == [
            ("intercept", f"DNAT 8.8.8.8 -> {alternate}"),
            ("rewrite", f"un-DNAT reply src {alternate} -> 8.8.8.8"),
        ]

    def test_interception_counter(self, org):
        sc, client = build(org, [intercept_all()])
        client.exchange("8.8.8.8", make_query("example.com.", QType.A, msg_id=3))
        assert sc.middlebox.intercepted_queries == 1

    def test_queries_to_isp_resolver_passed_through(self, org):
        sc, client = build(org, [intercept_all()])
        resolver_addr = str(
            next(a for a in sc.isp_resolver.addresses() if a.version == 4)
        )
        before = sc.middlebox.intercepted_queries
        result = client.exchange(
            resolver_addr, make_query("example.com.", QType.A, msg_id=4)
        )
        assert sc.middlebox.intercepted_queries == before
        assert result.response is not None

    def test_bogon_query_answered_when_policy_eats_bogons(self, org):
        sc, client = build(org, [intercept_all(intercept_bogons=True)])
        result = client.exchange(
            "192.0.2.53", make_query("www.example.com.", QType.A, msg_id=5)
        )
        assert result.response is not None

    def test_bogon_blind_policy_times_out(self, org):
        sc, client = build(org, [intercept_all(intercept_bogons=False)])
        result = client.exchange(
            "192.0.2.53", make_query("www.example.com.", QType.A, msg_id=6)
        )
        assert result.status is ExchangeStatus.TIMEOUT


class TestBlock:
    def test_error_status_returned(self, org):
        sc, client = build(
            org,
            [intercept_all(mode=InterceptMode.BLOCK, block_rcode=RCode.NOTIMP)],
        )
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=1))
        assert result.response.rcode == RCode.NOTIMP

    def test_block_spoofs_source(self, org):
        sc, client = build(org, [intercept_all(mode=InterceptMode.BLOCK)])
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=2))
        assert result.status is not ExchangeStatus.TIMEOUT  # stub validation passed


class TestDrop:
    def test_timeout(self, org):
        sc, client = build(org, [intercept_all(mode=InterceptMode.DROP)])
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=1))
        assert result.status is ExchangeStatus.TIMEOUT


class TestReplicate:
    def test_two_answers_race(self, org):
        sc, client = build(org, [intercept_all(mode=InterceptMode.REPLICATE)])
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=1))
        assert result.replicated
        assert len(result.accepted) == 2

    def test_interceptor_answer_arrives_first(self, org):
        """Liu et al.: the interceptor's answer nearly always wins the
        race — it has fewer hops to travel."""
        sc, client = build(org, [intercept_all(mode=InterceptMode.REPLICATE)])
        result = client.exchange("1.1.1.1", make_id_server_query(msg_id=2))
        first = result.accepted[0]
        # Cloudflare's genuine answer is an IATA code; the ISP resolver's
        # is not. First answer should be the ISP one.
        texts = first.txt_strings()
        assert not (texts and texts[0].isupper() and len(texts[0]) == 3)


class TestTargetedPolicies:
    def test_intercept_only_google(self, org):
        google_targets = ["8.8.8.8", "8.8.4.4"]
        sc, client = build(org, [intercept_only(google_targets)])
        hijacked = client.exchange(
            "8.8.8.8", make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=1)
        )
        assert not hijacked.response.txt_strings()[0].startswith("172.253.")
        clean = client.exchange("1.1.1.1", make_id_server_query(msg_id=2))
        assert clean.response.txt_strings()[0].isupper()

    def test_allow_only_quad9(self, org):
        sc, client = build(org, [allow_only(["9.9.9.9", "149.112.112.112"])])
        clean = client.exchange("9.9.9.9", make_id_server_query(msg_id=3))
        assert "pch.net" in clean.response.txt_strings()[0]
        hijacked = client.exchange("1.1.1.1", make_id_server_query(msg_id=4))
        texts = hijacked.response.txt_strings()
        assert not (texts and len(texts[0]) == 3 and texts[0].isupper())

    def test_mixed_policies_first_match_wins(self, org):
        policies = [
            InterceptionPolicy(
                mode=InterceptMode.BLOCK,
                targets=frozenset({"8.8.8.8", "8.8.4.4"}),
                block_rcode=RCode.SERVFAIL,
                intercept_bogons=False,
            ),
            intercept_all(mode=InterceptMode.REDIRECT),
        ]
        sc, client = build(org, policies)
        blocked = client.exchange(
            "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=5)
        )
        assert blocked.response.rcode == RCode.SERVFAIL
        redirected = client.exchange(
            "1.1.1.1", make_query("www.example.com.", QType.A, msg_id=6)
        )
        assert redirected.response.rcode == RCode.NOERROR


class TestIpv6Policies:
    def test_separate_v6_policy(self, org):
        policies = [
            intercept_all(families={4}),
            intercept_only(
                ["2001:4860:4860::8888", "2001:4860:4860::8844"],
                families={6},
            ),
        ]
        sc, client = build(org, policies, has_ipv6=True)
        hijacked_v6 = client.exchange(
            "2001:4860:4860::8888",
            make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=7),
        )
        assert hijacked_v6.response is not None
        clean_v6 = client.exchange(
            "2606:4700:4700::1111", make_id_server_query(msg_id=8)
        )
        assert clean_v6.response.txt_strings()[0].isupper()


class TestBlockEncryptedPorts:
    """The BLOCK answer path must never decode session framing as DNS:
    port 853 is shared with DoQ (RFC 9250), and other encrypted ports
    (DoH on 443) carry no bare message at all."""

    def block_dot_policy(self):
        return InterceptionPolicy.build(
            mode=InterceptMode.BLOCK, intercept_dot=True
        )

    def test_doq_session_dropped_end_to_end(self, org):
        """A DoQ exchange through a DoT-terminating BLOCK middlebox gets
        silence — the box cannot terminate QUIC, so it must not unwrap
        the payload as DoT or answer a plaintext error."""
        from repro.atlas.scenario import ScenarioSpec, build_scenario
        from repro.atlas.transport import doq_exchange
        from repro.dnswire import make_query

        sc = build_scenario(
            ScenarioSpec(
                probe=make_spec(
                    org, probe_id=310, middlebox_policies=[self.block_dot_policy()]
                ),
                trace=True,
            )
        )
        result = doq_exchange(
            sc.network,
            sc.host,
            "8.8.8.8",
            make_query("example.com.", QType.A, msg_id=9),
            expected_identity="dns.google",
        )
        assert result.response is None
        drops = [
            e
            for e in sc.network.recorder.events
            if "BLOCK: DoQ session (not DoT)" in e.detail
        ]
        assert drops

    def direct_call(self, payload, dport):
        """Drive _answer_error directly with a crafted packet; return
        the packets the middlebox tried to send."""
        from repro.net import make_udp

        mb = MiddleboxRouter("mb", policy=self.block_dot_policy())
        sent = []
        mb.forward_by_route = sent.append
        packet = make_udp("192.168.1.2", 4444, "8.8.8.8", dport, payload)
        mb._answer_error(packet, mb.policy)
        return sent

    def test_doh_443_payload_never_decoded(self):
        """Port-443 framing that happens to parse as a DNS message must
        still be dropped: it is session data, not a query."""
        from repro.dnswire import make_query

        innocent_looking = make_query("example.com.", QType.A, msg_id=1).encode()
        assert self.direct_call(innocent_looking, 443) == []

    def test_doq_853_payload_never_decoded(self):
        from repro.net.doq import wrap_doq
        from repro.dnswire import make_query

        wire = make_query("example.com.", QType.A, msg_id=2).encode()
        assert self.direct_call(wrap_doq(wire, "dns.google"), 853) == []

    def test_plain_53_query_still_blocked(self):
        """The guards must not break the actual BLOCK behaviour."""
        from repro.dnswire import decode_or_none, make_query

        wire = make_query("example.com.", QType.A, msg_id=3).encode()
        sent = self.direct_call(wire, 53)
        assert len(sent) == 1
        error = decode_or_none(sent[0].udp.payload)
        assert error.rcode == int(RCode.REFUSED)

    def test_garbage_53_payload_dropped(self):
        assert self.direct_call(b"\x16\x03\x01junk", 53) == []
