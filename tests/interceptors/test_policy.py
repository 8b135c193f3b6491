"""Interception policies: matching semantics."""

from repro.dnswire import RCode
from repro.interceptors.policy import (
    InterceptMode,
    InterceptionPolicy,
    allow_only,
    intercept_all,
    intercept_only,
)
from repro.net import make_udp


def query_to(dst, family=4):
    src = "24.0.4.1" if family == 4 else "2601::1"
    return make_udp(src, 50000, dst, 53, b"q")


class TestInterceptAll:
    def test_matches_any_resolver(self):
        policy = intercept_all()
        for dst in ("8.8.8.8", "1.1.1.1", "9.9.9.9", "203.0.113.9"):
            assert policy.matches(query_to(dst))

    def test_family_gate(self):
        policy = intercept_all(families={4})
        assert not policy.matches(query_to("2001:4860:4860::8888", family=6))
        policy6 = intercept_all(families={6})
        assert policy6.matches(query_to("2001:4860:4860::8888", family=6))

    def test_bogon_flag(self):
        eats_bogons = intercept_all(intercept_bogons=True)
        assert eats_bogons.matches(query_to("192.0.2.53"))
        blind = intercept_all(intercept_bogons=False)
        assert not blind.matches(query_to("192.0.2.53"))

    def test_mode_and_rcode_carried(self):
        policy = intercept_all(mode=InterceptMode.BLOCK, block_rcode=RCode.NOTIMP)
        assert policy.mode is InterceptMode.BLOCK
        assert policy.block_rcode == RCode.NOTIMP


class TestInterceptOnly:
    def test_targets_only(self):
        policy = intercept_only(["8.8.8.8", "8.8.4.4"])
        assert policy.matches(query_to("8.8.8.8"))
        assert policy.matches(query_to("8.8.4.4"))
        assert not policy.matches(query_to("1.1.1.1"))

    def test_bogons_still_interceptable(self):
        """A targeted interceptor with intercept_bogons=True answers bogon
        queries even though bogons are not in its target list — it is the
        *port*, not the address, that its DNAT matches."""
        policy = intercept_only(["8.8.8.8"], intercept_bogons=True)
        assert policy.matches(query_to("192.0.2.53"))

    def test_bogon_blind_variant(self):
        policy = intercept_only(["8.8.8.8"], intercept_bogons=False)
        assert not policy.matches(query_to("192.0.2.53"))


class TestAllowOnly:
    def test_allowed_exempted(self):
        policy = allow_only(["9.9.9.9", "149.112.112.112"])
        assert not policy.matches(query_to("9.9.9.9"))
        assert policy.matches(query_to("8.8.8.8"))
        assert policy.matches(query_to("1.1.1.1"))

    def test_allowed_beats_bogon_rule(self):
        policy = allow_only(["192.0.2.53"])  # pathological but legal
        assert not policy.matches(query_to("192.0.2.53"))


class TestDefaults:
    def test_default_policy_redirects_v4(self):
        policy = InterceptionPolicy()
        assert policy.mode is InterceptMode.REDIRECT
        assert policy.families == frozenset({4})
        assert policy.matches(query_to("8.8.8.8"))

    def test_frozen_and_hashable(self):
        a = intercept_all()
        b = intercept_all()
        assert hash(a) == hash(b)
        assert a == b
