"""The TTL-probing extension (§6 future work)."""

import random

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import build_scenario
from repro.core.ttl_probe import ttl_probe
from repro.cpe.firmware import dnat_interceptor
from repro.interceptors.policy import intercept_all
from repro.resolvers.public import Provider

from tests.conftest import make_spec


@pytest.fixture
def org():
    return organization_by_name("Comcast")


def sweep(org, probe_id, provider=Provider.GOOGLE, stop_at_answer=True, **spec_kw):
    sc = build_scenario(make_spec(org, probe_id=probe_id, **spec_kw))
    client = MeasurementClient(sc.network, sc.host)
    return ttl_probe(
        client, provider, rng=random.Random(probe_id), stop_at_answer=stop_at_answer
    )


class TestCleanPath:
    def test_traceroute_then_standard_answer(self, org):
        result = sweep(org, 1000, stop_at_answer=False)
        # ICMP reporters for the early hops, then a standard answer.
        assert result.icmp_path, "expected time-exceeded hops"
        assert result.first_answer_ttl is not None
        assert result.first_nonstandard_ttl is None
        assert not result.cpe_implicated

    def test_icmp_hops_are_increasing(self, org):
        result = sweep(org, 1001, stop_at_answer=False)
        ttls = [ttl for ttl, _ in result.icmp_path]
        assert ttls == sorted(ttls)

    def test_hop_count_matches_topology(self, org):
        """cpe, access, border, core are 4 hops before the provider."""
        result = sweep(org, 1002, stop_at_answer=False)
        assert result.first_answer_ttl == 5


class TestCpeInterceptor:
    def test_answer_at_ttl_1(self, org):
        """Linux DNAT rewrites before the TTL check: a TTL=1 query is
        answered by the hijacking CPE, convicting hop 1."""
        result = sweep(org, 1003, firmware=dnat_interceptor())
        assert result.first_nonstandard_ttl == 1
        assert result.cpe_implicated
        assert result.interceptor_max_hop == 1


class TestIspInterceptor:
    def test_redirect_gives_loose_upper_bound(self, org):
        """The middlebox is hop 3, but the hijacked answer must also
        traverse middlebox->border->resolver: the first-answer TTL
        upper-bounds the interceptor loosely."""
        result = sweep(
            org, 1004, middlebox_policies=[intercept_all()], stop_at_answer=True
        )
        assert not result.cpe_implicated
        assert result.interceptor_max_hop is not None
        assert 3 <= result.interceptor_max_hop

    def test_block_mode_gives_exact_hop(self, org):
        """A proxy-style (BLOCK) middlebox answers locally, before any
        further forwarding: the first-answer TTL is its exact hop. With
        cpe=1 and access=2, the middlebox sits at hop 3."""
        from repro.interceptors.policy import InterceptMode

        result = sweep(
            org,
            1008,
            middlebox_policies=[intercept_all(mode=InterceptMode.BLOCK)],
        )
        assert result.interceptor_max_hop == 3

    def test_describe_renders(self, org):
        result = sweep(org, 1005, middlebox_policies=[intercept_all()])
        text = result.describe()
        assert "TTL sweep" in text
        assert "interceptor within the first" in text


class TestStopBehaviour:
    def test_stop_at_answer_truncates(self, org):
        stopped = sweep(org, 1006, firmware=dnat_interceptor(), stop_at_answer=True)
        assert len(stopped.steps) == 1
        full = sweep(org, 1007, firmware=dnat_interceptor(), stop_at_answer=False)
        assert len(full.steps) > 1
        # Every TTL gets answered by the CPE: all steps are answers.
        assert all(s.got_answer for s in full.steps)
