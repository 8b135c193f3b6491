"""The link-impairment engine: profiles, behaviours, determinism."""

import pytest

from repro.core.metrics import MetricsRegistry
from repro.net import Host, Network, SimulationError
from repro.net.impairment import (
    IMPAIRMENT_PROFILES,
    ImpairedLink,
    LinkProfile,
    impairment_profile,
    link_stream,
)

from tests.simstate import link_profile


def pair(profile=None, seed=0, **network_kwargs):
    net = Network(loss_seed=seed, **network_kwargs)
    a = Host("a", addresses=["10.0.0.1"], gateway="b")
    b = Host("b", addresses=["10.0.0.2"], gateway="a")
    net.add_node(a)
    net.add_node(b)
    net.connect("a", "b", profile=profile)
    return net, a, b


def blast(net, a, b, count=50, payload=b"x" * 32):
    """Send ``count`` datagrams a->b; return b's received datagrams."""
    sock = b.open_socket(6000)
    for port in range(40001, 40001 + count):
        a.open_socket(port).sendto(payload, "10.0.0.2", 6000)
    net.run()
    return sock.inbox


class TestLinkProfile:
    def test_null_profile_is_null(self):
        assert LinkProfile().is_null
        assert not LinkProfile(loss=0.1).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.0},
            {"loss": -0.1},
            {"duplicate": 1.5},
            {"corrupt": -1},
            {"truncate": 1.0},
            {"jitter_ms": -5.0},
            {"jitter_model": "pareto"},
            {"reorder": 0.1, "reorder_window_ms": 0.0},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkProfile(**kwargs)

    def test_named_profiles_resolve(self):
        for name in IMPAIRMENT_PROFILES:
            assert isinstance(impairment_profile(name), LinkProfile)
        assert impairment_profile("null").is_null
        assert not impairment_profile("residential").is_null

    def test_unknown_profile_name_rejected(self):
        with pytest.raises(KeyError):
            impairment_profile("datacenter")

    def test_describe_mentions_active_knobs(self):
        text = impairment_profile("residential").describe()
        assert "loss=0.02" in text


class TestBehaviour:
    def test_null_profile_delivers_everything(self):
        net, a, b = pair(profile=LinkProfile())
        assert len(blast(net, a, b)) == 50

    def test_loss_drops_and_counts(self):
        net, a, b = pair(profile=LinkProfile(loss=0.99), seed=1)
        net.metrics = MetricsRegistry(trace="off")
        inbox = blast(net, a, b)
        assert len(inbox) < 10
        assert net.metrics.counters.get("net.impair.dropped", 0) >= 40

    def test_corruption_behaves_as_loss(self):
        """A corrupted datagram fails the UDP checksum and is discarded
        before the stack sees it — modelled as a drop with its own
        counter."""
        net, a, b = pair(profile=LinkProfile(corrupt=0.99), seed=1)
        net.metrics = MetricsRegistry(trace="off")
        inbox = blast(net, a, b)
        assert len(inbox) < 10
        assert net.metrics.counters.get("net.impair.corrupted", 0) >= 40
        assert net.metrics.counters.get("net.impair.dropped", 0) == 0

    def test_truncation_cuts_below_dns_header(self):
        net, a, b = pair(profile=LinkProfile(truncate=0.99), seed=1)
        net.metrics = MetricsRegistry(trace="off")
        inbox = blast(net, a, b)
        truncated = [d for d in inbox if len(d.payload) < 32]
        assert truncated
        assert all(len(d.payload) < 12 for d in truncated)
        assert net.metrics.counters.get("net.impair.truncated", 0) >= len(truncated)

    def test_duplication_delivers_twice(self):
        net, a, b = pair(profile=LinkProfile(duplicate=0.99), seed=1)
        net.metrics = MetricsRegistry(trace="off")
        inbox = blast(net, a, b, count=20)
        assert len(inbox) > 30  # ~all duplicated
        assert net.metrics.counters.get("net.impair.duplicated", 0) >= 15

    def test_reordering_shuffles_arrival_order(self):
        profile = LinkProfile(reorder=0.99, reorder_window_ms=100.0)
        net, a, b = pair(profile=profile, seed=3)
        sock = b.open_socket(6000)
        for index in range(20):
            a.open_socket(40001 + index).sendto(
                bytes([index]), "10.0.0.2", 6000
            )
        net.run()
        order = [d.payload[0] for d in sock.inbox]
        assert len(order) == 20
        assert order != sorted(order)

    def test_jitter_spreads_delivery_times(self):
        net, a, b = pair(profile=LinkProfile(jitter_ms=50.0), seed=2)
        inbox = blast(net, a, b, count=20)
        times = {d.time for d in inbox}
        assert len(times) > 10  # without jitter all 20 share one latency


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            net, a, b = pair(profile=impairment_profile("wifi"), seed=11)
            inbox = blast(net, a, b)
            outcomes.append([(d.time, d.payload) for d in inbox])
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_differ(self):
        outcomes = []
        for seed in (1, 2):
            net, a, b = pair(profile=LinkProfile(loss=0.5), seed=seed)
            outcomes.append(len(blast(net, a, b)))
        assert outcomes[0] != outcomes[1]

    def test_per_link_streams_are_independent(self):
        """Each direction of each link draws from its own seeded stream;
        the token construction is order-sensitive."""
        one = link_stream(7, "a", "b").random()
        other = link_stream(7, "b", "a").random()
        assert one != other

    def test_network_wide_default_applies_to_new_links(self):
        net, a, b = pair(impairment=LinkProfile(loss=0.99), seed=1)
        assert link_profile(net, "a", "b") is not None
        assert len(blast(net, a, b)) < 10

    def test_set_link_profile_clears_with_none(self):
        net, a, b = pair(profile=LinkProfile(loss=0.99), seed=1)
        net.set_link_profile("a", "b", None)
        assert link_profile(net, "a", "b") is None
        assert len(blast(net, a, b)) == 50

    def test_set_profile_requires_existing_link(self):
        net, *_ = pair()
        with pytest.raises(SimulationError):
            net.set_link_profile("a", "ghost", LinkProfile(loss=0.1))

    def test_set_link_profile_clears_reversed_pair(self):
        """Naming the link in the other endpoint order clears the same
        link, and a probe reset must not bring the cleared profile back."""
        net, a, b = pair(profile=LinkProfile(loss=0.99), seed=1)
        net.set_link_profile("b", "a", None)
        net.reset_events(1)
        assert link_profile(net, "a", "b") is None
        assert link_profile(net, "b", "a") is None
        assert len(blast(net, a, b)) == 50

    def test_set_link_profile_replaces_reversed_pair(self):
        """A replacement installed under the reversed name survives a
        reset as the only profile on the link."""
        net, *_ = pair(profile=LinkProfile(loss=0.99), seed=1)
        replacement = LinkProfile(loss=0.25)
        net.set_link_profile("b", "a", replacement)
        net.reset_events(1)
        assert link_profile(net, "a", "b") is replacement
        assert link_profile(net, "b", "a") is replacement
        assert len(net._profile_installs) == 1

    def test_profile_mode_uses_dedicated_stream(self):
        net, a, b = pair(profile=LinkProfile(loss=0.5), seed=5)
        forward = net._impaired[("a", "b")]
        backward = net._impaired[("b", "a")]
        assert isinstance(forward, ImpairedLink)
        assert forward.rng is not backward.rng
        assert net.loss_rng not in (forward.rng, backward.rng)
