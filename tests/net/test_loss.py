"""Link loss and stub retransmission (failure injection)."""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus
from repro.atlas.retry import FixedIntervalRetry
from repro.atlas.transport import udp53_exchange
from repro.atlas.scenario import build_scenario
from repro.dnswire.chaosnames import make_id_server_query
from repro.net import Host, Network, SimulationError, make_udp
from repro.net.impairment import LinkProfile

from tests.conftest import make_spec


def lossy_pair(loss, seed=0):
    net = Network(loss_seed=seed)
    a = Host("a", addresses=["10.0.0.1"], gateway="b")
    b = Host("b", addresses=["10.0.0.2"], gateway="a")
    net.add_node(a)
    net.add_node(b)
    net.connect("a", "b", profile=LinkProfile(loss=loss))
    return net, a, b


class TestLinkLoss:
    def test_zero_loss_always_delivers(self):
        net, a, b = lossy_pair(0.0)
        sock = b.open_socket(6000)
        for port in range(40001, 40021):
            a.open_socket(port).sendto(b"x", "10.0.0.2", 6000)
        net.run()
        assert len(sock.inbox) == 20

    def test_full_ish_loss_drops_most(self):
        net, a, b = lossy_pair(0.99, seed=1)
        sock = b.open_socket(6000)
        for port in range(40001, 40051):
            a.open_socket(port).sendto(b"x", "10.0.0.2", 6000)
        net.run()
        assert len(sock.inbox) < 10

    def test_loss_deterministic_per_seed(self):
        outcomes = []
        for _ in range(2):
            net, a, b = lossy_pair(0.5, seed=7)
            sock = b.open_socket(6000)
            for port in range(40001, 40021):
                a.open_socket(port).sendto(b"x", "10.0.0.2", 6000)
            net.run()
            outcomes.append(len(sock.inbox))
        assert outcomes[0] == outcomes[1]

    def test_invalid_loss_rejected(self):
        net = Network()
        net.add_node(Host("a", addresses=["10.0.0.1"]))
        net.add_node(Host("b", addresses=["10.0.0.2"]))
        with pytest.raises(ValueError):
            net.connect("a", "b", profile=LinkProfile(loss=1.5))

    def test_set_link_loss_after_creation(self):
        net, a, b = lossy_pair(0.0, seed=3)
        net.set_link_profile("a", "b", LinkProfile(loss=0.999))
        sock = b.open_socket(6000)
        for port in range(40001, 40031):
            a.open_socket(port).sendto(b"x", "10.0.0.2", 6000)
        net.run()
        assert len(sock.inbox) < 5
        net.set_link_profile("a", "b", None)
        a.open_socket(41000).sendto(b"y", "10.0.0.2", 6000)
        net.run()
        assert any(d.payload == b"y" for d in sock.inbox)

    def test_set_loss_unknown_link_rejected(self):
        net, *_ = lossy_pair(0.0)
        with pytest.raises(SimulationError):
            net.set_link_profile("a", "ghost", LinkProfile(loss=0.5))

    def test_losses_traced(self):
        net, a, b = lossy_pair(0.99, seed=2)
        net.recorder.enabled = True
        for port in range(40001, 40021):
            a.open_socket(port).sendto(b"x", "10.0.0.2", 6000)
        net.run()
        assert net.recorder.filter(action="drop")


class TestRetransmission:
    def make_lossy_scenario(self, loss, seed):
        org = organization_by_name("Comcast")
        sc = build_scenario(make_spec(org, probe_id=seed))
        sc.network.loss_rng.seed(seed)
        sc.network.set_link_profile("cpe", "access", LinkProfile(loss=loss))
        return sc

    def test_retries_recover_from_loss(self):
        """With 40% loss on the access link (each direction), eight
        retries nearly always get a location query through; zero retries
        fail often. Seeds are fixed, so this is deterministic, not
        flaky."""
        with_retries = without_retries = 0
        for seed in range(1, 13):
            sc = self.make_lossy_scenario(0.4, seed)
            result = udp53_exchange(
                sc.network,
                sc.host,
                "1.1.1.1",
                make_id_server_query(msg_id=seed),
                retry=FixedIntervalRetry(retries=8, interval_ms=400.0),
            )
            with_retries += 0 if result.status is ExchangeStatus.TIMEOUT else 1

            sc2 = self.make_lossy_scenario(0.4, seed + 100)
            result2 = udp53_exchange(
                sc2.network,
                sc2.host,
                "1.1.1.1",
                make_id_server_query(msg_id=seed),
                retry=None,
            )
            without_retries += 0 if result2.status is ExchangeStatus.TIMEOUT else 1
        assert with_retries > without_retries
        assert with_retries >= 10

    def test_retry_preserves_message_id(self):
        sc = self.make_lossy_scenario(0.9, 42)
        result = udp53_exchange(
            sc.network,
            sc.host,
            "1.1.1.1",
            make_id_server_query(msg_id=777),
            retry=FixedIntervalRetry(retries=8, interval_ms=200.0),
        )
        if result.response is not None:
            assert result.response.msg_id == 777

    def test_no_retries_on_clean_path_single_rtt(self):
        org = organization_by_name("Comcast")
        sc = build_scenario(make_spec(org, probe_id=9))
        result = udp53_exchange(
            sc.network,
            sc.host,
            "1.1.1.1",
            make_id_server_query(msg_id=1),
            retry=FixedIntervalRetry(retries=3),
        )
        assert result.status is not ExchangeStatus.TIMEOUT
        assert result.rtt_ms < 200.0  # answered on the first attempt
