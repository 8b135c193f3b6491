"""Event loop, links and delivery order."""

import itertools
import random

import pytest

from repro.net import Host, Network, Node, SimulationError, make_udp
from repro.net.sim import MAX_EVENTS_PER_RUN

from tests.simstate import are_connected, inject, pending_events


def two_hosts():
    net = Network()
    a = Host("a", addresses=["10.0.0.1"], gateway="b")
    b = Host("b", addresses=["10.0.0.2"], gateway="a")
    net.add_node(a)
    net.add_node(b)
    net.connect("a", "b", latency_ms=2.0)
    return net, a, b


class TestTopology:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(Node("x"))
        with pytest.raises(SimulationError):
            net.add_node(Node("x"))

    def test_connect_unknown_rejected(self):
        net = Network()
        net.add_node(Node("x"))
        with pytest.raises(SimulationError):
            net.connect("x", "ghost")

    def test_links_bidirectional(self):
        net, a, b = two_hosts()
        assert are_connected(net, "a", "b") and are_connected(net, "b", "a")
        assert net.latency("a", "b") == 2.0

    def test_missing_link_latency_raises(self):
        net = Network()
        net.add_node(Node("x"))
        net.add_node(Node("y"))
        with pytest.raises(SimulationError):
            net.latency("x", "y")


class TestEventLoop:
    def test_delivery_and_clock(self):
        net, a, b = two_hosts()
        sock = b.open_socket(5000)
        pkt = make_udp("10.0.0.1", 40000, "10.0.0.2", 5000, b"hi")
        net.transmit("a", "b", pkt)
        net.run()
        assert [d.payload for d in sock.drain()] == [b"hi"]
        assert net.now == 2.0

    def test_run_until_bound(self):
        net, a, b = two_hosts()
        sock = b.open_socket(5000)
        net.transmit("a", "b", make_udp("10.0.0.1", 1025, "10.0.0.2", 5000, b"x"))
        processed = net.run(until=1.0)  # link latency is 2.0
        assert processed == 0
        assert sock.inbox == []
        net.run(until=3.0)
        assert len(sock.inbox) == 1

    def test_run_until_advances_clock_even_when_idle(self):
        net, *_ = two_hosts()
        net.run(until=50.0)
        assert net.now == 50.0

    def test_event_ordering_fifo_for_ties(self):
        net = Network()
        order = []
        net.schedule(1.0, lambda: order.append("first"))
        net.schedule(1.0, lambda: order.append("second"))
        net.run()
        assert order == ["first", "second"]

    def test_negative_delay_rejected(self):
        net = Network()
        with pytest.raises(SimulationError):
            net.schedule(-1, lambda: None)

    def test_runaway_guard(self):
        net = Network()

        def rearm():
            net.schedule(0.0, rearm)

        net.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            net.run()

    def test_pending_events_counter(self):
        net, a, b = two_hosts()
        net.transmit("a", "b", make_udp("10.0.0.1", 1025, "10.0.0.2", 5000, b"x"))
        assert pending_events(net) == 1
        net.run()
        assert pending_events(net) == 0


class TestEventQueue:
    """Ordering under mid-run scheduling; the basic ordering, ``until``
    and reset contract is in ``test_scheduler.py``."""

    def test_events_scheduled_mid_run_keep_order(self):
        """Seeded fuzz: events (some re-arming others from inside the
        loop) dispatch in (time, scheduling order), whatever the mix of
        near and far delays."""
        rng = random.Random(1337)
        net = Network()
        fired = []
        expected = []
        seq = itertools.count()

        def arm(delay_us, depth):
            key = (net._now_us + delay_us, next(seq))
            expected.append(key)

            def fire():
                fired.append(key)
                if depth and rng.random() < 0.5:
                    arm(rng.choice((0, 7, 300, 200_000)), depth - 1)

            net.schedule(delay_us / 1000, fire)

        for _ in range(200):
            arm(rng.choice((0, 1, 256, 131_072, 50_000_000)), 3)
        net.run()
        assert fired == sorted(expected)


class TestNonFiniteDelays:
    """NaN compares false to everything, so it sailed through the old
    ``delay_ms < 0`` guard and poisoned event ordering; inf parked an
    event ``run()`` could never reach and hung bounded loops forever.
    Both are rejected at the boundary now."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_rejects_non_finite(self, delay):
        net = Network()
        with pytest.raises(SimulationError, match="non-finite|negative"):
            net.schedule(delay, lambda: None)
        assert pending_events(net) == 0


class TestRunawayGuard:
    """The guard bounds *queue growth during the run*, not a flat event
    count: a large legitimately pre-scheduled batch must pass, while a
    self-feeding loop must still trip."""

    def test_million_event_linear_workload_passes(self):
        net = Network()  # default budget is MAX_EVENTS_PER_RUN == 10**6
        hits = [0]

        def tick():
            hits[0] += 1

        for i in range(MAX_EVENTS_PER_RUN + 1):
            net.schedule(0.001 * i, tick)
        # A flat per-call counter would trip here; queue growth is zero.
        processed = net.run()
        assert processed == MAX_EVENTS_PER_RUN + 1
        assert hits[0] == MAX_EVENTS_PER_RUN + 1

    def test_two_node_routing_loop_trips(self):
        from repro.net.router import Router

        net = Network(max_events_per_run=500)
        left = Router("left")
        right = Router("right")
        net.add_node(left)
        net.add_node(right)
        net.connect("left", "right", latency_ms=0.1)
        # Each router's default route points at the other: any packet
        # ping-pongs, growing the queue one event per hop, forever
        # (TTL exempt: refresh it each hop via a huge initial value is
        # not possible, so use routes that never consume the packet).
        left.routes.add("0.0.0.0/0", "right")
        right.routes.add("0.0.0.0/0", "left")
        pkt = make_udp("10.0.0.1", 1025, "203.0.113.9", 53, b"x", ttl=2**31)
        inject(net, "left", pkt)
        with pytest.raises(SimulationError, match="runaway"):
            net.run()

    def test_custom_budget_validated(self):
        with pytest.raises(SimulationError):
            Network(max_events_per_run=0)


class TestNodeDefaults:
    def test_unattached_send_raises(self):
        node = Node("lonely")
        with pytest.raises(SimulationError):
            node.send("anyone", make_udp("1.1.1.1", 1, "2.2.2.2", 2, b""))

    def test_default_node_drops_everything(self):
        net = Network(trace=True)
        node = Node("sink")
        net.add_node(node)
        node.receive(make_udp("1.1.1.1", 1, "2.2.2.2", 2, b""))
        assert net.recorder.events[-1].action == "drop"
