"""Host sockets, gateways and local delivery."""

import pytest

from repro.net import Host, Network, SimulationError
from repro.net.node import EPHEMERAL_PORT_BASE

from tests.simstate import add_address


def host_pair():
    net = Network()
    a = Host("a", addresses=["10.0.0.1", "2001:db8:1::1"], gateway="b")
    b = Host("b", addresses=["10.0.0.2"], gateway="a")
    net.add_node(a)
    net.add_node(b)
    net.connect("a", "b")
    return net, a, b


class TestSockets:
    def test_ephemeral_allocation(self):
        _net, a, _b = host_pair()
        s1 = a.open_socket()
        s2 = a.open_socket()
        assert s1.port == EPHEMERAL_PORT_BASE
        assert s2.port == EPHEMERAL_PORT_BASE + 1

    def test_explicit_port(self):
        _net, a, _b = host_pair()
        assert a.open_socket(5353).port == 5353

    def test_duplicate_bind_rejected(self):
        _net, a, _b = host_pair()
        a.open_socket(5353)
        with pytest.raises(SimulationError):
            a.open_socket(5353)

    def test_port_reusable_after_close(self):
        _net, a, _b = host_pair()
        sock = a.open_socket(5353)
        sock.close()
        a.open_socket(5353)

    def test_send_after_close_rejected(self):
        _net, a, _b = host_pair()
        sock = a.open_socket()
        sock.close()
        with pytest.raises(SimulationError):
            sock.sendto(b"x", "10.0.0.2", 53)

    def test_drain_empties_inbox(self):
        net, a, b = host_pair()
        sock = b.open_socket(6000)
        a.open_socket(40001).sendto(b"x", "10.0.0.2", 6000)
        net.run()
        assert len(sock.drain()) == 1
        assert sock.drain() == []


class TestAddressing:
    def test_address_for_family(self):
        _net, a, _b = host_pair()
        assert str(a.address_for_family(4)) == "10.0.0.1"
        assert str(a.address_for_family(6)) == "2001:db8:1::1"

    def test_address_for_family_follows_add_address(self):
        """The per-family answer is memoised; adding an address must
        reset it (lowest address by text wins, as before)."""
        _net, _a, b = host_pair()
        assert str(b.address_for_family(4)) == "10.0.0.2"
        assert b.address_for_family(6) is None
        add_address(b, "10.0.0.1")
        add_address(b, "2001:db8:2::9")
        assert str(b.address_for_family(4)) == "10.0.0.1"
        assert str(b.address_for_family(6)) == "2001:db8:2::9"
        pkt = b.open_socket().sendto(b"x", "10.0.0.9", 53)
        assert str(pkt.src) == "10.0.0.1"

    def test_missing_family_is_none(self):
        _net, _a, b = host_pair()
        assert b.address_for_family(6) is None

    def test_send_to_v6_without_v6_address_raises(self):
        _net, _a, b = host_pair()
        sock = b.open_socket()
        with pytest.raises(SimulationError):
            sock.sendto(b"x", "2001:db8::1", 53)

    def test_source_selected_by_family(self):
        net, a, _b = host_pair()
        sock = a.open_socket()
        pkt = sock.sendto(b"x", "10.0.0.2", 53)
        assert str(pkt.src) == "10.0.0.1"


class TestDelivery:
    def test_datagram_metadata(self):
        net, a, b = host_pair()
        sock = b.open_socket(6000)
        a.open_socket(40001).sendto(b"hello", "10.0.0.2", 6000)
        net.run()
        dg = sock.inbox[0]
        assert dg.payload == b"hello"
        assert str(dg.src) == "10.0.0.1"
        assert dg.sport == 40001
        assert dg.time == 1.0  # default latency

    def test_traced_socket_details(self):
        net, a, b = host_pair()
        net.recorder.enabled = True
        b.open_socket(6000)
        a.open_socket(40001).sendto(b"hello", "10.0.0.2", 6000)
        net.run()
        assert [
            (e.node, e.action, e.detail)
            for e in net.recorder.events
            if e.action in ("send", "deliver") and e.detail.startswith("socket")
        ] == [("a", "send", "socket 40001"), ("b", "deliver", "socket 6000")]

    def test_unbound_port_drops(self):
        net, a, b = host_pair()
        a.open_socket(40001).sendto(b"hello", "10.0.0.2", 9999)
        net.run()  # must not raise; packet silently dropped

    def test_closed_socket_drops(self):
        net, a, b = host_pair()
        sock = b.open_socket(6000)
        sock.closed = True
        a.open_socket(40001).sendto(b"x", "10.0.0.2", 6000)
        net.run()
        assert sock.inbox == []

    def test_no_gateway_raises(self):
        net = Network()
        lone = Host("lone", addresses=["10.0.0.9"])
        net.add_node(lone)
        sock = lone.open_socket()
        with pytest.raises(SimulationError):
            sock.sendto(b"x", "10.0.0.2", 53)
