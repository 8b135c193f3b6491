"""Packet tracing."""

from repro.net import Network, Node, make_udp
from repro.net.trace import TraceRecorder


def pkt():
    return make_udp("1.1.1.1", 1025, "2.2.2.2", 53, b"x")


class TestRecorder:
    def test_disabled_records_nothing(self):
        rec = TraceRecorder(enabled=False)
        rec.record(0.0, "n", "send", pkt())
        assert len(rec) == 0

    def test_record_and_format(self):
        rec = TraceRecorder()
        rec.record(1.5, "cpe", "intercept", pkt(), "DNAT 8.8.8.8 -> 192.168.1.1")
        text = rec.format()
        assert "cpe" in text and "intercept" in text and "DNAT" in text

    def test_limit_respected(self):
        rec = TraceRecorder(limit=2)
        for _ in range(5):
            rec.record(0.0, "n", "send", pkt())
        assert len(rec) == 2

    def test_clear(self):
        rec = TraceRecorder()
        rec.record(0.0, "a", "send", pkt())
        rec.clear()
        assert len(rec) == 0

    def test_events_compare_by_value(self):
        """Two runs that send the same packets record equal events."""
        first, second = TraceRecorder(), TraceRecorder()
        for rec in (first, second):
            rec.record(0.0, "a", "send", pkt())
            rec.record(0.1, "b", "rewrite", pkt().with_dst("9.9.9.9"))
        assert first.events == second.events
        assert first.events[0] != second.events[1]

    def test_network_trace_flag(self):
        net = Network(trace=True)
        node = Node("sink")
        net.add_node(node)
        node.receive(pkt())
        assert len(net.recorder) == 1
        net2 = Network(trace=False)
        node2 = Node("sink")
        net2.add_node(node2)
        node2.receive(pkt())
        assert len(net2.recorder) == 0
