"""Packet tracing and lineage following."""

from repro.net import Network, Node, make_udp
from repro.net.trace import TraceRecorder

from tests.simstate import trace_lineage


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

    def test_lineage_follows_rewrites(self):
        rec = TraceRecorder()
        original = pkt()
        rewritten = original.with_dst("9.9.9.9")
        further = rewritten.with_src("3.3.3.3")
        unrelated = pkt()
        rec.record(0.0, "a", "send", original)
        rec.record(0.1, "b", "rewrite", rewritten)
        rec.record(0.2, "c", "rewrite", further)
        rec.record(0.3, "x", "send", unrelated)
        events = trace_lineage(rec, original)
        assert [e.node for e in events] == ["a", "b", "c"]

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
