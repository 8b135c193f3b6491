"""CHAOS debugging query helpers (RFC 4892)."""

from repro.dnswire import QClass, QType
from repro.dnswire.chaosnames import (
    HOSTNAME_BIND,
    VERSION_BIND,
    make_chaos_query,
    make_version_bind_query,
)


class TestBuilders:
    def test_version_bind_query_shape(self):
        q = make_version_bind_query(msg_id=7)
        assert q.question.qname == VERSION_BIND
        assert int(q.question.qclass) == int(QClass.CH)
        assert int(q.question.qtype) == int(QType.TXT)
        assert q.msg_id == 7

    def test_make_chaos_query_arbitrary_name(self):
        q = make_chaos_query("hostname.bind.", msg_id=9)
        assert q.question.qname == HOSTNAME_BIND
