"""DnsServerNode plumbing and CHAOS dispatch."""

from repro.atlas.measurement import ExchangeStatus
from repro.dnswire import (
    Message,
    QClass,
    QType,
    RCode,
    make_query,
)
from repro.dnswire.chaosnames import (
    make_chaos_query,
    make_version_bind_query,
)
from repro.net.dot import DOT_PORT, wrap_dot
from repro.resolvers.base import ChaosOutcome, DnsServerNode, chaos_respond
from repro.resolvers.software import dnsmasq, mute, silent_forwarder

from tests.simstate import make_id_server_query, trace_events

from .harness import wire_up


class TestChaosRespond:
    def test_answer(self):
        response = chaos_respond(dnsmasq("2.80"), make_version_bind_query(msg_id=1))
        assert isinstance(response, Message)
        assert response.txt_strings() == ["dnsmasq-2.80"]
        assert response.flags.aa

    def test_answer_is_chaos_class(self):
        response = chaos_respond(dnsmasq(), make_version_bind_query(msg_id=1))
        assert int(response.answers[0].rdclass) == int(QClass.CH)

    def test_rcode(self):
        response = chaos_respond(dnsmasq(), make_id_server_query(msg_id=2))
        assert response.rcode == RCode.NXDOMAIN

    def test_forward_sentinel(self):
        outcome = chaos_respond(silent_forwarder(), make_version_bind_query(msg_id=3))
        assert outcome is ChaosOutcome.FORWARD

    def test_ignore_sentinel(self):
        outcome = chaos_respond(mute(), make_version_bind_query(msg_id=4))
        assert outcome is ChaosOutcome.IGNORE

    def test_not_chaos_for_in_class(self):
        query = make_query("example.com.", QType.A, msg_id=5)
        assert chaos_respond(dnsmasq(), query) is ChaosOutcome.NOT_CHAOS

    def test_unknown_chaos_name_refused(self):
        response = chaos_respond(dnsmasq(), make_chaos_query("whatever.bind.", msg_id=6))
        assert response.rcode == RCode.REFUSED

    def test_chaos_non_txt_notimp(self):
        query = make_query("version.bind.", QType.A, QClass.CH, msg_id=7)
        response = chaos_respond(dnsmasq(), query)
        assert response.rcode == RCode.NOTIMP


class TestServerNode:
    def make_server(self, software=None):
        return DnsServerNode(
            "server", addresses=["198.51.100.53"], software=software or dnsmasq()
        )

    def test_answers_version_bind(self):
        server = self.make_server()
        client = wire_up(server)
        result = client.exchange("198.51.100.53", make_version_bind_query(msg_id=9))
        assert result.response is not None
        assert result.response.txt_strings() == ["dnsmasq-2.80"]

    def test_response_source_is_server(self):
        server = self.make_server()
        client = wire_up(server)
        result = client.exchange("198.51.100.53", make_version_bind_query(msg_id=9))
        assert result.status is not ExchangeStatus.TIMEOUT

    def test_traced_response_details(self):
        server = DnsServerNode(
            "server",
            addresses=["198.51.100.53"],
            software=dnsmasq(),
            tls_identity="dns.example",
        )
        client = wire_up(server)
        network = client.network
        network.recorder.enabled = True
        client.exchange("198.51.100.53", make_version_bind_query(msg_id=3))
        query = make_version_bind_query(msg_id=4).encode()
        client.host.open_socket().sendto(
            wrap_dot(query, "dns.example"), "198.51.100.53", DOT_PORT
        )
        network.run()
        assert [
            e.detail
            for e in trace_events(network.recorder, node="server", action="send")
            if not e.detail.startswith("->")
        ] == ["dns response", "dns response (DoT)"]

    def test_counts_queries(self):
        server = self.make_server()
        client = wire_up(server)
        client.network.recorder.enabled = True
        client.exchange("198.51.100.53", make_version_bind_query(msg_id=1))
        client.exchange("198.51.100.53", make_version_bind_query(msg_id=2))
        # The server decoded both queries: it answered each.
        assert [
            e.detail
            for e in trace_events(client.network.recorder, node="server", action="send")
            if not e.detail.startswith("->")
        ] == ["dns response", "dns response"]

    def test_wrong_port_dropped(self):
        server = self.make_server()
        client = wire_up(server)
        sock = client.host.open_socket()
        sock.sendto(make_version_bind_query(msg_id=1).encode(), "198.51.100.53", 5353)
        client.network.run()
        assert sock.inbox == []

    def test_garbage_payload_dropped(self):
        server = self.make_server()
        client = wire_up(server)
        sock = client.host.open_socket()
        sock.sendto(b"definitely not dns", "198.51.100.53", 53)
        client.network.run()
        assert sock.inbox == []

    def test_response_message_ignored(self):
        """A DNS *response* sent at the server must not be answered
        (no reflection loops)."""
        server = self.make_server()
        client = wire_up(server)
        query = make_version_bind_query(msg_id=1)
        response = query.reply()
        sock = client.host.open_socket()
        sock.sendto(response.encode(), "198.51.100.53", 53)
        client.network.run()
        assert sock.inbox == []

    def test_mute_software_times_out(self):
        server = self.make_server(software=mute())
        client = wire_up(server)
        result = client.exchange("198.51.100.53", make_version_bind_query(msg_id=1))
        assert result.status is ExchangeStatus.TIMEOUT

    def test_plain_server_refuses_forward(self):
        """A non-forwarder with FORWARD behaviour refuses instead of
        looping."""
        server = self.make_server(software=silent_forwarder())
        client = wire_up(server)
        result = client.exchange("198.51.100.53", make_version_bind_query(msg_id=1))
        assert result.response.rcode == RCode.REFUSED

    def test_standard_query_refused_by_default(self):
        server = self.make_server()
        client = wire_up(server)
        result = client.exchange(
            "198.51.100.53", make_query("example.com.", QType.A, msg_id=1)
        )
        assert result.response.rcode == RCode.REFUSED
