"""TC-set responses: TRUNCATED at the transport, INCONCLUSIVE verdicts.

A response with the TC bit set may have its sections cut anywhere, so
its content is unusable — and this pipeline has no TCP fallback to fetch
the full answer. The exchange must surface ``TRUNCATED`` (never score
the partial content as the real response), and the locator must treat a
pair that only ever answered truncated as a measurement gap, not as
clean.
"""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import ExchangeStatus
from repro.atlas.scenario import build_scenario
from repro.atlas.transport import udp53_exchange
from repro.core.classifier import LocatorVerdict
from repro.core.study import measure_probe
from repro.dnswire import QType, make_query
from repro.net import make_udp

from tests.conftest import make_spec
from tests.simstate import inject


@pytest.fixture
def org():
    return organization_by_name("Comcast")


class TestReplyHelper:
    def test_reply_sets_tc_bit(self):
        response = make_query("example.com.", QType.A, msg_id=1).reply(truncated=True)
        assert response.flags.tc
        assert not make_query("example.com.", QType.A, msg_id=2).reply().flags.tc


class TestTransport:
    def truncating_exchange(self, org, probe_id=940):
        """Query a dead address while injecting a TC-set answer that is
        valid on every other axis (right source, port 53, right id)."""
        sc = build_scenario(make_spec(org, probe_id=probe_id))
        query = make_query("example.com.", QType.A, msg_id=40)
        sock_port = sc.host._next_port  # the port udp53_exchange will use
        tc_reply = make_udp(
            "198.51.100.99",
            53,
            "192.168.1.100",
            sock_port,
            query.reply(truncated=True).encode(),
        )
        inject(sc.network, "host", tc_reply, delay_ms=10.0)
        return udp53_exchange(sc.network, sc.host, "198.51.100.99", query)

    def test_tc_response_surfaces_truncated(self, org):
        result = self.truncating_exchange(org)
        assert result.status is ExchangeStatus.TRUNCATED
        assert result.response is None
        assert result.rcode is None
        assert len(result.truncated) == 1
        assert result.truncated[0].flags.tc

    def test_truncated_is_not_a_timeout(self, org):
        """A truncated answer is a definite reply from the right source;
        it must not be conflated with silence."""
        result = self.truncating_exchange(org, probe_id=941)
        assert result.status is not ExchangeStatus.TIMEOUT


class TestClassifier:
    def test_truncating_provider_degrades_to_inconclusive(self, org, monkeypatch):
        """One provider that only ever answers truncated starves the
        detection step: its pair has no usable content, so the verdict
        is INCONCLUSIVE — not a confident NOT_INTERCEPTED built on
        answers that never actually arrived."""
        import repro.atlas.transport as transport

        real = transport.udp53_exchange

        def truncating(network, host, destination, query, **kwargs):
            result = real(network, host, destination, query, **kwargs)
            google = str(result.destination) in ("8.8.8.8", "8.8.4.4")
            if google and result.response is not None:
                result.truncated.append(result.response)
                result.accepted.clear()
                result.response = None
                result.rtt_ms = None
                result.status = ExchangeStatus.TRUNCATED
            return result

        monkeypatch.setattr(transport, "udp53_exchange", truncating)
        record = measure_probe(make_spec(org, probe_id=942))
        assert record.verdict is LocatorVerdict.INCONCLUSIVE
        assert "detect" in record.inconclusive_steps
        assert not record.intercepted

    def test_honest_run_stays_conclusive(self, org):
        record = measure_probe(make_spec(org, probe_id=943))
        assert record.verdict is LocatorVerdict.NOT_INTERCEPTED
        assert record.inconclusive_steps == ()
