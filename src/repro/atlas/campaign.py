"""Measurement campaigns: the RIPE-Atlas data model over the fleet.

The pilot study (:mod:`repro.core.study`) runs the paper's fixed
pipeline. A :class:`Campaign` is the generic layer underneath — the
shape of what RIPE Atlas actually offers: *measurement definitions*
(one-off DNS measurements toward a target, scheduled across probes)
producing per-probe *result rows* with timestamps, RTTs and answers,
serialisable like the platform's JSON results. Useful for running
custom experiments over the synthetic fleet without touching the
pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.dnswire import Message, QClass, QType, RCode, make_query
from repro.net.addr import parse_ip

from .measurement import MeasurementClient
from .probe import ProbeSpec
from .scenario import Scenario, build_scenario


@dataclass(frozen=True)
class MeasurementDefinition:
    """One Atlas-style DNS measurement."""

    msm_id: int
    target: str  # resolver address the probes query
    qname: str
    qtype: int = QType.A
    qclass: int = QClass.IN
    description: str = ""

    @property
    def family(self) -> int:
        return parse_ip(self.target).version

    def build_query(self, rng: Optional[random.Random] = None) -> Message:
        return make_query(self.qname, self.qtype, self.qclass, rng=rng)


@dataclass(frozen=True)
class MeasurementRow:
    """One probe's result for one measurement (Atlas result-row style)."""

    msm_id: int
    probe_id: int
    timestamp_ms: float
    rt_ms: Optional[float]
    rcode: Optional[str]
    answers: tuple[str, ...] = ()
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.error is None and self.rcode is not None


class Campaign:
    """A set of measurement definitions scheduled over probe specs."""

    def __init__(self, definitions: Iterable[MeasurementDefinition]) -> None:
        self.definitions = list(definitions)
        ids = [d.msm_id for d in self.definitions]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate msm_id in campaign")

    def run_on_scenario(
        self, scenario: Scenario, rng: Optional[random.Random] = None
    ) -> list[MeasurementRow]:
        """Run every definition from one built scenario."""
        client = MeasurementClient(scenario.network, scenario.host)
        rows: list[MeasurementRow] = []
        for definition in self.definitions:
            if client.host.address_for_family(definition.family) is None:
                rows.append(
                    MeasurementRow(
                        msm_id=definition.msm_id,
                        probe_id=scenario.spec.probe_id,
                        timestamp_ms=scenario.network.now,
                        rt_ms=None,
                        rcode=None,
                        error="address-family-unavailable",
                    )
                )
                continue
            exchange = client.exchange(
                definition.target, definition.build_query(rng=rng)
            )
            if exchange.response is None:
                rows.append(
                    MeasurementRow(
                        msm_id=definition.msm_id,
                        probe_id=scenario.spec.probe_id,
                        timestamp_ms=scenario.network.now,
                        rt_ms=None,
                        rcode=None,
                        error="timeout",
                    )
                )
                continue
            answers = tuple(
                exchange.response.txt_strings()
                + exchange.response.a_addresses()
                + exchange.response.aaaa_addresses()
            )
            rows.append(
                MeasurementRow(
                    msm_id=definition.msm_id,
                    probe_id=scenario.spec.probe_id,
                    timestamp_ms=scenario.network.now,
                    rt_ms=exchange.rtt_ms,
                    rcode=RCode.label(exchange.response.rcode),
                    answers=answers,
                )
            )
        return rows

    def _measure_probe(self, spec: ProbeSpec) -> list[MeasurementRow]:
        scenario = build_scenario(spec)
        rng = random.Random(spec.probe_id * 31 + 7)
        return self.run_on_scenario(scenario, rng=rng)

    def run(
        self,
        specs: Iterable[ProbeSpec],
        progress: Optional[Callable[[int], None]] = None,
    ) -> list[MeasurementRow]:
        """Run the campaign across a fleet (offline probes yield no rows,
        like probes that never picked the measurement up)."""
        rows: list[MeasurementRow] = []
        for index, spec in enumerate(specs):
            if not spec.online:
                continue
            rows.extend(self._measure_probe(spec))
            if progress is not None:
                progress(index + 1)
        return rows
