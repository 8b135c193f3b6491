"""Packet tracing: a capture of everything that happens on the wire.

The XB6 case study (§5 of the paper) hinges on *seeing the mechanism*:
the DNAT rewrite of a query addressed to 8.8.8.8 into a query addressed
to the ISP resolver, answered with a spoofed source. ``TraceRecorder``
captures per-hop events so examples and benchmarks can print exactly
that story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .packet import Packet


@dataclass(frozen=True)
class TraceEvent:
    """One observed event in the network."""

    time: float
    node: str
    action: str  # "send" | "forward" | "deliver" | "drop" | "rewrite" | "intercept"
    packet: Packet
    detail: str = ""

    def format(self) -> str:
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{self.time:8.3f}ms] {self.node:<22} {self.action:<9} {self.packet.describe()}{detail}"


class TraceRecorder:
    """Collects :class:`TraceEvent` records, up to ``limit`` of them."""

    def __init__(self, enabled: bool = True, limit: int = 100_000) -> None:
        self.enabled = enabled
        self.limit = limit
        self.events: list[TraceEvent] = []

    def record(
        self, time: float, node: str, action: str, packet: Packet, detail: str = ""
    ) -> None:
        if not self.enabled or len(self.events) >= self.limit:
            return
        self.events.append(TraceEvent(time, node, action, packet, detail))

    def clear(self) -> None:
        self.events.clear()

    def format(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        return "\n".join(event.format() for event in (events or self.events))

    def __len__(self) -> int:
        return len(self.events)
