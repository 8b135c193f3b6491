"""The network simulator core: nodes, links, and the event loop.

The simulator is a discrete-event system with a millisecond clock. Nodes
exchange immutable :class:`~repro.net.packet.Packet` objects over links
with configurable latency. Forwarding decisions live in the nodes
themselves (hosts, routers, CPE, middleboxes); the network only moves
packets between adjacent nodes and keeps time.

Determinism: given the same topology and the same sequence of
``send``/``run`` calls, the event order is fully reproducible (ties in
the event queue are broken by a sequence number, never by object ids).
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Callable, Optional

from .addr import IPAddress, parse_ip
from .impairment import (
    ImpairedLink,
    LinkProfile,
    duplicate_spacing_ms,
    truncate_cut,
)
from .packet import Packet
from .trace import TraceRecorder

#: Default one-way link latency in milliseconds.
DEFAULT_LATENCY_MS = 1.0
#: Default bound on how many *new* events a single ``run`` call may
#: schedule. A self-sustaining loop (each event arming the next) grows
#: this without bound and trips; a large pre-scheduled batch does not.
MAX_EVENTS_PER_RUN = 1_000_000


class SimulationError(RuntimeError):
    """Raised on topology or event-loop misuse."""


def _drop_reason(detail: str) -> str:
    """Collapse a free-form drop detail into a low-cardinality metric
    label: digits stripped (port numbers vary per probe), spaces dashed.
    Only runs when metrics are enabled, and only on the drop path."""
    reason = "".join(c for c in detail if not c.isdigit())
    reason = reason.replace(":", "").strip().replace(" ", "-")
    return reason or "unspecified"


class Node:
    """Base class for everything attached to the network."""

    def __init__(self, name: str, asn: Optional[int] = None) -> None:
        self.name = name
        self.asn = asn
        self.network: Optional["Network"] = None
        self._addresses: set[IPAddress] = set()
        # Lazily built frozenset of addresses() for per-packet delivery
        # checks; anything that changes a node's addresses must call
        # invalidate_addresses to reset it.
        self._addr_cache: Optional[frozenset] = None

    # -- wiring -----------------------------------------------------------

    def attached(self, network: "Network") -> None:
        """Called when the node joins a network."""
        self.network = network

    def addresses(self) -> set[IPAddress]:
        """Addresses owned by this node (local delivery targets)."""
        return set(self._addresses)

    def set_addresses(self, addresses: "list[str | IPAddress]") -> None:
        """Replace the node's addresses."""
        self._addresses = {parse_ip(a) for a in addresses}
        self.invalidate_addresses()

    def invalidate_addresses(self) -> None:
        """Drop the cached address set after an addressing change."""
        self._addr_cache = None

    def reset(self) -> None:
        """Drop the state one probe left behind, for scenario reuse.
        Default: a node that keeps none."""

    def cached_addresses(self) -> frozenset:
        """``addresses()`` as a cached frozenset for per-packet checks."""
        cache = self._addr_cache
        if cache is None:
            cache = self._addr_cache = frozenset(self.addresses())
        return cache

    # -- packet handling ----------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Entry point for a packet arriving at this node."""
        cache = self._addr_cache
        if cache is None:
            cache = self._addr_cache = frozenset(self.addresses())
        if packet.dst in cache:
            self.deliver_local(packet)
        else:
            self.forward(packet)

    def deliver_local(self, packet: Packet) -> None:
        """Handle a packet addressed to this node. Default: drop."""
        self.trace("drop", packet, "no local handler")

    def forward(self, packet: Packet) -> None:
        """Handle a transit packet. Default: drop (end hosts don't route)."""
        self.trace("drop", packet, "not a router")

    # -- helpers -------------------------------------------------------------

    def send(self, next_hop: str, packet: Packet) -> None:
        """Hand ``packet`` to the adjacent node ``next_hop``."""
        if self.network is None:
            raise SimulationError(f"{self.name} is not attached to a network")
        self.network.transmit(self.name, next_hop, packet)

    @property
    def observing(self) -> bool:
        """True when this node's network records trace events or metrics.

        Per-packet call sites check it before formatting a trace detail,
        so an unobserved run never builds strings nobody records.
        """
        network = self.network
        return network is not None and network.observing

    def trace(self, action: str, packet: Packet, detail: str = "") -> None:
        network = self.network
        if network is not None and network.observing:
            if action == "drop" and network.metrics.enabled:
                network.metrics.inc("sim.drops." + _drop_reason(detail))
            network.recorder.record(
                network.now, self.name, action, packet, detail
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Network:
    """Node registry, link table and discrete-event loop."""

    def __init__(
        self,
        trace: bool = False,
        loss_seed: "int | str" = 0,
        impairment: Optional[LinkProfile] = None,
        max_events_per_run: int = MAX_EVENTS_PER_RUN,
    ) -> None:
        # Imported lazily: repro.core pulls in the measurement stack,
        # which imports repro.net — a cycle at module-import time, but
        # not by the time a Network is actually constructed.
        from repro.core.metrics import active_registry

        #: The metrics registry this network reports into, captured at
        #: construction (see :func:`repro.core.metrics.use_registry`).
        #: Defaults to the no-op registry: the hot path pays one empty
        #: method call per hook when instrumentation is off.
        self.metrics = active_registry()
        self.nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], float] = {}
        #: Link latencies pre-quantised to integer µs for the transmit
        #: fast path (parallel to ``_links``, which stays in float ms as
        #: the public unit).
        self._latency_us: dict[tuple[str, str], int] = {}
        #: Per-direction impairment state, null profiles included.
        self._impaired: dict[tuple[str, str], ImpairedLink] = {}
        #: The directions of ``_impaired`` whose profile can draw; empty
        #: on unimpaired and null-profile networks, so the ``transmit``
        #: fast path is one falsy-dict check.
        self._drawing: dict[tuple[str, str], ImpairedLink] = {}
        #: (a, b, profile) in install order, for deterministic stream
        #: re-derivation by ``reset_events``.
        self._profile_installs: list[tuple[str, str, LinkProfile]] = []
        #: Pending events as a binary heap of ``(time_us, seq, fn, arg)``
        #: entries, ordered strictly by ``(time_us, seq)``; ``seq`` is
        #: unique, so comparisons never reach the callable.
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        #: Simulation clock in integer microseconds; ``now`` presents it
        #: in float milliseconds, the public unit.
        self._now_us = 0
        if max_events_per_run <= 0:
            raise SimulationError(
                f"max_events_per_run must be positive: {max_events_per_run}"
            )
        self.max_events_per_run = max_events_per_run
        self._in_run = False
        self._run_scheduled = 0
        self.recorder = TraceRecorder(enabled=trace)
        #: Seed source for link impairments: each profile install draws
        #: one token from it, and every link direction then draws from
        #: its own stream derived from that token (see
        #: :mod:`repro.net.impairment`). Nothing draws from it per packet.
        self.loss_rng = random.Random(loss_seed)
        if impairment is not None and not isinstance(impairment, LinkProfile):
            raise SimulationError(
                f"impairment must be a LinkProfile, got {type(impairment).__name__}"
            )
        #: Network-wide default profile applied by ``connect`` when no
        #: per-link profile is given.
        self.default_impairment = impairment

    @property
    def now(self) -> float:
        """Simulation time in milliseconds (float view of the µs clock)."""
        return self._now_us / 1000.0

    @now.setter
    def now(self, value: float) -> None:
        self._now_us = round(value * 1000)

    @property
    def observing(self) -> bool:
        """True when tracing or metrics can see this network's events.

        Hot paths consult this before building trace detail strings, so
        an unobserved run pays neither the formatting nor the record
        calls. A property (not a cached flag) because tests flip
        ``recorder.enabled`` mid-run.
        """
        return self.recorder.enabled or self.metrics.enabled

    # -- topology -----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise SimulationError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        node.attached(self)
        node.invalidate_addresses()
        return node

    def connect(
        self,
        a: str,
        b: str,
        latency_ms: float = DEFAULT_LATENCY_MS,
        profile: Optional[LinkProfile] = None,
    ) -> None:
        """Create a bidirectional link between nodes ``a`` and ``b``.

        ``profile`` attaches a :class:`LinkProfile` (loss, duplication,
        reordering, jitter, corruption, truncation) to both directions;
        when omitted, the network-wide default passed to
        ``Network(impairment=...)`` applies. Each direction gets its own
        RNG stream derived from the network's seeded ``loss_rng`` so
        runs stay reproducible.
        """
        for name in (a, b):
            if name not in self.nodes:
                raise SimulationError(f"unknown node: {name}")
        self._links[(a, b)] = latency_ms
        self._links[(b, a)] = latency_ms
        latency_us = round(latency_ms * 1000)
        self._latency_us[(a, b)] = latency_us
        self._latency_us[(b, a)] = latency_us
        effective = profile if profile is not None else self.default_impairment
        if effective is not None:
            self._install_profile(a, b, effective)

    def set_link_profile(
        self, a: str, b: str, profile: Optional[LinkProfile]
    ) -> None:
        """Attach ``profile`` to an existing link (both directions), or
        clear its impairments with ``None``: fault injection after
        topology build. Either endpoint order names the same link.
        """
        if (a, b) not in self._links:
            raise SimulationError(f"no link {a} <-> {b}")
        if profile is None:
            for direction in ((a, b), (b, a)):
                self._impaired.pop(direction, None)
                self._drawing.pop(direction, None)
            self._forget_installs(a, b)
            return
        if not isinstance(profile, LinkProfile):
            raise SimulationError(
                f"profile must be a LinkProfile, got {type(profile).__name__}"
            )
        self._install_profile(a, b, profile)

    def _install_profile(self, a: str, b: str, profile: LinkProfile) -> None:
        """Install ``profile`` on both directions with dedicated RNG
        streams. The seed token is drawn from ``loss_rng`` once per
        install, so distinct links (and distinct ``loss_seed`` values)
        get independent, reproducible impairment schedules."""
        self._forget_installs(a, b)
        self._profile_installs.append((a, b, profile))
        self._derive_streams(a, b, profile)

    def _forget_installs(self, a: str, b: str) -> None:
        """Drop the recorded installs of link ``a <-> b``, whichever
        endpoint order they were made in, so ``reset_events`` cannot
        re-install a profile that was since replaced or cleared."""
        self._profile_installs = [
            entry
            for entry in self._profile_installs
            if entry[:2] != (a, b) and entry[:2] != (b, a)
        ]

    def _derive_streams(self, a: str, b: str, profile: LinkProfile) -> None:
        """Give both directions of ``a <-> b`` their own stream, derived
        from one fresh ``loss_rng`` token."""
        token = self.loss_rng.getrandbits(64)
        drawing = not profile.is_null
        for direction in ((a, b), (b, a)):
            link = self._impaired[direction] = ImpairedLink(profile, token, *direction)
            if drawing:
                self._drawing[direction] = link
            else:
                self._drawing.pop(direction, None)

    def latency(self, a: str, b: str) -> float:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise SimulationError(f"no link {a} <-> {b}") from None

    # -- event loop ---------------------------------------------------------

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> None:
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        if not math.isfinite(delay_ms):
            # NaN slips past the < 0 check (it compares false to
            # everything) and then poisons event ordering; inf parks an
            # event the loop can never reach. Both are caller bugs.
            raise SimulationError(f"non-finite delay: {delay_ms}")
        self._schedule_us(round(delay_ms * 1000), action, None)

    def _schedule_us(
        self, delay_us: int, fn: Callable, arg: Optional[Packet]
    ) -> None:
        """Internal enqueue with a pre-quantised integer-µs delay.

        ``fn`` is called with ``arg`` unless ``arg`` is None — passing
        the packet through the entry avoids a closure allocation per
        transmitted packet.
        """
        if self._in_run:
            self._run_scheduled += 1
        heapq.heappush(
            self._queue, (self._now_us + delay_us, next(self._seq), fn, arg)
        )

    def transmit(self, sender: str, receiver: str, packet: Packet) -> None:
        """Move ``packet`` from ``sender`` to adjacent ``receiver``."""
        if self._drawing:
            state = self._drawing.get((sender, receiver))
            if state is not None:
                self._transmit_impaired(
                    sender, receiver, packet, self.latency(sender, receiver), state
                )
                return
        try:
            latency_us = self._latency_us[(sender, receiver)]
        except KeyError:
            raise SimulationError(f"no link {sender} <-> {receiver}") from None
        if self.observing:
            self.metrics.inc("sim.link_transits")
            self.recorder.record(self.now, sender, "send", packet, f"-> {receiver}")
        self._schedule_us(latency_us, self.nodes[receiver].receive, packet)

    def _transmit_impaired(
        self,
        sender: str,
        receiver: str,
        packet: Packet,
        latency: float,
        state: ImpairedLink,
    ) -> None:
        """Apply ``state.profile`` to one transmission.

        Draw order is fixed — loss, corrupt, truncate, duplicate, then
        per-copy jitter and reorder — and a draw only happens when the
        corresponding rate is non-zero, so each link's RNG stream is a
        stable function of the traffic that crossed it (the determinism
        contract in :mod:`repro.net.impairment`).
        """
        profile = state.profile
        rng = state.rng
        observing = self.observing
        if profile.loss and rng.random() < profile.loss:
            if observing:
                self.metrics.inc("net.impair.dropped")
                self.metrics.inc("sim.drops.link-loss")
                self.recorder.record(
                    self.now, sender, "drop", packet, f"link loss -> {receiver}"
                )
            return
        if profile.corrupt and rng.random() < profile.corrupt:
            # Bit damage fails the receiver's UDP checksum, so a
            # corrupted datagram is a drop counted under its own name.
            if observing:
                self.metrics.inc("net.impair.corrupted")
                self.recorder.record(
                    self.now, sender, "drop", packet, f"corrupted -> {receiver}"
                )
            return
        if (
            profile.truncate
            and packet.udp is not None
            and packet.udp.payload
            and rng.random() < profile.truncate
        ):
            packet = packet.truncated(truncate_cut(rng, len(packet.udp.payload)))
            if observing:
                self.metrics.inc("net.impair.truncated")
                self.recorder.record(
                    self.now, sender, "mangle", packet, f"truncated -> {receiver}"
                )
        copies = 1
        if profile.duplicate and rng.random() < profile.duplicate:
            copies = 2
            if observing:
                self.metrics.inc("net.impair.duplicated")
        node = self.nodes[receiver]
        for copy_index in range(copies):
            delay = latency + copy_index * duplicate_spacing_ms()
            if profile.jitter_ms:
                delay += profile.draw_jitter(rng)
            if profile.reorder and rng.random() < profile.reorder:
                delay += rng.uniform(0.0, profile.reorder_window_ms)
                if observing:
                    self.metrics.inc("net.impair.reordered")
            if observing:
                self.metrics.inc("sim.link_transits")
                detail = f"-> {receiver}" + (" (dup)" if copy_index else "")
                self.recorder.record(self.now, sender, "send", packet, detail)
            self._schedule_us(round(delay * 1000), node.receive, packet)

    def run(self, until: Optional[float] = None) -> int:
        """Process events (up to simulated time ``until``); return count.

        The runaway guard bounds *queue growth*: events scheduled while
        the loop spins (a self-feeding loop grows this forever) rather
        than a flat per-call event count (which a single legitimately
        large pre-scheduled batch would trip).
        """
        queue = self._queue
        pop = heapq.heappop
        limit_us = None if until is None else round(until * 1000)
        budget = self.max_events_per_run
        processed = 0
        self._run_scheduled = 0
        self._in_run = True
        try:
            while queue and (limit_us is None or queue[0][0] <= limit_us):
                time_us, _seq, fn, arg = pop(queue)
                if time_us > self._now_us:
                    self._now_us = time_us
                if arg is None:
                    fn()
                else:
                    fn(arg)
                processed += 1
                if self._run_scheduled > budget:
                    raise SimulationError("event-loop runaway (routing loop?)")
        finally:
            self._in_run = False
        if limit_us is not None and limit_us > self._now_us:
            self._now_us = limit_us
        if processed:
            self.metrics.inc("sim.events_dispatched", processed)
        return processed

    # -- per-probe reuse ----------------------------------------------------

    def reset_events(self, loss_seed: "int | str") -> None:
        """Return the event loop to its just-built state, seeded with
        ``loss_seed``: how a scenario, fresh or reused, is homed.

        Clears the queue, clock, sequence counter, trace buffer and any
        host of leftover events; re-captures the ambient metrics registry
        (store segments swap registries between probes); reseeds
        ``loss_rng`` and re-derives every impairment stream in the
        original install order, so a reused network's impairment
        schedule is identical to a freshly built one's.
        """
        from repro.core.metrics import active_registry

        self.metrics = active_registry()
        self._queue.clear()
        self._seq = itertools.count()
        self._now_us = 0
        self._in_run = False
        self._run_scheduled = 0
        self.recorder.clear()
        self.loss_rng = random.Random(loss_seed)
        if self._profile_installs:
            self._impaired.clear()
            self._drawing.clear()
            for a, b, profile in self._profile_installs:
                self._derive_streams(a, b, profile)
