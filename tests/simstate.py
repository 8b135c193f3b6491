"""Test-side views of simulator state that the measurement pipeline never reads.

Tests use these to plant packets and to look inside the event queue, the
link table, the trace buffer and the relays' pending tables. They read the
same private state the simulator keeps, so they need no hook in ``src/``.
"""

from functools import partial
from typing import Optional

from repro.dnswire import Message
from repro.dnswire.chaosnames import ID_SERVER, make_chaos_query
from repro.net import Host, Network, Packet
from repro.net.addr import parse_ip
from repro.net.impairment import LinkProfile
from repro.net.trace import TraceEvent, TraceRecorder


def inject(network: Network, at: str, packet: Packet, delay_ms: float = 0.0) -> None:
    """Deliver ``packet`` straight to node ``at`` after ``delay_ms``."""
    network.schedule(delay_ms, partial(network.nodes[at].receive, packet))


def pending_events(network: Network) -> int:
    return len(network._queue)


def are_connected(network: Network, a: str, b: str) -> bool:
    return (a, b) in network._links


def link_profile(network: Network, a: str, b: str) -> Optional[LinkProfile]:
    """The profile active on link direction ``a -> b``, if any."""
    state = network._impaired.get((a, b))
    return None if state is None else state.profile


def add_address(host: Host, address: str) -> None:
    host._addresses.add(parse_ip(address))
    host.invalidate_addresses()


def trace_events(
    recorder: TraceRecorder, node: Optional[str] = None, action: Optional[str] = None
) -> list[TraceEvent]:
    return [
        event
        for event in recorder.events
        if (node is None or event.node == node)
        and (action is None or event.action == action)
    ]


def make_id_server_query(msg_id: Optional[int] = None) -> Message:
    return make_chaos_query(ID_SERVER, msg_id=msg_id)


def cached_scenarios(cache) -> int:
    """Scenarios a :class:`~repro.atlas.scenario.ScenarioCache` holds."""
    return len(cache._cache)
