"""Encrypted-DNS policies: what an interceptor does to DoT/DoH/DoQ.

Plaintext Do53 gives an interceptor one choice per query (redirect,
block, drop, replicate — :class:`~repro.interceptors.policy.InterceptMode`).
Encrypted transports give it a different, coarser menu, because it
cannot read or rewrite the queries:

- **pass-through** — let the session run; the operator either does not
  care or cannot afford to break DoH (which shares port 443 with all
  other HTTPS traffic);
- **block** — drop the session packets; the client times out. The
  "block port 853 / block known resolver SNIs" pattern middleboxes
  deploy precisely because they cannot see inside;
- **downgrade-to-53** — terminate the session with the interceptor's
  own certificate and relay the query over plaintext UDP/53. The
  client gets an answer, but from a session whose identity is not the
  resolver it dialed: the strict profile refuses it, and only the
  opportunistic profile is silently downgraded.

Actions are chosen per protocol (the per-*port* half of the match: DoT
and DoQ live on 853, DoH hides on 443) and optionally restricted to a
set of dialed server names (the per-*SNI* half — the only signal a DoH
flow leaks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional


class EncryptedAction(enum.Enum):
    PASS = "pass-through"  # leave the session alone
    BLOCK = "block"  # drop session packets: the client times out
    DOWNGRADE = "downgrade-to-53"  # terminate + relay over plaintext 53


@dataclass(frozen=True)
class EncryptedDnsPolicy:
    """Per-protocol, optionally per-SNI, encrypted-DNS treatment.

    ``sni_targets=None`` applies the per-protocol action to every
    session; a frozenset of names restricts it to sessions dialing
    those names (anything else passes through untouched).
    """

    dot: EncryptedAction = EncryptedAction.PASS
    doh: EncryptedAction = EncryptedAction.PASS
    doq: EncryptedAction = EncryptedAction.PASS
    sni_targets: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if self.sni_targets is not None:
            object.__setattr__(self, "sni_targets", frozenset(self.sni_targets))

    def action_for(self, protocol: str, sni: Optional[str]) -> EncryptedAction:
        """The action for one session: ``protocol`` in ``('dot', 'doh',
        'doq')``, ``sni`` the server name the client dialed."""
        action = getattr(self, protocol, EncryptedAction.PASS)
        if action is EncryptedAction.PASS:
            return EncryptedAction.PASS
        if self.sni_targets is not None and sni not in self.sni_targets:
            return EncryptedAction.PASS
        return action


#: The do-nothing policy (every honest device's default).
PASS_THROUGH = EncryptedDnsPolicy()


def downgrade_all() -> EncryptedDnsPolicy:
    """Terminate and downgrade every encrypted transport to plaintext."""
    return EncryptedDnsPolicy(
        dot=EncryptedAction.DOWNGRADE,
        doh=EncryptedAction.DOWNGRADE,
        doq=EncryptedAction.DOWNGRADE,
    )


@dataclass(frozen=True)
class EncryptedQuery:
    """One encrypted-DNS query as an on-path box can see it.

    What a terminating proxy learns before deciding: the protocol (from
    port + framing), the dialed server name (SNI), and — once it
    terminates — the inner DNS bytes plus the framing detail it must
    echo on the way back (DoQ stream id, DoH method).
    """

    protocol: str  # "dot" | "doh" | "doq"
    sni: str
    dns_payload: bytes
    stream_id: int = 0
    method: str = "POST"


def parse_encrypted_query(payload: bytes, dport: int) -> Optional[EncryptedQuery]:
    """Classify one UDP payload on an encrypted-DNS port.

    Returns None when the payload is not an encrypted-DNS query frame
    (e.g. ordinary HTTPS traffic on 443, or a server->client frame).
    """
    from repro.net.doh import DOH_PORT, unwrap_doh_query
    from repro.net.doq import DOQ_PORT, is_doq_payload, unwrap_doq
    from repro.net.dot import DOT_PORT, is_dot_payload, unwrap_dot

    if dport == DOH_PORT:
        request = unwrap_doh_query(payload)
        if request is None:
            return None
        return EncryptedQuery(
            protocol="doh",
            sni=request.authority,
            dns_payload=request.dns_payload,
            method=request.method,
        )
    if dport == DOT_PORT:  # == DOQ_PORT: shared, magic disambiguates
        if is_doq_payload(payload):
            frame = unwrap_doq(payload)
            if frame is None:
                return None
            return EncryptedQuery(
                protocol="doq",
                sni=frame.server_identity,
                dns_payload=frame.dns_payload,
                stream_id=frame.stream_id,
            )
        if is_dot_payload(payload):
            dot_frame = unwrap_dot(payload)
            if dot_frame is None:
                return None
            return EncryptedQuery(
                protocol="dot",
                sni=dot_frame.server_identity,
                dns_payload=dot_frame.dns_payload,
            )
    return None


def wrap_encrypted_response(query: EncryptedQuery, wire: bytes, identity: str) -> bytes:
    """Re-frame ``wire`` as the response a terminating proxy presents.

    The framing mirrors the query (protocol, DoQ stream id) but the
    identity is the *proxy's* — a terminating box cannot forge the
    dialed resolver's certificate, which is exactly what strict-profile
    clients catch.
    """
    from repro.net.doh import wrap_doh_response
    from repro.net.doq import wrap_doq
    from repro.net.dot import wrap_dot

    if query.protocol == "doh":
        return wrap_doh_response(wire, identity)
    if query.protocol == "doq":
        return wrap_doq(wire, identity, query.stream_id)
    return wrap_dot(wire, identity)
