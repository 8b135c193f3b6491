"""Interception policies: what a middlebox does to port-53 traffic.

The pilot study observed several distinct interceptor behaviours
(§4.1.1-4.1.2), all expressible as one policy object:

- intercept **all** public resolvers, or only a subset (Google and
  Cloudflare were targeted more often than Quad9/OpenDNS);
- **allow** exactly one resolver and hijack the rest (deliberate
  single-resolver deployments, e.g. for malware filtering);
- redirect transparently (**REDIRECT**), answer errors (**BLOCK** — the
  SERVFAIL/NOTIMP/REFUSED cases of Figure 3), drop silently (**DROP**),
  or forward *and* answer (**REPLICATE**, per Liu et al.);
- intercept one or both address families (IPv6 interception was rare:
  Table 4 found no probe intercepted on all four resolvers over IPv6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.dnswire import RCode
from repro.net import Packet, is_bogon
from repro.net.addr import IPAddress, parse_ip

from .encrypted import EncryptedDnsPolicy


class InterceptMode(enum.Enum):
    REDIRECT = "redirect"  # hijack to the alternate resolver, spoof replies
    BLOCK = "block"  # answer an error status (spoofed source)
    DROP = "drop"  # discard: the client sees a timeout
    REPLICATE = "replicate"  # forward the original AND inject an answer


def _freeze(addresses) -> Optional[FrozenSet[IPAddress]]:
    if addresses is None:
        return None
    return frozenset(parse_ip(a) for a in addresses)


@dataclass(frozen=True)
class InterceptionPolicy:
    """Which packets an interceptor acts on, and how.

    ``targets=None`` means every UDP/53 destination; otherwise only the
    listed resolver addresses are hijacked. ``allowed`` addresses are
    never touched (the "only one resolver allowed" pattern). Policies
    that don't ``intercept_bogons`` let queries to unroutable space die
    normally — the ambiguity §3.3 acknowledges.
    """

    mode: InterceptMode = InterceptMode.REDIRECT
    families: FrozenSet[int] = frozenset({4})
    targets: Optional[FrozenSet[IPAddress]] = None
    allowed: FrozenSet[IPAddress] = frozenset()
    block_rcode: int = RCode.REFUSED
    intercept_bogons: bool = True
    #: Whether the interceptor terminates DNS-over-TLS (port 853)
    #: sessions too. Even then it can only fool the *opportunistic*
    #: privacy profile — it cannot present the target's certificate, so
    #: strict-profile clients reject the hijacked session (§6).
    intercept_dot: bool = False
    #: Per-protocol encrypted-DNS treatment (block / downgrade-to-53 /
    #: pass-through, optionally per-SNI). None means the policy has no
    #: opinion about encrypted transports beyond ``intercept_dot``.
    encrypted: "Optional[EncryptedDnsPolicy]" = None
    #: Whether the policy acts on plaintext port-53 traffic at all.
    #: ``False`` models an encrypted-only middlebox (terminates DoT/DoH/
    #: DoQ sessions, leaves Do53 untouched) — invisible to the plaintext
    #: locator, caught by certificate cross-validation.
    plaintext: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", frozenset(self.families))
        object.__setattr__(self, "targets", _freeze(self.targets))
        object.__setattr__(self, "allowed", _freeze(self.allowed) or frozenset())

    def matches(self, packet: Packet) -> bool:
        """Should this policy act on ``packet`` (a UDP/53 query)?"""
        if packet.family not in self.families:
            return False
        if packet.dst in self.allowed:
            return False
        if is_bogon(packet.dst):
            return self.intercept_bogons
        if self.targets is not None and packet.dst not in self.targets:
            return False
        return True

    @classmethod
    def build(
        cls,
        mode: InterceptMode = InterceptMode.REDIRECT,
        match=None,
        exempt=None,
        families: "frozenset[int] | set[int]" = frozenset({4}),
        intercept_bogons: bool = True,
        block_rcode: int = RCode.REFUSED,
        intercept_dot: bool = False,
        encrypted: "Optional[EncryptedDnsPolicy]" = None,
        plaintext: bool = True,
    ) -> "InterceptionPolicy":
        """One constructor for every observed policy shape.

        ``match=None`` hijacks every resolver (the old
        ``intercept_all``); ``match=addresses`` hijacks only those
        (``intercept_only``); ``exempt=addresses`` spares them while
        hijacking the rest (``allow_only``). ``match`` and ``exempt``
        compose: a policy may target a subset while exempting part of it.
        """
        return cls(
            mode=mode,
            families=frozenset(families),
            targets=None if match is None else frozenset(parse_ip(t) for t in match),
            allowed=frozenset(parse_ip(a) for a in exempt) if exempt else frozenset(),
            intercept_bogons=intercept_bogons,
            block_rcode=block_rcode,
            intercept_dot=intercept_dot,
            encrypted=encrypted,
            plaintext=plaintext,
        )


def intercept_all(
    mode: InterceptMode = InterceptMode.REDIRECT,
    families: "frozenset[int] | set[int]" = frozenset({4}),
    intercept_bogons: bool = True,
    block_rcode: int = RCode.REFUSED,
) -> InterceptionPolicy:
    """The common case: hijack every outbound DNS query.

    Delegates to :meth:`InterceptionPolicy.build` with no ``match``.
    """
    return InterceptionPolicy.build(
        mode=mode,
        families=families,
        intercept_bogons=intercept_bogons,
        block_rcode=block_rcode,
    )


def intercept_only(
    targets,
    mode: InterceptMode = InterceptMode.REDIRECT,
    families: "frozenset[int] | set[int]" = frozenset({4}),
    intercept_bogons: bool = True,
) -> InterceptionPolicy:
    """Hijack only the listed resolver addresses (e.g. just Google DNS).

    Delegates to :meth:`InterceptionPolicy.build` with ``match=targets``.
    """
    return InterceptionPolicy.build(
        mode=mode,
        match=targets,
        families=families,
        intercept_bogons=intercept_bogons,
    )


def allow_only(
    allowed,
    mode: InterceptMode = InterceptMode.REDIRECT,
    families: "frozenset[int] | set[int]" = frozenset({4}),
    intercept_bogons: bool = True,
) -> InterceptionPolicy:
    """Hijack everything except the listed resolver addresses.

    Delegates to :meth:`InterceptionPolicy.build` with ``exempt=allowed``.
    """
    return InterceptionPolicy.build(
        mode=mode,
        exempt=allowed,
        families=families,
        intercept_bogons=intercept_bogons,
    )
