"""DNS server software personalities.

A *personality* describes how a piece of resolver software answers the
CHAOS-class debugging queries — most importantly ``version.bind``, whose
answer string is the fingerprint the paper's Step 2 compares (and whose
observed values are catalogued in Table 5: dnsmasq variants dominate,
followed by pi-hole builds, unbound, BIND packages, and a long tail of
oddities like ``huuh?``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.dnswire import RCode
from repro.values import shared_factory

from .ambiguity import DEFAULT_AMBIGUITY, AmbiguityProfile


class ChaosAction(enum.Enum):
    """How a server reacts to a given CHAOS debugging query."""

    ANSWER = "answer"  # return a TXT string locally
    RCODE = "rcode"  # return an error status locally
    FORWARD = "forward"  # pass the query upstream (forwarders only)
    IGNORE = "ignore"  # drop silently (client sees a timeout)


@dataclass(frozen=True)
class ChaosBehavior:
    """Reaction to one CHAOS query name."""

    action: ChaosAction
    text: Optional[str] = None
    rcode: int = RCode.NOTIMP

    @classmethod
    @shared_factory
    def answer(cls, text: str) -> "ChaosBehavior":
        return cls(ChaosAction.ANSWER, text=text)

    @classmethod
    @shared_factory
    def refuse(cls, rcode: int = RCode.REFUSED) -> "ChaosBehavior":
        return cls(ChaosAction.RCODE, rcode=rcode)

    @classmethod
    @shared_factory
    def notimp(cls) -> "ChaosBehavior":
        return cls(ChaosAction.RCODE, rcode=RCode.NOTIMP)

    @classmethod
    @shared_factory
    def nxdomain(cls) -> "ChaosBehavior":
        return cls(ChaosAction.RCODE, rcode=RCode.NXDOMAIN)

    @classmethod
    @shared_factory
    def forward(cls) -> "ChaosBehavior":
        return cls(ChaosAction.FORWARD)

    @classmethod
    @shared_factory
    def ignore(cls) -> "ChaosBehavior":
        return cls(ChaosAction.IGNORE)


@dataclass(frozen=True)
class ServerSoftware:
    """A named software personality.

    ``label`` is what shows up in measurement reports; ``family`` groups
    versions for Table 5 aggregation (e.g. every ``dnsmasq-2.x`` build has
    family ``dnsmasq-*``).
    """

    label: str
    family: str
    version_bind: ChaosBehavior
    id_server: ChaosBehavior = field(default_factory=ChaosBehavior.notimp)
    hostname_bind: ChaosBehavior = field(default_factory=ChaosBehavior.notimp)
    #: How this code base reacts to ambiguous queries (the fingerprint
    #: surface). The shared default is behaviour-neutral; curated
    #: profiles below are pairwise distinct so the ambiguity-probe
    #: engine can name the software from its reaction vector alone.
    ambiguity: AmbiguityProfile = DEFAULT_AMBIGUITY

    def describe(self) -> str:
        return self.label


# -- curated ambiguity profiles -------------------------------------------
#
# One per code base (version differences included where the real
# projects changed behaviour between releases). Pairwise distinctness
# across every personality the population can deploy is enforced by the
# fingerprint signature database at build time
# (:func:`repro.fingerprint.signature.build_signature_database`).

_DNSMASQ_AMBIGUITY = {
    "2.78": AmbiguityProfile(
        tc_query="formerr", multi_question="formerr",
        edns_unknown="strip", odd_opcode="notimp",
    ),
    "2.80": AmbiguityProfile(
        tc_query="formerr", multi_question="formerr",
        edns_unknown="strip", odd_opcode="refused",
    ),
    "2.85": AmbiguityProfile(
        tc_query="formerr", multi_question="formerr",
        edns_unknown="echo", odd_opcode="refused", overlap="first",
    ),
}

_PI_HOLE_AMBIGUITY = {
    "2.81": AmbiguityProfile(
        case="lower", tc_query="refused", multi_question="formerr",
        edns_unknown="strip", odd_opcode="refused", overlap="first",
    ),
    "2.84": AmbiguityProfile(
        case="lower", tc_query="refused", multi_question="formerr",
        edns_unknown="echo", odd_opcode="refused", overlap="first",
    ),
}

_UNBOUND_AMBIGUITY = {
    "1.9.0": AmbiguityProfile(
        tc_query="formerr", multi_question="notimp",
        edns_unknown="formerr", odd_opcode="notimp",
    ),
    "1.13.1": AmbiguityProfile(
        tc_query="formerr", multi_question="notimp",
        edns_unknown="strip", odd_opcode="notimp",
    ),
}

_QUIRKY_AMBIGUITY = {
    "new": AmbiguityProfile(
        tc_query="refused", multi_question="refused",
        edns_unknown="strip", odd_opcode="refused",
    ),
    "unknown": AmbiguityProfile(
        tc_query="refused", multi_question="refused",
        edns_unknown="strip", odd_opcode="notimp",
    ),
    "none": AmbiguityProfile(
        tc_query="refused", multi_question="refused",
        edns_unknown="echo", odd_opcode="refused",
    ),
    "huuh?": AmbiguityProfile(
        case="lower", tc_query="drop", multi_question="drop",
        edns_unknown="drop", odd_opcode="drop", overlap="first",
    ),
}


@shared_factory
def dnsmasq(version: str = "2.80") -> ServerSoftware:
    """Dnsmasq: the canonical CPE forwarder (thekelleys.org.uk).

    Dnsmasq answers ``version.bind`` locally with ``dnsmasq-<version>``
    and does not implement ``id.server``; unknown CHAOS queries are
    answered NXDOMAIN rather than forwarded.
    """
    return ServerSoftware(
        label=f"dnsmasq-{version}",
        family="dnsmasq-*",
        version_bind=ChaosBehavior.answer(f"dnsmasq-{version}"),
        id_server=ChaosBehavior.nxdomain(),
        hostname_bind=ChaosBehavior.nxdomain(),
        ambiguity=_DNSMASQ_AMBIGUITY.get(version, _DNSMASQ_AMBIGUITY["2.80"]),
    )


@shared_factory
def pi_hole(version: str = "2.81") -> ServerSoftware:
    """Pi-hole's bundled dnsmasq fork (FTL), a deliberate home interceptor."""
    return ServerSoftware(
        label=f"dnsmasq-pi-hole-{version}",
        family="dnsmasq-pi-hole-*",
        version_bind=ChaosBehavior.answer(f"dnsmasq-pi-hole-{version}"),
        id_server=ChaosBehavior.nxdomain(),
        hostname_bind=ChaosBehavior.nxdomain(),
        ambiguity=_PI_HOLE_AMBIGUITY.get(version, _PI_HOLE_AMBIGUITY["2.81"]),
    )


@shared_factory
def unbound(version: str = "1.9.0", identity: Optional[str] = None) -> ServerSoftware:
    """NLnet Labs Unbound.

    With ``identity`` set (unbound.conf's ``identity:`` option) the server
    answers ``id.server``/``hostname.bind`` with that string — the origin
    of Table 2's ``routing.v2.pw`` answer to a Cloudflare location query.
    """
    ident = (
        ChaosBehavior.answer(identity) if identity else ChaosBehavior.notimp()
    )
    return ServerSoftware(
        label=f"unbound {version}",
        family="unbound*",
        version_bind=ChaosBehavior.answer(f"unbound {version}"),
        id_server=ident,
        hostname_bind=ident,
        ambiguity=_UNBOUND_AMBIGUITY.get(version, _UNBOUND_AMBIGUITY["1.9.0"]),
    )


@shared_factory
def unbound_hidden(version: str = "1.9.0") -> ServerSoftware:
    """Unbound with ``hide-version: yes`` / ``hide-identity: yes``.

    Such resolvers answer the debugging queries with an error status
    instead of a string — the source of Table 3's NOTIMP rows for probe
    11992.
    """
    return ServerSoftware(
        label=f"unbound {version} (hidden)",
        family="unbound*",
        version_bind=ChaosBehavior.notimp(),
        id_server=ChaosBehavior.notimp(),
        hostname_bind=ChaosBehavior.notimp(),
        # hide-version also silences the TC edge case in this build.
        ambiguity=AmbiguityProfile(
            tc_query="drop", multi_question="notimp",
            edns_unknown="strip", odd_opcode="notimp",
        ),
    )


@shared_factory
def bind_redhat(version: str = "9.11.4-P2") -> ServerSoftware:
    return ServerSoftware(
        label=f"{version}-RedHat-{version}-26.P2.el7",
        family="*-RedHat",
        version_bind=ChaosBehavior.answer(f"{version}-RedHat-{version}-26.P2.el7"),
        id_server=ChaosBehavior.refuse(),
        hostname_bind=ChaosBehavior.refuse(),
        ambiguity=AmbiguityProfile(
            tc_query="formerr", multi_question="refused",
            edns_unknown="echo", odd_opcode="notimp",
        ),
    )


@shared_factory
def bind_debian(version: str = "9.11.5-P4") -> ServerSoftware:
    return ServerSoftware(
        label=f"{version}-5.1+deb10u5-Debian",
        family="*-Debian",
        version_bind=ChaosBehavior.answer(f"{version}-5.1+deb10u5-Debian"),
        id_server=ChaosBehavior.refuse(),
        hostname_bind=ChaosBehavior.refuse(),
        ambiguity=AmbiguityProfile(
            tc_query="formerr", multi_question="refused",
            edns_unknown="echo", odd_opcode="refused",
        ),
    )


@shared_factory
def bind_vanilla(version: str = "9.16.15") -> ServerSoftware:
    return ServerSoftware(
        label=version,
        family=version,
        version_bind=ChaosBehavior.answer(version),
        id_server=ChaosBehavior.refuse(),
        hostname_bind=ChaosBehavior.refuse(),
        ambiguity=AmbiguityProfile(
            tc_query="formerr", multi_question="refused",
            edns_unknown="echo", odd_opcode="formerr",
        ),
    )


@shared_factory
def powerdns(version: str = "4.1.11") -> ServerSoftware:
    return ServerSoftware(
        label=f"PowerDNS Recursor {version}",
        family="PowerDNS Recursor*",
        version_bind=ChaosBehavior.answer(f"PowerDNS Recursor {version}"),
        id_server=ChaosBehavior.refuse(),
        hostname_bind=ChaosBehavior.refuse(),
        ambiguity=AmbiguityProfile(
            tc_query="notimp", multi_question="formerr",
            edns_unknown="strip", odd_opcode="notimp",
        ),
    )


@shared_factory
def windows_ns() -> ServerSoftware:
    return ServerSoftware(
        label="Windows NS",
        family="Windows NS",
        version_bind=ChaosBehavior.answer("Windows NS"),
        id_server=ChaosBehavior.notimp(),
        hostname_bind=ChaosBehavior.notimp(),
        ambiguity=AmbiguityProfile(
            case="lower", tc_query="formerr", multi_question="refused",
            edns_unknown="strip", odd_opcode="notimp",
        ),
    )


@shared_factory
def microsoft() -> ServerSoftware:
    return ServerSoftware(
        label="Microsoft",
        family="Microsoft",
        version_bind=ChaosBehavior.answer("Microsoft"),
        id_server=ChaosBehavior.notimp(),
        hostname_bind=ChaosBehavior.notimp(),
        ambiguity=AmbiguityProfile(
            case="lower", tc_query="formerr", multi_question="refused",
            edns_unknown="strip", odd_opcode="refused",
        ),
    )


@shared_factory
def q9() -> ServerSoftware:
    """The ``Q9-U-6.6`` oddity from Table 5 (an embedded vendor build)."""
    return ServerSoftware(
        label="Q9-U-6.6",
        family="Q9-*",
        version_bind=ChaosBehavior.answer("Q9-U-6.6"),
        ambiguity=AmbiguityProfile(
            case="lower", tc_query="notimp", multi_question="notimp",
            edns_unknown="strip", odd_opcode="notimp", overlap="first",
        ),
    )


@shared_factory
def quirky(text: str) -> ServerSoftware:
    """Operator-configured oddball version strings ('new', 'huuh?', ...)."""
    return ServerSoftware(
        label=text,
        family=text,
        version_bind=ChaosBehavior.answer(text),
        id_server=ChaosBehavior.notimp(),
        hostname_bind=ChaosBehavior.notimp(),
        ambiguity=_QUIRKY_AMBIGUITY.get(
            text,
            AmbiguityProfile(
                tc_query="servfail", multi_question="servfail",
                edns_unknown="strip", odd_opcode="servfail",
            ),
        ),
    )


@shared_factory
def xdns(dnsmasq_version: str = "2.85") -> ServerSoftware:
    """XDNS, the RDK-B (XB6/XB7) gateway DNS component (CcspXDNS).

    XDNS is the management-plane component that installs the DNAT
    redirection; the data plane it steers is RDK-B's bundled dnsmasq, so
    the ``version.bind`` answer the client sees is a dnsmasq string —
    which is why XB6 interceptions land in Table 5's ``dnsmasq-*`` row.
    """
    # Same profile as plain dnsmasq of the same version: the data plane
    # *is* dnsmasq, so the ambiguity fingerprint (correctly) names it.
    return ServerSoftware(
        label=f"dnsmasq-{dnsmasq_version}",
        family="dnsmasq-*",
        version_bind=ChaosBehavior.answer(f"dnsmasq-{dnsmasq_version}"),
        id_server=ChaosBehavior.nxdomain(),
        hostname_bind=ChaosBehavior.nxdomain(),
        ambiguity=_DNSMASQ_AMBIGUITY.get(
            dnsmasq_version, _DNSMASQ_AMBIGUITY["2.80"]
        ),
    )


@shared_factory
def silent_forwarder() -> ServerSoftware:
    """A forwarder that answers no CHAOS query itself and relays them all.

    This is the §6 limitation case: a non-intercepting, open-port-53 CPE
    running such software *forwards* ``version.bind`` to its resolver,
    which can make Step 2 misclassify it as an interceptor.
    """
    return ServerSoftware(
        label="(no version.bind)",
        family="(forwards)",
        version_bind=ChaosBehavior.forward(),
        id_server=ChaosBehavior.forward(),
        hostname_bind=ChaosBehavior.forward(),
        ambiguity=AmbiguityProfile(
            tc_query="drop", multi_question="drop",
            edns_unknown="strip", odd_opcode="drop",
        ),
    )


@shared_factory
def mute() -> ServerSoftware:
    """Software that drops CHAOS debugging queries entirely."""
    return ServerSoftware(
        label="(mute)",
        family="(mute)",
        version_bind=ChaosBehavior.ignore(),
        id_server=ChaosBehavior.ignore(),
        hostname_bind=ChaosBehavior.ignore(),
    )


#: The Table 5 long tail, ready for the population generator.
QUIRKY_STRINGS = ("new", "unknown", "none", "huuh?")
