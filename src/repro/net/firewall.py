"""A small iptables-flavoured firewall: match rules with actions.

The XB6 case study (§5) identified the interception mechanism in the
RDK-B firmware's firewall configuration (``firewall.c`` in CcspUtopia):
a PREROUTING DNAT rule that rewrites the destination of all UDP/53
traffic to the gateway's own resolver. This module models just enough of
that machinery — ordered rules, first match wins, ACCEPT / DROP / DNAT
actions — for the CPE models to express their behaviour the way the real
firmware does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .addr import IPAddress, IPNetwork, parse_ip
from .packet import Packet, Protocol


class Action(enum.Enum):
    ACCEPT = "ACCEPT"
    DROP = "DROP"
    DNAT = "DNAT"


@dataclass(frozen=True)
class Match:
    """Packet match criteria; ``None`` fields match anything."""

    protocol: Optional[Protocol] = None
    dport: Optional[int] = None
    sport: Optional[int] = None
    dst: Optional[IPNetwork] = None
    src: Optional[IPNetwork] = None
    family: Optional[int] = None

    def matches(self, packet: Packet) -> bool:
        if self.family is not None and packet.family != self.family:
            return False
        if self.protocol is not None and packet.protocol is not self.protocol:
            return False
        if self.protocol is Protocol.UDP or packet.protocol is Protocol.UDP:
            udp = packet.udp
            if self.dport is not None and (udp is None or udp.dport != self.dport):
                return False
            if self.sport is not None and (udp is None or udp.sport != self.sport):
                return False
        if self.dst is not None and packet.dst not in self.dst:
            return False
        if self.src is not None and packet.src not in self.src:
            return False
        return True


@dataclass(frozen=True)
class Rule:
    """One firewall rule: match -> action (+ DNAT rewrite target)."""

    match: Match
    action: Action
    dnat_to: Optional[IPAddress] = None
    dnat_port: Optional[int] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.action is Action.DNAT and self.dnat_to is None:
            raise ValueError("DNAT rule requires dnat_to")

    def render(self) -> str:
        """iptables-ish presentation, for traces and the case study."""
        parts = []
        if self.match.protocol is not None:
            parts.append(f"-p {self.match.protocol.value}")
        if self.match.dport is not None:
            parts.append(f"--dport {self.match.dport}")
        if self.match.dst is not None:
            parts.append(f"-d {self.match.dst}")
        parts.append(f"-j {self.action.value}")
        if self.action is Action.DNAT:
            target = str(self.dnat_to)
            if self.dnat_port is not None:
                target += f":{self.dnat_port}"
            parts.append(f"--to-destination {target}")
        if self.comment:
            parts.append(f"# {self.comment}")
        return " ".join(parts)


@dataclass(frozen=True)
class Verdict:
    """Result of running a packet through a chain."""

    action: Action
    packet: Packet
    rule: Optional[Rule] = None


class Chain:
    """An ordered rule list, first match wins; default ACCEPT."""

    def __init__(self, name: str, default: Action = Action.ACCEPT) -> None:
        self.name = name
        self.default = default
        self.rules: list[Rule] = []

    def append(self, rule: Rule) -> None:
        if rule.action is Action.DNAT and self.name != "PREROUTING":
            raise ValueError("DNAT only makes sense in PREROUTING")
        self.rules.append(rule)

    def evaluate(self, packet: Packet) -> Verdict:
        for rule in self.rules:
            if rule.match.matches(packet):
                if rule.action is Action.DNAT:
                    rewritten = packet.with_dst(rule.dnat_to, dport=rule.dnat_port)
                    return Verdict(Action.DNAT, rewritten, rule)
                return Verdict(rule.action, packet, rule)
        return Verdict(self.default, packet, None)

    def render(self) -> str:
        lines = [f"Chain {self.name} (policy {self.default.value})"]
        lines.extend("  " + rule.render() for rule in self.rules)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rules)


def udp53_dnat_rule(
    target: "str | IPAddress", comment: str = "", dnat_port: Optional[int] = None
) -> Rule:
    """The signature XDNS rule: hijack *all* UDP/53 to ``target``.

    Mirrors the RDK-B firewall's ``-p udp --dport 53 -j DNAT
    --to-destination <gateway>`` PREROUTING entry.
    """
    target = parse_ip(target)
    return Rule(
        match=Match(protocol=Protocol.UDP, dport=53, family=target.version),
        action=Action.DNAT,
        dnat_to=target,
        dnat_port=dnat_port,
        comment=comment or "XDNS DNS redirection",
    )
