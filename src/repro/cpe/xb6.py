"""The Arris/Technicolor XB6 gateway — the paper's §5 case study.

The XB6 (and its successor XB7) is a DOCSIS gateway designed by Comcast,
manufactured by Arris and Technicolor, and rented to customers by many
ISPs (Comcast, Shaw, Vodafone, Liberty Global, ...). It runs RDK-B, the
Reference Design Kit for Broadband, whose DNS component — **XDNS**
("Xfinity DNS", CcspXDNS) — can redirect DNS with a firewall DNAT rule.
The feature exists to implement opt-in malware filtering; the paper found
units where a bug left the redirection on for *all* queries, silently
overriding the user's resolver choice.

The gateway is built like any other CPE, from
:func:`~repro.cpe.firmware.xb6_profile`: the same PREROUTING rule shape
as RDK-B's ``firewall.c``, the XDNS forwarder answering ``version.bind``,
and the spoofed-source reply that makes the hijack invisible to the
client. This module describes an XB6's interception state for
``repro case-study``.
"""

from __future__ import annotations

from .device import CpeDevice

#: The RDK-B firewall source the paper cites (CcspUtopia firewall.c).
RDKB_FIREWALL_EXCERPT = """\
# RDK-B (CcspUtopia) source/firewall/firewall.c — DNS redirection,
# as generated on an affected XB6 (paraphrased):
#   iptables -t nat -A PREROUTING -i brlan0 -p udp --dport 53 \\
#       -j DNAT --to-destination <gateway-ip>
#   iptables -t nat -A PREROUTING -i brlan0 -p tcp --dport 53 \\
#       -j DNAT --to-destination <gateway-ip>
# Every DNS packet entering from the LAN bridge is rewritten to the
# gateway itself, where the XDNS forwarder relays it to the ISP resolver."""


def describe_mechanism(device: CpeDevice) -> str:
    """Human-readable description of an XB6's interception state."""
    lines = [
        f"Model: {device.model} (RDK-B / XDNS)",
        f"WAN address: {device.wan_v4}",
        f"LAN gateway: {device.lan_gateway_v4}",
        f"Intercepting IPv4: {device.intercepts_family(4)}",
        f"Intercepting IPv6: {device.intercepts_family(6)}",
        "",
        RDKB_FIREWALL_EXCERPT,
        "",
        "Active PREROUTING chain:",
        device.render_firewall(),
    ]
    if device.forwarder is not None:
        lines.append("")
        lines.append(
            f"XDNS forwarder: {device.forwarder.software.label}, "
            f"upstream {device.forwarder.upstream_v4}"
        )
    return "\n".join(lines)
