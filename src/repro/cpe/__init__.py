"""``repro.cpe`` — customer-premises equipment models.

Home routers with NAT, embedded DNS forwarders, iptables-style DNAT
interception, declarative firmware profiles for fleet generation, and a
faithful model of the XB6/RDK-B/XDNS mechanism from the paper's §5 case
study.
"""

from .device import CpeDevice
from .forwarder import UPSTREAM_PORT, ForwarderEngine
from .firmware import (
    FirmwareProfile,
    TABLE5_SOFTWARE_MIX,
    dnat_interceptor,
    honest_forwarder,
    honest_router,
    open_wan_forwarder,
    pihole_profile,
    xb6_profile,
)
from .xb6 import describe_mechanism

__all__ = [
    "CpeDevice",
    "UPSTREAM_PORT",
    "ForwarderEngine",
    "FirmwareProfile",
    "TABLE5_SOFTWARE_MIX",
    "dnat_interceptor",
    "honest_forwarder",
    "honest_router",
    "open_wan_forwarder",
    "pihole_profile",
    "xb6_profile",
    "describe_mechanism",
]
