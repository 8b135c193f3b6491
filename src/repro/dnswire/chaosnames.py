"""Well-known CHAOS-class debugging query names (RFC 4892).

These names are the measurement instrument of the paper:

- ``id.server`` — server-instance identifier; the *location query* for
  Cloudflare (answers an IATA airport code) and Quad9 (answers a
  ``res###.<iata>.rrdns.pch.net`` hostname).
- ``version.bind`` — software version string; the probe used in Step 2 to
  fingerprint a CPE's embedded DNS forwarder (Table 5 in the paper lists
  the strings observed in the wild).
- ``hostname.bind`` — used by prior root-manipulation work (Jones et al.);
  included for completeness and comparison experiments.
"""

from __future__ import annotations

from .enums import QClass, QType
from .message import Message, make_query
from .name import DnsName

ID_SERVER = DnsName.from_text("id.server.")
VERSION_BIND = DnsName.from_text("version.bind.")
HOSTNAME_BIND = DnsName.from_text("hostname.bind.")


def make_chaos_query(qname: "str | DnsName", msg_id: int | None = None) -> Message:
    """Build a CHAOS TXT query for ``qname``."""
    return make_query(qname, QType.TXT, QClass.CH, msg_id=msg_id)


def make_version_bind_query(msg_id: int | None = None) -> Message:
    return make_chaos_query(VERSION_BIND, msg_id=msg_id)
