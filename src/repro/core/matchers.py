"""Standard-response matchers for the location queries.

The paper determined "standard" responses by querying from a known-clean
network and confirming formats with the resolver operators (§3.1). A
response that does not match the standard format means the query was
answered by *someone else* — the definition of interception. Timeouts
are deliberately **not** treated as interception (conservative rule,
§3.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.dnswire import Message, RCode
from repro.net.addr import parse_ip
from repro.resolvers.public import PROVIDER_SPECS, Provider

#: Cloudflare answers a bare IATA airport code, e.g. ``IAD``.
_CLOUDFLARE_RE = re.compile(r"^[A-Z]{3}$")
#: Quad9 answers a PCH instance hostname, e.g. ``res100.iad.rrdns.pch.net``.
_QUAD9_RE = re.compile(r"^res\d+\.[a-z]{3}\.rrdns\.pch\.net$")
#: OpenDNS answers a machine tag, e.g. ``server m84.iad``.
_OPENDNS_RE = re.compile(r"^server m\d+\.[a-z]{3}$")


@dataclass(frozen=True)
class MatchResult:
    """Verdict on one response."""

    standard: bool
    reason: str
    observed: Optional[str] = None

    @classmethod
    def ok(cls, observed: str) -> "MatchResult":
        return cls(True, "standard format", observed)

    @classmethod
    def non_standard(cls, reason: str, observed: Optional[str] = None) -> "MatchResult":
        return cls(False, reason, observed)


def _single_txt(response: Message) -> Optional[str]:
    strings = response.txt_strings()
    return strings[0] if strings else None


def match_cloudflare(response: Message) -> MatchResult:
    """Cloudflare ``id.server``: a three-letter IATA airport code."""
    if response.rcode != RCode.NOERROR:
        return MatchResult.non_standard(
            f"error status {RCode.label(response.rcode)}", RCode.label(response.rcode)
        )
    text = _single_txt(response)
    if text is None:
        return MatchResult.non_standard("no TXT answer")
    if _CLOUDFLARE_RE.match(text):
        return MatchResult.ok(text)
    return MatchResult.non_standard("not an IATA site code", text)


def match_google(response: Message) -> MatchResult:
    """Google ``o-o.myaddr``: a TXT string that is a *Google* IP address.

    The answer is the egress address of the resolver that asked Google's
    authoritative; when the query was answered by Google DNS itself that
    address falls in Google's ranges. An interceptor's alternate resolver
    leaks its own egress instead (Table 2's ``62.183.62.69``).
    """
    if response.rcode != RCode.NOERROR:
        return MatchResult.non_standard(
            f"error status {RCode.label(response.rcode)}", RCode.label(response.rcode)
        )
    text = _single_txt(response)
    if text is None:
        return MatchResult.non_standard("no TXT answer")
    # Strip an optional edns0-client-subnet suffix ("<ip> <subnet>").
    candidate = text.split()[0]
    try:
        address = parse_ip(candidate)
    except ValueError:
        return MatchResult.non_standard("not an IP address", text)
    if PROVIDER_SPECS[Provider.GOOGLE].owns_egress(address):
        return MatchResult.ok(text)
    return MatchResult.non_standard("egress is not a Google address", text)


def match_quad9(response: Message) -> MatchResult:
    """Quad9 ``id.server``: a ``res<N>.<iata>.rrdns.pch.net`` hostname."""
    if response.rcode != RCode.NOERROR:
        return MatchResult.non_standard(
            f"error status {RCode.label(response.rcode)}", RCode.label(response.rcode)
        )
    text = _single_txt(response)
    if text is None:
        return MatchResult.non_standard("no TXT answer")
    if _QUAD9_RE.match(text):
        return MatchResult.ok(text)
    return MatchResult.non_standard("not a PCH instance name", text)


def match_opendns(response: Message) -> MatchResult:
    """OpenDNS ``debug.opendns.com``: a ``server m<N>.<iata>`` string."""
    if response.rcode != RCode.NOERROR:
        return MatchResult.non_standard(
            f"error status {RCode.label(response.rcode)}", RCode.label(response.rcode)
        )
    text = _single_txt(response)
    if text is None:
        return MatchResult.non_standard("no TXT answer")
    if _OPENDNS_RE.match(text):
        return MatchResult.ok(text)
    return MatchResult.non_standard("not an OpenDNS machine tag", text)


_MATCHERS = {
    Provider.CLOUDFLARE: match_cloudflare,
    Provider.GOOGLE: match_google,
    Provider.QUAD9: match_quad9,
    Provider.OPENDNS: match_opendns,
}


def match_location_response(provider: Provider, response: Message) -> MatchResult:
    """Dispatch to the provider's standard-format matcher."""
    return _MATCHERS[provider](response)


def describe_response(response: Optional[Message]) -> str:
    """Short human string for tables: TXT text, rcode name, or '-'.

    This is the formatting used in the paper's Tables 2-3, where a cell
    holds either the answer string (``SFO``, ``routing.v2.pw``) or an
    error status (``NOTIMP``, ``NXDOMAIN``).
    """
    if response is None:
        return "-"
    if response.rcode != RCode.NOERROR:
        return RCode.label(response.rcode)
    text = _single_txt(response)
    if text is not None:
        return text
    addresses = response.a_addresses() + response.aaaa_addresses()
    if addresses:
        return addresses[0]
    return "NOERROR/empty"
