"""Probe specifications: one measured household each.

A :class:`ProbeSpec` is the ground truth for one vantage point — which
network it sits in, what CPE it has, what (if anything) intercepts its
DNS, and how reliably it responds to measurement requests. The
methodology never reads the ground truth; it is used only to *build* the
scenario and later to score the classifier against reality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cpe.firmware import FirmwareProfile, honest_router
from repro.interceptors.policy import InterceptionPolicy
from repro.values import hash_once

from .geo import Organization


class InterceptorLocation(enum.Enum):
    """Ground-truth interceptor placement for a probe."""

    NONE = "none"
    CPE = "cpe"
    ISP = "isp"
    BEYOND = "beyond"  # transit path outside the client's AS


@hash_once
@dataclass(frozen=True)
class IspBehavior:
    """The probe's ISP: resolver software and optional middlebox policies.

    ``middlebox_policies`` is a tuple evaluated first-match-wins; more
    than one policy expresses mixed per-resolver behaviour (the "Both"
    category of Figure 3) and separate IPv6 policies.
    """

    resolver_software_key: str = "unbound-1.9.0"
    middlebox_policies: tuple[InterceptionPolicy, ...] = ()
    # §6 limitation: if the ISP's resolver lives outside the client AS,
    # bogon queries can't prove "within ISP" even for in-ISP middleboxes.
    resolver_outside_as: bool = False
    #: NXDOMAIN monetisation: the ISP resolver forges an A record
    #: pointing here for nonexistent names (the cert detector's
    #: nxdomain-rewrite canary catches it; plaintext content heuristics
    #: never query a nonexistent name).
    nxdomain_wildcard_to: Optional[str] = None

    def with_policies(
        self, middlebox_policies: tuple[InterceptionPolicy, ...]
    ) -> "IspBehavior":
        """This behaviour with other middlebox policies, shared as
        :func:`isp_behavior` shares it."""
        return isp_behavior(
            self.resolver_software_key,
            middlebox_policies,
            self.resolver_outside_as,
            self.nxdomain_wildcard_to,
        )


#: One instance per argument tuple handed to :func:`isp_behavior`.
_ISP_BEHAVIORS: dict[tuple, IspBehavior] = {}


def isp_behavior(
    resolver_software_key: str = "unbound-1.9.0",
    middlebox_policies: tuple[InterceptionPolicy, ...] = (),
    resolver_outside_as: bool = False,
    nxdomain_wildcard_to: Optional[str] = None,
) -> IspBehavior:
    """The one :class:`IspBehavior` of these field values, built on first
    use. A fleet holds a few hundred distinct ones at most, so memoising
    on the small constructor arguments lets every spec with the same ISP
    share one instance."""
    args = (
        resolver_software_key,
        middlebox_policies,
        resolver_outside_as,
        nxdomain_wildcard_to,
    )
    behavior = _ISP_BEHAVIORS.get(args)
    if behavior is None:
        behavior = _ISP_BEHAVIORS[args] = IspBehavior(*args)
    return behavior


@dataclass(frozen=True)
class ProbeSpec:
    """Everything needed to build and measure one probe's scenario."""

    probe_id: int
    organization: Organization
    firmware: FirmwareProfile = field(default_factory=honest_router)
    isp: IspBehavior = field(default_factory=isp_behavior)
    external_policies: tuple[InterceptionPolicy, ...] = ()
    has_ipv6: bool = False
    #: Per-provider response availability: order matches PROVIDERS in the
    #: catalog; False means this probe never answered that provider's
    #: measurements (models RIPE Atlas scheduling/connectivity losses and
    #: produces the differing per-resolver totals of Table 4).
    responds_v4: tuple[bool, bool, bool, bool] = (True, True, True, True)
    responds_v6: tuple[bool, bool, bool, bool] = (True, True, True, True)
    online: bool = True

    @property
    def country(self) -> str:
        return self.organization.country

    @property
    def asn(self) -> int:
        return self.organization.asn

    def true_location(self) -> InterceptorLocation:
        """Ground truth: where is this probe's (IPv4) interceptor?"""
        if self.firmware.is_interceptor:
            return InterceptorLocation.CPE
        # Encrypted-only middleboxes (plaintext=False) never touch the
        # port-53 path the locator measures, so for *this* ground truth
        # — which scores the plaintext locator — they do not count.
        if any(p.plaintext for p in self.isp.middlebox_policies):
            return InterceptorLocation.ISP
        if any(p.plaintext for p in self.external_policies):
            return InterceptorLocation.BEYOND
        return InterceptorLocation.NONE
