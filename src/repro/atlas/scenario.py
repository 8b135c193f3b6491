"""Scenario construction: a complete simulated Internet for one probe.

Each probe measurement runs against its own small network::

    host -- CPE -- access -- [middlebox] -- border -- [external] -- core
                                              |                      |
                                        ISP resolver        4 public resolvers
                                                             (+ off-AS resolver)

The border and core routers drop bogon-destined packets (they have no
route to that space and transit networks filter it), which is the
physical fact Step 3 of the methodology exploits.
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass
from typing import Optional

from repro.cpe.device import CpeDevice
from repro.cpe.forwarder import ForwarderEngine
from repro.interceptors.middlebox import ExternalInterceptor, MiddleboxRouter
from repro.interceptors.policy import InterceptionPolicy
from repro.net import Chain, Host, LinkProfile, Network, Router
from repro.net.addr import IPAddress, parse_network
from repro.resolvers import (
    DnsServerNode,
    NameDirectory,
    Provider,
    PublicResolverNode,
    RecursiveResolverNode,
    build_default_directory,
)
from repro.resolvers.software import (
    ServerSoftware,
    bind_redhat,
    bind_vanilla,
    powerdns,
    unbound,
    unbound_hidden,
)

from .geo import Organization, as_identity
from .probe import ProbeSpec

#: Transit-network prefix hosting the external interceptor and the
#: off-AS resolver it redirects to.
TRANSIT_V4_PREFIX = ipaddress.ip_network("64.86.0.0/16")
TRANSIT_V6_PREFIX = ipaddress.ip_network("2001:5a0::/32")
#: Prefix for ISP resolvers hosted *outside* the client AS (§6 limitation).
HOSTED_DNS_V4_PREFIX = ipaddress.ip_network("185.228.0.0/16")
HOSTED_DNS_V6_PREFIX = ipaddress.ip_network("2a0d:2a00::/32")

_RESOLVER_SOFTWARE_FACTORIES = {
    "unbound-1.9.0": lambda: unbound("1.9.0"),
    "unbound-1.13.1": lambda: unbound("1.13.1"),
    "unbound-hidden": unbound_hidden,
    "unbound-routing": lambda: unbound("1.9.0", identity="routing.v2.pw"),
    "powerdns-4.1.11": powerdns,
    "bind-redhat": bind_redhat,
    "bind-9.16.15": lambda: bind_vanilla("9.16.15"),
}


def resolver_software(key: str) -> ServerSoftware:
    """Instantiate ISP resolver software from its registry key."""
    try:
        return _RESOLVER_SOFTWARE_FACTORIES[key]()
    except KeyError:
        raise KeyError(
            f"unknown resolver software {key!r}; "
            f"known: {sorted(_RESOLVER_SOFTWARE_FACTORIES)}"
        ) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one probe's simulated world.

    The probe's :class:`~repro.atlas.probe.ProbeSpec` stays the source
    of truth for who the probe is; ``ScenarioSpec`` layers the *run*
    choices on top — which resolvers exist, which interception policies
    apply, what the links do to packets — so chaos trials and
    :class:`~repro.core.study.StudyConfig` share one surface.

    ``providers``
        The public resolvers present in the scenario (``None`` = all
        four). Absent providers' addresses are unrouted, so their
        measurements time out — the "resolver set" knob.
    ``isp_policies`` / ``external_policies``
        Interception-policy overrides. ``None`` inherits the probe
        spec's policies; an empty tuple forces the device out entirely.
    ``impairment`` / ``impairment_seed``
        A :class:`~repro.net.impairment.LinkProfile` applied
        network-wide. The network's RNG streams are seeded from
        ``(impairment_seed, probe_id)``, so every probe is still a pure
        function of its spec for any worker count, while distinct
        chaos trials (distinct seeds) draw distinct fault schedules.
    """

    probe: ProbeSpec
    providers: Optional[tuple[Provider, ...]] = None
    isp_policies: Optional[tuple[InterceptionPolicy, ...]] = None
    external_policies: Optional[tuple[InterceptionPolicy, ...]] = None
    impairment: Optional[LinkProfile] = None
    impairment_seed: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.probe, ProbeSpec):
            raise TypeError(
                f"probe must be a ProbeSpec, got {type(self.probe).__name__}"
            )
        if self.impairment is not None and not isinstance(
            self.impairment, LinkProfile
        ):
            raise TypeError(
                f"impairment must be a LinkProfile, "
                f"got {type(self.impairment).__name__}"
            )

    def effective_providers(self) -> tuple[Provider, ...]:
        return tuple(Provider) if self.providers is None else self.providers

    def effective_isp_policies(self) -> tuple[InterceptionPolicy, ...]:
        if self.isp_policies is None:
            return self.probe.isp.middlebox_policies
        return self.isp_policies

    def effective_external_policies(self) -> tuple[InterceptionPolicy, ...]:
        if self.external_policies is None:
            return self.probe.external_policies
        return self.external_policies


@dataclass
class Scenario:
    """A built probe network plus the handles measurements need."""

    spec: ProbeSpec
    network: Network
    host: Host
    cpe: CpeDevice
    directory: NameDirectory
    isp_resolver: RecursiveResolverNode
    providers: dict[Provider, PublicResolverNode]
    middlebox: Optional[MiddleboxRouter] = None
    external: Optional[ExternalInterceptor] = None
    #: The declarative spec this scenario was built from.
    scenario_spec: Optional[ScenarioSpec] = None

    @property
    def cpe_public_v4(self) -> IPAddress:
        return self.cpe.wan_v4

    @property
    def cpe_public_v6(self) -> Optional[IPAddress]:
        return self.cpe.wan_v6


#: The measured host's LAN address.
_HOST_LAN_V4 = ipaddress.ip_address("192.168.1.100")


def _home_addresses(spec: ProbeSpec):
    """The probe's WAN IPv4 address and delegated IPv6 /64, derived from
    its ``probe_id`` inside the organization's prefixes."""
    org = spec.organization
    v4_net = parse_network(org.v4_prefix)
    wan_v4 = v4_net.network_address + 1024 + (spec.probe_id % 60000)
    v6_net = parse_network(org.v6_prefix)
    home_v6 = ipaddress.ip_network(
        (int(v6_net.network_address) + ((1024 + spec.probe_id) << 64), 64)
    )
    return wan_v4, home_v6


@functools.cache
def _isp_resolver(org: Organization, inside_as: bool):
    """The ISP resolver's IPv4 and IPv6 addresses, inside ``org``'s
    prefixes or in hosted-DNS space outside the client AS, and their
    host-route prefixes."""
    if inside_as:
        v4 = parse_network(org.v4_prefix).network_address + 53
        v6 = parse_network(org.v6_prefix).network_address + 0x53
    else:
        v4 = HOSTED_DNS_V4_PREFIX.network_address + 53
        v6 = HOSTED_DNS_V6_PREFIX.network_address + 0x53
    return (v4, v6), (f"{v4}/32", f"{v6}/128")


def _isp_routes(scenario: "Scenario", org: Organization, inside_as: bool):
    """``(router, prefix, next hop)`` of every route that names ``org``'s
    prefixes or its resolver's addresses, in ``scenario``'s shape."""
    nodes = scenario.network.nodes
    access, border, core = nodes["access"], nodes["border"], nodes["core"]
    middlebox, external = scenario.middlebox, scenario.external
    resolver = _isp_resolver(org, inside_as)[1]
    prefixes = (org.v4_prefix, org.v6_prefix)
    routes = []

    def via(router, destinations, next_hop):
        routes.extend((router, prefix, next_hop) for prefix in destinations)

    upstream_of_access = toward_isp = "border"
    if middlebox is None:
        via(border, prefixes, "access")
    elif inside_as:
        upstream_of_access = "middlebox"
        via(middlebox, prefixes, "access")
        via(middlebox, resolver, "border")
        via(border, prefixes, "middlebox")
    else:
        toward_isp = "middlebox"
        via(middlebox, prefixes, "border")
        via(middlebox, resolver, "isp-resolver")
        via(border, prefixes, "access")
    if inside_as:
        # The resolver's address falls inside the org prefix; without
        # these host routes the org-prefix routes would bounce resolver
        # traffic back toward the access layer.
        via(access, resolver, upstream_of_access)
        via(border, resolver, "isp-resolver")
    else:
        via(core, resolver, "isp-resolver")
    if external is not None:
        toward_isp = "external"
        via(external, prefixes, "border")
    via(core, prefixes, toward_isp)
    return routes


def _home_organization(
    scenario: "Scenario", spec: ProbeSpec, previous: Optional[Organization]
) -> None:
    """Give ``scenario`` everything ``spec``'s organization decides, in
    place of what ``previous`` (None on a fresh build) decided: every
    ISP-side node's ``asn`` (and the middlebox's TLS identity with it),
    the access, border and middlebox addresses, the ISP resolver's
    addresses and TLS identity (with the CPE forwarder's upstreams and
    the middlebox's alternates), and every route naming the org's
    prefixes or its resolver (:func:`_isp_routes`)."""
    org = spec.organization
    inside_as = not spec.isp.resolver_outside_as
    if previous is not None:
        for router, prefix, _next_hop in _isp_routes(scenario, previous, inside_as):
            router.routes.remove(prefix)
    nodes = scenario.network.nodes
    for name in ("host", "cpe", "access", "border", "middlebox"):
        if name in nodes:
            nodes[name].asn = org.asn
    base_v4 = parse_network(org.v4_prefix).network_address
    base_v6 = parse_network(org.v6_prefix).network_address
    nodes["access"].set_addresses([base_v4 + 2])
    nodes["border"].set_addresses([base_v4 + 4, base_v6 + 4])
    resolver_v4, resolver_v6 = _isp_resolver(org, inside_as)[0]
    middlebox = scenario.middlebox
    if middlebox is not None:
        middlebox.set_addresses([base_v4 + 3])
        middlebox.alternate_v4, middlebox.alternate_v6 = resolver_v4, resolver_v6
    forwarder = scenario.cpe.forwarder
    if forwarder is not None:
        forwarder.upstream_v4, forwarder.upstream_v6 = resolver_v4, resolver_v6
    resolver = scenario.isp_resolver
    # Operator-derived certificate identity: an in-AS resolver presents
    # its ISP's per-AS name, a hosted one the generic one.
    resolver.asn = org.asn if inside_as else None
    resolver.tls_identity = as_identity(resolver.asn, "dot.isp-resolver")
    resolver.set_addresses([resolver_v4, resolver_v6])
    for router, prefix, next_hop in _isp_routes(scenario, org, inside_as):
        router.routes.add(prefix, next_hop)


def _home(scenario: "Scenario", sspec: ScenarioSpec) -> None:
    """Give ``scenario`` the per-probe part of ``sspec``.

    The only reader of the organization and of ``probe_id``-derived
    values. A new organization is homed by
    :func:`_home_organization`; then the impairment streams' seed, the
    WAN IPv4 address and delegated IPv6 prefix, and everything that
    embeds them (the host's v6 address, the CPE's addresses, NAT, LAN
    v6 route and DNAT rules, and the access router's two routes toward
    the CPE). :func:`build_scenario` calls it on a fresh topology,
    :func:`reset_scenario` on a reset one.
    """
    spec = sspec.probe
    homed = scenario.scenario_spec  # None on a fresh build
    previous = homed.probe.organization if homed is not None else None
    if spec.organization != previous:
        _home_organization(scenario, spec, previous)
    net = scenario.network
    net.reset_events(f"impair:{sspec.impairment_seed}:{spec.probe_id}")
    wan_v4, home_v6 = _home_addresses(spec)
    v6 = spec.has_ipv6
    scenario.host.set_addresses(
        [_HOST_LAN_V4] + ([home_v6.network_address + 0x100] if v6 else [])
    )
    cpe = scenario.cpe
    access = net.nodes["access"]
    if cpe.wan_v4 is not None:
        access.routes.remove(f"{cpe.wan_v4}/32")
    if cpe.lan_v6_prefix is not None:
        access.routes.remove(cpe.lan_v6_prefix)
    cpe.assign_wan(
        wan_v4,
        (home_v6.network_address + 1) if v6 else None,
        home_v6 if v6 else None,
    )
    # The v6 DNAT rule targets the WAN v6 address, so the chain is
    # rebuilt; the signature pins the firmware flags that shape it.
    cpe.prerouting = Chain("PREROUTING")
    if spec.firmware.intercepts_v4:
        cpe.enable_interception(family=4)
    if spec.firmware.intercepts_v6 and v6:
        cpe.enable_interception(family=6)
    access.routes.add(f"{wan_v4}/32", "cpe")
    if v6:
        access.routes.add(home_v6, "cpe")
    scenario.spec = spec
    scenario.scenario_spec = sspec


def build_scenario(
    spec: "ProbeSpec | ScenarioSpec",
    directory: Optional[NameDirectory] = None,
) -> Scenario:
    """Build the full network for one probe.

    ``spec`` is a :class:`ScenarioSpec`; a bare
    :class:`~repro.atlas.probe.ProbeSpec` is accepted as shorthand for
    ``ScenarioSpec(probe=spec)`` (the overwhelmingly common call).

    It builds the topology :func:`scenario_signature` determines, with
    no organization in it, then homes the probe in it (:func:`_home`).
    """
    sspec = spec if isinstance(spec, ScenarioSpec) else ScenarioSpec(probe=spec)
    spec = sspec.probe
    directory = directory or build_default_directory()
    net = Network(trace=sspec.trace, impairment=sspec.impairment)
    inside_as = not spec.isp.resolver_outside_as

    isp_resolver = RecursiveResolverNode(
        "isp-resolver",
        addresses=[],
        directory=directory,
        software=resolver_software(spec.isp.resolver_software_key),
        nxdomain_wildcard_to=spec.isp.nxdomain_wildcard_to,
    )

    # -- home -----------------------------------------------------------------
    host = Host("host", gateway="cpe")
    forwarder = None
    if spec.firmware.software is not None:
        forwarder = ForwarderEngine(software=spec.firmware.software)
    cpe = CpeDevice(
        "cpe",
        lan_v4_prefix="192.168.1.0/24",
        wan_gateway="access",
        lan_host="host",
        forwarder=forwarder,
        wan_port53_open=spec.firmware.wan_port53_open,
        model=spec.firmware.model,
        encrypted_dns=spec.firmware.encrypted_dns,
    )

    # -- ISP fabric ---------------------------------------------------------------
    access = Router("access")
    border = Router("border", drop_bogons=True)
    isp_policies = sspec.effective_isp_policies()
    middlebox: Optional[MiddleboxRouter] = None
    if isp_policies:
        middlebox = MiddleboxRouter("middlebox", policies=isp_policies)

    # -- beyond the AS -----------------------------------------------------------
    core = Router(
        "core",
        addresses=["198.32.0.1", "2001:500:a8::1"],
        drop_bogons=True,
    )
    external_policies = sspec.effective_external_policies()
    external: Optional[ExternalInterceptor] = None
    off_as_resolver: Optional[RecursiveResolverNode] = None
    if external_policies:
        off_v4 = TRANSIT_V4_PREFIX.network_address + 0x153
        off_v6 = TRANSIT_V6_PREFIX.network_address + 0x153
        off_as_resolver = RecursiveResolverNode(
            "offas-resolver",
            addresses=[off_v4, off_v6],
            directory=directory,
            software=unbound("1.13.1", identity="open-resolver.example"),
        )
        external = ExternalInterceptor(
            "external",
            policies=external_policies,
            alternate_resolver_v4=off_v4,
            alternate_resolver_v6=off_v6,
            addresses=[TRANSIT_V4_PREFIX.network_address + 1],
        )

    providers = {
        provider: PublicResolverNode(provider, directory)
        for provider in sspec.effective_providers()
    }

    # -- attach everything --------------------------------------------------------
    for node in [host, cpe, access, border, core, isp_resolver]:
        net.add_node(node)
    if middlebox is not None:
        net.add_node(middlebox)
    if external is not None:
        assert off_as_resolver is not None
        net.add_node(external)
        net.add_node(off_as_resolver)
    for node in providers.values():
        net.add_node(node)
    scenario = Scenario(
        spec=spec,
        network=net,
        host=host,
        cpe=cpe,
        directory=directory,
        isp_resolver=isp_resolver,
        providers=providers,
        middlebox=middlebox,
        external=external,
    )
    # Homed before any link exists: each link's impairment streams are
    # drawn from the homed seed as it is connected, just as
    # Network.reset_events re-draws them when a reused scenario is homed.
    _home(scenario, sspec)

    # -- links ---------------------------------------------------------------------
    # When the ISP hosts its DNS infrastructure outside the client AS
    # (§6 limitation), its interception middlebox sits with that
    # infrastructure — beyond the border, where bogon queries cannot
    # reach it.
    middlebox_inside = middlebox is not None and inside_as
    middlebox_outside = middlebox is not None and not inside_as

    net.connect("host", "cpe", 0.5)
    net.connect("cpe", "access", 4.0)
    if middlebox_inside:
        net.connect("access", "middlebox", 0.5)
        net.connect("middlebox", "border", 0.5)
    else:
        net.connect("access", "border", 1.0)
    if inside_as:
        net.connect("border", "isp-resolver", 1.5)
    elif middlebox_outside:
        net.connect("border", "middlebox", 6.0)
        net.connect("middlebox", "core", 6.0)
        net.connect("middlebox", "isp-resolver", 2.0)
        net.connect("core", "isp-resolver", 5.0)
    else:
        net.connect("core", "isp-resolver", 5.0)
    if external is not None:
        net.connect("border", "external", 8.0)
        net.connect("external", "core", 8.0)
        net.connect("external", "offas-resolver", 3.0)
        net.connect("core", "offas-resolver", 3.0)
    else:
        net.connect("border", "core", 15.0)
    for provider, node in providers.items():
        net.connect("core", node.name, 6.0)

    # -- routes the organization does not decide (_isp_routes has the rest) --
    upstream_of_access = "middlebox" if middlebox_inside else "border"
    access.routes.add_default(upstream_of_access, family=4)
    access.routes.add_default(upstream_of_access, family=6)
    if middlebox_inside:
        middlebox.routes.add_default("border", family=4)
        middlebox.routes.add_default("border", family=6)
    elif middlebox_outside:
        middlebox.routes.add_default("core", family=4)
        middlebox.routes.add_default("core", family=6)
    if inside_as:
        isp_resolver.gateway = "border"
    else:
        isp_resolver.gateway = "middlebox" if middlebox_outside else "core"
    if external is not None:
        upstream_of_border = "external"
    elif middlebox_outside:
        upstream_of_border = "middlebox"
    else:
        upstream_of_border = "core"
    border.routes.add_default(upstream_of_border, family=4)
    border.routes.add_default(upstream_of_border, family=6)

    if external is not None:
        assert off_as_resolver is not None
        off_v4, off_v6 = sorted(off_as_resolver.addresses(), key=lambda a: a.version)
        external.routes.add(f"{off_v4}/32", "offas-resolver")
        external.routes.add(f"{off_v6}/128", "offas-resolver")
        external.routes.add_default("core", family=4)
        external.routes.add_default("core", family=6)
        core.routes.add(f"{off_v4}/32", "offas-resolver")
        core.routes.add(f"{off_v6}/128", "offas-resolver")
        off_as_resolver.gateway = "core"
        core.routes.add(str(TRANSIT_V4_PREFIX), "external")
        core.routes.add(str(TRANSIT_V6_PREFIX), "external")

    for provider, node in providers.items():
        for address in node.addresses():
            suffix = 32 if address.version == 4 else 128
            core.routes.add(f"{address}/{suffix}", node.name)
        node.gateway = "core"

    return scenario


# -- scenario reuse ------------------------------------------------------------
#
# The topology built for a probe depends on far less than the full spec:
# every per-probe difference (the organization's addresses, ASNs and
# routes, the WAN address, delegated v6 prefix, impairment streams,
# event clock) is set by _home, which a fresh build runs too. A
# ScenarioCache therefore keys built scenarios by the *shape* below and
# resets one for a later probe of the same shape. The fleet driver plans
# which probes have such a later probe, so the cache keeps a scenario
# only while it will be asked for again.


def scenario_signature(sspec: ScenarioSpec) -> Optional[tuple]:
    """Hashable key of everything :func:`build_scenario` reads besides
    the per-probe values :func:`_home` sets (the organization,
    ``probe_id``-derived addressing and the impairment seed). Returns
    None when any component is unhashable — callers must then build
    fresh."""
    p = sspec.probe
    signature = (
        p.firmware,
        p.isp,
        p.external_policies,
        p.has_ipv6,
        sspec.providers,
        sspec.isp_policies,
        sspec.external_policies,
        sspec.impairment,
        sspec.trace,
    )
    try:
        hash(signature)
    except TypeError:
        return None
    return signature


def reset_scenario(scenario: Scenario, sspec: ScenarioSpec) -> Scenario:
    """Re-home a built scenario for a new probe of the same signature.

    Every node drops the state the last probe left behind
    (:meth:`~repro.net.sim.Node.reset`), then :func:`_home` gives the
    scenario ``sspec``'s per-probe part through the step a fresh build
    takes. The result is indistinguishable from ``build_scenario(sspec)``
    in records, metrics snapshots and trace events.
    """
    for node in scenario.network.nodes.values():
        node.reset()
    _home(scenario, sspec)
    return scenario


class ScenarioCache:
    """Scenarios built over one directory, each kept only while a later
    probe will ask for its signature, then reset and reused.

    One cache per worker (or for in-process measuring) of a fast-engine
    :class:`~repro.core.parallel.FleetSession`. It caches scenarios, not
    records: the probe-dedup memo lives on the session, in the parent
    process. The caller says, through :attr:`keep_next`, whether the
    scenario the next :meth:`get` hands out will be asked for again;
    :mod:`repro.core.parallel` plans that from the fleet, so the cache
    holds only the scenarios a later probe of the same call still needs.
    ``get`` on an unhashable signature builds fresh and keeps nothing.

    Every scenario it builds has its resolvers serve from answer
    templates the cache owns, one table per server identity
    (:meth:`~repro.resolvers.base.DnsServerNode.answer_identity`), so a
    new scenario's resolvers start with what earlier scenarios' equal
    resolvers learnt; :func:`build_scenario` alone leaves templates off.
    Only the pure responders are lent templates: resolver answers are
    functions of (query wire minus id, response signature, identity),
    audited per class. The embedded forwarder and the middleboxes are
    stateful relays and stay uncached.
    """

    def __init__(self, directory: NameDirectory) -> None:
        self.directory = directory
        self._cache: "dict[tuple, Scenario]" = {}
        #: Answer identity -> that identity's answer templates.
        self._answer_templates: "dict[tuple, dict]" = {}
        #: Whether the next :meth:`get` keeps its scenario for a later
        #: probe of the same signature; every ``get`` clears it.
        self.keep_next = False

    def get(self, sspec: ScenarioSpec) -> Scenario:
        keep, self.keep_next = self.keep_next, False
        signature = scenario_signature(sspec)
        if signature is None:
            return self._build(sspec)
        scenario = self._cache.pop(signature, None)
        if scenario is None:
            scenario = self._build(sspec)
        else:
            reset_scenario(scenario, sspec)
        if keep:
            self._cache[signature] = scenario
        return scenario

    def _build(self, sspec: ScenarioSpec) -> Scenario:
        scenario = build_scenario(sspec, self.directory)
        for node in scenario.network.nodes.values():
            if isinstance(node, DnsServerNode):
                node.share_answer_templates(self._answer_templates)
        return scenario

    def clear(self) -> None:
        """Drop every kept scenario."""
        self._cache.clear()
