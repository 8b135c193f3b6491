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

import ipaddress
from dataclasses import dataclass, field
from typing import Optional

from repro.cpe.device import CpeDevice
from repro.cpe.forwarder import ForwarderEngine
from repro.interceptors.middlebox import ExternalInterceptor, MiddleboxRouter
from repro.interceptors.policy import InterceptionPolicy
from repro.net import Host, LinkProfile, Network, Router
from repro.net.addr import IPAddress
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

from .geo import as_identity
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
    notes: dict[str, str] = field(default_factory=dict)
    #: The declarative spec this scenario was built from.
    scenario_spec: Optional[ScenarioSpec] = None

    @property
    def cpe_public_v4(self) -> IPAddress:
        return self.cpe.wan_v4

    @property
    def cpe_public_v6(self) -> Optional[IPAddress]:
        return self.cpe.wan_v6


def _home_addresses(spec: ProbeSpec):
    """Deterministic per-probe addressing derived from the organization."""
    org = spec.organization
    v4_net = ipaddress.ip_network(org.v4_prefix)
    wan_v4 = v4_net.network_address + 1024 + (spec.probe_id % 60000)
    v6_net = ipaddress.ip_network(org.v6_prefix)
    home_v6 = ipaddress.ip_network(
        (int(v6_net.network_address) + ((1024 + spec.probe_id) << 64), 64)
    )
    return v4_net, wan_v4, v6_net, home_v6


def build_scenario(
    spec: "ProbeSpec | ScenarioSpec",
    directory: Optional[NameDirectory] = None,
) -> Scenario:
    """Build the full network for one probe.

    ``spec`` is a :class:`ScenarioSpec`; a bare
    :class:`~repro.atlas.probe.ProbeSpec` is accepted as shorthand for
    ``ScenarioSpec(probe=spec)`` (the overwhelmingly common call).
    """
    sspec = spec if isinstance(spec, ScenarioSpec) else ScenarioSpec(probe=spec)
    spec = sspec.probe
    org = spec.organization
    directory = directory or build_default_directory()
    net = Network(
        trace=sspec.trace,
        loss_seed=f"impair:{sspec.impairment_seed}:{spec.probe_id}",
        impairment=sspec.impairment,
    )

    v4_net, wan_v4, v6_net, home_v6 = _home_addresses(spec)
    isp_base_v4 = v4_net.network_address
    isp_base_v6 = v6_net.network_address

    # -- ISP resolver placement -------------------------------------------
    inside_as = not spec.isp.resolver_outside_as
    if inside_as:
        resolver_v4 = isp_base_v4 + 53
        resolver_v6 = isp_base_v6 + 0x53
    else:
        resolver_v4 = HOSTED_DNS_V4_PREFIX.network_address + 53
        resolver_v6 = HOSTED_DNS_V6_PREFIX.network_address + 0x53
    isp_resolver = RecursiveResolverNode(
        "isp-resolver",
        addresses=[resolver_v4, resolver_v6],
        directory=directory,
        software=resolver_software(spec.isp.resolver_software_key),
        asn=org.asn if inside_as else None,
        # Operator-derived certificate identity: an in-AS resolver
        # presents its ISP's per-AS name, a hosted one the generic one.
        tls_identity=as_identity(
            org.asn if inside_as else None, "dot.isp-resolver"
        ),
        nxdomain_wildcard_to=spec.isp.nxdomain_wildcard_to,
    )

    # -- home -----------------------------------------------------------------
    host = Host(
        "host",
        addresses=["192.168.1.100"]
        + ([home_v6.network_address + 0x100] if spec.has_ipv6 else []),
        gateway="cpe",
        asn=org.asn,
    )
    forwarder = None
    if spec.firmware.software is not None:
        forwarder = ForwarderEngine(
            software=spec.firmware.software,
            upstream_v4=resolver_v4,
            upstream_v6=resolver_v6,
        )
    cpe = CpeDevice(
        "cpe",
        lan_v4_prefix="192.168.1.0/24",
        wan_v4=wan_v4,
        wan_gateway="access",
        lan_host="host",
        wan_v6=(home_v6.network_address + 1) if spec.has_ipv6 else None,
        lan_v6_prefix=home_v6 if spec.has_ipv6 else None,
        forwarder=forwarder,
        wan_port53_open=spec.firmware.wan_port53_open,
        model=spec.firmware.model,
        asn=org.asn,
        encrypted_dns=spec.firmware.encrypted_dns,
    )
    if spec.firmware.intercepts_v4:
        cpe.enable_interception(family=4)
    if spec.firmware.intercepts_v6 and spec.has_ipv6:
        cpe.enable_interception(family=6)

    # -- ISP fabric ---------------------------------------------------------------
    access = Router("access", addresses=[isp_base_v4 + 2], asn=org.asn)
    border = Router(
        "border",
        addresses=[isp_base_v4 + 4, isp_base_v6 + 4],
        asn=org.asn,
        drop_bogons=True,
    )
    isp_policies = sspec.effective_isp_policies()
    middlebox: Optional[MiddleboxRouter] = None
    if isp_policies:
        middlebox = MiddleboxRouter(
            "middlebox",
            policies=isp_policies,
            alternate_resolver_v4=resolver_v4,
            alternate_resolver_v6=resolver_v6,
            addresses=[isp_base_v4 + 3],
            asn=org.asn,
        )

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

    # -- routes -----------------------------------------------------------------------
    wan_host_route = f"{wan_v4}/32"
    access.routes.add(wan_host_route, "cpe")
    if spec.has_ipv6:
        access.routes.add(str(home_v6), "cpe")
    upstream_of_access = "middlebox" if middlebox_inside else "border"
    access.routes.add_default(upstream_of_access, family=4)
    access.routes.add_default(upstream_of_access, family=6)
    if inside_as:
        # The resolver's address falls inside the org prefix; without
        # these host routes the org-prefix routes would bounce resolver
        # traffic back toward the access layer.
        access.routes.add(f"{resolver_v4}/32", upstream_of_access)
        access.routes.add(f"{resolver_v6}/128", upstream_of_access)

    if middlebox_inside:
        middlebox.routes.add(str(v4_net), "access")
        middlebox.routes.add(str(v6_net), "access")
        middlebox.routes.add_default("border", family=4)
        middlebox.routes.add_default("border", family=6)
        middlebox.routes.add(f"{resolver_v4}/32", "border")
        middlebox.routes.add(f"{resolver_v6}/128", "border")
    elif middlebox_outside:
        middlebox.routes.add(str(v4_net), "border")
        middlebox.routes.add(str(v6_net), "border")
        middlebox.routes.add(f"{resolver_v4}/32", "isp-resolver")
        middlebox.routes.add(f"{resolver_v6}/128", "isp-resolver")
        middlebox.routes.add_default("core", family=4)
        middlebox.routes.add_default("core", family=6)

    toward_access = "middlebox" if middlebox_inside else "access"
    border.routes.add(str(v4_net), toward_access)
    border.routes.add(str(v6_net), toward_access)
    if inside_as:
        border.routes.add(f"{resolver_v4}/32", "isp-resolver")
        border.routes.add(f"{resolver_v6}/128", "isp-resolver")
        isp_resolver.gateway = "border"
    else:
        core.routes.add(f"{resolver_v4}/32", "isp-resolver")
        core.routes.add(f"{resolver_v6}/128", "isp-resolver")
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
        external.routes.add(str(v4_net), "border")
        external.routes.add(str(v6_net), "border")
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

    if external is not None:
        toward_isp = "external"
    elif middlebox_outside:
        toward_isp = "middlebox"
    else:
        toward_isp = "border"
    core.routes.add(str(v4_net), toward_isp)
    core.routes.add(str(v6_net), toward_isp)

    for provider, node in providers.items():
        for address in node.addresses():
            suffix = 32 if address.version == 4 else 128
            core.routes.add(f"{address}/{suffix}", node.name)
        node.gateway = "core"

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
        scenario_spec=sspec,
    )
    return scenario


# -- scenario reuse ------------------------------------------------------------
#
# Scenario construction is a fifth of a serial study's runtime, yet the
# topology built for a probe depends on far less than the full spec:
# every per-probe difference (WAN address, delegated v6 prefix,
# impairment streams, event clock) can be re-homed in place. A
# ScenarioCache therefore keeps a small LRU of built scenarios keyed by
# the *shape* below and resets one per probe.


def scenario_signature(sspec: ScenarioSpec) -> Optional[tuple]:
    """Hashable key of everything :func:`build_scenario` reads besides
    the per-probe values that :func:`reset_scenario` re-homes
    (``probe_id``-derived addressing and the impairment seed stream).
    Returns None when any component is unhashable — callers must then
    build fresh."""
    p = sspec.probe
    signature = (
        p.organization,
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

    Rewinds the event loop, clock and impairment streams
    (:meth:`~repro.net.sim.Network.reset_events`), clears every piece of
    per-probe node state (sockets, NAT table, forwarder relays, flow
    tables, query counters) and re-derives the probe-id-dependent
    addressing (WAN IPv4, delegated IPv6 prefix) including the routes
    and DNAT rules that embed those addresses. The result is
    indistinguishable from ``build_scenario(sspec)`` output in records,
    metrics and journals (packet uids differ, but they never surface).
    """
    from repro.interceptors.middlebox import MiddleboxRouter as _Middlebox
    from repro.net import Chain, NatTable
    from repro.net.node import EPHEMERAL_PORT_BASE

    spec = sspec.probe
    net = scenario.network
    net.reset_events(f"impair:{sspec.impairment_seed}:{spec.probe_id}")

    _v4_net, wan_v4, _v6_net, home_v6 = _home_addresses(spec)
    cpe = scenario.cpe
    host = scenario.host
    old_wan_v4 = cpe.wan_v4
    old_lan_v6 = cpe.lan_v6_prefix

    # Host: fresh sockets, ports, ICMP inbox, per-probe v6 address.
    host._sockets.clear()
    host._next_port = EPHEMERAL_PORT_BASE
    host.icmp_inbox.clear()
    host._addresses = {ipaddress.ip_address("192.168.1.100")}
    if spec.has_ipv6:
        host._addresses.add(home_v6.network_address + 0x100)
    host.invalidate_addresses()

    # CPE: re-home WAN addressing, rebuild the state that embeds it.
    wan_v6 = (home_v6.network_address + 1) if spec.has_ipv6 else None
    cpe.wan_v4 = wan_v4
    cpe.wan_v6 = wan_v6
    cpe._addresses = {cpe.lan_gateway_v4, wan_v4}
    if wan_v6 is not None:
        cpe._addresses.add(wan_v6)
    cpe.invalidate_addresses()
    cpe.nat = NatTable(wan_v4=wan_v4)
    if cpe.forwarder is not None:
        cpe.forwarder.reset()
    cpe.encrypted.reset()
    if old_lan_v6 is not None:
        cpe.routes.remove(str(old_lan_v6))
    cpe.lan_v6_prefix = home_v6 if spec.has_ipv6 else None
    if cpe.lan_v6_prefix is not None:
        cpe.routes.add(str(cpe.lan_v6_prefix), cpe.lan_host)
    # The v6 DNAT rule targets the (per-probe) WAN v6 address, so the
    # whole PREROUTING chain is rebuilt; the signature pins the firmware
    # flags, so the rebuilt rule set is structurally identical.
    cpe.prerouting = Chain("PREROUTING")
    if spec.firmware.intercepts_v4:
        cpe.enable_interception(family=4)
    if spec.firmware.intercepts_v6 and spec.has_ipv6:
        cpe.enable_interception(family=6)

    # Access router: the two per-probe host routes toward the CPE.
    access = net.nodes["access"]
    access.routes.remove(f"{old_wan_v4}/32")
    access.routes.add(f"{wan_v4}/32", "cpe")
    if old_lan_v6 is not None:
        access.routes.remove(str(old_lan_v6))
    if spec.has_ipv6:
        access.routes.add(str(home_v6), "cpe")

    # Per-probe counters and flow state everywhere else. Answer-template
    # caches survive: their keys include every per-probe input (the
    # query wire and the response signature).
    for node in net.nodes.values():
        if isinstance(node, DnsServerNode):
            node.queries_seen = 0
        elif isinstance(node, _Middlebox):
            node._flows.clear()
            node._encrypted_flows.clear()
            node._doq_streams.clear()
            node.intercepted_queries = 0

    scenario.spec = spec
    scenario.scenario_spec = sspec
    scenario.notes = {}
    return scenario


def _answer_templates_on(scenario: Scenario) -> Scenario:
    """Switch on the answer-template caches of ``scenario``'s resolvers.

    Only the pure responders: resolver answers are functions of (query
    wire minus id, response signature), audited per class. The embedded
    forwarder and the middleboxes are stateful relays and stay uncached.
    """
    for node in scenario.network.nodes.values():
        if isinstance(node, DnsServerNode):
            node.response_cache_enabled = True
    return scenario


class ScenarioCache:
    """A small LRU of built scenarios, reset-and-reused per probe.

    One cache per worker (or per serial path) of a fast-engine
    :class:`~repro.core.parallel.FleetSession` amortises topology
    construction across a study or a whole campaign run. It caches
    scenarios, not records: the probe-dedup memo lives on the session,
    in the parent process. ``get`` on an unhashable signature or on a
    directory other than the cache's own builds fresh.

    Every scenario it hands out has the answer-template caches of its
    resolvers switched on; :func:`build_scenario` alone leaves them off.
    """

    def __init__(self, directory=None, max_entries: int = 512) -> None:
        self.directory = directory
        self.max_entries = max_entries
        self._cache: "dict[tuple, Scenario]" = {}
        self.hits = 0
        self.misses = 0

    def get(self, sspec: ScenarioSpec, directory=None) -> Scenario:
        if self.directory is None:
            self.directory = directory
        signature = scenario_signature(sspec)
        # A foreign directory would leak into reused resolver nodes;
        # don't mix, don't cache.
        foreign = directory is not None and directory is not self.directory
        if signature is None or foreign:
            return _answer_templates_on(
                build_scenario(sspec, directory=directory or self.directory)
            )
        cached = self._cache.pop(signature, None)
        if cached is not None:
            self._cache[signature] = cached  # re-insert = most recent
            self.hits += 1
            return reset_scenario(cached, sspec)
        self.misses += 1
        scenario = _answer_templates_on(build_scenario(sspec, directory=self.directory))
        if self.directory is None:
            self.directory = scenario.directory
        self._cache[signature] = scenario
        if len(self._cache) > self.max_entries:
            # dicts iterate in insertion order; the first key is the
            # least recently used thanks to the pop/re-insert above.
            self._cache.pop(next(iter(self._cache)))
        return scenario
