"""Synthetic probe-fleet generation, calibrated to the paper's pilot study.

The generator produces a fleet whose *measured* aggregates land on the
shapes of Table 4 (per-resolver interception counts, IPv4 vs IPv6),
Table 5 (version.bind strings of CPE interceptors), Figure 3 (per-org
interception and transparency) and Figure 4 (interception location).

Calibration notes (derivation in EXPERIMENTS.md):

- Response modelling. Per-probe availability ``a`` plus small
  per-provider nonresponse ``q_r`` reproduce both the differing
  per-resolver totals (9619..9666) and the joint total (9537):
  ``T = N*a ≈ 9673``, ``q_r = total_r / T``.
- Interceptor design counts are the paper's counts inflated by
  ``1/(a*q)`` so the *realized* counts (among responding probes) land
  near the paper's.
- The interception pattern mix solves the Table 4 system: with 112
  all-four interceptors, 66 single-resolver, 47 allow-one and one pair,
  per-resolver design counts hit 161-169, realizing at ≈156-165.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.cpe.firmware import (
    FirmwareProfile,
    dnat_interceptor,
    honest_forwarder,
    honest_router,
    open_wan_forwarder,
    pihole_profile,
)
from repro.interceptors.encrypted import (
    EncryptedAction,
    EncryptedDnsPolicy,
    downgrade_all,
)
from repro.interceptors.policy import (
    InterceptMode,
    InterceptionPolicy,
    allow_only,
    intercept_all,
    intercept_only,
)
from repro.dnswire import RCode
from repro.resolvers.public import PROVIDER_SPECS, Provider
from repro.resolvers.software import (
    ChaosBehavior,
    ServerSoftware,
    bind_debian,
    bind_redhat,
    bind_vanilla,
    dnsmasq,
    microsoft,
    pi_hole,
    powerdns,
    q9,
    quirky,
    silent_forwarder,
    unbound,
    windows_ns,
    xdns,
)
from repro.values import shared

from .geo import ORGANIZATIONS, Organization, organization_by_name
from .probe import IspBehavior, ProbeSpec, isp_behavior

#: Provider ordering used for the per-provider response tuples.
PROVIDERS = (Provider.CLOUDFLARE, Provider.GOOGLE, Provider.QUAD9, Provider.OPENDNS)


@dataclass(frozen=True)
class PopulationConfig:
    """Tunable knobs of the fleet generator."""

    size: int = 9800
    seed: int = 2021
    availability: float = 0.987
    #: Per-provider IPv4 response rates (CF, Google, Quad9, OpenDNS).
    response_v4: tuple[float, float, float, float] = (0.99438, 0.99814, 0.99411, 0.99928)
    v6_share: float = 0.3875
    response_v6: tuple[float, float, float, float] = (0.9952, 0.99413, 0.99573, 0.9944)
    #: Design interceptor counts at the reference size; scaled by size/9800.
    cpe_true_count: int = 47
    cpe_misclassified_count: int = 2  # §6 open-forwarder limitation cases
    isp_all_four: int = 46
    isp_single: tuple[int, int, int, int] = (13, 12, 8, 8)
    isp_allow_one: tuple[int, int, int, int] = (8, 9, 8, 7)
    isp_pair: int = 1
    ext_all_four: int = 17
    ext_single: tuple[int, int, int, int] = (8, 7, 5, 5)
    ext_allow_one: tuple[int, int, int, int] = (4, 4, 3, 4)
    #: Of ISP middleboxes: fraction that BLOCK instead of REDIRECT, and
    #: fraction with mixed per-resolver behaviour ("Both" in Figure 3).
    isp_block_share: float = 0.14
    isp_mixed_share: float = 0.08
    #: Fraction of ISP redirects that *replicate* instead (forward the
    #: original AND answer — Liu et al.'s query replication, which the
    #: paper treats as indistinguishable from interception, §3.1).
    isp_replicate_share: float = 0.05
    #: Fraction of in-ISP middleboxes that do not intercept bogon-destined
    #: queries, so Step 3 cannot place them (§3.3 ambiguity).
    isp_bogon_blind_share: float = 0.12
    #: IPv6 interception: probes adding a v6 policy (subset of ISP redirects).
    v6_google_only: int = 15
    v6_three_no_google: int = 11
    #: Fraction of honest probes whose CPE serves DNS to the LAN, and of
    #: those, fraction with WAN port 53 open (the Appendix A confounder).
    honest_forwarder_share: float = 0.35
    honest_wan_open_share: float = 0.05
    #: Encrypted-DNS postures of middlebox interceptors: the fraction
    #: that firewall port 853 (DoT+DoQ blocked, DoH hides in HTTPS) and
    #: the fraction that terminate-and-downgrade all three transports;
    #: the rest have no opinion and pass encrypted sessions through.
    #: Sampled from a dedicated RNG stream so the plaintext fleet stays
    #: byte-identical to pre-encrypted-workload exports.
    middlebox_encrypted_block_share: float = 0.35
    middlebox_encrypted_downgrade_share: float = 0.25
    #: Encrypted-only interceptors: probes whose ISP middlebox leaves
    #: plaintext port 53 untouched but terminates-and-downgrades every
    #: encrypted transport. Invisible to the plaintext locator (the
    #: heuristic scores them clean); the certificate cross-validation
    #: detector flags the foreign per-AS identity. Design count at the
    #: reference size, scaled like the interceptor counts; drawn from
    #: the honest pool *after* the fleet shuffle, on a dedicated RNG.
    encrypted_only_downgrade_count: int = 12
    #: Fraction of in-ISP REDIRECT middleboxes whose alternate resolver
    #: also monetises NXDOMAIN (wildcards unregistered names to an ad
    #: server) — invisible to the resolvable-domain heuristic probes,
    #: caught by the cert detector's NXDOMAIN canary.
    isp_nxdomain_wildcard_share: float = 0.10
    #: The forged address such monetising resolvers answer with.
    nxdomain_wildcard_address: str = "203.0.113.80"


#: version.bind software mix for the 47 true CPE interceptors. Together
#: with the 2 misclassified open forwarders (whose ISP resolvers run
#: unbound 1.9.0), the *measured* Table 5 adds up to the paper's 49:
#: dnsmasq-* 23, dnsmasq-pi-hole-* 8, unbound* 6, *-RedHat 2, ten 1-each.
CPE_TRUE_SOFTWARE: tuple[ServerSoftware, ...] = (
    # 23 dnsmasq (15 of them XB6/RDK-B units -> the case-study models)
    *[xdns("2.85") for _ in range(15)],
    *[dnsmasq("2.80") for _ in range(5)],
    *[dnsmasq("2.78") for _ in range(3)],
    # 8 pi-hole
    *[pi_hole("2.81") for _ in range(5)],
    *[pi_hole("2.84") for _ in range(3)],
    # 4 unbound (plus 2 misclassified ISP probes showing unbound 1.9.0)
    unbound("1.9.0"),
    unbound("1.9.0", identity="routing.v2.pw"),
    unbound("1.13.1"),
    unbound("1.13.1"),
    # 2 BIND RedHat packages
    bind_redhat(),
    bind_redhat(),
    # the long tail, one each
    powerdns(),
    q9(),
    bind_vanilla("9.16.15"),
    bind_debian(),
    windows_ns(),
    microsoft(),
    quirky("new"),
    quirky("unknown"),
    quirky("none"),
    quirky("huuh?"),
)

#: dnsmasq versions of honest LAN forwarders.
_DNSMASQ_VERSIONS = ["2.78", "2.80", "2.85"]

_RESOLVER_KEYS = (
    "unbound-1.9.0",
    "unbound-1.13.1",
    "powerdns-4.1.11",
    "bind-redhat",
    "bind-9.16.15",
)


def _org_resolver_key(org: Organization) -> str:
    """Deterministic resolver software per organization."""
    return _RESOLVER_KEYS[org.asn % len(_RESOLVER_KEYS)]


@functools.cache
def _honest_firmware(
    dnsmasq_version: Optional[str] = None, wan_open: bool = False
) -> FirmwareProfile:
    """The one profile of an honest CPE: a plain router without
    ``dnsmasq_version``, else a LAN forwarder running that dnsmasq, open
    on the WAN or not. Built once per value, not once per probe."""
    if dnsmasq_version is None:
        return honest_router()
    software = dnsmasq(dnsmasq_version)
    if wan_open:
        return open_wan_forwarder(software=software)
    return honest_forwarder(software=software)


@functools.cache
def _flag_tuples(count: int) -> tuple[tuple[bool, ...], ...]:
    """Every ``count``-tuple of bools, indexed by the bits of
    :func:`_draw_flags` (the first flag is the highest bit)."""
    return tuple(itertools.product((False, True), repeat=count))


def _draw_flags(draw, rates) -> int:
    """One ``draw() < rate`` flag per rate, in order, as the bits of an
    index into :func:`_flag_tuples`."""
    index = 0
    for rate in rates:
        index = 2 * index + (draw() < rate)
    return index


#: One instance per distinct non-empty policy tuple of a spec.
_POLICY_TUPLES: dict[tuple, tuple] = {}


def _shared_policies(policies: list[InterceptionPolicy]) -> tuple:
    """``policies`` as the one tuple of its value (only interceptors have
    any, so this runs for a few hundred probes at most)."""
    policies = tuple(policies)
    return _POLICY_TUPLES.setdefault(policies, policies) if policies else ()


def _provider_targets(provider: Provider, families=(4,)) -> list[str]:
    spec = PROVIDER_SPECS[provider]
    targets: list[str] = []
    if 4 in families:
        targets.extend(spec.v4_addresses)
    if 6 in families:
        targets.extend(spec.v6_addresses)
    return targets


@dataclass
class _Draft:
    """Mutable pre-spec while the generator assembles a probe."""

    organization: Organization
    firmware: FirmwareProfile = field(default_factory=_honest_firmware)
    middlebox_policies: list[InterceptionPolicy] = field(default_factory=list)
    external_policies: list[InterceptionPolicy] = field(default_factory=list)
    force_ipv6: Optional[bool] = None
    note: str = ""
    resolver_key_override: Optional[str] = None
    nxdomain_wildcard_to: Optional[str] = None


class PopulationGenerator:
    """Builds the calibrated fleet. Deterministic under a fixed seed."""

    def __init__(self, config: Optional[PopulationConfig] = None) -> None:
        self.config = config or PopulationConfig()
        self.rng = random.Random(self.config.seed)

    # -- sampling helpers ---------------------------------------------------

    def _sample_org(self, by_interception: bool = False, xb6_bias: bool = False) -> Organization:
        if xb6_bias:
            pool = [o for o in ORGANIZATIONS if o.deploys_xb6]
            weights = [o.intercept_weight for o in pool]
            return self.rng.choices(pool, weights=weights, k=1)[0]
        weights = [
            o.intercept_weight if by_interception else o.probe_weight
            for o in ORGANIZATIONS
        ]
        return self.rng.choices(list(ORGANIZATIONS), weights=weights, k=1)[0]

    def _scale(self, count: int) -> int:
        if self.config.size >= 9800:
            return count
        scaled = count * self.config.size / 9800
        floor = int(scaled)
        return floor + (1 if self.rng.random() < scaled - floor else 0)

    def _isp_mode(self) -> InterceptMode:
        roll = self.rng.random()
        if roll < self.config.isp_block_share:
            return InterceptMode.BLOCK
        if roll < self.config.isp_block_share + self.config.isp_replicate_share:
            return InterceptMode.REPLICATE
        return InterceptMode.REDIRECT

    def _block_rcode(self) -> int:
        return self.rng.choice([RCode.REFUSED, RCode.NOTIMP, RCode.SERVFAIL])

    def _bogon_flag(self) -> bool:
        return self.rng.random() >= self.config.isp_bogon_blind_share

    # -- interceptor drafts ----------------------------------------------------

    def _draft_cpe_true(self) -> list[_Draft]:
        drafts = []
        for index in range(self._scale(self.config.cpe_true_count)):
            software = CPE_TRUE_SOFTWARE[index % len(CPE_TRUE_SOFTWARE)]
            is_rdkb = index < 15  # XB6/RDK-B units live in XB6-renting ISPs
            org = self._sample_org(xb6_bias=is_rdkb, by_interception=not is_rdkb)
            model = "XB6" if is_rdkb else (
                "pi-hole" if software.family.startswith("dnsmasq-pi-hole") else "cpe-dnat"
            )
            # Shared once _assign_encrypted_postures adds its posture.
            firmware = FirmwareProfile(
                model=model,
                software=software,
                intercepts_v4=True,
                notes="CPE DNAT interception",
            )
            drafts.append(_Draft(organization=org, firmware=firmware, note="cpe"))
        return drafts

    def _draft_cpe_misclassified(self) -> list[_Draft]:
        """§6 limitation: open WAN forwarder that relays version.bind,
        behind an all-four ISP redirect with an unbound-1.9.0 resolver."""
        drafts = []
        for _ in range(self._scale(self.config.cpe_misclassified_count)):
            org = self._sample_org(by_interception=True)
            firmware = shared(
                FirmwareProfile(
                    model="open-forwarder",
                    software=silent_forwarder(),
                    wan_port53_open=True,
                    notes="forwards version.bind upstream",
                )
            )
            draft = _Draft(
                organization=org,
                firmware=firmware,
                note="cpe-misclass",
                # Pin the resolver software: the string Step 2 (wrongly)
                # attributes to these CPEs is the resolver's, and the
                # paper's Table 5 shows it among the unbound entries.
                resolver_key_override="unbound-1.9.0",
            )
            draft.middlebox_policies.append(
                intercept_all(mode=InterceptMode.REDIRECT, intercept_bogons=True)
            )
            drafts.append(draft)
        return drafts

    def _draft_middlebox(self, policies: list[InterceptionPolicy], note: str) -> _Draft:
        org = self._sample_org(by_interception=True)
        draft = _Draft(organization=org, note=note)
        draft.middlebox_policies.extend(policies)
        return draft

    def _draft_isp(self) -> list[_Draft]:
        cfg = self.config
        drafts: list[_Draft] = []
        # all-four interceptors
        for _ in range(self._scale(cfg.isp_all_four)):
            mode = self._isp_mode()
            mixed = self.rng.random() < cfg.isp_mixed_share
            bogons = self._bogon_flag()
            if mixed:
                # BLOCK one popular provider, REDIRECT the rest -> "Both".
                blocked = self.rng.choice([Provider.GOOGLE, Provider.CLOUDFLARE])
                policies = [
                    InterceptionPolicy(
                        mode=InterceptMode.BLOCK,
                        families=frozenset({4}),
                        targets=frozenset(_provider_targets(blocked)),
                        block_rcode=self._block_rcode(),
                        intercept_bogons=False,
                    ),
                    intercept_all(mode=InterceptMode.REDIRECT, intercept_bogons=bogons),
                ]
            else:
                policies = [
                    intercept_all(
                        mode=mode,
                        intercept_bogons=bogons,
                        block_rcode=self._block_rcode(),
                    )
                ]
            drafts.append(self._draft_middlebox(policies, "isp-all"))
        # single-resolver interceptors
        for provider, count in zip(PROVIDERS, cfg.isp_single):
            for _ in range(self._scale(count)):
                policy = intercept_only(
                    _provider_targets(provider),
                    mode=self._isp_mode(),
                    intercept_bogons=self._bogon_flag(),
                )
                drafts.append(self._draft_middlebox([policy], "isp-single"))
        # allow-one interceptors
        for provider, count in zip(PROVIDERS, cfg.isp_allow_one):
            for _ in range(self._scale(count)):
                policy = allow_only(
                    _provider_targets(provider),
                    mode=InterceptMode.REDIRECT,
                    intercept_bogons=self._bogon_flag(),
                )
                drafts.append(self._draft_middlebox([policy], "isp-allow-one"))
        # the single pair interceptor (CF+Google)
        for _ in range(self._scale(cfg.isp_pair)):
            policy = intercept_only(
                _provider_targets(Provider.CLOUDFLARE)
                + _provider_targets(Provider.GOOGLE),
                mode=InterceptMode.REDIRECT,
                intercept_bogons=self._bogon_flag(),
            )
            drafts.append(self._draft_middlebox([policy], "isp-pair"))
        return drafts

    def _draft_external(self) -> list[_Draft]:
        cfg = self.config
        drafts: list[_Draft] = []

        def ext(policies: list[InterceptionPolicy], note: str) -> _Draft:
            org = self._sample_org(by_interception=True)
            draft = _Draft(organization=org, note=note)
            draft.external_policies.extend(policies)
            return draft

        for _ in range(self._scale(cfg.ext_all_four)):
            drafts.append(ext([intercept_all(mode=InterceptMode.REDIRECT)], "ext-all"))
        for provider, count in zip(PROVIDERS, cfg.ext_single):
            for _ in range(self._scale(count)):
                drafts.append(
                    ext(
                        [intercept_only(_provider_targets(provider))],
                        "ext-single",
                    )
                )
        for provider, count in zip(PROVIDERS, cfg.ext_allow_one):
            for _ in range(self._scale(count)):
                drafts.append(
                    ext([allow_only(_provider_targets(provider))], "ext-allow-one")
                )
        return drafts

    def _add_v6_interception(self, drafts: list[_Draft]) -> None:
        """Layer IPv6 policies onto a subset of ISP redirect interceptors."""
        cfg = self.config
        candidates = [
            d for d in drafts if d.middlebox_policies and d.note.startswith("isp")
        ]
        self.rng.shuffle(candidates)
        google_only = self._scale(cfg.v6_google_only)
        three = self._scale(cfg.v6_three_no_google)
        for draft in candidates[:google_only]:
            draft.force_ipv6 = True
            draft.middlebox_policies.append(
                intercept_only(
                    _provider_targets(Provider.GOOGLE, families=(6,)),
                    families=frozenset({6}),
                )
            )
        for draft in candidates[google_only : google_only + three]:
            draft.force_ipv6 = True
            targets = (
                _provider_targets(Provider.CLOUDFLARE, families=(6,))
                + _provider_targets(Provider.QUAD9, families=(6,))
                + _provider_targets(Provider.OPENDNS, families=(6,))
            )
            draft.middlebox_policies.append(
                intercept_only(targets, families=frozenset({6}))
            )

    # -- honest drafts -------------------------------------------------------------

    def _draft_honest(self, count: int) -> list[_Draft]:
        cfg = self.config
        drafts = []
        for _ in range(count):
            org = self._sample_org()
            roll = self.rng.random()
            if roll < cfg.honest_forwarder_share * cfg.honest_wan_open_share:
                firmware = _honest_firmware(
                    self.rng.choice(_DNSMASQ_VERSIONS), wan_open=True
                )
            elif roll < cfg.honest_forwarder_share:
                firmware = _honest_firmware(self.rng.choice(_DNSMASQ_VERSIONS))
            else:
                firmware = _honest_firmware()
            drafts.append(_Draft(organization=org, firmware=firmware, note="honest"))
        return drafts

    # -- encrypted-DNS postures ----------------------------------------------------

    def _assign_encrypted_postures(self, drafts: "list[_Draft]") -> None:
        """Give every interceptor draft an encrypted-DNS personality.

        CPE postures follow the firmware model deterministically (an
        XB6 downgrades like its plaintext bug, a pi-hole blocklists the
        public-resolver SNIs, a plain DNAT box firewalls port 853);
        middlebox postures are sampled. The sampling uses its own
        :class:`random.Random` — consuming the generator's main stream
        here would reshuffle every downstream draw and silently change
        the plaintext fleet this generator is calibrated to produce.
        """
        import dataclasses

        cfg = self.config
        enc_rng = random.Random(cfg.seed * 48947 + 853)
        port_block = EncryptedDnsPolicy(
            dot=EncryptedAction.BLOCK, doq=EncryptedAction.BLOCK
        )
        for draft in drafts:
            if draft.note == "cpe":
                firmware = draft.firmware
                if firmware.model == "XB6":
                    posture = downgrade_all()
                elif firmware.model == "pi-hole":
                    posture = pihole_profile().encrypted_dns
                else:
                    posture = dnat_interceptor().encrypted_dns
                draft.firmware = shared(
                    dataclasses.replace(firmware, encrypted_dns=posture)
                )
                continue
            if not (draft.middlebox_policies or draft.external_policies):
                continue
            roll = enc_rng.random()
            if roll < cfg.middlebox_encrypted_block_share:
                posture = port_block
            elif roll < (
                cfg.middlebox_encrypted_block_share
                + cfg.middlebox_encrypted_downgrade_share
            ):
                posture = downgrade_all()
            else:
                continue  # no opinion: encrypted sessions pass through
            draft.middlebox_policies = [
                dataclasses.replace(policy, encrypted=posture)
                for policy in draft.middlebox_policies
            ]
            draft.external_policies = [
                dataclasses.replace(policy, encrypted=posture)
                for policy in draft.external_policies
            ]

    def _assign_nxdomain_wildcards(self, drafts: "list[_Draft]") -> None:
        """Give a share of ISP REDIRECT interceptors a monetising resolver.

        Sampled on a dedicated RNG stream (like the encrypted postures):
        the plaintext answers these resolvers give to *resolvable* names
        are untouched, so the calibrated heuristic fleet must stay
        byte-identical with the feature on or off.
        """
        cfg = self.config
        wc_rng = random.Random(cfg.seed * 74093 + 53)
        for draft in drafts:
            if not draft.note.startswith("isp"):
                continue
            if not any(
                p.mode is InterceptMode.REDIRECT and p.plaintext
                for p in draft.middlebox_policies
            ):
                continue
            if wc_rng.random() < cfg.isp_nxdomain_wildcard_share:
                draft.nxdomain_wildcard_to = cfg.nxdomain_wildcard_address

    def _convert_encrypted_only(self, drafts: "list[_Draft]") -> None:
        """Turn the first N honest drafts into encrypted-only interceptors.

        Runs *after* the fleet shuffle so the converted probes are spread
        pseudo-randomly through the fleet without consuming the main RNG
        stream (mutating a draft in place never touches ``self.rng``).
        The policy's ``plaintext=False`` keeps ``true_location()`` at
        NONE — ground truth agrees with the plaintext locator; only the
        certificate detector sees these boxes.
        """
        cfg = self.config
        count = cfg.encrypted_only_downgrade_count
        if cfg.size < 9800:
            scaled = count * cfg.size / 9800
            conv_rng = random.Random(cfg.seed * 104729 + 443)
            count = int(scaled) + (
                1 if conv_rng.random() < scaled - int(scaled) else 0
            )
        converted = 0
        for draft in drafts:
            if converted >= count:
                break
            if draft.note != "honest":
                continue
            draft.note = "isp-encrypted-downgrade"
            draft.middlebox_policies.append(
                InterceptionPolicy(
                    mode=InterceptMode.REDIRECT,
                    plaintext=False,
                    encrypted=downgrade_all(),
                    intercept_bogons=False,
                )
            )
            converted += 1

    # -- assembly ------------------------------------------------------------------

    def generate(self) -> list[ProbeSpec]:
        cfg = self.config
        drafts = (
            self._draft_cpe_true()
            + self._draft_cpe_misclassified()
            + self._draft_isp()
            + self._draft_external()
        )
        self._add_v6_interception(drafts)
        self._assign_encrypted_postures(drafts)
        self._assign_nxdomain_wildcards(drafts)
        honest_needed = max(0, cfg.size - len(drafts))
        drafts += self._draft_honest(honest_needed)
        self.rng.shuffle(drafts)
        self._convert_encrypted_only(drafts)

        # Every value a spec holds is built once and shared by every spec
        # that holds it: firmware and policy tuples above, ISP behaviours
        # by isp_behavior, response tuples from one table per length.
        draw = self.rng.random
        flags_v4 = _flag_tuples(len(cfg.response_v4))
        flags_v6 = _flag_tuples(len(cfg.response_v6))
        specs: list[ProbeSpec] = []
        for index, draft in enumerate(drafts):
            probe_id = 10_000 + index
            has_ipv6 = (
                draft.force_ipv6
                if draft.force_ipv6 is not None
                else draw() < cfg.v6_share
            )
            online = draw() < cfg.availability
            responds_v4 = flags_v4[_draw_flags(draw, cfg.response_v4)]
            responds_v6 = flags_v6[_draw_flags(draw, cfg.response_v6)]
            specs.append(
                ProbeSpec(
                    probe_id=probe_id,
                    organization=draft.organization,
                    firmware=draft.firmware,
                    isp=isp_behavior(
                        draft.resolver_key_override
                        or _org_resolver_key(draft.organization),
                        tuple(draft.middlebox_policies),
                        False,
                        draft.nxdomain_wildcard_to,
                    ),
                    external_policies=_shared_policies(draft.external_policies),
                    has_ipv6=has_ipv6,
                    responds_v4=responds_v4,
                    responds_v6=responds_v6,
                    online=online,
                )
            )
        return specs


def generate_population(
    size: int = 9800, seed: int = 2021, config: Optional[PopulationConfig] = None
) -> list[ProbeSpec]:
    """Generate the calibrated fleet (convenience wrapper)."""
    if config is None:
        config = PopulationConfig(size=size, seed=seed)
    return PopulationGenerator(config).generate()


#: PopulationConfig field names, resolved once for the catalog loader.
_POPULATION_FIELDS: dict = {}


def population_config_from_dict(data: dict) -> PopulationConfig:
    """Build a :class:`PopulationConfig` from plain JSON data.

    The scenario catalog's ``population`` section maps straight onto the
    generator's knobs; unknown keys are rejected (a typo'd knob must not
    silently fall back to its default) and JSON lists are normalised to
    the tuples the frozen dataclass expects.
    """
    import dataclasses as _dataclasses

    if not _POPULATION_FIELDS:
        for f in _dataclasses.fields(PopulationConfig):
            _POPULATION_FIELDS[f.name] = f
    unknown = set(data) - set(_POPULATION_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown population keys: {sorted(unknown)}; "
            f"known: {sorted(_POPULATION_FIELDS)}"
        )
    payload = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in data.items()
    }
    return PopulationConfig(**payload)


def example_probe_specs() -> dict[int, ProbeSpec]:
    """The three probes of the worked example in §3.4 (Tables 2-3).

    - **1053** — clean path; standard answers everywhere.
    - **11992** — ISP middlebox redirect; the alternate resolver hides its
      version (NOTIMP), and the probe's own CPE has port 53 open with
      software answering NXDOMAIN to ``version.bind``: a non-CPE verdict,
      resolved to "within ISP" by the bogon query.
    - **21823** — CPE DNAT interceptor running unbound 1.9.0 with
      ``identity: routing.v2.pw``; all three version.bind answers agree.
    """
    comcast = organization_by_name("Comcast")
    rostelecom = organization_by_name("Rostelecom")
    ziggo = organization_by_name("Ziggo")

    nxdomain_fw = ServerSoftware(
        label="(nxdomain)",
        family="(nxdomain)",
        version_bind=ChaosBehavior.nxdomain(),
        id_server=ChaosBehavior.nxdomain(),
        hostname_bind=ChaosBehavior.nxdomain(),
    )
    return {
        1053: ProbeSpec(
            probe_id=1053, organization=comcast, firmware=honest_router()
        ),
        11992: ProbeSpec(
            probe_id=11992,
            organization=rostelecom,
            firmware=FirmwareProfile(
                model="open-forwarder",
                software=nxdomain_fw,
                wan_port53_open=True,
            ),
            isp=IspBehavior(
                resolver_software_key="unbound-hidden",
                middlebox_policies=(
                    intercept_all(mode=InterceptMode.REDIRECT, intercept_bogons=True),
                ),
            ),
        ),
        21823: ProbeSpec(
            probe_id=21823,
            organization=ziggo,
            firmware=FirmwareProfile(
                model="cpe-dnat",
                software=unbound("1.9.0", identity="routing.v2.pw"),
                intercepts_v4=True,
            ),
        ),
    }
