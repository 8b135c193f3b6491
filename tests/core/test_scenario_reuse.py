"""A probe measured on a reused scenario is the probe measured fresh.

A :class:`~repro.atlas.scenario.ScenarioCache` hands probe B the
scenario it last built for probe A of the same signature, after
:func:`~repro.atlas.scenario.reset_scenario` re-homed it. Each test
here measures B twice: on a fresh build, and on A's scenario after A
was measured on it (and left an open socket and an ICMP error on the
host) and the scenario was reset to B. With the packet trace and
metrics on, the record, the metrics snapshot, the list of trace events
and what B leaves on the nodes (the host's ICMP inbox, the size of
every table, every counter) must be equal. Without them, the record
measured through a real ``ScenarioCache`` (answer templates on) must
equal the fresh one.

Every pair crosses organizations, so B's scenario is re-homed from A's
prefixes, ASN and resolver to its own. Pairs are each signature's first
online probe and its first later one in another organization, in a
generated fleet with dense interceptors, plus hand-made pairs for what
the generator never makes (an XB6 unit leaving an ISP that rents them,
ISP resolvers hosted outside the client AS). They are measured under a
clean config, residential impairment with retries, and every extra pass
(both detectors, fingerprint, DoQ evasion).
"""

import dataclasses
from collections import defaultdict
from itertools import zip_longest

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.population import PopulationConfig, generate_population
from repro.atlas.probe import InterceptorLocation, isp_behavior
from repro.atlas.retry import ExponentialBackoffRetry
from repro.atlas.scenario import (
    ScenarioCache,
    ScenarioSpec,
    build_scenario,
    reset_scenario,
    scenario_signature,
)
from repro.core.metrics import MetricsRegistry, use_registry
from repro.core.study import StudyConfig, classification_to_record, measure_probe
from repro.cpe.firmware import xb6_profile
from repro.dnswire import QType, make_query
from repro.interceptors.policy import intercept_all
from repro.net.impairment import impairment_profile
from repro.resolvers import RecursiveResolverNode, build_default_directory
from repro.resolvers.directory import AKAMAI_WHOAMI
from repro.resolvers.software import unbound

from tests.conftest import make_spec
from tests.resolvers.harness import wire_up

SEED = 7
#: Interceptor counts (at the reference size 9,800) raised so that the
#: fleet holds same-signature pairs at every interceptor location.
FLEET = PopulationConfig(
    size=400, seed=SEED, cpe_true_count=1500, isp_all_four=3000, ext_all_four=1000
)
#: Pairs measured per config: drawn from the fleet, taken in turn from
#: each location, and then the hand-made ones.
PAIRS = 24

CONFIGS = {
    "clean": StudyConfig(),
    "residential": StudyConfig(
        impairment=impairment_profile("residential"),
        impairment_seed=SEED,
        retry=ExponentialBackoffRetry(retries=5, seed=SEED),
    ),
    "every-pass": StudyConfig(
        detector="both", fingerprint=True, transport="doq", evasion=True
    ),
}


def _homed_pair(first, second, **fields):
    """Two probes of one signature, homed in organizations ``first`` and
    ``second``."""
    return (
        make_spec(organization_by_name(first), probe_id=7001, **fields),
        make_spec(organization_by_name(second), probe_id=7002, **fields),
    )


HAND_MADE = [
    _homed_pair("Comcast", "Deutsche Telekom", firmware=xb6_profile(), has_ipv6=True),
    _homed_pair(
        "Telstra",
        "Comcast",
        middlebox_policies=[intercept_all()],
        resolver_outside_as=True,
    ),
    _homed_pair("Deutsche Telekom", "Telstra", resolver_outside_as=True),
    # Port 853 redirected to the in-AS resolver, which presents its
    # per-AS TLS identity.
    _homed_pair(
        "Telstra",
        "Deutsche Telekom",
        middlebox_policies=[dataclasses.replace(intercept_all(), intercept_dot=True)],
    ),
]


def _pairs():
    """``(A, B)``: each signature's first online probe and the first later
    one in another organization, taken from each interceptor location in
    turn, then :data:`HAND_MADE`; ``PAIRS`` in all."""
    groups = defaultdict(list)
    for spec in generate_population(config=FLEET):
        if spec.online:
            groups[scenario_signature(ScenarioSpec(spec))].append(spec)
    by_location = defaultdict(list)
    for first, *later in groups.values():
        for second in later:
            if second.organization != first.organization:
                by_location[first.true_location()].append((first, second))
                break
    turns = zip_longest(*by_location.values())
    drawn = [pair for turn in turns for pair in turn if pair is not None]
    return drawn[: PAIRS - len(HAND_MADE)] + HAND_MADE


PAIR_LIST = _pairs()


class _Fresh:
    """A stand-in scenario cache that builds every probe's scenario anew,
    traced."""

    def __init__(self, directory):
        self.directory = directory
        self.scenario = None

    def get(self, sspec):
        sspec = dataclasses.replace(sspec, trace=True)
        self.scenario = build_scenario(sspec, self.directory)
        return self.scenario


class _Reused(_Fresh):
    """Keeps the first scenario it builds and resets it for every later
    probe."""

    def get(self, sspec):
        if self.scenario is None:
            return super().get(sspec)
        return reset_scenario(self.scenario, dataclasses.replace(sspec, trace=True))


def _leftovers(scenario):
    """What a probe leaves behind: the host's ICMP inbox, and the size of
    every table (routing tables and the CPE's PREROUTING chain too) and
    the value of every counter on each node and on the CPE's NAT and
    relay engines."""
    cpe = scenario.cpe
    holders = {
        **scenario.network.nodes,
        "cpe.nat": cpe.nat,
        "cpe.forwarder": cpe.forwarder,
        "cpe.encrypted": cpe.encrypted,
    }
    state = {("cpe", "prerouting"): len(cpe.prerouting.rules)}
    for holder, obj in holders.items():
        for attr, value in getattr(obj, "__dict__", {}).items():
            if isinstance(value, (dict, list, set)) or attr == "routes":
                state[holder, attr] = len(value)
            elif type(value) is int:
                state[holder, attr] = value
    return list(scenario.host.icmp_inbox), state


def _observe(spec, config, source):
    """Measure ``spec`` on ``source``'s scenario: its record, metrics
    snapshot, trace events and leftovers."""
    registry = MetricsRegistry(trace="exchange")
    with use_registry(registry):
        classification = measure_probe(spec, config, scenario_cache=source)
    record = classification_to_record(spec, classification, config.detector)
    scenario = source.scenario
    events = list(scenario.network.recorder.events)
    return record, registry.snapshot().to_dict(), events, _leftovers(scenario)


def _expire_a_datagram(scenario):
    """Send one datagram whose TTL runs out one hop past the CPE and keep
    its socket open, so the host holds a bound port, the CPE a NAT
    binding and the host's inbox an ICMP error (unless a link loses it)."""
    scenario.host.open_socket().sendto(b"ping", "1.1.1.1", 7000, ttl=2)
    scenario.network.run()


@pytest.fixture(scope="module")
def directory():
    return build_default_directory()


def test_fleet_has_pairs_of_every_kind():
    locations = {pair[0].true_location() for pair in PAIR_LIST}
    assert len(PAIR_LIST) == PAIRS
    assert set(InterceptorLocation) <= locations
    for first, second in PAIR_LIST:
        assert first.organization != second.organization
        assert scenario_signature(ScenarioSpec(first)) == scenario_signature(
            ScenarioSpec(second)
        )
    assert any(
        first.organization.deploys_xb6 and first.firmware.model == "XB6"
        for first, _second in PAIR_LIST
    )
    assert any(first.isp.resolver_outside_as for first, _second in PAIR_LIST)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_traced_probe_matches_fresh_build(config, directory):
    expired = 0
    for first, second in PAIR_LIST:
        reused = _Reused(directory)
        _observe(first, config, reused)
        _expire_a_datagram(reused.scenario)
        expired += len(reused.scenario.host.icmp_inbox)
        record, metrics, events, leftovers = _observe(second, config, reused)
        fresh = _observe(second, config, _Fresh(directory))
        pair = (first.probe_id, second.probe_id)
        assert record == fresh[0], pair
        assert metrics == fresh[1], pair
        assert events == fresh[2], pair
        assert leftovers == fresh[3], pair
    assert expired


@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_cached_record_matches_fresh_build(config, directory):
    for first, second in PAIR_LIST:
        cache = ScenarioCache(directory)
        cache.keep_next = True  # the first probe's signature recurs
        measure_probe(first, config, scenario_cache=cache)
        reused = measure_probe(second, config, scenario_cache=cache)
        fresh = measure_probe(second, config, directory=directory)
        assert classification_to_record(
            second, reused, config.detector
        ) == classification_to_record(second, fresh, config.detector), (
            first.probe_id,
            second.probe_id,
        )


def test_reused_resolver_answers_from_its_new_address(directory):
    """The ISP resolver's whoami answer embeds its own address, which a
    re-home changes: a reused scenario's answer templates must not
    replay the last organization's address."""
    cache = ScenarioCache(directory)
    answers = {}
    for spec in _homed_pair("Comcast", "Deutsche Telekom"):
        cache.keep_next = True
        scenario = cache.get(ScenarioSpec(spec))
        resolver = scenario.isp_resolver.egress_address(4)
        client = MeasurementClient(scenario.network, scenario.host)
        query = make_query(AKAMAI_WHOAMI, QType.A, msg_id=7)
        answers[str(resolver)] = client.exchange(resolver, query).response
    assert len(answers) == 2
    for resolver, response in answers.items():
        assert response.a_addresses() == [resolver]


# -- answer templates shared across scenarios -----------------------------------
#
# A ScenarioCache lends every resolver it builds one template table per
# answer identity, and keeps the tables across scenarios. Each pair asks
# a resolver of one organization, then a resolver of another that
# differs only in what its answer reads (its address, its wildcard
# target, its egress, its blocklist): answered from the shared
# templates, the second must say what it says with fresh ones.


def _wildcarding(organization, target):
    """A probe whose ISP resolver, hosted outside the AS (so at the same
    address for every organization), forges NXDOMAIN answers to
    ``target``."""
    spec = make_spec(organization_by_name(organization), resolver_outside_as=True)
    return dataclasses.replace(
        spec,
        isp=isp_behavior(resolver_outside_as=True, nxdomain_wildcard_to=target),
    )


def _ask_isp_resolver(scenario, query):
    resolver = scenario.isp_resolver.egress_address(4)
    client = MeasurementClient(scenario.network, scenario.host)
    return client.exchange(resolver, query).response


@pytest.mark.parametrize(
    "first, second, query",
    [
        # The whoami answer embeds the in-AS resolver's own address.
        (
            *_homed_pair("Comcast", "Deutsche Telekom"),
            make_query(AKAMAI_WHOAMI, QType.A, msg_id=7),
        ),
        (
            _wildcarding("Comcast", "203.0.113.80"),
            _wildcarding("Deutsche Telekom", "203.0.113.81"),
            make_query("missing.invalid.", QType.A, msg_id=8),
        ),
    ],
    ids=["whoami", "nxdomain-wildcard"],
)
def test_scenario_resolvers_share_templates_by_identity(first, second, query, directory):
    cache = ScenarioCache(directory)
    before = _ask_isp_resolver(cache.get(ScenarioSpec(first)), query)
    shared = _ask_isp_resolver(cache.get(ScenarioSpec(second)), query)
    fresh = _ask_isp_resolver(ScenarioCache(directory).get(ScenarioSpec(second)), query)
    assert shared == fresh
    assert shared != before


def _isp_resolver(directory, asn, **fields):
    return RecursiveResolverNode(
        "isp-resolver",
        ["24.0.0.53"],
        directory,
        software=unbound(),
        asn=asn,
        **fields,
    )


@pytest.mark.parametrize(
    "first, second, query",
    [
        (
            {"egress": "24.0.0.98"},
            {"egress": "24.0.0.99"},
            make_query(AKAMAI_WHOAMI, QType.A, msg_id=9),
        ),
        (
            {},
            {"blocked_names": {"www.example.com"}},
            make_query("www.example.com.", QType.A, msg_id=10),
        ),
    ],
    ids=["egress", "blocked-name"],
)
def test_resolvers_share_templates_by_identity(first, second, query, directory):
    """Resolvers of two organizations (ASNs) at one address, lent one
    pool as a ScenarioCache lends it."""
    pool = {}
    answers = []
    for asn, fields in ((7922, first), (3320, second)):
        resolver = _isp_resolver(directory, asn, **fields)
        resolver.share_answer_templates(pool)
        answers.append(wire_up(resolver).exchange("24.0.0.53", query).response)
    fresh = _isp_resolver(directory, 3320, **second)
    fresh.share_answer_templates({})
    assert answers[1] == wire_up(fresh).exchange("24.0.0.53", query).response
    assert answers[1] != answers[0]
