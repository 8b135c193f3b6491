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

Pairs are the first two online probes of each signature in a generated
fleet with dense interceptors, measured under a clean config,
residential impairment with retries, and every extra pass (both
detectors, fingerprint, DoQ evasion).
"""

import dataclasses
from collections import defaultdict
from itertools import zip_longest

import pytest

from repro.atlas.population import PopulationConfig, generate_population
from repro.atlas.probe import InterceptorLocation
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
from repro.net.impairment import impairment_profile
from repro.resolvers import build_default_directory

SEED = 7
#: Interceptor counts (at the reference size 9,800) raised so that the
#: fleet holds same-signature pairs at every interceptor location.
FLEET = PopulationConfig(
    size=400, seed=SEED, cpe_true_count=1500, isp_all_four=3000, ext_all_four=1000
)
#: Pairs measured per config, taken in turn from each location.
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


def _pairs():
    """``(A, B)``: each signature's first two online probes, at most
    ``PAIRS`` of them, taken from each interceptor location in turn."""
    groups = defaultdict(list)
    for spec in generate_population(config=FLEET):
        if spec.online:
            groups[scenario_signature(ScenarioSpec(spec))].append(spec)
    by_location = defaultdict(list)
    for specs in groups.values():
        if len(specs) > 1:
            by_location[specs[0].true_location()].append(tuple(specs[:2]))
    turns = zip_longest(*by_location.values())
    return [pair for turn in turns for pair in turn if pair is not None][:PAIRS]


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
