"""A scenario cache keeps a scenario only while the fleet still needs it.

:func:`~repro.core.parallel.measure_fleet` plans, per call, which
measured probes have a later measured probe of the same scenario
signature, and a :class:`~repro.atlas.scenario.ScenarioCache` keeps a
scenario only for such a probe. Builds and resets are counted by
patching ``repro.atlas.scenario.build_scenario`` and ``reset_scenario``
(the names the cache calls) and probes by patching
``repro.core.study.measure_probe``.

The serial tests check that every repeat of a signature is still a
reset, also across organizations (the signature leaves the organization
to :func:`~repro.atlas.scenario._home`), that the builds and resets are
the counts pinned below, that the cache never holds more than the
signatures both already seen and still to come (the *live set*), and
that it is empty once the call returns. The pool test checks that no worker builds one signature
twice within a call, which is what planning per shard, not per call,
would break.
"""

import os

import pytest

import repro.atlas.scenario as scenario_module
import repro.core.study as study_module
from repro.atlas.population import generate_population
from repro.atlas.retry import ExponentialBackoffRetry
from repro.atlas.scenario import ScenarioSpec, scenario_signature
from repro.core.parallel import FleetSession, measure_fleet
from repro.core.study import StudyConfig
from repro.net.impairment import impairment_profile

from tests.simstate import cached_scenarios

SEED = 2021


def _residential(**kwargs) -> StudyConfig:
    return StudyConfig(
        seed=SEED,
        impairment=impairment_profile("residential"),
        impairment_seed=SEED,
        retry=ExponentialBackoffRetry(retries=5, seed=SEED),
        **kwargs,
    )


#: (fleet size, config, builds, resets): one clean fleet (dedup on) and
#: one impaired fleet with retries (dedup off, every online probe
#: measured). With the organization in the signature they took 70 / 4
#: and 103 / 46.
SERIAL_CASES = {
    "clean": (600, StudyConfig(workers=1, seed=SEED), 54, 20),
    "residential": (150, _residential(workers=1), 41, 108),
}


def _signature(spec, config) -> tuple:
    return scenario_signature(
        ScenarioSpec(
            probe=spec,
            impairment=config.impairment,
            impairment_seed=config.impairment_seed,
        )
    )


def _count_calls(monkeypatch, log):
    """Log ``("build" | "reset", signature)`` for every scenario the
    cache builds or resets, and ``("probe", spec)`` for every probe
    measured."""
    build = scenario_module.build_scenario
    reset = scenario_module.reset_scenario
    measure = study_module.measure_probe

    def counted_build(sspec, directory=None):
        log.append(("build", scenario_signature(sspec)))
        return build(sspec, directory)

    def counted_reset(scenario, sspec):
        log.append(("reset", scenario_signature(sspec)))
        return reset(scenario, sspec)

    def counted_measure(spec, *args, **kwargs):
        log.append(("probe", spec))
        return measure(spec, *args, **kwargs)

    monkeypatch.setattr(scenario_module, "build_scenario", counted_build)
    monkeypatch.setattr(scenario_module, "reset_scenario", counted_reset)
    monkeypatch.setattr(study_module, "measure_probe", counted_measure)


@pytest.mark.parametrize("case", SERIAL_CASES.values(), ids=list(SERIAL_CASES))
def test_serial_cache_keeps_only_the_live_set(case, monkeypatch):
    size, config, build_count, reset_count = case
    fleet = generate_population(size, SEED)
    position = {spec.probe_id: index for index, spec in enumerate(fleet)}
    assert len(position) == len(fleet)
    log: list = []
    _count_calls(monkeypatch, log)
    held: dict[int, int] = {}
    with FleetSession(config) as session:
        cache = session.serial_state()[1]

        def progress(done, _total):
            held[done] = cached_scenarios(cache)

        measure_fleet(fleet, config, progress=progress, session=session)
        assert cached_scenarios(cache) == 0

    measured = [spec for kind, spec in log if kind == "probe" and spec.online]
    signatures = [_signature(spec, config) for spec in measured]
    builds = [signature for kind, signature in log if kind == "build"]
    resets = [signature for kind, signature in log if kind == "reset"]
    assert len(builds) == len(set(signatures)) == len(set(builds))
    assert len(resets) == len(signatures) - len(set(signatures))
    assert (len(builds), len(resets)) == (build_count, reset_count)
    homes = {(spec.organization, s) for spec, s in zip(measured, signatures)}
    assert len(builds) < len(homes), "reuse should cross organizations"

    # The live set after the first ``done`` probes of the fleet: the
    # signatures measured among them that a later measured probe needs.
    at = [position[spec.probe_id] for spec in measured]
    assert len(held) == len(fleet)
    for done, count in held.items():
        seen = {s for s, p in zip(signatures, at) if p < done}
        to_come = {s for s, p in zip(signatures, at) if p >= done}
        assert count <= len(seen & to_come), done
    assert max(held.values()) > 0


def test_pool_worker_builds_each_signature_once_per_call(monkeypatch, tmp_path):
    """Two workers over a chaos-style fleet: each worker builds a
    signature at most once within the call. The patched builders are
    inherited by the forked workers and append ``pid signature-hash``
    lines to a file."""
    path = tmp_path / "builds.log"
    build = scenario_module.build_scenario

    def logged_build(sspec, directory=None):
        with open(path, "a") as out:
            out.write(f"{os.getpid()} {hash(scenario_signature(sspec))}\n")
        return build(sspec, directory)

    monkeypatch.setattr(scenario_module, "build_scenario", logged_build)
    fleet = generate_population(120, SEED)
    config = _residential(workers=2)
    with FleetSession(config) as session:
        measure_fleet(fleet, config, session=session)
    builds = path.read_text().split("\n")[:-1]
    assert len({line.split()[0] for line in builds}) == 2
    assert len(builds) == len(set(builds))
    signatures = {_signature(spec, config) for spec in fleet if spec.online}
    assert len(signatures) < sum(spec.online for spec in fleet)
