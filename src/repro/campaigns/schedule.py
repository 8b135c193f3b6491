"""Recurring campaigns over a time-varying fleet.

The pilot study is a snapshot; the phenomenon it measures — CPE
interception, firmware pushes, ISP policy — drifts over months. A
:class:`CampaignSchedule` describes that drift as a sequence of
*epochs*: at each epoch the fleet is re-derived (probes churn in and
out, firmware upgrades land, ISP policies flip) and the whole detector
pipeline runs again, journaling the epoch's records as segments into
one longitudinal :class:`~repro.store.ResultStore`.

Determinism contract
--------------------

The fleet at epoch ``e`` is a **pure function of (bundle, seed, e)**:

- every churn / upgrade / flip draw comes from a per-probe, per-concern
  RNG stream seeded from ``(population seed, probe_id, salt)`` — never
  from a shared stream whose position depends on evaluation order;
- membership and transformations are *monotone* in ``e`` (a probe that
  left stays gone, an upgraded firmware stays upgraded), and epoch
  ``e``'s fleet can be derived without deriving any other epoch.

Because each probe's measurement is itself a pure function of its spec,
the journal (records appended in fleet order per epoch) and every
derived epoch table are byte-identical for any worker count, and
identical whether the campaign ran uninterrupted or was killed on a
probe budget and resumed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Callable, Optional

from repro.atlas.population import PopulationGenerator, generate_population
from repro.atlas.probe import ProbeSpec
from repro.cpe.firmware import (
    dnat_interceptor,
    honest_forwarder,
    honest_router,
    open_wan_forwarder,
    pihole_profile,
    xb6_profile,
)
from repro.interceptors.policy import InterceptMode, intercept_all
from repro.store.journal import fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.parallel import FleetSession
    from repro.core.study import ProbeRecord, StudyConfig
    from repro.store import ResultStore

    from .catalog import ScenarioBundle

#: Firmware profiles an upgrade event may install, by catalog name.
#: The interesting trajectories are spelled out: a buggy XB6 fleet
#: patched to the fixed build is the paper's §5 story played forward.
FIRMWARE_PROFILES: dict[str, Callable[[], object]] = {
    "honest": honest_router,
    "lan-forwarder": honest_forwarder,
    "open-forwarder": open_wan_forwarder,
    "dnat": dnat_interceptor,
    "pihole": pihole_profile,
    "xb6-buggy": lambda: xb6_profile(buggy=True),
    "xb6-fixed": lambda: xb6_profile(buggy=False),
}


#: The middlebox policies a "start-intercepting" flip installs.
_START_POLICIES = (
    intercept_all(mode=InterceptMode.REDIRECT, intercept_bogons=True),
)

#: Policy-flip actions a schedule may apply mid-study.
FLIP_ACTIONS = ("stop-intercepting", "start-intercepting")

#: Per-concern RNG salts (distinct streams per probe per concern).
_SALT_LEAVE = 0x1EAF
_SALT_JOINER_LEAVE = 0x2EAF
_SALT_FIRMWARE = 0xF17
_SALT_FLIP = 0xF11B

#: Joiner probe_ids live far above the generator's 10_000+index range.
_JOINER_ID_BASE = 500_000


@dataclass(frozen=True)
class ChurnSpec:
    """Seeded membership churn: per-epoch leave/join rates."""

    leave_rate: float = 0.0
    join_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("leave_rate", "join_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


@dataclass(frozen=True)
class FirmwareUpgrade:
    """From ``epoch`` on, probes whose CPE model matches get the named
    profile (a seeded ``fraction`` of them — staged rollouts)."""

    epoch: int
    match_model: str
    profile: str
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError(f"upgrade epoch must be >= 1, got {self.epoch}")
        if self.profile not in FIRMWARE_PROFILES:
            raise ValueError(
                f"unknown firmware profile {self.profile!r}; "
                f"known: {sorted(FIRMWARE_PROFILES)}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class PolicyFlip:
    """From ``epoch`` on, a seeded fraction of eligible probes' ISPs
    flip policy: interceptors go clean, or clean ISPs start
    redirecting everything (bogons included)."""

    epoch: int
    action: str
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError(f"flip epoch must be >= 1, got {self.epoch}")
        if self.action not in FLIP_ACTIONS:
            raise ValueError(
                f"unknown flip action {self.action!r}; known: {FLIP_ACTIONS}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class CampaignSchedule:
    """The time axis of a scenario bundle: how many epochs, and what
    changes between them."""

    epochs: int
    churn: ChurnSpec = ChurnSpec()
    firmware_upgrades: tuple[FirmwareUpgrade, ...] = ()
    policy_flips: tuple[PolicyFlip, ...] = ()

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


class LongitudinalCampaign:
    """Runs a catalog scenario at epochs over its time-varying fleet."""

    def __init__(self, bundle: "ScenarioBundle") -> None:
        self.bundle = bundle
        self.schedule = bundle.schedule
        self.seed = bundle.population.seed
        self._base = generate_population(config=bundle.population)
        self._joiners = self._joiner_pool()
        self._fleet_cache: dict[int, list[ProbeSpec]] = {}

    # -- fleet derivation ---------------------------------------------------

    def _stream(self, probe_id: int, salt: int) -> Random:
        return Random((self.seed * 1_000_003 + probe_id) * 1_000_033 + salt)

    def _joins_per_epoch(self) -> int:
        return round(len(self._base) * self.schedule.churn.join_rate)

    def _joiner_pool(self) -> list[ProbeSpec]:
        """Probes waiting to join: generated like the base fleet but on
        a shifted seed, with ids far outside the base range."""
        needed = self._joins_per_epoch() * max(0, self.schedule.epochs - 1)
        if needed == 0:
            return []
        config = dataclasses.replace(
            self.bundle.population, size=needed, seed=self.seed + 7_727
        )
        pool = PopulationGenerator(config).generate()
        return [
            dataclasses.replace(spec, probe_id=_JOINER_ID_BASE + index)
            for index, spec in enumerate(pool)
        ]

    def _leave_epoch(self, probe_id: int, salt: int, first: int) -> Optional[int]:
        """The epoch this probe drops out at (``None`` = stays for the
        whole campaign); monotone by construction."""
        rate = self.schedule.churn.leave_rate
        if rate <= 0.0:
            return None
        rng = self._stream(probe_id, salt)
        for epoch in range(first, self.schedule.epochs):
            if rng.random() < rate:
                return epoch
        return None

    def _transform(self, spec: ProbeSpec, epoch: int) -> ProbeSpec:
        """Apply every upgrade/flip event due by ``epoch``, in declared
        order — pure per ``(probe, epoch)`` and monotone in ``epoch``."""
        for index, upgrade in enumerate(self.schedule.firmware_upgrades):
            if epoch < upgrade.epoch:
                continue
            if spec.firmware.model != upgrade.match_model:
                continue
            if upgrade.fraction < 1.0:
                draw = self._stream(
                    spec.probe_id, _SALT_FIRMWARE + index * 7919
                ).random()
                if draw >= upgrade.fraction:
                    continue
            # The profile factories return one shared instance per value.
            spec = dataclasses.replace(
                spec, firmware=FIRMWARE_PROFILES[upgrade.profile]()
            )
        for index, flip in enumerate(self.schedule.policy_flips):
            if epoch < flip.epoch:
                continue
            if flip.action == "stop-intercepting":
                if not spec.isp.middlebox_policies:
                    continue
                if flip.fraction < 1.0:
                    draw = self._stream(
                        spec.probe_id, _SALT_FLIP + index * 104_729
                    ).random()
                    if draw >= flip.fraction:
                        continue
                spec = dataclasses.replace(spec, isp=spec.isp.with_policies(()))
            else:  # start-intercepting
                if spec.isp.middlebox_policies or spec.firmware.is_interceptor:
                    continue
                if flip.fraction < 1.0:
                    draw = self._stream(
                        spec.probe_id, _SALT_FLIP + index * 104_729
                    ).random()
                    if draw >= flip.fraction:
                        continue
                spec = dataclasses.replace(
                    spec, isp=spec.isp.with_policies(_START_POLICIES)
                )
        return spec

    def epoch_fleet(self, epoch: int) -> list[ProbeSpec]:
        """The fleet measured at ``epoch``: surviving base probes (in
        base order) then joiners (in join order), each transformed by
        the events due so far."""
        if not 0 <= epoch < self.schedule.epochs:
            raise ValueError(
                f"epoch must be in [0, {self.schedule.epochs}), got {epoch}"
            )
        cached = self._fleet_cache.get(epoch)
        if cached is not None:
            return cached
        fleet: list[ProbeSpec] = []
        for spec in self._base:
            left = self._leave_epoch(spec.probe_id, _SALT_LEAVE, 1)
            if left is not None and left <= epoch:
                continue
            fleet.append(self._transform(spec, epoch))
        per_epoch = self._joins_per_epoch()
        for index, spec in enumerate(self._joiners):
            joined = 1 + index // per_epoch if per_epoch else self.schedule.epochs
            if joined > epoch:
                continue
            left = self._leave_epoch(
                spec.probe_id, _SALT_JOINER_LEAVE, joined + 1
            )
            if left is not None and left <= epoch:
                continue
            fleet.append(self._transform(spec, epoch))
        self._fleet_cache[epoch] = fleet
        return fleet

    def epoch_sizes(self) -> list[int]:
        return [len(self.epoch_fleet(e)) for e in range(self.schedule.epochs)]

    def fingerprint(self) -> str:
        """Content hash of everything the journal depends on: the
        bundle, the semantic study config, and every epoch's derived
        fleet (so a code change that silently alters fleet derivation
        can never mix records into an old journal)."""
        from repro.analysis.export import config_to_dict

        return fingerprint(
            {
                "kind": "longitudinal",
                "bundle": self.bundle.canonical(),
                "config": config_to_dict(self.bundle.study),
                "fleets": [
                    self.epoch_fleet(e) for e in range(self.schedule.epochs)
                ],
            }
        )

    # -- measurement --------------------------------------------------------

    def _study_config(self, workers: Optional[int]) -> "StudyConfig":
        config = self.bundle.study
        if workers is not None:
            config = dataclasses.replace(config, workers=workers)
        # Longitudinal journals hold records only; metrics segments
        # would need per-epoch snapshot bookkeeping the trend tables
        # don't consume.
        if config.metrics:
            config = dataclasses.replace(config, metrics=False)
        return config

    def run(
        self,
        store: Optional["ResultStore"] = None,
        workers: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        epoch_done: Optional[Callable[[int], None]] = None,
    ) -> "dict[int, list[ProbeRecord]]":
        """Measure every epoch; return records per epoch (fleet order).

        With a store, each epoch's records journal as segments in fleet
        order (the pool's output is re-sorted first, so the journal is
        byte-identical for any worker count); already-journaled
        ``(epoch, index)`` pairs are skipped on resume, and a spent
        probe budget raises
        :class:`~repro.store.StoreInterrupted` mid-epoch, leaving a
        resumable journal. ``epoch_done(epoch)`` fires after an epoch is
        fully journaled — the campaign runner folds aggregation tables
        there, incrementally.

        The whole call is one :class:`~repro.core.parallel.FleetSession`:
        the worker pool and dedup memo are built on the first epoch,
        serve every later one and are closed when the call returns or
        raises (a scenario is kept only within its epoch). A second call
        starts cold.
        """
        from repro.core.parallel import FleetSession

        config = self._study_config(workers)
        with FleetSession(config) as session:
            return self._run_epochs(config, session, store, progress, epoch_done)

    def _run_epochs(
        self,
        config: "StudyConfig",
        session: "FleetSession",
        store: Optional["ResultStore"],
        progress: Optional[Callable[[int, int], None]],
        epoch_done: Optional[Callable[[int], None]],
    ) -> "dict[int, list[ProbeRecord]]":
        """:meth:`run` inside its session. ``measure_fleet`` stays one
        call per epoch, looked up at each call."""
        from repro.core import parallel

        if store is None:
            epochs: dict[int, list[ProbeRecord]] = {}
            for epoch in range(self.schedule.epochs):
                epochs[epoch] = parallel.measure_fleet(
                    self.epoch_fleet(epoch), config, session=session
                ).records
                if epoch_done is not None:
                    epoch_done(epoch)
            return epochs

        from repro.analysis.export import config_to_dict
        from repro.store import StoreInterrupted, epoch_manifest

        sizes = self.epoch_sizes()
        total = sum(sizes)
        done = store.begin(
            "longitudinal",
            self.fingerprint(),
            {
                **epoch_manifest(sizes),
                "scenario": self.bundle.name,
                "seed": self.seed,
                "config": config_to_dict(config),
            },
        )
        completed = len(done)
        budget_left = store.probe_budget
        truncated = False
        try:
            for epoch in range(self.schedule.epochs):
                fleet = self.epoch_fleet(epoch)
                remaining = [
                    (index, spec)
                    for index, spec in enumerate(fleet)
                    if (epoch, index) not in done
                ]
                if not remaining:
                    if epoch_done is not None:
                        epoch_done(epoch)
                    continue
                if budget_left is not None:
                    if budget_left <= 0:
                        truncated = True
                        break
                    if len(remaining) > budget_left:
                        remaining = remaining[:budget_left]
                        truncated = True
                records = parallel.measure_fleet(
                    [spec for _index, spec in remaining], config, session=session
                ).records
                store.append(
                    zip((index for index, _spec in remaining), records),
                    epoch=epoch,
                )
                completed += len(remaining)
                if budget_left is not None:
                    budget_left -= len(remaining)
                if progress is not None:
                    progress(completed, total)
                if truncated:
                    break
                if epoch_done is not None:
                    # The epoch-complete contract is durable: everything
                    # journaled and fsync'd before observers run.
                    store.sync()
                    epoch_done(epoch)
        finally:
            store.sync()
        if truncated:
            raise StoreInterrupted(completed, total)
        epochs, _metrics = store.collect()
        store.finalize()
        return epochs
