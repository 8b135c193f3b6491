"""The scenario catalog: named, validated, fingerprinted study bundles.

A *scenario* is a JSON file bundling everything one reproducible
experiment needs — population knobs, study settings (detector,
transport, impairment, retries) and a :class:`~repro.campaigns.schedule.
CampaignSchedule` — so "run the ISP-policy-flip study" is one name, not
a dozen CLI flags. Files live in a catalog directory (``scenarios/`` in
the repo), load through a strict validator (unknown keys are rejected at
every level: a typo'd knob must never silently fall back to a default),
and carry a content fingerprint that names exactly what would run.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any

from repro.atlas.population import PopulationConfig, population_config_from_dict
from repro.atlas.retry import ExponentialBackoffRetry
from repro.core.study import StudyConfig
from repro.net.impairment import IMPAIRMENT_PROFILES, impairment_profile
from repro.store.journal import canonical_value, fingerprint

from .schedule import (
    CampaignSchedule,
    ChurnSpec,
    FirmwareUpgrade,
    PolicyFlip,
)

#: Where ``repro scenarios`` / ``repro campaign`` look by default.
DEFAULT_SCENARIO_DIR = "scenarios"

_STUDY_KEYS = (
    "detector",
    "transport",
    "evasion",
    "fingerprint",
    "impairment",
    "retries",
    "run_transparency",
)

_TYPE_NAMES = {str: "a string", bool: "a boolean"}

#: The study keys that set a :class:`StudyConfig` field of the same name
#: to a plain string or boolean, by the type of the field's default.
_PLAIN_STUDY_KEYS = {
    field.name: type(field.default)
    for field in dataclasses.fields(StudyConfig)
    if field.name in _STUDY_KEYS and type(field.default) in _TYPE_NAMES
}


class ScenarioError(Exception):
    """A scenario file is missing, malformed, or fails validation."""


@dataclass(frozen=True)
class ScenarioBundle:
    """One catalog entry, fully resolved into runnable config objects."""

    name: str
    description: str
    population: PopulationConfig
    study: StudyConfig
    schedule: CampaignSchedule

    def canonical(self) -> Any:
        """Deterministic JSON-ready form of the bundle (for hashing)."""
        return canonical_value(
            {
                "name": self.name,
                "population": self.population,
                "schedule": self.schedule,
            }
        )

    def fingerprint(self) -> str:
        """Content hash naming exactly what this scenario would run.

        ``workers``/``engine`` never enter (the study config is reduced
        to its semantic export dict), so the same scenario prints the
        same fingerprint on any machine.
        """
        from repro.analysis.export import config_to_dict

        return fingerprint(
            {
                "kind": "scenario",
                "bundle": self.canonical(),
                "config": config_to_dict(self.study),
            }
        )

    def summary(self) -> dict:
        """The ``repro scenarios list/show`` row."""
        return {
            "name": self.name,
            "description": self.description,
            "fingerprint": self.fingerprint(),
            "fleet_size": self.population.size,
            "seed": self.population.seed,
            "epochs": self.schedule.epochs,
            "detector": self.study.detector,
            "transport": self.study.transport,
            "evasion": self.study.evasion,
            "churn": {
                "leave_rate": self.schedule.churn.leave_rate,
                "join_rate": self.schedule.churn.join_rate,
            },
            "firmware_upgrades": [
                dataclasses.asdict(event)
                for event in self.schedule.firmware_upgrades
            ],
            "policy_flips": [
                dataclasses.asdict(event) for event in self.schedule.policy_flips
            ],
        }


# -- validation ---------------------------------------------------------------


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed: tuple, where: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"{where}: unknown keys {sorted(unknown)}; known: {sorted(allowed)}"
        )


def _parse_study(data: dict, seed: int, where: str) -> StudyConfig:
    _reject_unknown(data, _STUDY_KEYS, where)
    kwargs: dict = {
        "seed": seed,
        # Longitudinal journals hold records only (no metrics segments).
        "metrics": False,
    }
    for key, kind in _PLAIN_STUDY_KEYS.items():
        if key in data:
            value = data[key]
            if not isinstance(value, kind):
                raise ScenarioError(f"{where}.{key} must be {_TYPE_NAMES[kind]}")
            kwargs[key] = value
    if "impairment" in data:
        name = data["impairment"]
        if not isinstance(name, str) or name not in IMPAIRMENT_PROFILES:
            raise ScenarioError(
                f"{where}.impairment must be one of "
                f"{sorted(IMPAIRMENT_PROFILES)}, got {name!r}"
            )
        kwargs["impairment"] = impairment_profile(name)
        kwargs["impairment_seed"] = seed
    if "retries" in data:
        retries = data["retries"]
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ScenarioError(f"{where}.retries must be an integer >= 0")
        if retries > 0:
            kwargs["retry"] = ExponentialBackoffRetry(retries=retries, seed=seed)
    try:
        return StudyConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_event(data: dict, cls, where: str):
    fields = tuple(f.name for f in dataclasses.fields(cls))
    _reject_unknown(data, fields, where)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_schedule(data: dict, where: str) -> CampaignSchedule:
    _reject_unknown(
        data, ("epochs", "churn", "firmware_upgrades", "policy_flips"), where
    )
    if "epochs" not in data:
        raise ScenarioError(f"{where}: missing required key 'epochs'")
    kwargs: dict = {}
    epochs = data["epochs"]
    if not isinstance(epochs, int) or isinstance(epochs, bool):
        raise ScenarioError(f"{where}.epochs must be an integer")
    kwargs["epochs"] = epochs
    if "churn" in data:
        churn = _require_mapping(data["churn"], f"{where}.churn")
        kwargs["churn"] = _parse_event(churn, ChurnSpec, f"{where}.churn")
    for key, cls in (
        ("firmware_upgrades", FirmwareUpgrade),
        ("policy_flips", PolicyFlip),
    ):
        if key in data:
            events = data[key]
            if not isinstance(events, list):
                raise ScenarioError(f"{where}.{key} must be a JSON array")
            kwargs[key] = tuple(
                _parse_event(
                    _require_mapping(event, f"{where}.{key}[{index}]"),
                    cls,
                    f"{where}.{key}[{index}]",
                )
                for index, event in enumerate(events)
            )
    try:
        return CampaignSchedule(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def bundle_from_dict(data: dict, where: str = "scenario") -> ScenarioBundle:
    """Validate plain JSON data into a :class:`ScenarioBundle`."""
    data = _require_mapping(data, where)
    _reject_unknown(
        data, ("name", "description", "population", "study", "schedule"), where
    )
    for key in ("name", "population", "schedule"):
        if key not in data:
            raise ScenarioError(f"{where}: missing required key {key!r}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{where}.name must be a non-empty string")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError(f"{where}.description must be a string")
    try:
        population = population_config_from_dict(
            _require_mapping(data["population"], f"{where}.population")
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}.population: {exc}") from exc
    study = _parse_study(
        _require_mapping(data.get("study", {}), f"{where}.study"),
        population.seed,
        f"{where}.study",
    )
    schedule = _parse_schedule(
        _require_mapping(data["schedule"], f"{where}.schedule"),
        f"{where}.schedule",
    )
    return ScenarioBundle(
        name=name,
        description=description,
        population=population,
        study=study,
        schedule=schedule,
    )


# -- catalog loading ----------------------------------------------------------


def load_bundle(path: str) -> ScenarioBundle:
    """Load and validate one scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return bundle_from_dict(data, where=path)


def load_catalog(directory: str = DEFAULT_SCENARIO_DIR) -> list[ScenarioBundle]:
    """Every scenario in the catalog directory, sorted by file name.

    Duplicate scenario names across files are an error — a name must
    resolve to exactly one bundle.
    """
    if not os.path.isdir(directory):
        raise ScenarioError(f"scenario directory not found: {directory}")
    bundles: list[ScenarioBundle] = []
    seen: dict[str, str] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(directory, entry)
        bundle = load_bundle(path)
        if bundle.name in seen:
            raise ScenarioError(
                f"duplicate scenario name {bundle.name!r}: "
                f"{seen[bundle.name]} and {path}"
            )
        seen[bundle.name] = path
        bundles.append(bundle)
    return bundles


def find_bundle(
    name: str, directory: str = DEFAULT_SCENARIO_DIR
) -> ScenarioBundle:
    """Resolve a scenario by name, with the catalog in the error."""
    bundles = load_catalog(directory)
    for bundle in bundles:
        if bundle.name == name:
            return bundle
    known = ", ".join(sorted(bundle.name for bundle in bundles)) or "(none)"
    raise ScenarioError(f"unknown scenario {name!r}; catalog: {known}")


__all__ = [
    "DEFAULT_SCENARIO_DIR",
    "ScenarioBundle",
    "ScenarioError",
    "bundle_from_dict",
    "find_bundle",
    "load_bundle",
    "load_catalog",
]
