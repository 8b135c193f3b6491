"""Study-record serialization: JSON in, JSON out.

A real measurement campaign runs once and gets analysed many times; the
records must survive the process. ``records_to_json`` /
``records_from_json`` round-trip a :class:`~repro.core.study.StudyResult`
through plain JSON so fleets measured elsewhere (a different machine, a
future run, a real RIPE Atlas export massaged into this schema) can be
fed to the same analysis code.

Exports are **worker-invariant by construction**: the optional
``config`` object omits ``workers`` (an execution detail — the same
study sharded differently must export byte-identical JSON) and the
metrics snapshot serialises without its wall-clock section. Writes go
through :func:`repro.ioutil.atomic_write_text`, so a crash mid-save
never leaves a truncated file behind.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.atlas.retry import (
    ExponentialBackoffRetry,
    FixedIntervalRetry,
    RetryPolicy,
)
from repro.core.metrics import MetricsSnapshot
from repro.core.study import ProbeRecord, StudyConfig, StudyResult
from repro.ioutil import atomic_write_text
from repro.net.impairment import LinkProfile

#: Schema version written into every export. Version 1 plus optional
#: ``metrics`` (a canonical MetricsSnapshot dict) and ``config``
#: (the semantic study configuration) objects — old readers ignore the
#: extra keys, old files load unchanged.
SCHEMA_VERSION = 1

#: Retry-policy classes the config round-trip recognises, by type tag.
_RETRY_TYPES = {
    cls.__name__: cls
    for cls in (RetryPolicy, FixedIntervalRetry, ExponentialBackoffRetry)
}


#: ProbeRecord field names in declaration order, resolved once — these
#: serializers run once or twice per probe on fleet-sized record sets,
#: so per-call ``dataclasses`` introspection is too slow.
_RECORD_FIELDS: tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(ProbeRecord)
)
_RECORD_FIELD_SET = frozenset(_RECORD_FIELDS)


def record_to_dict(record: ProbeRecord) -> dict[str, Any]:
    data = {name: getattr(record, name) for name in _RECORD_FIELDS}
    # Tuples become lists in JSON; normalise provider_status rows.
    data["provider_status"] = [list(row) for row in record.provider_status]
    data["inconclusive_steps"] = list(record.inconclusive_steps)
    data["evasion_status"] = [list(row) for row in record.evasion_status]
    data["fingerprint_signature"] = list(record.fingerprint_signature)
    return data


def record_from_dict(data: dict[str, Any]) -> ProbeRecord:
    unknown = set(data) - _RECORD_FIELD_SET
    if unknown:
        raise ValueError(f"unknown record fields: {sorted(unknown)}")
    payload = dict(data)
    payload["provider_status"] = tuple(
        (str(name), int(family), str(status))
        for name, family, status in payload.get("provider_status", [])
    )
    # Absent in pre-impairment exports: default to "no step degraded".
    payload["inconclusive_steps"] = tuple(
        str(step) for step in payload.get("inconclusive_steps", ())
    )
    # Absent in pre-evasion exports: default to "evasion never ran".
    payload["evasion_status"] = tuple(
        (str(provider), str(outcome))
        for provider, outcome in payload.get("evasion_status", [])
    )
    # Absent in pre-fingerprint exports: default to "never fingerprinted".
    payload["fingerprint_signature"] = tuple(
        str(token) for token in payload.get("fingerprint_signature", ())
    )
    return ProbeRecord(**payload)


#: The :class:`StudyConfig` fields exports and store fingerprints carry,
#: in declaration order: every axis but ``workers`` and ``engine``, which
#: change how the fleet is measured, never what is measured. Each is a
#: plain value of its default's type except ``impairment`` and ``retry``.
_CONFIG_FIELDS: tuple[dataclasses.Field, ...] = tuple(
    field
    for field in dataclasses.fields(StudyConfig)
    if field.name not in ("workers", "engine")
)


def config_to_dict(config: StudyConfig) -> dict[str, Any]:
    """The *semantic* study configuration as plain JSON data.

    ``workers`` and ``engine`` are deliberately omitted: both exports
    and the result store's input fingerprint must stay identical across
    worker counts and engines.
    """
    data = {field.name: getattr(config, field.name) for field in _CONFIG_FIELDS}
    if config.impairment is not None:
        data["impairment"] = dataclasses.asdict(config.impairment)
    if config.retry is not None:
        data["retry"] = {
            "type": type(config.retry).__name__,
            **dataclasses.asdict(config.retry),
        }
    return data


def config_from_dict(data: dict[str, Any]) -> StudyConfig:
    """Rebuild a :class:`StudyConfig` from :func:`config_to_dict` output,
    coercing each plain value to its default's type.

    ``workers`` is not serialized, so loaded configs come back with the
    default (in-process) worker count.
    """
    kwargs: dict[str, Any] = {
        field.name: type(field.default)(data.get(field.name, field.default))
        for field in _CONFIG_FIELDS
        if field.name not in ("impairment", "retry")
    }
    impairment = data.get("impairment")
    if impairment is not None:
        kwargs["impairment"] = LinkProfile(**impairment)
    retry = data.get("retry")
    if retry is not None:
        payload = dict(retry)
        type_name = payload.pop("type", None)
        cls = _RETRY_TYPES.get(str(type_name))
        if cls is None:
            raise ValueError(f"unknown retry policy type: {type_name!r}")
        kwargs["retry"] = cls(**payload)
    return StudyConfig(**kwargs)


def study_to_json(study: StudyResult, indent: "int | None" = None) -> str:
    data: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "fleet_size": study.fleet_size,
        "seed": study.seed,
        "records": [record_to_dict(record) for record in study.records],
    }
    if study.config is not None:
        data["config"] = config_to_dict(study.config)
    if study.metrics is not None:
        data["metrics"] = study.metrics.to_dict()
    return json.dumps(data, indent=indent)


def study_from_json(text: str) -> StudyResult:
    data = json.loads(text)
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version: {schema!r}")
    metrics = data.get("metrics")
    config = data.get("config")
    return StudyResult(
        records=[record_from_dict(item) for item in data.get("records", [])],
        fleet_size=int(data.get("fleet_size", 0)),
        seed=int(data.get("seed", 0)),
        config=None if config is None else config_from_dict(config),
        metrics=None if metrics is None else MetricsSnapshot.from_dict(metrics),
    )


def save_study(study: StudyResult, path: str) -> None:
    """Write the export atomically (temp file + ``os.replace``), creating
    missing parent directories; a crash never truncates an export."""
    atomic_write_text(path, study_to_json(study), create_parents=True)


def load_study(path: str) -> StudyResult:
    with open(path, encoding="utf-8") as handle:
        return study_from_json(handle.read())
