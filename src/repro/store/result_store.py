"""``ResultStore`` — the durable archive one study (or campaign) lives in.

Layout of a store directory::

    DIR/
      manifest.json            # schema, kind, input fingerprint, fleet size
      journal/
        records-0000.jsonl     # one ProbeRecord (or campaign row set) per line
        records-0001.jsonl     # new shard per writer session / rotation
        metrics-0000.jsonl     # one MetricsSnapshot per measured segment
      study.json               # final export, written atomically on completion

The manifest pins a content fingerprint of the study's inputs
(:func:`~repro.store.journal.study_fingerprint`); opening the store
with different inputs raises :class:`StoreMismatchError` instead of
silently mixing incompatible records. Records stream into the journal
as segments complete, so an interrupted run loses at most the entries
since the last batched fsync; resuming skips every journaled probe and
— because each probe's measurement is a pure function of its spec —
reconstructs a result byte-identical to an uninterrupted run, for any
worker count on either side of the interruption.

Metrics ride in per-segment snapshots (``metrics-*.jsonl``). Counter
and histogram merging is associative and events are replayed in fleet
order, so the reconstructed :class:`~repro.core.metrics.MetricsSnapshot`
serialises identically no matter where the run was cut. When metrics
are enabled, a probe only counts as *done* once its segment's snapshot
line is journaled too — a crash between the two simply re-measures that
segment.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.ioutil import atomic_write_text, canonical_json

from .journal import (
    JournalWriter,
    StoreCorruptError,
    StoreError,
    StoreIncompleteError,
    StoreMismatchError,
    StoreResumeRequired,
    campaign_fingerprint,
    read_journal,
    study_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.atlas.campaign import MeasurementDefinition, MeasurementRow
    from repro.atlas.probe import ProbeSpec
    from repro.core.metrics import MetricsSnapshot
    from repro.core.study import ProbeRecord, StudyConfig, StudyResult

#: On-disk names inside a store directory.
MANIFEST_NAME = "manifest.json"
JOURNAL_DIR = "journal"
RECORDS_PREFIX = "records"
METRICS_PREFIX = "metrics"
STUDY_EXPORT_NAME = "study.json"

#: Store layout version.
STORE_SCHEMA = 1

#: Journal entries buffered between fsync batches.
DEFAULT_FSYNC_EVERY = 64


class ResultStore:
    """One study's (or campaign's) journal, manifest and final export.

    ``resume=True`` allows extending a journal that already holds
    records (after the fingerprint check); without it a non-empty store
    raises :class:`StoreResumeRequired` so two identical invocations
    cannot silently double-write. ``probe_budget`` bounds how many *new*
    probes one invocation may measure — the fleet executor raises
    :class:`~repro.store.journal.StoreInterrupted` once it is spent,
    which is also how the kill-and-resume CI job cuts a run midway.
    """

    def __init__(
        self,
        path: str,
        resume: bool = False,
        probe_budget: Optional[int] = None,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        records_per_file: int = 1024,
    ) -> None:
        if probe_budget is not None and probe_budget < 1:
            raise ValueError(f"probe_budget must be >= 1, got {probe_budget}")
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = os.fspath(path)
        self.resume = resume
        self.probe_budget = probe_budget
        self.fsync_every = fsync_every
        self.records_per_file = records_per_file
        self._records: Optional[JournalWriter] = None
        self._metrics: Optional[JournalWriter] = None
        self._since_sync = 0
        self._manifest: Optional[dict] = None

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.path, JOURNAL_DIR)

    @property
    def export_path(self) -> str:
        return os.path.join(self.path, STUDY_EXPORT_NAME)

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_text(
            self.manifest_path,
            canonical_json(manifest),
            create_parents=True,
        )
        self._manifest = manifest

    def _open(self, kind: str, fingerprint: str, manifest_extra: dict) -> dict:
        """Create or validate the manifest; return it."""
        existing = load_manifest(self.path, missing_ok=True)
        if existing is None:
            manifest = {
                "schema": STORE_SCHEMA,
                "kind": kind,
                "fingerprint": fingerprint,
                "complete": False,
                **manifest_extra,
            }
            self._write_manifest(manifest)
            return manifest
        if existing.get("kind") != kind:
            raise StoreMismatchError(
                f"{self.path} holds a {existing.get('kind')!r} journal, "
                f"not a {kind!r} one"
            )
        if existing.get("fingerprint") != fingerprint:
            raise StoreMismatchError(
                f"{self.path} was journaled for different inputs "
                f"(stored {str(existing.get('fingerprint'))[:12]}…, "
                f"current {fingerprint[:12]}…); refusing to mix records — "
                f"use a fresh --store directory"
            )
        self._manifest = existing
        return existing

    def _start_writers(self, with_metrics: bool) -> None:
        self._records = JournalWriter(
            self.journal_path, RECORDS_PREFIX, records_per_file=self.records_per_file
        )
        if with_metrics:
            self._metrics = JournalWriter(
                self.journal_path, METRICS_PREFIX,
                records_per_file=self.records_per_file,
            )

    # -- study surface -----------------------------------------------------

    def begin_study(
        self, config: "StudyConfig", specs: Sequence["ProbeSpec"]
    ) -> set[int]:
        """Open (or create) the store for this exact study; return the
        fleet indices whose records are already journaled."""
        from repro.analysis.export import config_to_dict

        manifest = self._open(
            "study",
            study_fingerprint(config, specs),
            {
                "fleet_size": len(specs),
                "seed": config.seed,
                "config": config_to_dict(config),
            },
        )
        done = self.completed_indices(require_metrics=config.metrics)
        if done and not self.resume:
            raise StoreResumeRequired(
                f"{self.path} already holds {len(done)} of "
                f"{manifest['fleet_size']} records; pass resume "
                f"(--resume) to continue it"
            )
        self._start_writers(with_metrics=config.metrics)
        return done

    def completed_indices(self, require_metrics: bool = False) -> set[int]:
        """Fleet indices that are durably measured.

        With metrics on, a record only counts once a metrics segment
        covers it — the two land in separate files and the record line
        is journaled first, so the intersection is the safe set.
        """
        journaled = {
            entry["i"] for entry in read_journal(self.journal_path, RECORDS_PREFIX)
        }
        if not require_metrics:
            return journaled
        covered: set[int] = set()
        for entry in read_journal(self.journal_path, METRICS_PREFIX):
            covered.update(entry["i"])
        return journaled & covered

    def append_segment(
        self,
        pairs: Iterable[tuple[int, "ProbeRecord"]],
        snapshot: Optional["MetricsSnapshot"] = None,
    ) -> None:
        """Journal one measured segment: its records, then (if metrics
        are on) the segment's snapshot, fsync'd in batches."""
        from repro.analysis.export import record_to_dict

        if self._records is None:
            raise StoreError("store not opened; call begin_study first")
        pairs = list(pairs)
        for index, record in pairs:
            self._records.append({"i": index, "record": record_to_dict(record)})
        if snapshot is not None:
            if self._metrics is None:
                raise StoreError("store was opened without metrics journaling")
            self._metrics.append(
                {"i": [index for index, _record in pairs],
                 "snapshot": snapshot.to_dict()}
            )
        self._since_sync += len(pairs)
        if self._since_sync >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Batch-fsync: records first, then the metrics segments that
        mark them complete — never the other way around."""
        if self._records is not None:
            self._records.sync()
        if self._metrics is not None:
            self._metrics.sync()
        self._since_sync = 0

    def collect_study(self) -> "tuple[list[ProbeRecord], Optional[MetricsSnapshot]]":
        """Reconstruct the full record list (fleet order) and, when the
        study collected metrics, the merged snapshot."""
        from repro.analysis.export import record_from_dict
        from repro.core.metrics import MetricsSnapshot

        manifest = self._require_manifest("study")
        fleet_size = int(manifest["fleet_size"])
        by_index: dict[int, dict] = {}
        for entry in read_journal(self.journal_path, RECORDS_PREFIX):
            by_index.setdefault(entry["i"], entry["record"])
        missing = [i for i in range(fleet_size) if i not in by_index]
        if missing:
            raise StoreIncompleteError(
                f"{self.path} is missing {len(missing)} of {fleet_size} "
                f"records (first gap: index {missing[0]}); resume the study "
                f"to fill them"
            )
        records = [record_from_dict(by_index[i]) for i in range(fleet_size)]
        if not manifest.get("config", {}).get("metrics", False):
            return records, None
        segments = read_journal(self.journal_path, METRICS_PREFIX)
        segments.sort(key=lambda entry: min(entry["i"]) if entry["i"] else -1)
        seen: set[int] = set()
        for entry in segments:
            indices = set(entry["i"])
            if indices & seen:
                raise StoreCorruptError(
                    f"{self.path}: overlapping metrics segments"
                )
            seen |= indices
        if seen != set(range(fleet_size)):
            raise StoreIncompleteError(
                f"{self.path}: metrics segments cover {len(seen)} of "
                f"{fleet_size} probes; resume the study to fill them"
            )
        merged = MetricsSnapshot.merge_all(
            MetricsSnapshot.from_dict(entry["snapshot"]) for entry in segments
        )
        return records, merged

    def finalize_study(self, study: "StudyResult") -> None:
        """Close the journal, write the atomic ``study.json`` export and
        mark the manifest complete."""
        from repro.analysis.export import save_study

        self.close()
        save_study(study, self.export_path)
        manifest = dict(self._require_manifest("study"))
        manifest["complete"] = True
        self._write_manifest(manifest)

    # -- campaign surface --------------------------------------------------

    def begin_campaign(
        self,
        definitions: Sequence["MeasurementDefinition"],
        specs: Sequence["ProbeSpec"],
    ) -> set[int]:
        """Open (or create) the store for this campaign; return the fleet
        indices already journaled."""
        manifest = self._open(
            "campaign",
            campaign_fingerprint(definitions, specs),
            {
                "fleet_size": len(specs),
                "msm_ids": [definition.msm_id for definition in definitions],
            },
        )
        done = self.completed_indices()
        if done and not self.resume:
            raise StoreResumeRequired(
                f"{self.path} already holds rows for {len(done)} of "
                f"{manifest['fleet_size']} probes; pass resume to continue"
            )
        self._start_writers(with_metrics=False)
        return done

    def append_campaign(
        self, index: int, probe_id: int, rows: Sequence["MeasurementRow"]
    ) -> None:
        """Journal one probe's campaign rows (empty for offline probes,
        which marks them done without producing output)."""
        if self._records is None:
            raise StoreError("store not opened; call begin_campaign first")
        self._records.append(
            {
                "i": index,
                "probe_id": probe_id,
                "rows": [row.to_dict() for row in rows],
            }
        )
        self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()

    def collect_campaign(self) -> "list[MeasurementRow]":
        """All journaled rows, flattened in fleet order."""
        from repro.atlas.campaign import row_from_dict

        manifest = self._require_manifest("campaign")
        fleet_size = int(manifest["fleet_size"])
        by_index: dict[int, list[dict]] = {}
        for entry in read_journal(self.journal_path, RECORDS_PREFIX):
            by_index.setdefault(entry["i"], entry["rows"])
        missing = [i for i in range(fleet_size) if i not in by_index]
        if missing:
            raise StoreIncompleteError(
                f"{self.path} is missing rows for {len(missing)} of "
                f"{fleet_size} probes; resume the campaign to fill them"
            )
        return [
            row_from_dict(row)
            for index in range(fleet_size)
            for row in by_index[index]
        ]

    def finalize_campaign(self) -> None:
        self.close()
        manifest = dict(self._require_manifest("campaign"))
        manifest["complete"] = True
        self._write_manifest(manifest)

    # -- longitudinal surface ----------------------------------------------

    def begin_longitudinal(
        self,
        fingerprint: str,
        epoch_sizes: Sequence[int],
        manifest_extra: Optional[dict] = None,
    ) -> set[tuple[int, int]]:
        """Open (or create) the store for a recurring campaign; return
        the ``(epoch, fleet_index)`` pairs already journaled.

        ``epoch_sizes`` pins the per-epoch fleet size (time-varying
        fleets make it a list, not a single number); the caller derives
        it deterministically from the scenario bundle, and a resumed run
        must re-derive the same sizes or the fingerprint check fails
        first anyway.
        """
        manifest = self._open(
            "longitudinal",
            fingerprint,
            {
                "epochs": len(epoch_sizes),
                "epoch_sizes": [int(size) for size in epoch_sizes],
                "fleet_size": sum(int(size) for size in epoch_sizes),
                **(manifest_extra or {}),
            },
        )
        done = self.completed_epoch_pairs()
        if done and not self.resume:
            raise StoreResumeRequired(
                f"{self.path} already holds {len(done)} of "
                f"{manifest['fleet_size']} epoch records; pass resume "
                f"(--resume) to continue it"
            )
        self._start_writers(with_metrics=False)
        return done

    def completed_epoch_pairs(self) -> set[tuple[int, int]]:
        """``(epoch, fleet_index)`` pairs durably journaled."""
        return {
            (entry["e"], entry["i"])
            for entry in read_journal(self.journal_path, RECORDS_PREFIX)
        }

    def append_epoch_segment(
        self, epoch: int, pairs: Iterable[tuple[int, "ProbeRecord"]]
    ) -> None:
        """Journal one epoch segment's records, fsync'd in batches.

        The campaign engine always appends in fleet order (it sorts the
        worker pool's output first), so the journal's line sequence is a
        pure function of the scenario bundle and the interruption points
        — byte-identical for any worker count.
        """
        from repro.analysis.export import record_to_dict

        if self._records is None:
            raise StoreError("store not opened; call begin_longitudinal first")
        count = 0
        for index, record in pairs:
            self._records.append(
                {"e": epoch, "i": index, "record": record_to_dict(record)}
            )
            count += 1
        self._since_sync += count
        if self._since_sync >= self.fsync_every:
            self.sync()

    def collect_epochs(self) -> "dict[int, list[ProbeRecord]]":
        """Journaled records per epoch, each list in fleet order
        (possibly partial — the aggregation layer tracks completeness)."""
        from repro.analysis.export import record_from_dict

        self._require_manifest("longitudinal")
        if self._records is not None:
            self.sync()  # reading through our own open writer
        by_pair: dict[tuple[int, int], dict] = {}
        for entry in read_journal(self.journal_path, RECORDS_PREFIX):
            by_pair.setdefault((entry["e"], entry["i"]), entry["record"])
        epochs: dict[int, list["ProbeRecord"]] = {}
        for epoch, index in sorted(by_pair):
            epochs.setdefault(epoch, []).append(
                record_from_dict(by_pair[(epoch, index)])
            )
        return epochs

    def finalize_longitudinal(self) -> None:
        self.close()
        manifest = dict(self._require_manifest("longitudinal"))
        manifest["complete"] = True
        self._write_manifest(manifest)

    # -- lifecycle ---------------------------------------------------------

    def _require_manifest(self, kind: str) -> dict:
        manifest = self._manifest or load_manifest(self.path)
        if manifest.get("kind") != kind:
            raise StoreMismatchError(
                f"{self.path} holds a {manifest.get('kind')!r} journal, "
                f"not a {kind!r} one"
            )
        self._manifest = manifest
        return manifest

    def close(self) -> None:
        """Sync and release the journal files (idempotent)."""
        if self._records is not None:
            self._records.close()
            self._records = None
        if self._metrics is not None:
            self._metrics.close()
            self._metrics = None
        self._since_sync = 0


# -- read-only archive surface ----------------------------------------------


def load_manifest(path: str, missing_ok: bool = False) -> Optional[dict]:
    """Read and validate a store directory's manifest."""
    manifest_path = os.path.join(os.fspath(path), MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        if missing_ok:
            return None
        raise StoreError(f"{path} is not a result store (no {MANIFEST_NAME})")
    except ValueError as exc:
        raise StoreCorruptError(f"{manifest_path}: {exc}")
    if manifest.get("schema") != STORE_SCHEMA:
        raise StoreError(
            f"{manifest_path}: unsupported store schema "
            f"{manifest.get('schema')!r}"
        )
    return manifest


def list_stores(path: str) -> list[str]:
    """Store directories under ``path``: itself if it is one, else every
    direct child that is (sorted by name)."""
    path = os.fspath(path)
    if os.path.isfile(os.path.join(path, MANIFEST_NAME)):
        return [path]
    if not os.path.isdir(path):
        return []
    return sorted(
        os.path.join(path, name)
        for name in os.listdir(path)
        if os.path.isfile(os.path.join(path, name, MANIFEST_NAME))
    )


def load_stored_records(path: str) -> "list[tuple[int, ProbeRecord]]":
    """Journaled study records (possibly partial), sorted by fleet index
    — read straight from the journal, no re-simulation."""
    from repro.analysis.export import record_from_dict

    by_index: dict[int, dict] = {}
    for entry in read_journal(os.path.join(os.fspath(path), JOURNAL_DIR),
                              RECORDS_PREFIX):
        by_index.setdefault(entry["i"], entry["record"])
    return [
        (index, record_from_dict(by_index[index]))
        for index in sorted(by_index)
    ]


def load_stored_study(path: str) -> "StudyResult":
    """A :class:`~repro.core.study.StudyResult` over the journaled
    records (partial stores yield a partial record list)."""
    from repro.analysis.export import config_from_dict
    from repro.core.study import StudyResult

    manifest = load_manifest(path)
    if manifest.get("kind") != "study":
        raise StoreMismatchError(
            f"{path} holds a {manifest.get('kind')!r} journal, not a study"
        )
    config = manifest.get("config")
    return StudyResult(
        records=[record for _index, record in load_stored_records(path)],
        fleet_size=int(manifest.get("fleet_size", 0)),
        seed=int(manifest.get("seed", 0)),
        config=None if config is None else config_from_dict(config),
    )


@dataclass(frozen=True)
class StoreSummary:
    """One archive entry as ``repro results`` lists it."""

    path: str
    kind: str
    complete: bool
    done: int
    total: int
    seed: Optional[int]
    fingerprint: str
    #: Study stores: verdict value -> count. Campaign stores: row count
    #: under the single key ``"rows"``.
    counts: dict[str, int]

    def render(self) -> str:
        status = "complete" if self.complete else "partial"
        seed = "" if self.seed is None else f"  seed={self.seed}"
        counts = " ".join(
            f"{name}={count}" for name, count in sorted(self.counts.items())
        )
        return (
            f"{self.path}  [{self.kind}]  {self.done}/{self.total} probes  "
            f"{status}{seed}  {self.fingerprint[:12]}  {counts}"
        ).rstrip()


def summarize_store(path: str) -> StoreSummary:
    """Verdict counts (or campaign row counts) straight from the journal."""
    manifest = load_manifest(path)
    kind = str(manifest.get("kind"))
    total = int(manifest.get("fleet_size", 0))
    if kind == "study":
        records = load_stored_records(path)
        counts = Counter(record.verdict for _index, record in records)
        done = len(records)
        seed: Optional[int] = int(manifest.get("seed", 0))
    elif kind == "longitudinal":
        pairs: dict[tuple[int, int], str] = {}
        for entry in read_journal(
            os.path.join(os.fspath(path), JOURNAL_DIR), RECORDS_PREFIX
        ):
            pairs.setdefault(
                (entry["e"], entry["i"]), entry["record"].get("verdict", "?")
            )
        counts = Counter(pairs.values())
        counts["epochs"] = int(manifest.get("epochs", 0))
        done = len(pairs)
        seed = manifest.get("seed")
        if seed is not None:
            seed = int(seed)
    else:
        entries = read_journal(
            os.path.join(os.fspath(path), JOURNAL_DIR), RECORDS_PREFIX
        )
        seen: dict[int, int] = {}
        for entry in entries:
            seen.setdefault(entry["i"], len(entry["rows"]))
        counts = Counter({"rows": sum(seen.values())})
        done = len(seen)
        seed = None
    return StoreSummary(
        path=os.fspath(path),
        kind=kind,
        complete=bool(manifest.get("complete", False)),
        done=done,
        total=total,
        seed=seed,
        fingerprint=str(manifest.get("fingerprint", "")),
        counts=dict(counts),
    )
