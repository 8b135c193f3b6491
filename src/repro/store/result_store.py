"""``ResultStore`` — the durable archive one study or longitudinal
campaign lives in.

Layout of a store directory::

    DIR/
      manifest.json            # schema, kind, input fingerprint, fleet size
      journal/
        records-0000.jsonl     # one ProbeRecord per line
        records-0001.jsonl     # new shard per writer session / rotation
        metrics-0000.jsonl     # one MetricsSnapshot per measured segment
      study.json               # final export, written atomically on completion

Both kinds share one lifecycle — :meth:`ResultStore.begin`,
:meth:`~ResultStore.done`, :meth:`~ResultStore.append`,
:meth:`~ResultStore.collect`, :meth:`~ResultStore.finalize` — and one
resume rule. A study is an epoch-less run: its record lines are
``{"i":…,"record":…}``, while a longitudinal campaign's also carry the
epoch, ``{"e":…,"i":…,"record":…}``. Only a study journals metrics
segments and writes ``study.json``.

The manifest pins a content fingerprint of the run's inputs
(:func:`~repro.store.journal.study_fingerprint` for a study); opening
the store with different inputs raises :class:`StoreMismatchError`
instead of silently mixing incompatible records. Records stream into
the journal as segments complete, so an interrupted run loses at most
the entries since the last batched fsync; resuming skips every
journaled probe and — because each probe's measurement is a pure
function of its spec — reconstructs a result byte-identical to an
uninterrupted run, for any worker count on either side of the
interruption.

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
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.ioutil import atomic_write_text, canonical_json

from .journal import (
    JournalWriter,
    StoreCorruptError,
    StoreError,
    StoreIncompleteError,
    StoreMismatchError,
    StoreResumeRequired,
    _scan_journal,
    read_journal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import MetricsSnapshot
    from repro.core.study import ProbeRecord, StudyResult

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
    """One study's or longitudinal campaign's journal, manifest and
    final export.

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

    def _loaded_manifest(self) -> dict:
        if self._manifest is None:
            self._manifest = load_manifest(self.path)
        return self._manifest

    # -- the lifecycle, shared by every kind --------------------------------

    def begin(self, kind: str, fingerprint: str, manifest_extra: dict) -> set:
        """Open (or create) the store for these exact inputs; return the
        ``(epoch, fleet_index)`` keys already durably done (see
        :meth:`done`).

        A new store's manifest holds ``manifest_extra`` (which must name
        the ``fleet_size``; a longitudinal run adds its
        :func:`epoch_manifest`). An existing one must hold the same kind
        and input fingerprint, or :class:`StoreMismatchError` is raised.
        """
        existing = load_manifest(self.path, missing_ok=True)
        if existing is None:
            self._write_manifest(
                {
                    "schema": STORE_SCHEMA,
                    "kind": kind,
                    "fingerprint": fingerprint,
                    "complete": False,
                    **manifest_extra,
                }
            )
        elif existing.get("kind") != kind:
            raise StoreMismatchError(
                f"{self.path} holds a {existing.get('kind')!r} journal, "
                f"not a {kind!r} one"
            )
        elif existing.get("fingerprint") != fingerprint:
            raise StoreMismatchError(
                f"{self.path} was journaled for different inputs "
                f"(stored {str(existing.get('fingerprint'))[:12]}…, "
                f"current {fingerprint[:12]}…); refusing to mix records — "
                f"use a fresh --store directory"
            )
        else:
            self._manifest = existing
        manifest = self._manifest
        done = self.done()
        if done and not self.resume:
            raise StoreResumeRequired(
                f"{self.path} already holds {len(done)} of "
                f"{manifest['fleet_size']} records; pass resume "
                f"(--resume) to continue it"
            )
        self._records = JournalWriter(
            self.journal_path, RECORDS_PREFIX, records_per_file=self.records_per_file
        )
        if _metrics_on(manifest):
            self._metrics = JournalWriter(
                self.journal_path, METRICS_PREFIX,
                records_per_file=self.records_per_file,
            )
        return done

    def done(self) -> set:
        """The ``(epoch, fleet_index)`` keys durably measured (a study's
        epoch is ``None``), by the store's one resume rule: see
        :func:`_durable`."""
        manifest = self._loaded_manifest()
        return set(_durable(self.journal_path, manifest, lambda entry: None))

    def append(
        self,
        pairs: Iterable[tuple[int, "ProbeRecord"]],
        snapshot: Optional["MetricsSnapshot"] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Journal one measured segment: its records, then (if metrics
        are on) the segment's snapshot, fsync'd in batches.

        A study's entries carry no epoch (``{"i":…,"record":…}``); a
        longitudinal run's carry the ``epoch`` they were measured in.
        The fleet driver (:mod:`repro.core.parallel`) appends a study's
        segments in fleet order, cut the same at any worker count, and
        the campaign engine appends each epoch in fleet order. So the
        line sequence is a pure function of the study or bundle and the
        interruption points — byte-identical for any worker count.
        :meth:`collect` orders by fleet index and does not rely on it.
        """
        from repro.analysis.export import record_to_dict

        if self._records is None:
            raise StoreError("store not opened; call begin first")
        head = {} if epoch is None else {"e": epoch}
        indices = []
        for index, record in pairs:
            self._records.append({**head, "i": index, "record": record_to_dict(record)})
            indices.append(index)
        if snapshot is not None:
            if self._metrics is None:
                raise StoreError("store was opened without metrics journaling")
            self._metrics.append({"i": indices, "snapshot": snapshot.to_dict()})
        self._since_sync += len(indices)
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

    def collect(
        self,
    ) -> "tuple[dict[Optional[int], list[ProbeRecord]], Optional[MetricsSnapshot]]":
        """Every epoch's records in fleet order (a study's under epoch
        ``None``) and, when the run collected metrics, the merged
        snapshot. Raises :class:`StoreIncompleteError` while any key the
        manifest pins is not durably done."""
        from repro.analysis.export import record_from_dict
        from repro.core.metrics import MetricsSnapshot

        manifest = self._loaded_manifest()
        self.sync()  # reading through our own open writers
        by_key = _durable(self.journal_path, manifest, itemgetter("record"))
        sizes = manifest.get("epoch_sizes")
        epochs = (
            [(None, int(manifest["fleet_size"]))]
            if sizes is None
            else list(enumerate(int(size) for size in sizes))
        )
        missing = [
            (epoch, index)
            for epoch, size in epochs
            for index in range(size)
            if (epoch, index) not in by_key
        ]
        if missing:
            raise StoreIncompleteError(
                f"{self.path} is missing {len(missing)} of "
                f"{manifest['fleet_size']} records (first gap: epoch "
                f"{missing[0][0]}, index {missing[0][1]}); resume the run "
                f"to fill them"
            )
        records = {
            epoch: [record_from_dict(by_key[(epoch, index)]) for index in range(size)]
            for epoch, size in epochs
        }
        if not _metrics_on(manifest):
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
        merged = MetricsSnapshot.merge_all(
            MetricsSnapshot.from_dict(entry["snapshot"]) for entry in segments
        )
        return records, merged

    def finalize(self, study: Optional["StudyResult"] = None) -> None:
        """Close the journal, write a study's atomic ``study.json``
        export, and mark the manifest complete."""
        from repro.analysis.export import save_study

        self.close()
        if study is not None:
            save_study(study, self.export_path)
        manifest = dict(self._loaded_manifest())
        manifest["complete"] = True
        self._write_manifest(manifest)

    def close(self) -> None:
        """Sync and release the journal files (idempotent)."""
        if self._records is not None:
            self._records.close()
            self._records = None
        if self._metrics is not None:
            self._metrics.close()
            self._metrics = None
        self._since_sync = 0


# -- the one resume rule -----------------------------------------------------


def epoch_manifest(epoch_sizes: Sequence[int]) -> dict:
    """The manifest fields that pin a longitudinal run's per-epoch fleet
    sizes (time-varying fleets make it a list, not a single number)."""
    sizes = [int(size) for size in epoch_sizes]
    return {"epochs": len(sizes), "epoch_sizes": sizes, "fleet_size": sum(sizes)}


def _metrics_on(manifest: dict) -> bool:
    return bool((manifest.get("config") or {}).get("metrics", False))


def _durable(journal: str, manifest: dict, value: Callable[[dict], Any]) -> dict:
    """``value(entry)`` of the first record line per ``(epoch, index)``
    key, for every key that is durably done; read one entry at a time.

    A key is done once a record line holds it. When the manifest's
    config has metrics on, it also needs a metrics segment covering it:
    the two land in separate files and the record line is journaled
    first, so the intersection is the safe set — a crash between the
    two simply re-measures that segment. Duplicate record lines (a
    re-measured segment) keep the first.
    """
    folded: dict = {}
    for entry, _shard, _offset in _scan_journal(journal, RECORDS_PREFIX):
        key = (entry.get("e"), entry["i"])
        if key not in folded:
            folded[key] = value(entry)
    if not _metrics_on(manifest):
        return folded
    covered: set[int] = set()
    for entry, _shard, _offset in _scan_journal(journal, METRICS_PREFIX):
        covered.update(entry["i"])
    return {key: val for key, val in folded.items() if key[1] in covered}


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
    """Durably journaled study records (possibly partial), sorted by
    fleet index — read straight from the journal, no re-simulation."""
    from repro.analysis.export import record_from_dict

    path = os.fspath(path)
    by_key = _durable(
        os.path.join(path, JOURNAL_DIR), load_manifest(path), itemgetter("record")
    )
    return [(key[1], record_from_dict(by_key[key])) for key in sorted(by_key)]


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
    #: Verdict value -> count over the durably done records;
    #: longitudinal stores add their epoch count under ``"epochs"``.
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
    """Verdict counts straight from the journal's raw records, over the
    keys the store's resume rule counts as done."""
    path = os.fspath(path)
    manifest = load_manifest(path)
    verdicts = _durable(
        os.path.join(path, JOURNAL_DIR),
        manifest,
        lambda entry: entry["record"].get("verdict", "?"),
    )
    counts = Counter(verdicts.values())
    if "epochs" in manifest:
        counts["epochs"] = int(manifest["epochs"])
    seed = manifest.get("seed")
    return StoreSummary(
        path=path,
        kind=str(manifest.get("kind")),
        complete=bool(manifest.get("complete", False)),
        done=len(verdicts),
        total=int(manifest.get("fleet_size", 0)),
        seed=None if seed is None else int(seed),
        fingerprint=str(manifest.get("fingerprint", "")),
        counts=dict(counts),
    )
