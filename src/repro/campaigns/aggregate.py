"""Incremental aggregation: fold journal segments into epoch tables.

A longitudinal journal grows for months; rescanning it end-to-end to
answer "how did the interception rate trend?" would make every refresh
cost the whole archive. :class:`StoreAggregator` instead keeps a byte
cursor per shard (:func:`~repro.store.read_journal_tail`) plus running
per-epoch counters, so one ``refresh()`` costs only the segments
appended since the last one — O(new data), proven by
``benchmarks/bench_store.py --incremental``.

The invariant the tests pin: folding segments incrementally (any
refresh cadence, including one refresh per appended batch) produces
tables byte-identical to a fresh aggregator rescanning the whole
journal. First-wins dedupe by ``(epoch, index)`` matches
``ResultStore.collect``, so a resumed campaign's replayed tail
can never double-count.

With ``persist=True`` the cursor and counters round-trip through
``tables/state.json`` (written atomically), and every refresh also
materialises ``tables/epoch-NNNN.json`` plus ``tables/trend.json`` —
the files ``repro campaign tables/trend`` and ``repro serve`` answer
from.

The fold also remembers where each first-wins entry sits in the journal
(shard and byte offset), so a probe page (:meth:`StoreAggregator.
epoch_page`) seeks to its few lines instead of rescanning the archive,
and counts exactly the whole lines the tables count. Positions live in
memory only; ``state.json`` never holds them.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Optional

# canonical_json lives in repro.ioutil; it stays importable from here.
from repro.ioutil import atomic_write_text, canonical_json
from repro.store import (
    JOURNAL_DIR,
    RECORDS_PREFIX,
    StoreError,
    load_manifest,
    read_journal,  # noqa: F401 - unused; benchmarks/perf patches this name
    read_journal_at,
    read_journal_tail,
)
from repro.store.result_store import MANIFEST_NAME

#: Subdirectory of a store holding persisted aggregation output.
TABLES_DIR = "tables"
STATE_NAME = "state.json"
TREND_NAME = "trend.json"

#: Bumped when the table shape changes; a persisted state from another
#: schema is discarded and rebuilt from the journal.
STATE_SCHEMA = 1

_COUNTER_KEYS = (
    "verdicts",
    "transparency",
    "true_locations",
    "evasion_outcomes",
    "cert_verdicts",
    "agreement",
)


def _empty_epoch_state() -> dict:
    state: dict = {"seen": set(), "online": 0}
    for key in _COUNTER_KEYS:
        state[key] = {}
    return state


def _ranges_from_indices(indices: set) -> list[list[int]]:
    """Compress an index set to sorted ``[start, end]`` ranges.

    Campaigns journal epochs in fleet order, so ``seen`` is almost
    always one contiguous run — persisting ranges keeps ``state.json``
    (and the cost of every incremental refresh) independent of how many
    probes the archive already holds.
    """
    ranges: list[list[int]] = []
    for index in sorted(indices):
        if ranges and index == ranges[-1][1] + 1:
            ranges[-1][1] = index
        else:
            ranges.append([index, index])
    return ranges


def _indices_from_ranges(ranges) -> set:
    indices: set = set()
    for start, end in ranges:
        indices.update(range(int(start), int(end) + 1))
    return indices


class _EpochPositions:
    """Where one epoch's first-wins entries start in the journal.

    Parallel typed arrays (index, shard number, byte offset), about 20
    bytes an entry, a fifth of what the ``seen`` set itself costs: the
    journal grows for months, and the index lives as long as the server.
    Campaigns journal in fleet order, so the rows are almost always
    already sorted by index; otherwise :meth:`rows` sorts them once.
    """

    __slots__ = ("indices", "shards", "offsets", "ordered")

    def __init__(self) -> None:
        self.indices = array("q")
        self.shards = array("I")
        self.offsets = array("Q")
        self.ordered = True

    def __len__(self) -> int:
        return len(self.indices)

    def add(self, index: int, shard: int, offset: int) -> None:
        if self.indices and index < self.indices[-1]:
            self.ordered = False
        self.indices.append(index)
        self.shards.append(shard)
        self.offsets.append(offset)

    def rows(self, start: int, stop: int) -> list[tuple[int, int, int]]:
        """``(index, shard, offset)`` of ranks ``[start, stop)`` by index."""
        if not self.ordered:
            order = sorted(range(len(self)), key=self.indices.__getitem__)
            for name in ("indices", "shards", "offsets"):
                column = getattr(self, name)
                setattr(self, name, array(column.typecode, (column[i] for i in order)))
            self.ordered = True
        return list(
            zip(
                self.indices[start:stop],
                self.shards[start:stop],
                self.offsets[start:stop],
            )
        )


class StoreAggregator:
    """Folds a (possibly live) result store into per-epoch trend tables."""

    def __init__(self, path: str, persist: bool = False) -> None:
        self.path = path
        self.persist = persist
        self.journal_path = os.path.join(path, JOURNAL_DIR)
        self.tables_path = os.path.join(path, TABLES_DIR)
        self._cursor: dict = {}
        self._epochs: dict[int, dict] = {}
        #: epoch -> where its first-wins entries sit; never persisted,
        #: so a restored aggregator lacks them. Shards are numbered in
        #: the order the fold first meets them.
        self._positions: dict[int, _EpochPositions] = {}
        self._shards: list[str] = []
        self._shard_numbers: dict[str, int] = {}
        self._dirty: set[int] = set()
        self._manifest: Optional[dict] = None
        #: ``(st_ino, st_size, st_mtime_ns)`` of the manifest file the
        #: last refresh read.
        self._manifest_stamp: Optional[tuple] = None
        self._loaded = False
        #: Moves whenever a refresh loads a different manifest or folds
        #: an entry: every table and page is a pure function of the two,
        #: so a caller may keep what it built until the version moves.
        self.version = 0

    # -- persisted state ----------------------------------------------------

    def _state_path(self) -> str:
        return os.path.join(self.tables_path, STATE_NAME)

    def _load_state(self) -> None:
        self._loaded = True
        if not self.persist:
            return
        try:
            with open(self._state_path(), encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, ValueError):
            return  # no prior state (or unreadable) — rebuild from scratch
        if state.get("schema") != STATE_SCHEMA:
            return
        self._cursor = dict(state.get("cursor", {}))
        for key, folded in state.get("epochs", {}).items():
            epoch_state = _empty_epoch_state()
            epoch_state["seen"] = _indices_from_ranges(folded.get("seen", ()))
            epoch_state["online"] = int(folded.get("online", 0))
            for counter in _COUNTER_KEYS:
                epoch_state[counter] = dict(folded.get(counter, {}))
            self._epochs[int(key)] = epoch_state

    def _dump_state(self) -> dict:
        return {
            "schema": STATE_SCHEMA,
            "cursor": self._cursor,
            "epochs": {
                str(epoch): {
                    "seen": _ranges_from_indices(state["seen"]),
                    "online": state["online"],
                    **{key: state[key] for key in _COUNTER_KEYS},
                }
                for epoch, state in self._epochs.items()
            },
        }

    # -- folding ------------------------------------------------------------

    def _fold(self, entry: dict, position: tuple) -> None:
        epoch = int(entry.get("e", 0))
        index = int(entry["i"])
        state = self._epochs.setdefault(epoch, _empty_epoch_state())
        if index in state["seen"]:
            return  # resumed campaigns may replay a segment; first wins
        state["seen"].add(index)
        name, offset = position
        shard = self._shard_numbers.get(name)
        if shard is None:
            shard = self._shard_numbers[name] = len(self._shards)
            self._shards.append(name)
        self._positions.setdefault(epoch, _EpochPositions()).add(index, shard, offset)
        self._dirty.add(epoch)
        record = entry["record"]
        if record.get("online", False):
            state["online"] += 1
        for counter, value in (
            ("verdicts", record.get("verdict")),
            ("transparency", record.get("transparency")),
            ("true_locations", record.get("true_location")),
            ("evasion_outcomes", record.get("evasion_outcome")),
            ("cert_verdicts", record.get("cert_verdict")),
        ):
            if value is None:
                continue
            table = state[counter]
            table[value] = table.get(value, 0) + 1
        cert = record.get("cert_verdict")
        if cert is not None:
            key = f"{record.get('verdict')}|{cert}"
            table = state["agreement"]
            table[key] = table.get(key, 0) + 1

    def refresh(self) -> int:
        """Fold every segment appended since the last refresh; return
        how many new entries were folded.

        Bumps :attr:`version` if the manifest differs from the one the
        last refresh loaded, or if any entry was folded. The manifest is
        compared before the journal is read, so a refresh that raises
        after loading a new manifest still moves the version.

        Work unchanged since the last refresh is skipped by stat alone:
        ``manifest.json`` is re-read only when its ``(st_ino, st_size,
        st_mtime_ns)`` stamp moved, which every store rewrite does (it
        replaces the file atomically, so the new one is a new inode).
        The journal directory is listed once and every shard's size is
        checked on each refresh; only the bytes past the cursor are
        read.

        Raises :class:`~repro.store.StoreCorruptError` on mid-file
        journal damage, or when a shard already read has shrunk or
        vanished — callers (the serve layer) map that to 503, not a
        crash.
        """
        if not self._loaded:
            self._load_state()
        try:
            info = os.stat(os.path.join(self.path, MANIFEST_NAME))
        except OSError:
            stamp = None  # load_manifest says what is wrong
        else:
            stamp = (info.st_ino, info.st_size, info.st_mtime_ns)
        if stamp is None or stamp != self._manifest_stamp:
            # Stat first, read second: the bytes read are at least as
            # new as the stamp kept for them.
            manifest = load_manifest(self.path)
            self._manifest_stamp = stamp
            if manifest != self._manifest:
                self._manifest = manifest
                self.version += 1
        positions: list = []
        entries, self._cursor = read_journal_tail(
            self.journal_path, RECORDS_PREFIX, self._cursor, positions=positions
        )
        for entry, position in zip(entries, positions):
            self._fold(entry, position)
        if entries:
            self.version += 1
        if self.persist:
            self._persist_tables()
        return len(entries)

    # -- tables -------------------------------------------------------------

    def manifest(self) -> dict:
        if self._manifest is None:
            self._manifest = load_manifest(self.path)
        return self._manifest

    def _epoch_sizes(self) -> list[int]:
        manifest = self.manifest()
        sizes = manifest.get("epoch_sizes")
        if sizes is not None:
            return [int(size) for size in sizes]
        # A plain study/campaign store aggregates as one epoch.
        return [int(manifest.get("fleet_size", 0))]

    def epoch_count(self) -> int:
        return len(self._epoch_sizes())

    def epoch_table(self, epoch: int) -> dict:
        """The aggregation table for one epoch (zeroed if unmeasured)."""
        sizes = self._epoch_sizes()
        if not 0 <= epoch < len(sizes):
            raise StoreError(
                f"epoch must be in [0, {len(sizes)}), got {epoch}"
            )
        state = self._epochs.get(epoch, _empty_epoch_state())
        measured = len(state["seen"])
        table: dict = {
            "epoch": epoch,
            "fleet_size": sizes[epoch],
            "measured": measured,
            "complete": measured >= sizes[epoch] and sizes[epoch] > 0,
            "online": state["online"],
        }
        for key in _COUNTER_KEYS:
            table[key] = dict(sorted(state[key].items()))
        return table

    def trend(self) -> dict:
        """Every epoch table plus per-metric series, one document."""
        manifest = self.manifest()
        tables = [self.epoch_table(e) for e in range(self.epoch_count())]
        series: dict = {
            "measured": [table["measured"] for table in tables],
            "online": [table["online"] for table in tables],
        }
        for key in ("verdicts", "transparency", "evasion_outcomes"):
            names = sorted({name for table in tables for name in table[key]})
            series[key] = {
                name: [table[key].get(name, 0) for table in tables]
                for name in names
            }
        return {
            "schema": STATE_SCHEMA,
            "kind": manifest.get("kind"),
            "scenario": manifest.get("scenario"),
            "seed": manifest.get("seed"),
            "fingerprint": manifest.get("fingerprint"),
            "complete": bool(manifest.get("complete", False)),
            "epochs": tables,
            "series": series,
        }

    def epoch_page(self, epoch: int, offset: int = 0, limit: int = 50) -> dict:
        """One page of an epoch's first-wins records, by fleet index.

        Reads and decodes only the page's lines, at the positions the
        fold recorded, so its cost tracks ``limit``, not the archive; an
        unmeasured epoch is an empty page. Raises
        :class:`~repro.store.StoreError` if earlier entries were folded
        into the restored ``state.json`` rather than by this aggregator:
        their positions are unknown, and a short page would be wrong.
        """
        if offset < 0 or limit < 1:
            raise ValueError("offset must be >= 0 and limit >= 1")
        where = self._positions.get(epoch, _EpochPositions())
        seen = self._epochs.get(epoch, _empty_epoch_state())["seen"]
        if len(where) != len(seen):
            raise StoreError(
                f"epoch {epoch}: {len(seen) - len(where)} records were "
                f"restored from {STATE_NAME} without journal positions; "
                f"page with a fresh aggregator"
            )
        rows = where.rows(offset, offset + limit)
        entries = read_journal_at(
            self.journal_path,
            [(self._shards[shard], start) for _index, shard, start in rows],
        )
        return {
            "epoch": epoch,
            "total": len(where),
            "offset": offset,
            "limit": limit,
            "probes": [
                {"index": row[0], "record": entry["record"]}
                for row, entry in zip(rows, entries)
            ],
        }

    def _persist_tables(self) -> None:
        os.makedirs(self.tables_path, exist_ok=True)
        atomic_write_text(
            self._state_path(), canonical_json(self._dump_state())
        )
        for epoch in range(self.epoch_count()):
            path = os.path.join(self.tables_path, f"epoch-{epoch:04d}.json")
            # Only touched epochs are re-materialised, so a refresh's
            # write cost tracks the new segments, not the archive.
            if epoch in self._dirty or not os.path.exists(path):
                atomic_write_text(path, canonical_json(self.epoch_table(epoch)))
        atomic_write_text(
            os.path.join(self.tables_path, TREND_NAME),
            canonical_json(self.trend()),
        )
        self._dirty.clear()


def load_epoch_page(
    path: str,
    epoch: int,
    offset: int = 0,
    limit: int = 50,
    *,
    aggregator: Optional[StoreAggregator] = None,
) -> dict:
    """Probe-level drill-down: one page of an epoch's records.

    ``aggregator`` is an already-refreshed aggregator over ``path`` —
    ``repro serve`` passes its shared one, so a page costs O(page).
    Without it a fresh, non-persistent aggregator folds the journal
    first. Either way the page holds the whole newline-terminated lines
    the epoch tables count (see :meth:`StoreAggregator.epoch_page`).
    """
    if aggregator is None:
        aggregator = StoreAggregator(path)
        aggregator.refresh()
    return aggregator.epoch_page(epoch, offset, limit)


__all__ = [
    "STATE_SCHEMA",
    "TABLES_DIR",
    "TREND_NAME",
    "StoreAggregator",
    "canonical_json",
    "load_epoch_page",
]
