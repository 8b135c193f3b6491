"""The crash-safe record journal under every result store.

A journal is a directory of append-only, sharded JSONL files: one
self-contained JSON entry per line, a new shard file per writer session
(and a rotation every ``records_per_file`` lines), so no line is ever
rewritten and archived shards stay bounded. Durability is batched —
:class:`JournalWriter` fsyncs every ``sync()`` call, which the store
issues once per segment batch — so a crash can lose at most the entries
since the last sync and can truncate at most the final line of one
file. :func:`read_journal` therefore tolerates an undecodable *final*
line per shard file (the torn write) but treats damage anywhere else as
:class:`StoreCorruptError`.

The module also owns the **content fingerprint** that makes resumption
safe: :func:`fingerprint` canonicalises an arbitrary tree of
dataclasses, enums, sets and primitives into deterministic JSON and
hashes it. The store fingerprints the :class:`~repro.core.study.
StudyConfig` plus every :class:`~repro.atlas.probe.ProbeSpec` (or the
campaign's definitions), writes the digest into the manifest, and
refuses — with :class:`StoreMismatchError` — to resume a journal whose
inputs don't hash to the same value. Worker count is deliberately *not*
part of the fingerprint: records are a pure function of the specs, so a
study interrupted at ``--workers 4`` may resume at ``--workers 1`` and
still export byte-identical results.
"""

from __future__ import annotations

import dataclasses
import enum
import glob
import hashlib
import json
import os
from typing import Any, Iterable, Optional


class StoreError(Exception):
    """Base class for every result-store failure."""


class StoreMismatchError(StoreError):
    """The journal on disk was produced by different study inputs."""


class StoreCorruptError(StoreError):
    """The journal is damaged beyond the tolerated torn final line."""


class StoreIncompleteError(StoreError):
    """A full reconstruction was requested but records are missing."""


class StoreResumeRequired(StoreError):
    """The store already holds records; pass ``resume=True`` to extend it."""


class StoreInterrupted(StoreError):
    """The run stopped early (probe budget exhausted); the journal holds
    everything measured so far and the study can be resumed."""

    def __init__(self, done: int, total: int) -> None:
        super().__init__(f"interrupted after {done}/{total} probes journaled")
        self.done = done
        self.total = total


# -- content fingerprinting --------------------------------------------------


#: Per-dataclass field-name tuples, resolved once per type.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def canonical_value(value: Any, _memo: Optional[dict] = None) -> Any:
    """Reduce an input tree to JSON-serialisable, deterministic form.

    Dataclasses carry their type name (two configs differing only in
    class must not collide), enums reduce to their values, and sets are
    sorted by their serialised form. The fallback is ``repr`` — fine
    for value objects like ``ipaddress`` addresses, whose reprs are
    stable across processes.

    Composite sub-objects are memoised by identity for the duration of
    one call: fleets share organisation and firmware-profile instances
    across thousands of specs, and fingerprinting must stay a trivial
    fraction of measuring them.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if _memo is None:
        _memo = {}
    memo_key = id(value)
    cached = _memo.get(memo_key)
    if cached is not None:
        return cached
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(cls))
            _FIELD_NAMES[cls] = names
        result: Any = {"__type__": cls.__name__}
        for name in names:
            result[name] = canonical_value(getattr(value, name), _memo)
    elif isinstance(value, enum.Enum):
        result = canonical_value(value.value, _memo)
    elif isinstance(value, (frozenset, set)):
        items = [canonical_value(item, _memo) for item in value]
        result = sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    elif isinstance(value, (list, tuple)):
        result = [canonical_value(item, _memo) for item in value]
    elif isinstance(value, dict):
        result = {
            str(key): canonical_value(val, _memo)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    else:
        result = repr(value)
    _memo[memo_key] = result
    return result


def fingerprint(payload: Any) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    canon = json.dumps(
        canonical_value(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def study_fingerprint(config: Any, specs: Iterable[Any]) -> str:
    """Content hash of a pilot study's inputs: semantic config + fleet.

    Uses the exported config dict (which omits ``workers``), so a
    journal may be resumed with any worker count but never against a
    different seed, fleet, impairment profile or retry policy.
    """
    from repro.analysis.export import config_to_dict

    memo: dict = {}
    return fingerprint(
        {
            "kind": "study",
            "config": config_to_dict(config),
            "fleet": [canonical_value(spec, memo) for spec in specs],
        }
    )


def campaign_fingerprint(definitions: Iterable[Any], specs: Iterable[Any]) -> str:
    """Content hash of a campaign's inputs: definitions + fleet."""
    memo: dict = {}
    return fingerprint(
        {
            "kind": "campaign",
            "definitions": [canonical_value(d, memo) for d in definitions],
            "fleet": [canonical_value(spec, memo) for spec in specs],
        }
    )


# -- the sharded JSONL journal ----------------------------------------------


def _shard_pattern(prefix: str) -> str:
    # Deliberately loose: a foreign "records-*.jsonl" name must surface
    # as StoreCorruptError in _scan_next_shard, not be silently skipped.
    return f"{prefix}-*.jsonl"


def _shard_paths(directory: str, prefix: str) -> list[str]:
    return sorted(glob.glob(os.path.join(directory, _shard_pattern(prefix))))


class JournalWriter:
    """Append-only writer over a family of ``<prefix>-NNNN.jsonl`` shards.

    Each writer session opens a fresh shard file (existing shards are
    never reopened, so a crashed session can only ever have torn its
    *own* final line) and rotates to a new one every
    ``records_per_file`` entries. ``sync()`` flushes and fsyncs; between
    syncs entries sit in user/OS buffers — the batching the store's
    durability contract is built on.
    """

    def __init__(
        self, directory: str, prefix: str, records_per_file: int = 1024
    ) -> None:
        if records_per_file < 1:
            raise ValueError(
                f"records_per_file must be >= 1, got {records_per_file}"
            )
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.prefix = prefix
        self.records_per_file = records_per_file
        self._next_shard = self._scan_next_shard()
        self._handle = None
        self._lines_in_file = 0
        self.entries_written = 0

    def _scan_next_shard(self) -> int:
        highest = -1
        for path in _shard_paths(self.directory, self.prefix):
            stem = os.path.basename(path)[len(self.prefix) + 1 : -len(".jsonl")]
            try:
                highest = max(highest, int(stem))
            except ValueError:
                raise StoreCorruptError(f"unrecognised journal file name: {path}")
        return highest + 1

    def _rotate(self) -> None:
        self.sync()
        if self._handle is not None:
            self._handle.close()
        path = os.path.join(
            self.directory, f"{self.prefix}-{self._next_shard:04d}.jsonl"
        )
        self._next_shard += 1
        self._handle = open(path, "a", encoding="utf-8")
        self._lines_in_file = 0

    def append(self, entry: dict) -> None:
        if self._handle is None or self._lines_in_file >= self.records_per_file:
            self._rotate()
        # Insertion order, not sort_keys: every producer emits keys in a
        # deterministic order, and preserving it through the JSON round
        # trip keeps reconstructed exports byte-identical to live runs.
        self._handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._lines_in_file += 1
        self.entries_written += 1

    def sync(self) -> None:
        """Flush buffered entries and fsync the current shard file."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None


def read_journal(directory: str, prefix: str) -> list[dict]:
    """Every decodable entry, in file-then-line order.

    A torn *final* line in any shard file (the one partial write a
    crash mid-append can leave) is silently dropped; an undecodable
    line anywhere else raises :class:`StoreCorruptError`. A final line
    without its newline counts as torn even when it decodes, exactly as
    in :func:`read_journal_tail`: a resumed run measures that entry
    again, so both readers see the same journal.
    """
    entries: list[dict] = []
    for path in _shard_paths(directory, prefix):
        with open(path, encoding="utf-8") as handle:
            # The piece after the last newline is empty or torn.
            lines = handle.read().split("\n")[:-1]
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                trailing = lines[lineno + 1 :]
                if all(not rest.strip() for rest in trailing):
                    break  # torn tail of a crashed append — recoverable
                raise StoreCorruptError(
                    f"{path}:{lineno + 1}: undecodable journal line"
                )
    return entries


#: A tail cursor: shard basename -> bytes consumed so far. Serialises
#: as plain JSON, so aggregation state can persist it between runs.
TailCursor = dict


def read_journal_tail(
    directory: str,
    prefix: str,
    cursor: Optional[dict] = None,
    *,
    positions: Optional[list] = None,
) -> tuple[list[dict], dict]:
    """Entries appended since ``cursor``; returns ``(entries, cursor')``.

    The incremental counterpart of :func:`read_journal`: instead of
    rereading every shard, it seeks each file to the byte offset the
    cursor recorded and decodes only the tail — the cost of one refresh
    is proportional to the *new* segments, not the archive. Safe against
    a live writer appending concurrently: only byte ranges ending in a
    newline are consumed, so a partially-flushed final line (the same
    torn tail :func:`read_journal` tolerates) is left for the next call
    — once the writer's following sync completes it, the line is read
    whole. A complete-but-undecodable line followed by real content
    raises :class:`StoreCorruptError` exactly like the full reader; one
    followed by nothing is never consumed (a crashed session's torn tail
    that happened to include the newline).

    Because shards are append-only and a writer session never reopens an
    archived shard, a consumed byte range can never change — folding the
    tails of successive calls visits every entry exactly once, in the
    same file-then-line order the full reader uses. A shard the cursor
    names that is now shorter than its offset, or gone, broke that
    promise: it raises :class:`StoreCorruptError` naming the shard,
    since entries already folded from it may no longer exist.

    If ``positions`` is a list, one ``(shard basename, byte offset)``
    pair per returned entry (where its line starts) is appended to it,
    in the same order; :func:`read_journal_at` reads those entries back
    without rescanning their shards.
    """
    cursor = dict(cursor or {})
    entries: list[dict] = []
    paths = _shard_paths(directory, prefix)
    vanished = sorted(set(cursor) - {os.path.basename(path) for path in paths})
    if vanished:
        raise StoreCorruptError(
            f"{os.path.join(directory, vanished[0])}: journal shard vanished "
            f"after {int(cursor[vanished[0]])} bytes were read"
        )
    for path in paths:
        name = os.path.basename(path)
        offset = int(cursor.get(name, 0))
        try:
            size = os.path.getsize(path)
        except OSError:
            if name in cursor:
                raise StoreCorruptError(
                    f"{path}: journal shard vanished after {offset} bytes were read"
                )
            continue
        if size < offset:
            raise StoreCorruptError(
                f"{path}: journal shard shrank to {size} bytes, below the "
                f"{offset} already read"
            )
        if size == offset:
            continue
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read()
        end = blob.rfind(b"\n")
        if end < 0:
            continue  # no complete line beyond the cursor yet
        complete = blob[: end + 1]
        pieces = complete.split(b"\n")[:-1]
        consumed = offset
        for index, raw in enumerate(pieces):
            if not raw.strip():
                consumed += len(raw) + 1
                continue
            try:
                entries.append(json.loads(raw))
            except ValueError:
                if all(not rest.strip() for rest in pieces[index + 1 :]):
                    break  # torn-with-newline tail — leave it unconsumed
                lineno = complete[: consumed - offset].count(b"\n") + 1
                raise StoreCorruptError(
                    f"{path}: undecodable journal line "
                    f"({lineno} lines past byte {offset})"
                )
            if positions is not None:
                positions.append((name, consumed))
            consumed += len(raw) + 1
        cursor[name] = consumed
    return entries, cursor


def read_journal_at(directory: str, positions: Iterable) -> list[dict]:
    """The entries at ``positions`` (from :func:`read_journal_tail`), in
    the order given.

    Each entry costs one seek, one line read and one decode, however
    large its shard: consumed byte ranges never change, so a recorded
    position stays valid for the life of the journal.
    """
    entries: list[dict] = []
    handles: dict = {}
    try:
        for name, offset in positions:
            handle = handles.get(name)
            if handle is None:
                handle = handles[name] = open(os.path.join(directory, name), "rb")
            handle.seek(offset)
            raw = handle.readline()
            try:
                entries.append(json.loads(raw))
            except ValueError:
                raise StoreCorruptError(
                    f"{handle.name}: undecodable journal line at byte {offset}"
                )
    finally:
        for handle in handles.values():
            handle.close()
    return entries
