"""The crasher corpus: minimised hostile buffers kept as regression tests.

Entries are text files (``#`` comment lines, then hex digits) so that a
crasher checked in next to the test suite is reviewable in a diff. Every
entry is replayed through the hostile-bytes oracle by the tier-1 suite
and by every ``repro fuzz`` run, which is how a fixed parser bug stays
fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable

_SUFFIX = ".hex"


@dataclass(frozen=True)
class CorpusEntry:
    """One named hostile buffer."""

    name: str
    data: bytes
    comment: str = ""


def load_corpus(directory: str) -> list[CorpusEntry]:
    """All entries under ``directory``, sorted by name for determinism."""
    entries: list[CorpusEntry] = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(_SUFFIX):
            continue
        path = os.path.join(directory, filename)
        comments: list[str] = []
        digits: list[str] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    comments.append(line.lstrip("# "))
                else:
                    digits.append(line)
        entries.append(
            CorpusEntry(
                name=filename[: -len(_SUFFIX)],
                data=bytes.fromhex("".join(digits)),
                comment=" ".join(comments),
            )
        )
    return entries


def save_entry(directory: str, name: str, data: bytes, comment: str = "") -> str:
    """Write ``data`` as a corpus entry; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + _SUFFIX)
    lines = [f"# {line}" for line in comment.splitlines() if line]
    hex_text = data.hex()
    lines.extend(hex_text[i : i + 64] for i in range(0, len(hex_text), 64))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def minimize(data: bytes, is_interesting: Callable[[bytes], bool]) -> bytes:
    """Greedy ddmin-style reduction of ``data``.

    ``is_interesting`` must be true for ``data`` itself; the result is the
    smallest buffer the reducer could reach that still satisfies it.
    Deterministic: same input and predicate, same output.
    """
    if not is_interesting(data):
        raise ValueError("seed buffer is not interesting")
    current = data
    # Pass 1: chunk deletion at shrinking granularity.
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            if candidate != current and is_interesting(candidate):
                current = candidate
            else:
                index += chunk
        if chunk == 1:
            break
        chunk //= 2
    # Pass 2: byte simplification toward zero.
    for index in range(len(current)):
        if current[index] == 0:
            continue
        candidate = current[:index] + b"\x00" + current[index + 1 :]
        if is_interesting(candidate):
            current = candidate
    return current


def replay(entries: Iterable[CorpusEntry]) -> list[tuple[CorpusEntry, list]]:
    """Run every entry through the hostile oracle; return failures."""
    from .oracles import check_hostile

    failures = []
    for entry in entries:
        violations = check_hostile(entry.data)
        if violations:
            failures.append((entry, violations))
    return failures
