"""Filesystem primitives for durable artifacts.

Every on-disk artifact the project produces — study exports, metrics
snapshots, store manifests — goes through :func:`atomic_write_text`:
write to a temporary file *in the destination directory*, fsync, then
``os.replace``. A crash at any instant leaves either the old file or
the new one, never a truncated hybrid. (The temp file must share the
destination's directory because ``os.replace`` is only atomic within
one filesystem.)

Every indented-JSON artifact and response body — store manifests,
campaign tables, ``repro serve`` bodies — is written by
:func:`canonical_json`, so any two of them can be compared with ``cmp``.
"""

from __future__ import annotations

import json
import os
import tempfile
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any


def ensure_parent_dir(path: str) -> None:
    """Create the parent directory of ``path`` if it is missing."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def fsync_dir(path: str) -> None:
    """Flush a directory entry to disk, where the platform allows it.

    Needed after ``os.replace``/file creation for the *name* to be as
    durable as the bytes; best-effort because some platforms refuse to
    open directories.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str, create_parents: bool = False) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8).

    The write lands in a sibling temp file first and is fsync'd before
    the rename, so readers never observe partial content and a crash
    never leaves truncated output behind.
    """
    path = os.fspath(path)
    if create_parents:
        ensure_parent_dir(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_dir(directory)


#: Containers nested deeper than this (and cycles, which nest without
#: end) are encoded by the stdlib instead.
_MAX_DEPTH = 64
#: ``"\n"`` plus the two-space indent of each depth, built once.
_NEWLINES = tuple("\n" + "  " * depth for depth in range(_MAX_DEPTH + 1))
_INFINITY = float("inf")


class _NotPlainJson(Exception):
    """The payload holds something only the stdlib encoder handles."""


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _encode(value: Any, out: list, depth: int) -> None:
    """Append ``value``'s indented encoding at ``depth`` to ``out``, or
    raise :class:`_NotPlainJson` on anything but the exact JSON types."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if depth == _MAX_DEPTH:
            raise _NotPlainJson
        # Before sorting: keys of mixed types would make sorted() raise.
        for key in value:
            if type(key) is not str:
                raise _NotPlainJson
        depth += 1
        newline = _NEWLINES[depth]
        separator, comma = "{" + newline, "," + newline
        for key in sorted(value):
            out.append(separator + _encode_str(key) + ": ")
            separator = comma
            _encode(value[key], out, depth)
        out.append(_NEWLINES[depth - 1] + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        if depth == _MAX_DEPTH:
            raise _NotPlainJson
        depth += 1
        newline = _NEWLINES[depth]
        separator, comma = "[" + newline, "," + newline
        for item in value:
            out.append(separator)
            separator = comma
            _encode(item, out, depth)
        out.append(_NEWLINES[depth - 1] + "]")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is float:
        out.append(_float_text(value))
    else:
        raise _NotPlainJson


def canonical_json(payload: Any) -> str:
    """The one serialisation every table, manifest and served body uses.

    Returns exactly ``json.dumps(payload, indent=2, sort_keys=True) +
    "\\n"`` — sorted keys, two-space indent, trailing newline — so the
    serve API and the offline CLI can be compared with ``cmp``, byte for
    byte. The stdlib builds that string with its pure-Python,
    generator-based encoder whenever ``indent`` is set; this one writes
    into a single list from a plain recursive function instead.

    The fast path covers the exact built-in JSON types: ``dict`` with
    ``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
    ``bool`` and ``None``. Strings and keys go through the stdlib's own
    C ``encode_basestring_ascii``, ints through ``int.__repr__`` and
    floats through ``float.__repr__`` with the stdlib's ``NaN`` /
    ``Infinity`` spellings, which is what ``json.dumps`` calls too.
    Anything else anywhere in the payload — a non-``str`` key, a
    subclass (``IntEnum``, ``OrderedDict``), a set, a cycle, nesting
    deeper than 64 containers — abandons the partial output and hands
    the *whole* payload to ``json.dumps``. Those payloads therefore get
    the stdlib's output or the stdlib's exception by construction.
    """
    out: list = []
    try:
        _encode(payload, out, 0)
    except _NotPlainJson:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)
