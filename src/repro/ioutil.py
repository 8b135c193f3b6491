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


def canonical_json(payload: Any) -> str:
    """The one serialisation every table, manifest and served body uses:
    sorted keys, two-space indent and a trailing newline, so the serve
    API and the offline CLI can be compared with ``cmp``, byte for byte.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
