"""``repro.serve`` — the read-only HTTP API over a result store.

See :mod:`repro.serve.app`; stdlib ``http.server`` only, canonical-JSON
responses byte-identical to the offline aggregation CLI, live-appender
safe, 503 on a damaged store.
"""

from .app import StoreServer

__all__ = ["StoreServer"]
