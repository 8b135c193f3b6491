"""``repro serve`` — a read-only HTTP API over one result store.

Stdlib only (:mod:`http.server`): the store directory is the database,
an in-memory :class:`~repro.campaigns.StoreAggregator` is the query
layer, and every response is the same canonical JSON the offline CLI
writes — ``curl …/trend`` and ``repro campaign trend`` are comparable
with ``cmp``, byte for byte.

The server is safe to point at a store a campaign is still appending
to: each request refreshes the aggregator through
:func:`~repro.store.read_journal_tail`, which only ever consumes byte
ranges ending in a newline — a partially-flushed final line is left for
the next refresh, so responses always reflect whole fsync'd segments
and never a torn row. Every aggregator-derived body, ``/probes`` pages
included, is built and encoded under the same lock as the refresh, so
one response never mixes two folds, and a page counts exactly the lines
``/epochs/<n>`` counts.

Between journal appends those bodies are a pure function of the
manifest and the fold, and a dashboard keeps asking for the same ones.
So the encoded bytes are kept, keyed by the validated query, until the
aggregator's :attr:`~repro.campaigns.StoreAggregator.version` moves (a
new manifest or a folded entry); the cache is cleared when an insert
would take it past :data:`BODY_CACHE_MAX_BYTES`. Error bodies and the
fold-free ``/`` and ``/manifest`` are never cached. A cached body cannot
go stale without the journal being damaged, and the refresh before every
lookup turns damage — a mid-file bad line, or a shard already read that
has shrunk or vanished — into a **503** with the offending shard named,
matching ``repro results``' one-line error; the server itself stays up.

Endpoints (all GET):

- ``/``                  — endpoint index
- ``/manifest``          — the store manifest
- ``/epochs``            — brief per-epoch index (measured/complete)
- ``/epochs/<n>``        — one epoch's full aggregation table
- ``/trend``             — every epoch table plus per-metric series
- ``/probes?epoch=N&offset=0&limit=50`` — probe-level drill-down
"""

from __future__ import annotations

import re
import threading
from collections.abc import Hashable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, urlparse

from repro.campaigns.aggregate import StoreAggregator, load_epoch_page
from repro.ioutil import canonical_json
from repro.store import StoreError, load_manifest

_EPOCH_ROUTE = re.compile(r"^/epochs/(\d+)$")

#: Bound on the total bytes of cached bodies. Like the address caches
#: of :mod:`repro.net.addr`, the cache is cleared when an insert would
#: pass it; a body larger than the bound is served but not kept.
BODY_CACHE_MAX_BYTES = 8 * 1024 * 1024

ENDPOINTS = {
    "/": "this index",
    "/manifest": "the store manifest",
    "/epochs": "per-epoch index (measured/complete)",
    "/epochs/<n>": "one epoch's aggregation table",
    "/trend": "all epoch tables plus per-metric series",
    "/probes?epoch=N&offset=0&limit=50": "probe-level drill-down",
}


class _BadRequest(Exception):
    """Maps to 400 with the message in the body."""


class _NotFound(Exception):
    """Maps to 404 with the message in the body."""


def _int_param(params: dict, name: str, default: int) -> int:
    values = params.get(name)
    if not values:
        return default
    try:
        return int(values[-1])
    except ValueError:
        raise _BadRequest(f"{name} must be an integer, got {values[-1]!r}")


def _require_epoch(aggregator: StoreAggregator, epoch: int) -> None:
    if not 0 <= epoch < aggregator.epoch_count():
        raise _NotFound(f"no such epoch: {epoch}")


def _epoch_index(aggregator: StoreAggregator) -> dict:
    tables = [
        aggregator.epoch_table(epoch) for epoch in range(aggregator.epoch_count())
    ]
    return {
        "epochs": [
            {
                "epoch": table["epoch"],
                "fleet_size": table["fleet_size"],
                "measured": table["measured"],
                "complete": table["complete"],
            }
            for table in tables
        ]
    }


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    #: Set by StoreServer on the handler class.
    store_path: str = ""
    aggregator: Optional[StoreAggregator] = None
    refresh_lock: threading.Lock = threading.Lock()
    #: Encoded bodies by query key, built at aggregator version
    #: ``bodies_version`` and ``bodies_size`` bytes in all. Replaced,
    #: never mutated, on the first request, so handler classes never
    #: share one.
    bodies: dict = {}
    bodies_version: int = -1
    bodies_size: int = 0

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging off — tests and CI want quiet servers

    def _reply(self, status: int, payload) -> None:
        """Send ``payload``: a JSON document, or a body already encoded."""
        if isinstance(payload, bytes):
            body = payload
        else:
            body = canonical_json(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _body(self, key: Hashable, build: Callable[[StoreAggregator], Any]) -> bytes:
        """Refresh the shared aggregator and return the encoded body of
        ``build(aggregator)``, from the cache when ``key`` is there.

        All of it runs under the refresh lock. The aggregator's cursor,
        counters and positions are shared across the threading server's
        request threads: a payload built after releasing the lock could
        see another request's fold half-way. A miss therefore builds and
        encodes under the lock too; a ``build`` that raises caches
        nothing.
        """
        handler = type(self)
        aggregator = handler.aggregator
        assert aggregator is not None
        with handler.refresh_lock:
            aggregator.refresh()
            if handler.bodies_version != aggregator.version:
                handler.bodies, handler.bodies_size = {}, 0
                handler.bodies_version = aggregator.version
            body = handler.bodies.get(key)
            if body is None:
                body = canonical_json(build(aggregator)).encode("utf-8")
                if len(body) <= BODY_CACHE_MAX_BYTES:
                    if handler.bodies_size + len(body) > BODY_CACHE_MAX_BYTES:
                        handler.bodies, handler.bodies_size = {}, 0
                    handler.bodies[key] = body
                    handler.bodies_size += len(body)
            return body

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        try:
            self._route(url.path, parse_qs(url.query))
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-reply. Both are OSErrors, so this
            # clause must come first: a 503 would only hit the same
            # dead socket and raise again.
            pass
        except _BadRequest as exc:
            self._reply(400, {"error": str(exc)})
        except _NotFound as exc:
            self._reply(404, {"error": str(exc)})
        except (StoreError, OSError) as exc:
            # Damaged or vanished store: the server survives, the
            # response names the problem (e.g. the corrupt shard).
            self._reply(503, {"error": str(exc)})

    def _route(self, path: str, params: dict) -> None:
        if path == "/":
            self._reply(200, {"store": type(self).store_path, "endpoints": ENDPOINTS})
            return
        if path == "/manifest":
            self._reply(200, load_manifest(type(self).store_path))
            return
        if path == "/trend":
            self._reply(200, self._body(path, lambda aggregator: aggregator.trend()))
            return
        if path == "/epochs":
            self._reply(200, self._body(path, _epoch_index))
            return
        match = _EPOCH_ROUTE.match(path)
        if match:
            epoch = int(match.group(1))

            def table(aggregator: StoreAggregator) -> dict:
                _require_epoch(aggregator, epoch)
                return aggregator.epoch_table(epoch)

            self._reply(200, self._body(("epoch", epoch), table))
            return
        if path == "/probes":
            epoch = _int_param(params, "epoch", 0)
            offset = _int_param(params, "offset", 0)
            limit = _int_param(params, "limit", 50)
            if offset < 0 or not 1 <= limit <= 1000:
                raise _BadRequest("offset must be >= 0 and limit in [1, 1000]")
            def page(aggregator: StoreAggregator) -> dict:
                _require_epoch(aggregator, epoch)
                return load_epoch_page(
                    aggregator.path, epoch, offset, limit, aggregator=aggregator
                )

            self._reply(200, self._body(("probes", epoch, offset, limit), page))
            return
        self._reply(404, {"error": f"unknown path: {path}", "endpoints": ENDPOINTS})


class StoreServer:
    """The serve runtime: one store directory, one HTTP listener.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``(host, port)``. Use as a context manager or call
    :meth:`serve_forever` (blocking) / :meth:`start` (background
    thread, for tests) and :meth:`close`.
    """

    def __init__(self, store_path: str, host: str = "127.0.0.1", port: int = 0):
        self.store_path = store_path
        handler = type(
            "BoundStoreRequestHandler",
            (_StoreRequestHandler,),
            {
                "store_path": store_path,
                "aggregator": StoreAggregator(store_path, persist=False),
                "refresh_lock": threading.Lock(),
            },
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def start(self) -> "StoreServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_store(store_path: str, host: str = "127.0.0.1", port: int = 8737) -> None:
    """Blocking entry point for ``repro serve``."""
    server = StoreServer(store_path, host=host, port=port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.close()


__all__ = ["BODY_CACHE_MAX_BYTES", "ENDPOINTS", "StoreServer", "serve_store"]
