"""The read-only HTTP API: endpoints, CLI byte-parity, live stores."""

import json
import os
import shutil
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.campaigns import (
    LongitudinalCampaign,
    StoreAggregator,
    bundle_from_dict,
    canonical_json,
    find_bundle,
    load_epoch_page,
)
from repro.serve import StoreServer, app
from repro.serve.app import ENDPOINTS, _StoreRequestHandler
from repro.store import ResultStore, load_manifest

from ..campaigns.conftest import bundle_data, full_scan_page, page_grid


@pytest.fixture(scope="module")
def bundle():
    return bundle_from_dict(bundle_data())


@pytest.fixture(scope="module")
def store_path(bundle, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "store")
    LongitudinalCampaign(bundle).run(store=ResultStore(path))
    return path


@pytest.fixture()
def server(store_path):
    with StoreServer(store_path) as running:
        yield running


def get(server, path):
    with urllib.request.urlopen(server.url + path) as response:
        return response.status, response.read()


def get_json(server, path):
    status, body = get(server, path)
    return status, json.loads(body)


class TestEndpoints:
    def test_index_lists_endpoints(self, server):
        status, body = get_json(server, "/")
        assert status == 200
        assert "/trend" in body["endpoints"]

    def test_manifest(self, server, bundle):
        status, body = get_json(server, "/manifest")
        assert status == 200
        assert body["kind"] == "longitudinal"
        assert body["scenario"] == bundle.name

    def test_epochs_index(self, server, bundle):
        status, body = get_json(server, "/epochs")
        assert status == 200
        assert len(body["epochs"]) == bundle.schedule.epochs
        assert all(entry["complete"] for entry in body["epochs"])

    def test_single_epoch_table(self, server):
        status, body = get_json(server, "/epochs/1")
        assert status == 200
        assert body["epoch"] == 1
        assert sum(body["verdicts"].values()) == body["measured"]

    def test_trend_matches_offline_aggregation_bytes(self, server, store_path):
        _status, served = get(server, "/trend")
        aggregator = StoreAggregator(store_path)
        aggregator.refresh()
        assert served == canonical_json(aggregator.trend()).encode("utf-8")

    def test_probes_pagination(self, server):
        status, body = get_json(server, "/probes?epoch=0&offset=1&limit=2")
        assert status == 200
        assert len(body["probes"]) == 2
        assert body["offset"] == 1

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/nope")
        assert excinfo.value.code == 404

    def test_unknown_epoch_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/epochs/99")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("epoch", [99, -1])
    def test_probes_of_unknown_epoch_404_like_epochs(self, server, epoch):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, f"/probes?epoch={epoch}")
        with excinfo.value as response:
            assert response.code == 404
            assert json.loads(response.read()) == {"error": f"no such epoch: {epoch}"}

    @pytest.mark.parametrize(
        "query", ["epoch=zero", "epoch=0&limit=0", "epoch=0&offset=-1"]
    )
    def test_bad_probe_params_400(self, server, query):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, f"/probes?{query}")
        assert excinfo.value.code == 400


def stdlib_json(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    scenarios = Path(__file__).resolve().parents[2] / "scenarios"
    path = str(tmp_path_factory.mktemp("serve-smoke") / "store")
    bundle = find_bundle("ci-smoke", str(scenarios))
    LongitudinalCampaign(bundle).run(store=ResultStore(path))
    return path


class TestBodiesMatchStdlib:
    """Served bytes equal the stdlib's encoding of the same payload, built
    offline: a wrong ``canonical_json`` cannot pass by agreeing with itself."""

    def expected(self, store_path: str) -> dict:
        aggregator = StoreAggregator(store_path, persist=False)
        aggregator.refresh()
        epochs = range(aggregator.epoch_count())
        tables = [aggregator.epoch_table(epoch) for epoch in epochs]
        brief = ("epoch", "fleet_size", "measured", "complete")
        index = {"epochs": [{key: table[key] for key in brief} for table in tables]}
        payloads = {
            "/": {"store": store_path, "endpoints": ENDPOINTS},
            "/manifest": load_manifest(store_path),
            "/epochs": index,
            "/trend": aggregator.trend(),
        }
        for epoch in epochs:
            payloads[f"/epochs/{epoch}"] = tables[epoch]
            payloads[f"/probes?epoch={epoch}&limit=1000"] = load_epoch_page(
                store_path, epoch, 0, 1000
            )
        return {path: stdlib_json(payload) for path, payload in payloads.items()}

    def test_ok_bodies(self, smoke_store):
        expected = self.expected(smoke_store)
        assert len(expected) == 8  # two epochs
        with StoreServer(smoke_store) as server:
            for path, body in expected.items():
                assert get(server, path) == (200, body), path

    @pytest.mark.parametrize(
        "path, code, payload",
        [
            (
                "/probes?epoch=0&limit=0",
                400,
                {"error": "offset must be >= 0 and limit in [1, 1000]"},
            ),
            ("/nope", 404, {"error": "unknown path: /nope", "endpoints": ENDPOINTS}),
        ],
    )
    def test_error_bodies(self, smoke_store, path, code, payload):
        with StoreServer(smoke_store) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, path)
        with excinfo.value as response:
            assert response.code == code
            assert response.read() == stdlib_json(payload)


class _GoneClient:
    """A response stream whose client hung up: every write fails."""

    def __init__(self, error):
        self.error = error
        self.writes = 0

    def write(self, data):
        self.writes += 1
        raise self.error("client went away")


class TestClientGone:
    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    @pytest.mark.parametrize("path", ["/", "/trend", "/probes?epoch=0&limit=5"])
    def test_no_reply_after_the_client_hangs_up(self, store_path, error, path):
        handler_class = type(
            "Handler",
            (_StoreRequestHandler,),
            {
                "store_path": store_path,
                "aggregator": StoreAggregator(store_path, persist=False),
                "refresh_lock": threading.Lock(),
            },
        )
        handler = handler_class.__new__(handler_class)
        handler.path = path
        handler.command = "GET"
        handler.request_version = "HTTP/1.1"
        handler.requestline = f"GET {path} HTTP/1.1"
        handler.wfile = _GoneClient(error)
        handler.do_GET()  # returns: no 503 written into the dead socket
        assert handler.wfile.writes == 1


class TestDamagedStore:
    def test_corrupt_store_is_503_and_survivable(self, store_path, tmp_path):
        damaged = str(tmp_path / "damaged")
        shutil.copytree(store_path, damaged)
        journal = os.path.join(damaged, "journal")
        shard = sorted(os.listdir(journal))[0]
        path = os.path.join(journal, shard)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[2] = b"{broken"
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with StoreServer(damaged) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server, "/trend")
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert shard in body["error"]
            # The server itself must stay up after the failed request.
            status, _body = get(server, "/")
            assert status == 200

    def test_shrunk_shard_is_503_even_for_cached_bodies(self, store_path, tmp_path):
        """A shard cut below what the server already read is damage: the
        tables and cached pages counting its lost entries are not served."""
        damaged = str(tmp_path / "shrunk")
        shutil.copytree(store_path, damaged)
        journal = os.path.join(damaged, "journal")
        (shard,) = os.listdir(journal)
        path = os.path.join(journal, shard)
        page = "/probes?epoch=0&offset=0&limit=5"
        with StoreServer(damaged) as server:
            assert get(server, "/trend")[0] == 200
            assert get(server, page)[0] == 200
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
            for request in ("/trend", page):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get(server, request)
                with excinfo.value as response:
                    assert response.code == 503, request
                    assert shard in json.loads(response.read())["error"]
            assert get(server, "/")[0] == 200


class TestLiveStore:
    def test_serves_whole_epochs_while_appending(self, bundle, tmp_path):
        """Pointed at a store mid-campaign, every response reflects whole
        fsync'd segments — counts grow, but never expose a torn row."""
        path = str(tmp_path / "live")
        store = ResultStore(path)
        campaign = LongitudinalCampaign(bundle)
        sizes = campaign.epoch_sizes()
        observations = []

        server_box = {}

        def epoch_done(epoch):
            server = server_box.get("server")
            if server is None:
                server = StoreServer(path).start()
                server_box["server"] = server
            _status, body = get_json(server, "/trend")
            observations.append((epoch, body["series"]["measured"]))

        try:
            campaign.run(store=store, epoch_done=epoch_done)
        finally:
            if "server" in server_box:
                server_box["server"].close()

        assert len(observations) == bundle.schedule.epochs
        for epoch, measured in observations:
            # Epochs up to the one just finished are complete; later
            # ones have not been journaled at all — no partial rows.
            for index, count in enumerate(measured):
                assert count == (sizes[index] if index <= epoch else 0)

    def test_mid_epoch_reads_see_only_synced_batches(self, bundle, tmp_path):
        """A request between fsync batches sees a prefix of the epoch,
        never a decode error from a torn line."""
        path = str(tmp_path / "partial")
        store = ResultStore(path)
        campaign = LongitudinalCampaign(bundle)
        records = {
            epoch: batch
            for epoch, batch in campaign.run().items()
        }
        done = store.begin_longitudinal(
            campaign.fingerprint(), campaign.epoch_sizes()
        )
        assert done == set()
        with StoreServer(path) as server:
            # Append epoch 0 in two synced halves, probing in between.
            batch = list(enumerate(records[0]))
            half = len(batch) // 2
            store.append_epoch_segment(0, batch[:half])
            store.sync()
            _status, body = get_json(server, "/epochs/0")
            assert body["measured"] == half
            store.append_epoch_segment(0, batch[half:])
            store.sync()
            _status, body = get_json(server, "/epochs/0")
            assert body["measured"] == len(batch)
        store.close()


def assert_served_pages_match_full_scan(server, path, sizes):
    for epoch, offset, limit in page_grid(sizes):
        query = f"/probes?epoch={epoch}&offset={offset}&limit={limit}"
        _status, served = get(server, query)
        expected = canonical_json(full_scan_page(path, epoch, offset, limit))
        assert served == expected.encode("utf-8"), query


class TestProbePages:
    """``/probes`` pages equal the original full-journal scan byte for
    byte, and count what ``/epochs/<n>`` counts."""

    @pytest.mark.parametrize("layout", ["resumed", "sharded"])
    def test_pages_match_full_scan(self, page_stores, layout):
        path = getattr(page_stores, layout)
        with StoreServer(path) as server:
            assert_served_pages_match_full_scan(
                server, path, page_stores.campaign.epoch_sizes()
            )

    def test_pages_between_synced_halves(self, page_stores, tmp_path):
        path = str(tmp_path / "halves")
        campaign = page_stores.campaign
        sizes = campaign.epoch_sizes()
        store = ResultStore(path)
        store.begin_longitudinal(campaign.fingerprint(), sizes)
        with StoreServer(path) as server:
            for epoch, batch in sorted(page_stores.records.items()):
                pairs = list(enumerate(batch))
                half = len(pairs) // 2
                for segment in (pairs[:half], pairs[half:]):
                    store.append_epoch_segment(epoch, segment)
                    store.sync()
                    assert_served_pages_match_full_scan(server, path, sizes)
        store.close()

    def test_unterminated_final_line_counts_like_epochs(self, store_path, tmp_path):
        """A complete final line still waiting for its newline (a partial
        flush) is in neither the page total nor the epoch table."""
        path = str(tmp_path / "flushing")
        shutil.copytree(store_path, path)
        journal = os.path.join(path, "journal")
        last = os.path.join(journal, sorted(os.listdir(journal))[-1])
        with open(last, "rb") as handle:
            blob = handle.read()
        with open(last, "wb") as handle:
            handle.write(blob.rstrip(b"\n"))
        epoch = json.loads(blob.rstrip(b"\n").rsplit(b"\n", 1)[-1])["e"]
        with StoreServer(path) as server:
            _status, table = get_json(server, f"/epochs/{epoch}")
            _status, page = get_json(server, f"/probes?epoch={epoch}&limit=1000")
        assert page["total"] == table["measured"] == len(page["probes"])
        assert table["measured"] == table["fleet_size"] - 1


class PausingState(dict):
    """An epoch's aggregation state that parks the first read of
    ``online``: the step of ``epoch_table`` after it has counted ``seen``
    and before it copies the counters."""

    def __init__(self, state, paused, resume):
        super().__init__(state)
        self.paused = paused
        self.resume = resume
        self.armed = True

    def __getitem__(self, key):
        if key == "online" and self.armed:
            self.armed = False
            self.paused.set()
            assert self.resume.wait(10)
        return super().__getitem__(key)


class WatchedLock:
    """A refresh lock that reports a request having to wait for it."""

    def __init__(self, on_wait):
        self._lock = threading.Lock()
        self._on_wait = on_wait

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self._on_wait()
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class TestRefreshRace:
    def test_table_is_built_from_one_fold(self, page_stores, tmp_path):
        """Request A builds /epochs/0 while request B folds a newly synced
        segment: A must answer from one fold, never a count of one and
        counters of the next."""
        path = str(tmp_path / "race")
        campaign = page_stores.campaign
        store = ResultStore(path)
        store.begin_longitudinal(campaign.fingerprint(), campaign.epoch_sizes())
        pairs = list(enumerate(page_stores.records[0]))
        half = len(pairs) // 2
        store.append_epoch_segment(0, pairs[:half])
        store.sync()
        paused, resume, b_waits_or_done = (threading.Event() for _ in range(3))
        bodies = {}

        def request(name):
            bodies[name] = get_json(server, "/epochs/0")[1]

        def request_b():
            request("b")
            b_waits_or_done.set()

        with StoreServer(path) as server:
            # Warm up on /epochs: a cached /epochs/0 body would answer A
            # without reaching the paused build.
            assert get_json(server, "/epochs")[1]["epochs"][0]["measured"] == half
            handler = server._httpd.RequestHandlerClass
            handler.refresh_lock = WatchedLock(b_waits_or_done.set)
            epochs = handler.aggregator._epochs
            epochs[0] = PausingState(epochs[0], paused, resume)
            a = threading.Thread(target=request, args=("a",))
            a.start()
            assert paused.wait(10)
            store.append_epoch_segment(0, pairs[half:])
            store.sync()
            b = threading.Thread(target=request_b)
            b.start()
            assert b_waits_or_done.wait(10)
            resume.set()
            a.join(10)
            b.join(10)
        store.close()
        assert sum(bodies["a"]["verdicts"].values()) == bodies["a"]["measured"] == half
        assert sum(bodies["b"]["verdicts"].values()) == bodies["b"]["measured"] == len(pairs)

    def test_concurrent_readers_during_appends(self, page_stores, tmp_path):
        """Readers on more threads than cores, with a short switch
        interval, while synced batches land: every body is one fold."""
        path = str(tmp_path / "stress")
        campaign = page_stores.campaign
        store = ResultStore(path)
        store.begin_longitudinal(campaign.fingerprint(), campaign.epoch_sizes())
        pairs = list(enumerate(page_stores.records[0]))
        done = threading.Event()
        errors = []
        bodies = []

        def reader():
            try:
                while not done.is_set():
                    bodies.append(get_json(server, "/epochs/0")[1])
                    bodies.append(get_json(server, "/probes?epoch=0&limit=1000")[1])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StoreServer(path) as server:
                readers = [threading.Thread(target=reader) for _ in range(4)]
                for thread in readers:
                    thread.start()
                for start in range(0, len(pairs), 15):
                    store.append_epoch_segment(0, pairs[start : start + 15])
                    store.sync()
                done.set()
                for thread in readers:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in readers)
        finally:
            sys.setswitchinterval(interval)
            done.set()
        store.close()
        assert not errors and bodies
        for body in bodies:
            if "measured" in body:
                assert sum(body["verdicts"].values()) == body["measured"]
            else:
                indices = [probe["index"] for probe in body["probes"]]
                assert indices == list(range(body["total"]))


class TestBodyCache:
    """Cached bodies are served until the fold or the manifest moves, and
    never past the byte bound."""

    REQUESTS = ("/trend", "/epochs", "/epochs/0", "/probes?epoch=0&limit=1000")

    def half_store(self, page_stores, path):
        campaign = page_stores.campaign
        store = ResultStore(path)
        store.begin_longitudinal(campaign.fingerprint(), campaign.epoch_sizes())
        pairs = list(enumerate(page_stores.records[0]))
        half = len(pairs) // 2
        store.append_epoch_segment(0, pairs[:half])
        store.sync()
        return store, pairs[half:]

    def test_an_append_invalidates_every_body(self, page_stores, tmp_path):
        path = str(tmp_path / "append")
        store, rest = self.half_store(page_stores, path)
        with StoreServer(path) as server:
            before = {request: get(server, request)[1] for request in self.REQUESTS}
            store.append_epoch_segment(0, rest)
            store.sync()
            expected = TestBodiesMatchStdlib().expected(path)
            for request in self.REQUESTS:
                served = get(server, request)[1]
                assert served == expected[request], request
                assert served != before[request], request
        store.close()

    def test_a_manifest_change_invalidates(self, page_stores, tmp_path):
        path = str(tmp_path / "finalize")
        store = ResultStore(path)
        campaign = page_stores.campaign
        store.begin_longitudinal(campaign.fingerprint(), campaign.epoch_sizes())
        for epoch, batch in sorted(page_stores.records.items()):
            store.append_epoch_segment(epoch, enumerate(batch))
        store.sync()
        with StoreServer(path) as server:
            assert get_json(server, "/trend")[1]["complete"] is False
            store.finalize_longitudinal()  # the manifest only: no new entries
            assert get_json(server, "/trend")[1]["complete"] is True

    def test_repeats_build_nothing_until_an_append(
        self, page_stores, tmp_path, monkeypatch
    ):
        builds = []
        trend = StoreAggregator.trend

        def counted(aggregator):
            builds.append(1)
            return trend(aggregator)

        monkeypatch.setattr(StoreAggregator, "trend", counted)
        path = str(tmp_path / "count")
        store, rest = self.half_store(page_stores, path)
        with StoreServer(path) as server:
            first = get(server, "/trend")
            assert len(builds) == 1
            assert get(server, "/trend") == first
            assert len(builds) == 1
            store.append_epoch_segment(0, rest)
            store.sync()
            get(server, "/trend")
            assert len(builds) == 2
            get(server, "/trend")
            assert len(builds) == 2
        store.close()

    def test_cached_bytes_stay_within_the_bound(self, page_stores):
        path = page_stores.sharded
        offline = StoreAggregator(path, persist=False)
        offline.refresh()
        served_bytes = 0
        with StoreServer(path) as server:
            handler = server._httpd.RequestHandlerClass
            for epoch in range(offline.epoch_count()):
                for offset in range(40):
                    request = f"/probes?epoch={epoch}&offset={offset}&limit=1000"
                    body = get(server, request)[1]
                    expected = canonical_json(offline.epoch_page(epoch, offset, 1000))
                    assert body == expected.encode("utf-8"), request
                    served_bytes += len(body)
                    cached = sum(len(kept) for kept in handler.bodies.values())
                    assert handler.bodies_size == cached <= app.BODY_CACHE_MAX_BYTES
        assert served_bytes > 2 * app.BODY_CACHE_MAX_BYTES  # the bound was hit

    def test_a_body_over_the_bound_is_served_uncached(self, page_stores, monkeypatch):
        monkeypatch.setattr(app, "BODY_CACHE_MAX_BYTES", 100_000)
        path = page_stores.sharded
        request = "/probes?epoch=0&limit=1000"
        with StoreServer(path) as server:
            body = get(server, request)[1]
            assert len(body) > 100_000
            assert body == TestBodiesMatchStdlib().expected(path)[request]
            assert server._httpd.RequestHandlerClass.bodies == {}
            assert get(server, request)[1] == body
