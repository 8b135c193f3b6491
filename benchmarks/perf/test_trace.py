"""Tracer unit tests: self-time math, per-thread stacks, clean uninstall."""

import importlib
import threading

import pytest

from benchmarks.perf.trace import BOUNDARIES, COUNT, SPAN, Boundary, Tracer


class FakeClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_spans_and_counts():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5

    def inner():
        clock.now += 10
        traced_leaf()
        traced_leaf()
        clock.now += 1

    def outer(probe_id):
        clock.now += 100
        traced_inner()
        clock.now += 7

    traced_leaf = tracer.wrap(Boundary("leaf", "", "", COUNT), leaf)
    traced_inner = tracer.wrap(Boundary("inner", "", "", SPAN), inner)
    traced_outer = tracer.wrap(
        Boundary("outer", "", "", SPAN, trace_id=lambda args: args[0]), outer
    )
    traced_outer(42)
    traced_outer(43)

    stats = tracer.stats()
    assert stats["leaf"] == (4, 20, 20)
    assert stats["inner"] == (2, 42, 22)  # 21 per call, 10 of it in leaves
    assert stats["outer"] == (2, 256, 214)  # 128 per call, 21 in inner
    spans = tracer.spans()
    assert [name for name, *_ in spans] == ["inner", "outer", "inner", "outer"]
    by_id = {span[3]: span for span in spans}
    for name, start, end, span_id, parent, trace_id in spans:
        if name == "inner":
            assert by_id[parent][0] == "outer"
            assert trace_id == by_id[parent][5]  # children inherit the trace id
        else:
            assert parent == 0
    assert {span[5] for span in spans} == {42, 43}


def test_spans_nested_under_a_count_boundary_name_the_enclosing_span():
    tracer = Tracer()
    traced_span = tracer.wrap(Boundary("child", "", "", SPAN), lambda: None)
    traced_count = tracer.wrap(Boundary("count", "", "", COUNT), traced_span)
    tracer.wrap(Boundary("root", "", "", SPAN), traced_count)()
    child, root = tracer.spans()
    assert child[0] == "child" and root[0] == "root"
    assert child[4] == root[3]


def test_stacks_are_per_thread():
    """Two threads interleave inside the same traced functions; each
    thread's inner spans must hang off its own outer span."""
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()

    traced_inner = tracer.wrap(Boundary("inner", "", "", SPAN), inner)

    def outer(name):
        barrier.wait()  # both threads are inside outer before either goes on
        traced_inner()

    traced_outer = tracer.wrap(
        Boundary("outer", "", "", SPAN, trace_id=lambda args: args[0]), outer
    )
    threads = [threading.Thread(target=traced_outer, args=(n,)) for n in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)

    spans = tracer.spans()
    by_id = {span[3]: span for span in spans}
    inners = [span for span in spans if span[0] == "inner"]
    assert len(inners) == 2
    for _name, start, end, _id, parent, trace_id in inners:
        owner = by_id[parent]
        assert owner[0] == "outer" and owner[5] == trace_id
        assert owner[1] <= start <= end <= owner[2]
    assert tracer.stats()["outer"][0] == 2


def _site_value(boundary):
    """The raw object at a boundary's patch site."""
    owner = importlib.import_module(boundary.module)
    site = boundary.site
    if "[" in site:
        registry, _, rest = site.partition("[")
        return getattr(owner, registry)[rest.partition("]")[0]]
    *path, attr = site.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_uninstall_restores_every_original_attribute():
    before = [_site_value(boundary) for boundary in BOUNDARIES]
    tracer = Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
        for boundary, original in zip(BOUNDARIES, before):
            assert _site_value(boundary) is not original, boundary.site
    finally:
        tracer.uninstall()
    for boundary, original in zip(BOUNDARIES, before):
        assert _site_value(boundary) is original, boundary.site
