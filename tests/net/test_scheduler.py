"""Pending-event queue contract of :class:`Network`.

Every case runs at two event spacings. ``heap`` packs events a few
microseconds apart; ``calendar`` spaces them just past a 2**17 µs
window, so neighbouring events land in different bucket-sized slices
of simulated time — the spacing a bucketed (calendar) queue has to get
right and a plain heap must order no differently.
"""

import pytest

from repro.net import Network

from tests.simstate import pending_events

SPACING_US = {"heap": 1, "calendar": 131_073}


@pytest.fixture(params=["heap", "calendar"])
def unit_us(request):
    return SPACING_US[request.param]


def ms(units, unit_us):
    return units * unit_us / 1000


class TestContract:
    def test_orders_by_time_then_seq(self, unit_us):
        net = Network()
        order = []
        net.schedule(ms(5, unit_us), lambda: order.append("b"))
        net.schedule(ms(1, unit_us), lambda: order.append("c"))
        net.schedule(ms(5, unit_us), lambda: order.append("a"))
        net.schedule(ms(100_000, unit_us), lambda: order.append("far"))
        net.run()
        assert order == ["c", "b", "a", "far"]

    def test_pop_due_respects_limit(self, unit_us):
        net = Network()
        order = []
        net.schedule(ms(1, unit_us), lambda: order.append("due"))
        net.schedule(ms(2, unit_us), lambda: order.append("at-limit"))
        net.schedule(ms(3, unit_us), lambda: order.append("later"))
        assert net.run(until=ms(2, unit_us)) == 2
        assert order == ["due", "at-limit"]
        assert pending_events(net) == 1
        assert net.now == ms(2, unit_us)
        assert net.run() == 1
        assert order == ["due", "at-limit", "later"]
        assert pending_events(net) == 0

    def test_clear_empties(self, unit_us):
        net = Network()
        order = []
        for i in range(10):
            net.schedule(ms(i * 100, unit_us), lambda i=i: order.append(i))
        net.run(until=ms(150, unit_us))
        assert pending_events(net) == 8
        net.reset_events(0)
        assert pending_events(net) == 0
        assert net.now == 0.0
        assert net.run() == 0
        assert order == [0, 1]
