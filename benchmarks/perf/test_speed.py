"""SpeedGauge on a scripted clock."""

import pytest

from benchmarks.perf.speed import REFERENCE_MS, SpeedGauge


def scripted(*values):
    ticks = iter(values)
    return lambda: next(ticks)


def test_steps_scale_by_the_samples_near_them():
    # Each sample reads the clock twice around the kernel, and once more
    # for where the caller's next step starts.
    gauge = SpeedGauge(clock=scripted(
        0.0, 0.005, 0.005,      # kernel 5 ms: the machine at half speed
        1.0, 1.0025, 1.0025,    # kernel 2.5 ms
        2.0, 2.0025, 2.0025,    # kernel 2.5 ms
    ), window=0.1)
    first, second, third = gauge.sample(), gauge.sample(), gauge.sample()
    assert (first, second, third) == (0.005, 1.0025, 2.0025)
    assert gauge.kernel_ms == pytest.approx([5.0, 2.5, 2.5])
    # Samples at both ends of the step: the median of 5 and 2.5 ms.
    assert gauge.scale(first, 1.0) == pytest.approx(REFERENCE_MS / 3.75)
    assert gauge.scaled_ms(second, 2.0) == pytest.approx(997.5 * REFERENCE_MS / 2.5)
    # All three within the window.
    assert gauge.scale(0.0, 3.0) == pytest.approx(REFERENCE_MS / 2.5)
    # None within it: the next sample, or the last after every sample.
    assert gauge.scale(-1.0, -0.5) == pytest.approx(REFERENCE_MS / 5.0)
    assert gauge.scale(0.4, 0.5) == pytest.approx(REFERENCE_MS / 2.5)
    assert gauge.scale(3.0, 4.0) == pytest.approx(REFERENCE_MS / 2.5)


def test_poll_samples_only_once_the_interval_has_passed():
    # A poll reads the clock once, then three more times if it samples.
    gauge = SpeedGauge(clock=scripted(
        0.0, 0.0, 0.002, 0.002,  # no sample yet: samples
        0.05,                    # 48 ms after it: too soon
        0.2, 0.2, 0.203, 0.203,  # 198 ms after it: samples again
    ), interval=0.1)
    assert gauge.poll() == 0.002
    assert gauge.poll() == 0.05
    assert gauge.poll() == 0.203
    assert gauge.kernel_ms == pytest.approx([2.0, 3.0])


def test_a_burst_records_every_sample():
    gauge = SpeedGauge(clock=scripted(0.0, 0.002, 0.002, 0.005, 0.006))
    assert gauge.sample(count=2) == 0.006
    assert gauge.kernel_ms == pytest.approx([2.0, 3.0])
