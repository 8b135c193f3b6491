"""A gauge of the machine's momentary speed, to scale timings by.

The 2-vCPU VM this benchmark was built on runs at two speeds: for
seconds to minutes at a time it is up to 2x slower, across every kind
of work, with no steal time reported. A run of a few tens of seconds
can fall wholly in either phase, so raw times of the same commit spread
across runs by a fifth to a half of their median, more than any bound
worth having.

``SpeedGauge`` times a fixed kernel that uses only the interpreter —
integer arithmetic, then dict, list and string work, with nothing of
the program in it — every ``INTERVAL_S`` of a measurement, between the
timed steps. Each step's time is multiplied by ``REFERENCE_MS`` over the
kernel's time around it, which gives its time at the reference speed:
a slow phase stretches step and kernel alike and cancels, while a
change to the program moves the step alone. Timed for four minutes in
alternation with the kernel, the medians of 10-second windows spread
(quartile distance over median) by 0.24 raw and 0.05 scaled for a
40-probe study, and by 0.49 raw and 0.03 scaled for a journal page read.
"""

import bisect
import statistics
import time

#: About the kernel's time, in ms, in the fast phase of the VM above
#: (Intel Xeon, 2.0 GHz, Python 3.11): scaled times read as milliseconds
#: there. Fixed, so scaled times compare across runs and commits.
REFERENCE_MS = 2.5

#: Seconds between kernel samples during a measurement. The machine's
#: phases last seconds, so a sample every tenth of a second tracks them;
#: the kernel then takes about 2% of the wall time, outside every timing.
INTERVAL_S = 0.1

#: A step is scaled by the median of the samples taken within this many
#: seconds of it: one sample alone jitters by a third of its time, the
#: median of five far less, and a phase outlasts the window.
WINDOW_S = 0.25

_WORDS = tuple(f"name-{index}" for index in range(64))


def kernel() -> int:
    """About 2.5 ms of interpreter work, the same on every call."""
    total = 0
    for value in range(12_000):
        total += value * value % 7
    groups: dict = {}
    for value in range(3_000):
        key = (_WORDS[value % 64], value % 11)
        groups.setdefault(key, []).append(f"{value}:{key[0]}".upper())
    return total + len(sorted(groups, key=str))


class SpeedGauge:
    """Kernel samples over one measurement, and the scale they give."""

    def __init__(self, clock=time.perf_counter, interval: float = INTERVAL_S,
                 window: float = WINDOW_S) -> None:
        self.clock = clock
        self.interval = interval
        self.window = window
        self.times: list[float] = []
        self.kernel_ms: list[float] = []
        kernel()  # the interpreter specializes the kernel on its first run

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; return the clock after it,
        where the caller's next timed step starts."""
        for _ in range(count):
            begin = self.clock()
            kernel()
            end = self.clock()
            self.times.append(end)
            self.kernel_ms.append((end - begin) * 1e3)
        return self.clock()

    def poll(self) -> float:
        """Sample when ``interval`` has passed since the last sample;
        return the clock where the caller's next timed step starts."""
        now = self.clock()
        if not self.times or now - self.times[-1] >= self.interval:
            return self.sample()
        return now

    def scale(self, begin: float, end: float) -> float:
        """``REFERENCE_MS`` over the median kernel time of the samples
        taken within ``window`` of ``[begin, end]``; when none was, of the
        next sample, or of the last one for a step after every sample."""
        low = min(bisect.bisect_left(self.times, begin - self.window), len(self.times) - 1)
        high = max(bisect.bisect_right(self.times, end + self.window), low + 1)
        return REFERENCE_MS / statistics.median(self.kernel_ms[low:high])

    def scaled_ms(self, begin: float, end: float) -> float:
        """The step ``[begin, end]`` in milliseconds at the reference speed."""
        return (end - begin) * 1e3 * self.scale(begin, end)
