"""Reference kernels: fixed work that does not touch felog, timed beside it.

The benchmark's host is shared, and the speed it gives one process swings
by up to two times within seconds and stays low for minutes at a time (see
README.md). Raw op times then say more about the host than about felog. So
a reference kernel is timed every ``Gauge.INTERVAL_S`` between ops, and each
op's time is scaled by ``ref_s / kernel time around the op``: it is reported
as the time the op would take with the host at full speed. ``ref_s`` is the
kernel's time at full speed on the machine the benchmark was tuned on (a
2.0 GHz Xeon vCPU, Python 3.11, numpy 2.4); it only sets the scale, since
every comparison is between runs of the same benchmark. A change to felog
moves the op times and not the kernel, so it moves the scaled figures by
the same share.

This module imports nothing but the standard library at load time, so that
the set-up clock can be bracketed before numpy is imported.
"""

import bisect
import math
import statistics
import time


def interp() -> float:
    """Interpreted float arithmetic: lgamma terms and a Horner loop, the
    kind of work of felog's recurrence, series evaluation and start-up."""
    s = 0.0
    for k in range(1, 800):
        s += math.lgamma(1.0 + k * 0.37) - math.log(k)
    y = 0.0
    for c in range(1, 800):
        y = y * 0.73 + 1.0 / c
    return s + y


_STREAM = []


def stream() -> float:
    """Dot products of a growing history against reversed views of a
    16,001-long array, the kind of work of the predictor-corrector's
    history sums (numpy may spread them over both cores)."""
    import numpy as np

    if not _STREAM:
        a = np.linspace(0.0, 1.0, 16001)
        _STREAM.extend((a, a[::-1].copy()))
    a, b = _STREAM
    s = 0.0
    for n in range(0, 16000, 200):
        s += float(np.dot(a[: n + 1], b[n::-1]))
    return s


#: kind -> (kernel, its time in seconds with the host at full speed)
KERNELS = {"interp": (interp, 3.0e-4), "stream": (stream, 8.5e-4)}


class Gauge:
    """Samples of one reference kernel's time, and op times scaled by them."""

    #: Samples are taken before an op once this long has passed since the last,
    #: this many back to back.
    INTERVAL_S = 0.05
    BURST = 3

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.ref_s = KERNELS[kind]
        self.samples: list[tuple[float, float]] = []  # (start, duration), in time order

    def sample(self) -> None:
        """Time the kernel BURST times."""
        for _ in range(self.BURST):
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append((t0, time.perf_counter() - t0))

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= self.INTERVAL_S

    def scaled_sum(self, starts, durations) -> float:
        """Summed durations of intervals begun at ``starts``, each at the
        host's full speed: times ``ref_s`` over the median kernel time from
        the last sample begun before the interval to the first begun after."""
        begun = [t for t, _ in self.samples]
        kernel = [d for _, d in self.samples]
        total = 0.0
        for start, duration in zip(starts, durations):
            lo = max(0, bisect.bisect_right(begun, start) - 1)
            hi = bisect.bisect_left(begun, start + duration)
            total += duration * self.ref_s / statistics.median(kernel[lo:hi + 1])
        return total

    def scaled(self, start: float, duration: float) -> float:
        return self.scaled_sum([start], [duration])

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples) if self.samples else math.nan

    def merged(self, other: "Gauge") -> "Gauge":
        g = Gauge(self.kind)
        g.samples = sorted(self.samples + other.samples)
        return g
