"""Host-speed probes, so that times can be reported at a reference speed.

On a shared machine the same process runs up to 1.7 times slower for
minutes at a time, whatever it runs, and that drift swamps the differences
the benchmark must resolve.  So a worker times a fixed pure-Python reference
loop between its ops, at most ``EVERY_S`` apart, and each measured interval
is scaled by ``REF_S`` over the median of the probes within ``WINDOW_S``
of it.  One 1-ms probe is itself noisy, and scaling a short op by the one or
two probes next to it moved the median op time by up to 10% between runs;
the drift lasts minutes, so a window of seconds follows it as closely.  The probes run
in the measuring process itself: probes taken in a separate process, on
whichever core it got, followed the slowdown much less closely (a 12% range
over three same-seed runs, against 3%).  ``REF_S`` is close to the loop's
median time on the idle 2-core Xeon VM where the baseline was taken.
Raw wall times are reported alongside.

CLI calls are scaled by a different probe, the start of a bare interpreter
(``spawn_probe``): a call is mostly process start and imports, which slow
down with the host's process and file work rather than with its pure-Python
speed.  Over 2-s windows of CLI calls, dividing by the spawn probe left an
interquartile range of 7.5% of the median, against 11% raw and 15% divided by
the loop probe.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time

REF_S = 0.00125
EVERY_S = 0.1
WINDOW_S = 1.0
MIN_PROBES = 5
REF_SPAWN_S = 0.018


def reference_loop() -> float:
    t0 = time.perf_counter()
    d = {}
    x = 0
    for i in range(3000):
        k = (i, i & 7)
        d[k] = x
        x += len(d) & 3
    return time.perf_counter() - t0


def probe() -> float:
    """One reference loop, with the collector held off.  A best-of-several
    would pick the moments the host was fast and miss the slowdown."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return reference_loop()
    finally:
        if enabled:
            gc.enable()


def spawn_probe() -> float:
    """Start and reap one bare interpreter, ``python -I -S -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


class HostClock:
    """Probes taken between units of work, as (start, end, seconds) rows on
    the ``time.monotonic`` clock."""

    def __init__(self, probe_fn=probe):
        self.probe_fn = probe_fn
        self.rows: list[tuple[float, float, float]] = []
        self.probe()

    def probe(self) -> None:
        start = time.monotonic()
        value = self.probe_fn()
        self.rows.append((start, time.monotonic(), value))

    def tick(self) -> None:
        """Probe if the last probe is ``EVERY_S`` old."""
        if time.monotonic() - self.rows[-1][1] >= EVERY_S:
            self.probe()


class Probes:
    def __init__(self, rows, ref: float = REF_S):
        self.ref = ref
        self.starts = [r[0] for r in rows]
        self.ends = [r[1] for r in rows]
        self.values = [r[2] for r in rows]

    def _span(self, a: float, b: float) -> tuple[int, int]:
        """Indices of the probes within [a, b] and the nearest on each side."""
        return (max(0, bisect.bisect_right(self.ends, a) - 1),
                bisect.bisect_left(self.starts, b) + 1)

    def inside(self, a: float, b: float) -> float:
        """Seconds of probing within [a, b]."""
        lo, hi = self._span(a, b)
        return sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])
                   if s >= a and e <= b)

    def scale(self, a: float, b: float) -> float:
        """The reference time over the median of the probes within WINDOW_S of [a, b],
        widened to the MIN_PROBES nearest when there are fewer."""
        lo = bisect.bisect_left(self.ends, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.values)):
            lo = max(0, lo - 1)
            hi = min(len(self.values), hi + 1)
        return self.ref / statistics.median(self.values[lo:hi])
