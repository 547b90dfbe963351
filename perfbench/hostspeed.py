"""Host-speed probe: times a fixed piece of Python work every 20 ms inside a
benchmark child, so that its run times can be read at a fixed host speed.

The shared host this benchmark was built on switches, from one fraction of a
second to the next, between a fast state and one in which the same Python
code takes 1.5-1.9x as long.  How much of a run falls in the slow state
changes over minutes, and it moved whole-run medians by 20-35 % between
otherwise identical sets of runs.  The probe sees the same slowdown as the
code around it, so scaling each 20 ms interval by (REF_S / probe time) gives
the seconds the run would take on a host where the probe takes exactly
REF_S: `adjusted()`.  The probe's own time is left out of that sum.

The probe is ffmult-independent (integer arithmetic and a small dict), so a
change to ffmult moves the adjusted time by as much as it moves the work.
Standard library only.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

PERIOD_S = 0.02
REF_S = 100e-6  # the scale: adjusted seconds are seconds at this probe time
WARM_CALLS = 5


def _work():
    x = 1
    table = {}
    for i in range(600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 63] = i
    return x


class Probe:
    """Samples (start, duration) of the probe work, taken on SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_):
        t = perf_counter()
        _work()
        self.samples.append((t, perf_counter() - t))

    def start(self):
        for _ in range(WARM_CALLS):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        # the handler stays installed: a signal still in flight must not kill us
        signal.setitimer(signal.ITIMER_REAL, 0)


def adjusted(samples: list, start: float, end: float) -> float:
    """Seconds of [start, end] at probe time REF_S, the probes' own time left out.

    Each stretch of work is scaled by the probe taken right after it; the
    probe time is a median of three neighbouring probes, so that one probe
    hit by an interrupt does not decide a stretch.  Work after the last probe
    takes the last probe's scale."""
    if not samples:
        raise ValueError("no probe samples")
    durations = [d for _, d in samples]
    smooth = [median(durations[max(0, i - 1):i + 2]) for i in range(len(durations))]
    total, cursor = 0.0, start
    for (t, d), probe in zip(samples, smooth):
        if cursor >= end:
            break
        if t + d <= cursor:
            continue
        total += max(0.0, min(t, end) - cursor) * REF_S / probe
        cursor = max(cursor, t + d)
    if cursor < end:
        total += (end - cursor) * REF_S / smooth[-1]
    return total
