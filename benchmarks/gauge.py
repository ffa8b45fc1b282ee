"""Machine-speed gauge for the timed run.

On a shared machine the same code runs up to twice as fast at one moment as
at the next, because other tenants load the host; the swings last from tens
of milliseconds to minutes, so a few seconds of timing cannot average them
out. The gauge measures the machine's current speed with a fixed calibration
kernel that does not touch doctnn, in the benchmark's own (single) thread:

- a loop of short calls (serving documents) runs one kernel unit after
  every ``GROUP_CALLS`` calls, and scales each call by the units just before
  and just after its group;
- a long call (training, evaluation, set-up) is interrupted every
  ``PERIOD_S`` seconds by a SIGALRM handler that runs ``UNITS_PER_SAMPLE``
  units, and is scaled by the samples taken during it.

Every duration is the process's CPU time (user + system, all threads), not
wall time: the host also deschedules the virtual machine's vCPUs for
milliseconds at a time, and those stalls would otherwise land on whichever
call was running.
Work on any other thread still counts, and the run fails if the process has
a second thread after any phase (see workloads.py); the wall-clock figures
are printed next to the CPU ones, so waits that CPU time leaves out show.

A timing is reported twice: ``raw`` is its CPU time minus the kernel time
inside it; ``scaled`` is ``raw`` times ``REFERENCE_S`` over the measured unit
duration, i.e. the time it would have taken with the kernel running at its
reference speed. The kernel mixes the kinds of work doctnn does (sorting and
grouping small Python objects, Unicode folding, short numpy vector
operations), so its slowdowns track doctnn's. The kernel must never change:
a change to it rescales every scaled figure.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import unicodedata
from time import perf_counter, process_time
from typing import Iterator

import numpy as np

PERIOD_S = 0.1
UNITS_PER_SAMPLE = 10
# a unit disturbs the caches of the call after it, so a serve loop samples
# only between groups of calls
GROUP_CALLS = 4
# samples up to this far outside a long interval still describe it
WINDOW_S = 0.25
# one unit's duration at the reference speed, so that scaled figures read
# roughly as seconds on a quiet 2-core virtual machine
REFERENCE_S = 1.5e-4

_WORDS = ("Référence:", "Total", "Straße", "Mr.", "postal", "Invoice") * 4
_VECTOR = np.arange(10.0)


def unit() -> None:
    """One unit of the fixed calibration work."""
    points = [((i * 7919) % 101 / 101.0, (i * 104729) % 97 / 97.0) for i in range(40)]
    points.sort(key=lambda p: p[1])
    rows: dict[float, list[float]] = {}
    for x, y in points:
        rows.setdefault(round(y, 1), []).append(x)
    for word in _WORDS:
        "".join(c for c in unicodedata.normalize("NFKD", word)
                if not unicodedata.combining(c)).casefold()
    a = _VECTOR
    for _ in range(4):
        a = np.clip(1.0 / (1.0 + np.exp(-a)), 1e-9, 1.0 - 1e-9)


class Timing:
    """One timed call: where it ran on the wall clock, and the CPU time it took.

    A serve-loop call carries its own speed factor.
    """

    __slots__ = ("start", "end", "raw", "factor")

    def __init__(self, start: float, end: float, raw: float,
                 factor: float | None = None) -> None:
        self.start = start
        self.end = end
        self.raw = raw
        self.factor = factor

    def scaled(self, gauge: Gauge | None) -> float:
        if gauge is None:
            return self.raw
        factor = self.factor if self.factor is not None else gauge.factor(self.start, self.end)
        return self.raw * factor


def timed(gauge: Gauge | None, step):
    """Run ``step``; its CPU time leaves out the samples the gauge took inside it."""
    gauged = gauge.busy if gauge is not None else 0.0
    start, cpu = perf_counter(), process_time()
    result = step()
    cpu = process_time() - cpu
    end = perf_counter()
    if gauge is not None:
        cpu -= gauge.busy - gauged
    return Timing(start, end, cpu), result


class Gauge:
    """Kernel samples (CPU seconds per unit) and the CPU time they add."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0

    def sample(self, units: int = UNITS_PER_SAMPLE) -> float:
        """Run ``units`` kernel units; record and return the CPU seconds per unit."""
        start, cpu = perf_counter(), process_time()
        for _ in range(units):
            unit()
        elapsed = process_time() - cpu
        self.starts.append(start)
        self.durations.append(elapsed / units)
        self.busy += elapsed
        return elapsed / units

    def _interrupt(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def running(self) -> Iterator[Gauge]:
        """Sample every PERIOD_S seconds, interrupting whatever runs."""
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the timer while the caller samples between its own calls."""
        previous = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, *previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean unit duration sampled around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            # no sample near enough (a run shorter than the timer period)
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            raise RuntimeError("the gauge has no samples; is it running?")
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])
