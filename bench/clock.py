"""Timing of the program's calls, normalized by the machine's speed during each.

The benchmark shares a few vCPUs with other tenants.  Each vCPU switches
between a fast state and one up to 1.8x slower several times a second, and
the share of time spent slow changes over minutes, so the raw medians of two
30-second runs of the same code can differ by 40%.  The clock measures that
speed with a probe: a fixed millisecond of Python and small-matrix LAPACK
work that imports nothing from giep.  It runs right before and right after
each timed call, and every ``SAMPLE_S`` seconds from a ``SIGALRM`` handler,
which Python runs in the main thread between bytecodes, so also in the
middle of a long call.  A call's time is its wall time less the probes run
inside it; normalized, that time is multiplied by ``REFERENCE_S`` over the
mean probe time from just before the call to just after it, which gives the
time the call would take with the machine at the probe's reference speed.

Only the machine's speed cancels out: a change to giep moves the call time
and leaves the probe as it was.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# A round figure near the probe's median time on the 2-vCPU machine the
# benchmark was tuned on (Python 3.11, OpenBLAS on one thread, 0.8-1.3 ms),
# so normalized times read close to raw times there.
REFERENCE_S = 0.001
# Period of the probes taken from the interval timer.
SAMPLE_S = 0.1
# Probes run back to back before and after a call; more of them average
# out the probe's own noise where a short call has no timer probe inside.
BRACKET_PROBES = 3
# Probes that ended at most this long before a call also start it.
FRESH_S = 0.02


class SpeedProbe:
    """A fixed piece of work; ``run`` returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(20160407)
        self._matrices = [rng.standard_normal((n, n)) for n in (6, 12, 18, 24)]

    def run(self) -> float:
        start = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(500):
            key = (i * 7919) % 251
            table[key] = table.get(key, 0.0) + float(f"{i * 0.5:.6g}")
        for a in self._matrices:
            np.linalg.eig(a)
        return time.perf_counter() - start


@dataclass
class Samples:
    """Times of one kind of call: as measured, and normalized to the reference speed."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.raw)


class Clock:
    """Times calls into ``Samples``.  ``probes`` lists every probe time and
    ``probe_s`` is their total.  Within ``sampling()`` the interval timer
    adds a probe every ``SAMPLE_S`` seconds."""

    def __init__(self):
        self._probe = SpeedProbe()
        self._last_end = -float("inf")
        self._last_first = 0  # index in ``probes`` of the last batch's first probe
        self._probing = False
        self.probes: list[float] = []
        self.probe_s = 0.0

    def _measure(self, repeats: int) -> None:
        self._probing = True
        try:
            self._last_first = len(self.probes)
            for _ in range(repeats):
                seconds = self._probe.run()
                self.probes.append(seconds)
                self.probe_s += seconds
            self._last_end = time.perf_counter()
        finally:
            self._probing = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:
            self._measure(1)

    @contextmanager
    def sampling(self):
        """Probe every ``SAMPLE_S`` seconds in the body; timer and handler are restored after."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """Stop the timer's probes in the body, for traced passes."""
        delay, interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, interval)

    @contextmanager
    def timing(self, samples: Samples):
        """Time the body into ``samples``, also when it raises."""
        if time.perf_counter() - self._last_end > FRESH_S:
            self._measure(BRACKET_PROBES)
        first = self._last_first
        probe_s = self.probe_s
        start = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - start - (self.probe_s - probe_s)
            self._measure(BRACKET_PROBES)
            speed = statistics.fmean(self.probes[first:])
            samples.raw.append(raw)
            samples.scaled.append(raw * REFERENCE_S / speed)
