"""Host-speed reference: a fixed loop, timed while each measured job runs.

The benchmark's host shares its cores with other tenants.  The speed of the
same code swings by up to 2x from one second to the next, and CPU time
swings with wall time.  A fixed reference chunk that does not touch
vdwlayers swings with it: timed right next to the job's own work, the ratio
of the two varies by a few per cent where the raw times vary by 30-40 %.

A job's time is therefore also reported in reference seconds: each interval
of the job is weighted by how fast the reference chunk ran in it.  A change
to vdwlayers moves that figure in full, since the chunk does not depend on
it.  While a job runs its own worker processes on every CPU, a chunk timed
in between would measure the job's own load, so such jobs are only timed
by chunks run just before and just after them.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

import numpy as np

# Usual time of one chunk on the host the baseline was recorded on (Intel
# Xeon, 2 CPUs, Python 3.11, numpy 2.4).  It only sets the unit: a time in
# reference seconds reads as seconds on that host at its usual speed.
REFERENCE_CHUNK_S = 0.005
INTERVAL_S = 0.1  # time between chunks inside a job
BRACKET_CHUNKS = 5  # chunks timed before and after a job

_X = np.linspace(0.1, 1.0, 15)


def _chunk() -> float:
    # small-array numpy calls driven from a Python loop, like the kernel calls
    acc = 0.0
    for i in range(750):
        y = np.exp(-2.0 * _X * (1.0 + i * 1e-9)) * (_X * _X + 1.0)
        acc += float(y.sum())
    return acc


def _timed_chunk() -> float:
    t0 = perf_counter()
    _chunk()
    return perf_counter() - t0


def _bracket() -> float:
    return statistics.median(_timed_chunk() for _ in range(BRACKET_CHUNKS))


class Sampler:
    """Times reference chunks around a job and, unless ``inside`` is false, during it.

    Chunks inside the job run from a SIGALRM handler every ``INTERVAL_S``
    seconds of wall time; their wall and CPU time is returned by ``spent``
    so that the caller can take it out of the job's own times.
    """

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.chunks: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        cpu0 = process_time()
        dt = _timed_chunk()
        self.chunks.append(dt)
        self.spent_s += dt
        self.spent_cpu_s += process_time() - cpu0

    def __enter__(self) -> "Sampler":
        self.chunks.append(_bracket())
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.chunks.append(_bracket())

    def speed(self) -> float:
        """Mean host speed over the job, relative to the reference host."""
        return statistics.fmean(REFERENCE_CHUNK_S / c for c in self.chunks)
