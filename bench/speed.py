"""Machine-speed sampling during timed work.

A shared VM's speed drifts: the same single-threaded work can take 40%
longer for seconds to minutes at a time while no process of the benchmark's
own is running. ``SpeedProbe`` runs a fixed reference task every
``INTERVAL`` seconds from a SIGALRM handler while work is being timed, and
reports how long the task took; the task's own time is kept out of the
work's time. Dividing a wall time by the mean slowdown of the samples taken
during it gives the time the work would have taken at the reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.2
# Reference-task time at the reference speed: the task's median time on an
# idle 2-CPU x86_64 VM (2.0 GHz, OpenBLAS 0.3.31, one thread).
REFERENCE_S = 0.00085
_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_MATRIX = _MATRIX + _MATRIX.T


def _task() -> None:
    total = 0
    for i in range(4000):
        total += i * i
    for _ in range(16):
        np.linalg.eigvalsh(_MATRIX)


def reference_task() -> float:
    """Time of a little interpreted Python and a little LAPACK, like the
    workloads. An untimed first run warms the caches, so the time does not
    depend on what the interrupted work left in them."""
    _task()
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start


def spot_slowdown(samples: int = 25) -> float:
    """Slowdown measured right now, outside any timed work."""
    return float(np.median([reference_task() for _ in range(samples)])) / REFERENCE_S


class SpeedProbe:
    """Context manager; ``samples`` holds the reference-task times taken
    inside it and ``probe_s`` the wall time they used."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_task())
        self.probe_s += time.perf_counter() - start

    def __enter__(self):
        self.samples.clear()
        self.probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        """Mean reference-task time over its reference time (1 when no
        sample was taken)."""
        if not self.samples:
            return 1.0
        return float(np.mean(self.samples)) / REFERENCE_S
