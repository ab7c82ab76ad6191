"""Machine-speed probe: measures how fast the machine runs while a timed
section runs, so that time metrics can be given at a fixed reference speed.

The benchmark's host is shared: the same work takes from 0.8x to 1.4x its
usual time depending on what other tenants do, in stretches of seconds to
minutes (README "Run-to-run noise").  A `Probe` around a timed section
interrupts it every `PERIOD_S` seconds (SIGALRM) and times a fixed pure-Python
reference loop, independent of uga.  The mean of those samples over the
nominal sample time is the section's slowdown; the section's net seconds
divided by it are its seconds at reference speed.

Probe samples run between bytecodes of the main thread and touch no uga
state, so they change timing only, never arithmetic.  Their own time is left
out of `clock()`, which every timing in the benchmark reads.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
REF_ITERS = 10000
# One reference sample on an unloaded 2-vCPU Xeon (KVM) VM, Python 3.  It only
# sets the scale: on that machine, reference-speed seconds read as seconds.
REF_NOMINAL_S = 2.3e-3

_spent = 0.0


def clock() -> float:
    """`time.perf_counter()` minus the time spent in probe samples."""
    return time.perf_counter() - _spent


def _step(acc: float, i: int) -> float:
    return acc * 0.999 + (i & 7) * 0.5


def _reference_work(n: int = REF_ITERS) -> float:
    """Interpreter-bound work: calls and arithmetic.  It allocates no object
    the garbage collector tracks, so a sample never triggers a collection of
    the workload's heap."""
    acc = 0.0
    for i in range(n):
        acc = _step(acc, i) - i * 1e-9
    return acc


def _sample() -> float:
    global _spent
    t = time.perf_counter()
    _reference_work()
    seconds = time.perf_counter() - t
    _spent += seconds
    return seconds


class Probe:
    """Context manager.  After it exits: `seconds` (net of probe samples),
    `slowdown` (mean sample / nominal) and `ref_seconds` (seconds at
    reference speed)."""

    def __enter__(self):
        self.samples = [_sample()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, _signum, _frame):
        self.samples.append(_sample())

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.seconds = clock() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(_sample())
        self.slowdown = statistics.fmean(self.samples) / REF_NOMINAL_S
        self.ref_seconds = self.seconds / self.slowdown
        return False
