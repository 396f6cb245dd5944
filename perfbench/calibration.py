"""Machine-speed calibration: a fixed kernel timed next to and during the work.

On a shared virtual machine the same fixed work can change speed by a
factor of two within seconds, so a wall time alone cannot tell a slower
program from a slower machine. The benchmark times this kernel before and
after each round and each set-up, and every INTERVAL_S while a round runs,
and scales each measured time by ``Sampler.speed``: the kernel's reference
time over its mean time during and next to the measurement. A scaled time
is what the measurement would have taken on a machine where the kernel
takes ``REFERENCE_S``.

The kernel mixes the three kinds of work uavlift does: pure-Python float
loops (the oracle and surface per-user loops), NumPy calls on tiny arrays
(Dykstra's projection), and vectorized passes over a few thousand users
(``objective.user_arrays``). It uses nothing from uavlift, so no change to
the program can move it.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

# Kernel time on the reference machine: about its median on a 2-vCPU Intel
# Xeon VM (Python 3.11.7, NumPy 2.4.6), where single samples ranged from
# 20 ms to 100 ms within a minute.
REFERENCE_S = 0.030
# Period of the samples taken while a round runs; each costs about 30 ms.
INTERVAL_S = 0.5

_arrays = None


def _kernel() -> None:
    global _arrays
    import numpy as np  # after bootstrap.prepare() has pinned the thread pools

    if _arrays is None:
        _arrays = (np.ones((1, 2)), np.linspace(1.0, 2.0, 12000))
    tiny, users = _arrays
    total = 0.0
    for i in range(30000):
        total += 1.0 / (math.hypot(i * 0.5, 3.0) + 1.0)
    for _ in range(1500):
        d = np.hypot(tiny[:, 0] - 1.0, tiny[:, 1] - 2.0)
        np.column_stack((np.clip(d, 0.0, 1.0), d))
    for _ in range(150):
        float(np.sum(users / (users * users + 4.0)))


class Sampler:
    """Kernel samples, and a clock that stops while they run.

    Times read from ``clock`` leave out every sample, including those the
    periodic timer takes in the middle of a command. Each sample is kept as
    the clock reading at which it ran, and its duration.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def sample(self) -> float:
        start = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - start
        self.samples.append((start - self._spent, seconds))
        self._spent += seconds
        return seconds

    @contextlib.contextmanager
    def periodic(self):
        """Also sample every INTERVAL_S (by SIGALRM, where there is one)."""
        if not hasattr(signal, "setitimer"):
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start: float, end: float) -> float:
        """Scale factor for work between clock readings `start` and `end`,
        from the samples inside it and the nearest one on each side."""
        before = [s for at, s in self.samples if at <= start][-1:]
        inside = [s for at, s in self.samples if start < at < end]
        after = [s for at, s in self.samples if at >= end][:1]
        used = before + inside + after
        return REFERENCE_S * len(used) / sum(used)
