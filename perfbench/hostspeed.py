"""Rescales wall times to a reference host speed.

On a shared host the same call's wall time drifts by up to a factor of two,
and its CPU time drifts with it: the host switches between a fast and a slow
state within fractions of a second and stays in either for up to tens of
seconds. The benchmark therefore times its own fixed `kernel` (none of the
package's code) every SAMPLE_EVERY_S seconds, also in the middle of a call
(from a SIGALRM handler), and right before a call if the last sample is more
than NEAR_S old. Each stretch of a call between two samples counts
as its length * KERNEL_REF_S / k, with k the mean time of those two samples,
and the samples taken inside the call are left out of its time. The result
is still seconds: the call's time on a host where the kernel takes
KERNEL_REF_S.
"""

from __future__ import annotations

import bisect
import random
import signal
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

SAMPLE_EVERY_S = 0.1
NEAR_S = 0.02  # a sample further than this from a 10 ms call misses the host's switches
KERNEL_REF_S = 0.0025  # between its fast- and slow-state times on a 2.1 GHz Xeon vCPU (2 and 4 ms)


def _kernel_graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(7)
    return [[(rng.randrange(400), rng.random()) for _ in range(3)] for _ in range(400)]


_SUCC = _kernel_graph()


def kernel() -> float:
    """Fixed pure-Python work shaped like a solver sweep: list sweeps, max, dict updates."""
    x = [0.0] * len(_SUCC)
    for _ in range(8):
        x = [max(x[t] * p for t, p in row) for row in _SUCC]
        x[0] = 1.0
    counts: dict[int, int] = {}
    for i in range(800):
        counts[i % 517] = counts.get(i % 517, 0) + i
    return sum(x)


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def rescale(wall: float, before: float, after: float) -> float:
    """Reference-speed seconds of `wall`, between kernel samples `before` and `after`."""
    return wall * 2 * KERNEL_REF_S / (before + after)


class HostSpeed:
    """Kernel samples of one process, in time order."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self.sample()

    def sample(self, *_signal_args: object) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.took.append(perf_counter() - t0)

    def tick(self) -> None:
        """Sample if the last sample is older than NEAR_S; call right before a timed call."""
        if perf_counter() - self.starts[-1] >= NEAR_S:
            self.sample()

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample every SAMPLE_EVERY_S seconds, inside calls too, and once at the end."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Wall time of [start, end] without the samples inside it, and its reference-speed seconds.

        Needs a sample that ended before `start` and one that started after `end`.
        """
        first = bisect.bisect_right(self.starts, start)  # the samples inside are first..after-1
        after = bisect.bisect_left(self.starts, end)
        if first == 0 or after == len(self.starts):
            raise ValueError("no host-speed sample before or after the interval")
        own = ref = 0.0
        t = start
        for n in range(first, after + 1):
            stop = end if n == after else self.starts[n]
            own += stop - t
            ref += rescale(stop - t, self.took[n - 1], self.took[n])
            if n < after:
                t = self.starts[n] + self.took[n]
        return own, ref
