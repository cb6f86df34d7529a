"""The host's speed, read by a fixed stdlib kernel between timed operations.

The machine this benchmark was sized on lends its cores to other tenants, and
its speed drifts by up to 60% over tens of seconds (process time moves with
wall time, so the drift is slower execution, not lost turns).  A pass
therefore reads the host's speed every PROBE_EVERY_S seconds, between two
operations and never inside one, by timing KERNEL: Fraction arithmetic, a
dict-of-Fractions convolution and big-integer gcds, the kind of work
flipchain does, written here with the standard library only so that no change
to flipchain can change it.  A segment is then reported at the reference
speed, the speed at which KERNEL takes REFERENCE_S seconds:

    normalized = raw * REFERENCE_S / (median KERNEL time of the 5 probes nearest the segment)

In ten 30-second runs of betti_sweep on the reference host, the median pass
time ranged from 1.83 to 2.89 s (quartile distance 31% of the median); at the
reference speed it ranged from 2.58 to 2.65 s (1.0%).
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
from fractions import Fraction
from time import perf_counter

#: Seconds of KERNEL at the reference speed, about its median on a 2-core
#: x86-64 virtual machine with CPython 3.11.
REFERENCE_S = 0.004
#: A probe runs between operations once this many seconds have passed since
#: the last one; a probe takes about REFERENCE_S, so this costs about 4% of a
#: pass, outside its timed segments.
PROBE_EVERY_S = 0.1
#: A segment's speed is the median over this many probes nearest to it.
NEAREST = 5

_A = {(i, -i): Fraction(i * i + 1, i + 3) for i in range(24)}
_B = {(i % 5, i): Fraction(2 * i + 1, i % 7 + 2) for i in range(24)}
_BIG = [(3 ** (i % 40) + i, 7 ** (i % 25) + 1) for i in range(300)]


def kernel() -> tuple:
    """A fixed amount of interpreter work; its result is never used."""
    conv = {}
    for (a1, a2), x in _A.items():
        for (b1, b2), y in _B.items():
            k = (a1 + b1, a2 + b2)
            conv[k] = conv.get(k, 0) + x * y
    f, acc = Fraction(0), {}
    for i in range(1, 200):
        f += Fraction(i % 7 + 1, i % 5 + 2)
        acc[(i % 13, i % 11)] = acc.get((i % 13, i % 11), 0) + i * i
    s = 0
    for i, (a, b) in enumerate(_BIG):
        s += math.gcd(a * b + i, b + a) + (a * b) // (b + 1)
    return conv, f, acc, s


def time_kernel() -> float:
    """One KERNEL run's seconds, with the collector off, so that the time does
    not include a collection of the program's own objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Probes taken through one pass: (clock time, KERNEL seconds) pairs.

    On creation it runs KERNEL twice to warm it up, then probes NEAREST times
    in a row, so that the set-up just before has probes next to it."""

    def __init__(self):
        time_kernel()
        time_kernel()
        self.times: list[float] = []
        self.seconds: list[float] = []
        for _ in range(NEAREST):
            self._probe()

    def _probe(self) -> None:
        t = perf_counter()
        self.seconds.append(time_kernel())
        self.times.append(t)
        self.last = perf_counter()

    def maybe(self) -> bool:
        """Probe if PROBE_EVERY_S has passed since the last probe; returns
        whether it did."""
        if perf_counter() - self.last < PROBE_EVERY_S:
            return False
        self._probe()
        return True

    def factor_at(self, t: float) -> float:
        """REFERENCE_S over the median KERNEL time of the probes nearest t."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + NEAREST])

    def normalize(self, starts: list[float], durations: list[float]) -> list[float]:
        """Each duration at the reference speed of the probes nearest its start."""
        return [d * self.factor_at(t) for t, d in zip(starts, durations)]
