"""The host's speed, sampled with fixed reference work between queries.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python work takes up to about 1.7 times as long in some stretches
of seconds to minutes as in others, and every time the program takes moves
with it.  ``SpeedTrack`` times a fixed piece of work of the benchmark's own
(``reference_work``, which uses nothing from homspace, so no change to the
program can change it) every ``interval_s`` seconds between queries.  A
time measured between two samples is scaled by ``REFERENCE_S`` over the
mean of those two samples: it becomes the time the program would have taken
at the host speed where ``reference_work`` takes ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

from checks import det, matmul, xgcd

# about the median time of one reference_work() on the host the bounds were set on
# (2 cores of a shared x86-64 host, CPython 3.11)
REFERENCE_S = 0.0045

_RNG = random.Random("homspace-perfbench-reference")
_MATRIX = [[_RNG.randint(-9, 9) for _ in range(11)] for _ in range(11)]
_FRACTIONS = [Fraction(_RNG.randrange(12), _RNG.choice((2, 3, 4, 6))) for _ in range(60)]
_REPORT = {
    "rows": [{"weight": [_RNG.randint(-5, 5) for _ in range(8)], "flag": i % 3 == 0} for i in range(150)],
    "group": "Z/2 + Z/4 + Z",
}


def reference_work() -> int:
    """Integer elimination, gcds, fractions and JSON text: the kinds of work
    the program spends its time on, at a fixed size."""
    total = det(_MATRIX) + sum(len(str(x)) for row in matmul(_MATRIX, _MATRIX) for x in row)
    for a, b in zip(range(10**12, 10**12 + 300), range(7**14, 7**14 + 300)):
        total += xgcd(a, b)[1] % 7
    total += sum(_FRACTIONS, Fraction(0)).denominator
    text = json.dumps(_REPORT, indent=2, sort_keys=True)
    return total + len(json.loads(text)["rows"]) + len(text)


class SpeedTrack:
    """Samples of the host's speed, taken at most every ``interval_s``
    seconds, each the median of ``reps`` timings of ``reference_work``."""

    def __init__(self, interval_s: float = 0.25, reps: int = 3):
        self.interval_s = interval_s
        self.reps = reps
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> None:
        times = []
        for _ in range(self.reps):
            start = perf_counter()
            reference_work()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))
        self._last = perf_counter()

    def due(self) -> None:
        """Take a sample if the last one is ``interval_s`` old."""
        if perf_counter() - self._last >= self.interval_s:
            self.sample()

    def mark(self) -> int:
        """Position of a measurement that starts now: ``scale`` later brackets
        it by the sample before it and the first sample after it."""
        if not self.samples:
            raise ValueError("take a sample before the first measurement")
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor that turns a time measured at ``mark`` into a time at the
        reference speed."""
        before, after = self.samples[mark - 1], self.samples[mark]
        return REFERENCE_S / ((before + after) / 2)

    def median_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
