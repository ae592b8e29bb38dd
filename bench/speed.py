"""Host speed, measured with a fixed reference kernel between ops.

The benchmark runs on a few cores of a shared host whose speed flips
between a fast and a slow state, about 2x apart, many times a second and
in longer stretches, with the load of other tenants.  Wall time and CPU
time move together, so no clock on its own gives op times that repeat
from run to run.  The remedy is a yardstick: a short fixed kernel of
pure-Python standard-library work (Fraction arithmetic and JSON, the
kinds of work the CLI does) is timed between every two ops, and an op's
time is scaled by ``REFERENCE_MS`` over the mean of the kernel times just
before and just after it.  A scaled time is what the op would take on a
host where the kernel takes ``REFERENCE_MS``; a faster program gives a
smaller scaled time just as it gives a smaller raw one.  The kernel does
not call the package, so no change to the package moves it.

The mean, not the median, of kernel times estimates a host's speed over
a stretch: with two speed states the median jumps from one to the other.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 1.0  # close to the kernel's time in the host's fast state


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 13 + 1, i % 29 + 2)
    rows = [{"row": i, "col": i * 7 % 101, "v": str(Fraction(i, i % 9 + 1))} for i in range(300)]
    json.loads(json.dumps(rows))
    return total


class Speed:
    """Kernel times in the order taken, and times scaled by them."""

    def __init__(self):
        self.samples: list[float] = []  # seconds

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        return len(self.samples) - 1

    def timed(self, step):
        """Run ``step()``; return its result and its wall time in seconds,
        scaled by kernel samples taken just before and just after it."""
        before = self.sample()
        start = perf_counter()
        result = step()
        seconds = perf_counter() - start
        self.sample()
        return result, seconds * self.factor(before, before + 2)

    def factor(self, first: int = 0, end: int | None = None) -> float:
        """Scale factor to the reference speed by ``samples[first:end]``."""
        return REFERENCE_MS / (1000 * statistics.fmean(self.samples[first:end]))
