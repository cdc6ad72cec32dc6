"""Order statistics and failure accounting shared by the benchmark runner.

Timings are reported as a median plus the highest percentile that still has
TAIL_SAMPLES samples beyond it, so a tail figure is never the maximum of a
handful of samples.
"""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10
TAIL_PERCENTILE = 90.0


def percentile(values, q: float) -> float:
    """Percentile q (0..100) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples(q: float) -> int:
    """Fewest samples that leave TAIL_SAMPLES of them above percentile q."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile {q} outside [0, 100)")
    return math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0) - 1e-9)


def tail_percentile(n: int) -> float:
    """The tail percentile a run of n samples may report: TAIL_PERCENTILE when
    n is large enough for it, else the median."""
    return TAIL_PERCENTILE if n >= min_samples(TAIL_PERCENTILE) else 50.0


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal-width strata of [lo, hi), in order."""
    if n < 1 or not hi > lo:
        raise ValueError(f"need n >= 1 strata of a non-empty range, got {n}, [{lo}, {hi})")
    width = (hi - lo) / n
    return [lo + width * (i + float(rng.random())) for i in range(n)]


class Ledger:
    """Gated operations attempted and the ones that failed any gate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, op: str, problems: list[str]) -> bool:
        """Count one operation; returns whether it passed every gate."""
        self.attempted += 1
        if problems:
            self.failures.append((op, list(problems)))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
