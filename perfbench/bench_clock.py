"""Host times in reference seconds, corrected for the machine's speed drift.

On a shared machine the CPU's speed drifts by a quarter or more over seconds
(other tenants, frequency changes), which moves every wall-clock median with
it.  A yardstick, a fixed piece of interpreter and BLAS work shaped like the
engine's, runs between measured operations.  An operation's wall time is
scaled by YARD_REF_S over the median of the yardstick runs around it: the
time it would take on a machine where the yardstick takes YARD_REF_S.  The
engine never runs inside the yardstick, so a change to the engine moves only
the operation's side of the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np

YARD_REF_S = 6e-3
_COLS = np.random.default_rng(0).random((2500, 288))
_WEIGHTS = np.random.default_rng(1).random((288, 32))


@dataclass(frozen=True)
class _Record:
    index: int
    name: str
    size: int


def yardstick() -> float:
    """Wall seconds one fixed mix of the engine's kinds of work takes right
    now: small frozen records tallied in a dict (the executor's events),
    small int16 slice writes (its tiles) and one float64 GEMM of im2col shape
    (the kernels)."""
    t0 = perf_counter()
    tally: dict = {}
    for r in [_Record(i, "in", 2 * i) for i in range(2500)]:
        key = (r.name, r.index & 63)
        tally[key] = tally.get(key, 0) + r.size
    tile = np.zeros((32, 30, 30), np.int16)
    for i in range(250):
        tile[i & 31, 1:29, 1:29] = i
    (_COLS @ _WEIGHTS).sum()
    return perf_counter() - t0


class RefClock:
    """Times operations with `reps` yardstick runs between each two.

    An operation is scaled by the median of the yardstick runs within `reach`
    boundaries on each side of it, so one disturbed yardstick run does not
    move it; long operations, which the machine's drift changes more during
    their run, take more runs from further out.
    """

    def __init__(self, reach: int = 1, reps: int = 1):
        self.reach = reach
        self.reps = reps
        self._yards: list[list[float]] = [self._boundary()]
        self._walls: list[float] = []

    def _boundary(self) -> list[float]:
        return [yardstick() for _ in range(self.reps)]

    @property
    def wall_s(self) -> list[float]:
        """Wall seconds of every operation, in order."""
        return list(self._walls)

    @property
    def yard_s(self) -> list[float]:
        return [y for runs in self._yards for y in runs]

    def measure(self, fn, *args):
        """Runs fn(*args) and returns its result."""
        t0 = perf_counter()
        result = fn(*args)
        self._walls.append(perf_counter() - t0)
        self._yards.append(self._boundary())
        return result

    def ref_seconds(self) -> list[float]:
        """Reference seconds of every operation, in order.  Operation k lies
        between boundaries k and k+1."""
        out = []
        n = len(self._yards)
        for k, wall in enumerate(self._walls):
            lo, hi = max(0, k + 1 - self.reach), min(n, k + 1 + self.reach)
            near = [y for runs in self._yards[lo:hi] for y in runs]
            out.append(wall * YARD_REF_S / median(near))
        return out
