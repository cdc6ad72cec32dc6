"""Q4.12 fixed-point arithmetic: 16-bit values, 32-bit-scale accumulation.

A Q4.12 sample is a 16-bit two's-complement integer whose value is raw * 2**-12,
covering [-8.0, 8.0 - 2**-12].  Products of two Q4.12 values live at scale
2**-24 and are accumulated exactly (no per-term rounding); a single final
arithmetic right shift by 12 brings the result back to Q4.12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FRAC_BITS = 12
SCALE = 1 << FRAC_BITS          # 4096
QMIN = -(1 << 15)               # -32768
QMAX = (1 << 15) - 1            # 32767
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

# Longest dot product whose worst-case |partial sum| stays exactly
# representable in float64 (|term| <= 2**30, need len * 2**30 < 2**53).
MAX_EXACT_DOT_LEN = 1 << 23

# When True, mac() raises on results outside the nominal 32-bit accumulator.
# Arithmetic stays exact either way; the trap only flags that the headroom
# assumption made at graph-build time did not hold for the data at hand.
STRICT_ACC32 = False


@dataclass(frozen=True)
class Q412:
    """One fixed-point sample; value = raw * 2**-12."""

    raw: int

    @property
    def value(self) -> float:
        return self.raw / SCALE


@dataclass(frozen=True)
class Acc32:
    """Accumulator at scale 2**-24 holding exact sums of Q4.12 products."""

    raw: int

    def fits_32bit(self) -> bool:
        return INT32_MIN <= self.raw <= INT32_MAX


def quantize(x: float) -> Q412:
    """Round x down to Q4.12, saturating beyond +/-8."""
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    raw = math.floor(x * SCALE)
    return Q412(min(max(raw, QMIN), QMAX))


def dequantize(q: Q412) -> float:
    return q.raw / SCALE


def mac(acc: Acc32, a: Q412, b: Q412) -> Acc32:
    """acc + a*b with exact integer arithmetic."""
    out = Acc32(acc.raw + a.raw * b.raw)
    if STRICT_ACC32 and not out.fits_32bit():
        raise OverflowError("32-bit accumulator headroom violated")
    return out


def renorm(acc: Acc32) -> Q412:
    """Shift an accumulator back to Q4.12: floor division by 2**12, saturate."""
    raw = acc.raw >> FRAC_BITS
    return Q412(min(max(raw, QMIN), QMAX))


def sat_add(a: Q412, b: Q412) -> Q412:
    return Q412(min(max(a.raw + b.raw, QMIN), QMAX))


def dot_headroom_ok(length: int, max_abs_a: float = 8.0, max_abs_b: float = 8.0) -> bool:
    """Whether `length` products of values bounded by the given magnitudes are
    guaranteed to fit a 32-bit accumulator."""
    bound = length * int(max_abs_a * SCALE) * int(max_abs_b * SCALE)
    return bound <= INT32_MAX


# Vectorised counterparts used by the kernel and graph code. Arrays carry
# int16 raws; accumulation happens in int64 (exact for any in-scope shape).

def quantize_array(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite value")
    raw = np.floor(np.asarray(x, dtype=np.float64) * SCALE)
    return np.clip(raw, QMIN, QMAX).astype(np.int16)


def renorm_array(acc: np.ndarray) -> np.ndarray:
    shifted = np.right_shift(acc.astype(np.int64), FRAC_BITS)
    return np.clip(shifted, QMIN, QMAX).astype(np.int16)


def sat_add_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    s = a.astype(np.int32) + b.astype(np.int32)
    return np.clip(s, QMIN, QMAX).astype(np.int16)
