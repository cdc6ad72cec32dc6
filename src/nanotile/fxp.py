"""Q4.12 fixed-point arithmetic on int16 arrays, as the engine runs it.

A Q4.12 sample is a 16-bit two's-complement integer whose value is raw * 2**-12,
covering [-8.0, 8.0 - 2**-12]; quantize_array floors onto it and saturates.
Products of two Q4.12 values live at scale 2**-24 and are accumulated exactly
(no per-term rounding); renorm_array shifts right by 12 (floor) and saturates.
"""

from __future__ import annotations

import numpy as np

FRAC_BITS = 12
SCALE = 1 << FRAC_BITS          # 4096
QMIN = -(1 << 15)               # -32768
QMAX = (1 << 15) - 1            # 32767
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

# Longest dot product whose worst-case |partial sum| stays exactly
# representable in float64: |term| <= 2**30 and the bias term, b * 2**12,
# is at most 2**27, so len * 2**30 + 2**27 <= 2**53 needs len <= 2**23 - 1.
MAX_EXACT_DOT_LEN = (1 << 23) - 1


def quantize_array(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite value")
    raw = np.floor(np.asarray(x, dtype=np.float64) * SCALE)
    return np.clip(raw, QMIN, QMAX).astype(np.int16)


def renorm_array(acc: np.ndarray) -> np.ndarray:
    """Shift an accumulator (any integer array or list) right by 12 and
    saturate to int16; the input is never written."""
    shifted = np.asarray(np.right_shift(acc, FRAC_BITS, dtype=np.int64))
    return np.clip(shifted, QMIN, QMAX, out=shifted).astype(np.int16)


def sat_add_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    s = a.astype(np.int32) + b.astype(np.int32)
    return np.clip(s, QMIN, QMAX).astype(np.int16)
