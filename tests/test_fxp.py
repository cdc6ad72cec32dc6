import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nanotile import fxp, kernels


def quantize(x: float) -> int:
    return int(fxp.quantize_array(np.array([x]))[0])


def engine_dot(a, b) -> int:
    """Exact accumulator of sum(a * b) through the engine's float64-GEMM path:
    a 1x1 convolution over a (len, 1, 1) input with zero bias."""
    x = np.asarray(a, dtype=np.int16).reshape(-1, 1, 1)
    w = np.asarray(b, dtype=np.int16).reshape(1, -1, 1, 1)
    return int(kernels.conv_accumulate(x, w, np.zeros(1, np.int16), 1)[0, 0, 0])


def test_quantize_examples():
    got = fxp.quantize_array(np.array([1.0, 0.0, 10.0, -10.0, -0.0001]))
    # saturates, never wraps; floor(-0.4096) = -1
    assert got.tolist() == [4096, 0, 32767, -32768, -1]
    assert got.dtype == np.int16


def test_quantize_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            fxp.quantize_array(np.array([0.0, bad]))


def test_round_trip_exact_for_every_raw_value():
    raws = np.arange(fxp.QMIN, fxp.QMAX + 1, dtype=np.int64)
    back = fxp.quantize_array(raws / fxp.SCALE)
    assert np.array_equal(back.astype(np.int64), raws)


def test_mac_examples():
    one, half = quantize(1.0), quantize(0.5)
    assert engine_dot([one], [one]) == 16_777_216
    acc = engine_dot([half], [half])
    assert acc == 4_194_304
    assert fxp.renorm_array(np.array([acc]))[0] / fxp.SCALE == 0.25
    assert engine_dot([quantize(-1.0)], [one]) == -16_777_216


def test_renorm_examples():
    got = fxp.renorm_array(np.array([16_777_216, 2 ** 31 - 1, -1, -4097]))
    # floor shift, not toward 0
    assert got.tolist() == [4096, 32767, -1, -2]
    assert got.dtype == np.int16


@given(st.floats(-8.0, 8.0 - 2 ** -12))
def test_round_trip_error_bound(x):
    # exact rational comparison: the float difference can round up to 2**-12
    assert abs(Fraction(quantize(x), fxp.SCALE) - Fraction(x)) < Fraction(1, fxp.SCALE)


@given(st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False))
def test_quantize_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert quantize(lo) <= quantize(hi)


def test_multiply_by_one_is_identity():
    raws = np.arange(fxp.QMIN, fxp.QMAX + 1, dtype=np.int64)
    back = fxp.renorm_array(raws * quantize(1.0))
    assert np.array_equal(back.astype(np.int64), raws)


def test_dot_product_matches_arbitrary_precision():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        a = rng.integers(fxp.QMIN, fxp.QMAX + 1, n)
        b = rng.integers(fxp.QMIN, fxp.QMAX + 1, n)
        exact = sum(int(ai) * int(bi) for ai, bi in zip(a.tolist(), b.tolist()))
        assert engine_dot(a, b) == exact
        fc = kernels.fully_connected(a.astype(np.int16), b.astype(np.int16), 0)
        assert fc == max(min(exact >> 12, fxp.QMAX), fxp.QMIN)


def test_array_ops_match_scalar():
    rng = np.random.default_rng(11)
    # nearly every draw in +/-2**40 saturates; those in +/-2**28 mostly do not
    accs = np.concatenate([rng.integers(-2 ** 40, 2 ** 40, 2000),
                           rng.integers(-2 ** 28, 2 ** 28, 2000)])
    vec = fxp.renorm_array(accs)
    for raw, got in zip(accs.tolist(), vec.tolist()):
        assert got == max(min(raw >> 12, fxp.QMAX), fxp.QMIN)
    a = rng.integers(fxp.QMIN, fxp.QMAX + 1, 2000).astype(np.int16)
    b = rng.integers(fxp.QMIN, fxp.QMAX + 1, 2000).astype(np.int16)
    vec = fxp.sat_add_array(a, b)
    for ai, bi, got in zip(a.tolist(), b.tolist(), vec.tolist()):
        assert got == max(min(ai + bi, fxp.QMAX), fxp.QMIN)


@given(st.lists(st.integers(fxp.INT32_MIN, fxp.INT32_MAX), min_size=1, max_size=40),
       st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1, max_size=40))
def test_renorm_any_integer_input_and_never_writes_it(acc32, acc64):
    # int32 and int64 arrays and Python-int lists shift and saturate alike,
    # and the input (an int64 array is not copied first) keeps its values
    for values, kinds in ((acc32, (np.int32, np.int64, list)), (acc64, (np.int64, list))):
        want = [max(min(a >> fxp.FRAC_BITS, fxp.QMAX), fxp.QMIN) for a in values]
        for kind in kinds:
            acc = list(values) if kind is list else np.array(values, kind)
            got = fxp.renorm_array(acc)
            assert got.dtype == np.int16 and got.tolist() == want, kind
            assert list(acc) == values, kind
