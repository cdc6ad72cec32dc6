import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from nanotile import fxp, kernels, net


def q(x):
    return fxp.quantize_array(np.asarray(x, dtype=np.float64))


def test_identity_1x1_conv():
    rng = np.random.default_rng(0)
    x = fxp.quantize_array(rng.uniform(-1, 1, (3, 8, 8)))
    w = np.zeros((3, 3, 1, 1), np.int16)
    for c in range(3):
        w[c, c, 0, 0] = 4096
    out = kernels.conv2d(x, w, np.zeros(3, np.int16), stride=1)
    assert np.array_equal(out, x)


def test_zero_weights_bias_half():
    x = fxp.quantize_array(np.random.default_rng(1).uniform(-1, 1, (2, 6, 6)))
    w = np.zeros((4, 2, 3, 3), np.int16)
    b = np.full(4, 2048, np.int16)               # 0.5
    out = kernels.conv2d(x, w, b, stride=1)
    assert (out == 2048).all()


@pytest.mark.parametrize("stride,kh", [(1, 3), (2, 3), (2, 5), (1, 1), (2, 1)])
def test_conv_matches_integer_oracle(stride, kh):
    rng = np.random.default_rng(10 * stride + kh)
    x = fxp.quantize_array(rng.uniform(-2, 2, (5, 11, 13)))
    w = fxp.quantize_array(rng.uniform(-1, 1, (7, 5, kh, kh)))
    b = fxp.quantize_array(rng.uniform(-1, 1, 7))
    got = kernels.conv2d(x, w, b, stride)
    expect = oracles.naive_renorm(oracles.naive_conv_acc(x, w, b, stride))
    assert np.array_equal(got, expect)


def _int16s(*shape):
    # the full int16 range, with -32768 drawn on its own as well
    return hnp.arrays(np.int16, shape, elements=st.integers(fxp.QMIN, fxp.QMAX)
                      | st.just(fxp.QMIN))


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.data())
def test_conv_matches_oracle_on_any_shape(k_in, k_out, h, w, k, stride, data):
    # maps are non-square and channel counts differ, so an h/w or channel
    # transposition in the columns or the accumulator shows
    x = data.draw(_int16s(k_in, h, w))
    wt = data.draw(_int16s(k_out, k_in, k, k))
    b = data.draw(_int16s(k_out))
    acc = oracles.naive_conv_acc(x, wt, b, stride)
    assert np.array_equal(kernels.conv_accumulate(x, wt, b, stride), acc)
    got = kernels.conv2d(x, wt, b, stride)
    assert got.dtype == np.int16 and np.array_equal(got, oracles.naive_renorm(acc))


def _phase_order(acc, rows, cols):
    """conv_acc's pooled accumulator (K_out, 2, 2, ph, pw), [:, dy, dx, i, j]
    holding convolution pixel (2i+dy, 2j+dx), back in row order over the
    rows x cols map, and the slots past the map."""
    k_out, _, _, ph, pw = acc.shape
    grid = acc.transpose(0, 3, 1, 4, 2).reshape(k_out, 2 * ph, 2 * pw)
    outside = np.ones(grid.shape, bool)
    outside[:, :rows, :cols] = False
    return grid[:, :rows, :cols], grid[outside]


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.booleans(), st.data())
def test_conv_acc_is_the_biased_integer_accumulator(k_in, k_out, h, w, k, stride, pool,
                                                    data):
    # the GEMM returns the exact accumulator, bias included, over the full
    # int16 range as a fresh C-contiguous float64 array; a pooled block is
    # laid out phase-major, every extent parity, and its slots past an odd
    # map hold -inf
    x = data.draw(_int16s(k_in, h, w))
    wt = data.draw(_int16s(k_out, k_in, k, k))
    b = data.draw(_int16s(k_out))
    expect = oracles.naive_conv_acc(x, wt, b, stride)
    xp = kernels.pad_same(x, k, k)
    acc = kernels.conv_acc(xp, 0, xp.shape[1], kernels.pack_weights(wt, b), k, k, stride, pool)
    assert acc.dtype == np.float64 and acc.flags.c_contiguous
    if pool:
        rows, cols = expect.shape[1:]
        assert acc.shape == (k_out, 2, 2, -(-rows // 2), -(-cols // 2))
        acc, outside = _phase_order(acc, rows, cols)
        assert (outside == -np.inf).all()
    assert np.array_equal(acc, expect)


@pytest.mark.parametrize("k,stride,pool", [(1, 1, False), (3, 1, False), (3, 2, False),
                                           (3, 1, True), (5, 2, True)])
def test_conv_acc_rejects_a_row_range_past_the_padded_map(k, stride, pool):
    # the windows are one view into the padded map's buffer, which numpy
    # checks: a stripe whose rows run past the map raises instead of
    # reading the memory after it; odd extents (7 columns) pad a copy of
    # the stripe, which is checked the same way
    x = np.arange(2 * 6 * 7, dtype=np.int16).reshape(2, 6, 7)
    xp = kernels.pad_same(x, k, k)
    wb = kernels.pack_weights(np.ones((3, 2, k, k), np.int16), np.zeros(3, np.int16))
    hp = xp.shape[1]
    assert kernels.conv_acc(xp, hp - k - stride, hp, wb, k, k, stride, pool).shape[0] == 3
    for r0, r1 in ((hp - k - stride + 1, hp + 1), (0, hp + stride), (-1, hp - 1)):
        with pytest.raises(ValueError):
            kernels.conv_acc(xp, r0, r1, wb, k, k, stride, pool)


def _strided(x):
    """x as a view that is not C-contiguous: every other column of a map
    twice as wide, or the transposed view of its transposed copy."""
    wide = np.zeros((*x.shape[:2], 2 * x.shape[2]), x.dtype)
    wide[:, :, ::2] = x
    return [wide[:, :, ::2], x.transpose(0, 2, 1).copy().transpose(0, 2, 1)]


@pytest.mark.parametrize("k,stride,pool", [(1, 1, False), (1, 2, False), (3, 1, False),
                                           (3, 2, False), (3, 1, True), (1, 2, True)])
def test_conv_on_a_strided_input_matches_the_oracle(k, stride, pool):
    rng = np.random.default_rng(10 * k + stride)
    x = rng.integers(fxp.QMIN, fxp.QMAX + 1, (3, 7, 9)).astype(np.int16)
    w = rng.integers(fxp.QMIN, fxp.QMAX + 1, (4, 3, k, k)).astype(np.int16)
    b = rng.integers(fxp.QMIN, fxp.QMAX + 1, 4).astype(np.int16)
    acc = oracles.naive_conv_acc(x, w, b, stride)
    expect = oracles.naive_renorm(acc)
    if pool:
        expect = oracles.naive_pool2(expect)
    for view in _strided(x):
        assert not view.flags.c_contiguous and np.array_equal(view, x)
        assert np.array_equal(kernels.conv_accumulate(view, w, b, stride), acc)
        assert np.array_equal(kernels.conv2d(view, w, b, stride, fused_pool=pool), expect)


def test_pad_same_reads_a_1x1_kernel_input_as_it_is():
    x = np.arange(12, dtype=np.int16).reshape(1, 3, 4)
    assert kernels.pad_same(x, 1, 1) is x
    assert kernels.pad_same(x, 3, 1).shape == (1, 5, 4)
    # a strided input is copied into the C-contiguous map the windows view
    for view in _strided(x):
        xp = kernels.pad_same(view, 1, 1)
        assert xp.flags.c_contiguous and np.array_equal(xp, x)


def _integer_epilogue(acc, pool, relu, addend):
    """The int64 accumulator through the integer chain, in the executor's
    order: renorm, pool, the body ReLU, then the saturating residual add and
    the ReLU after it."""
    out = fxp.renorm_array(acc)
    if pool:
        out = kernels.maxpool2(out)
    if relu:
        out = kernels.relu(out)
    if addend is not None:
        out = kernels.relu(fxp.sat_add_array(out, addend))
    return out


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 15), st.data())
def test_conv_block_matches_the_integer_epilogue(k_in, k_out, h, w, k, stride, pool, relu,
                                                 residual, shift, data):
    # the float64 epilogue (pool, scale, clip with the ReLU as its bound,
    # add, clip with the ReLU after the join as its bound, a floor only
    # where the last bound is below 0, the cast into the rows) against
    # renorm_array, maxpool2, relu and sat_add_array on the exact int64
    # accumulator; inputs span the int16 range with -32768 sprinkled in, and
    # are also shifted down so that sums land inside it unsaturated,
    # rounding at every sign
    x = data.draw(_int16s(k_in, h, w)) >> shift
    wt = data.draw(_int16s(k_out, k_in, k, k))
    b = data.draw(_int16s(k_out)) >> shift
    acc = oracles.naive_conv_acc(x, wt, b, stride)
    rows, cols = acc.shape[1:]
    if pool:
        rows, cols = -(-rows // 2), -(-cols // 2)
    addend = data.draw(_int16s(k_out, rows, cols)) if residual else None
    got = np.empty((k_out, rows, cols), np.int16)
    xp = kernels.pad_same(x, k, k)
    kernels.conv_block(xp, 0, xp.shape[1], kernels.pack_weights(wt, b), k, k, stride, pool,
                       relu, addend, got)
    assert np.array_equal(got, _integer_epilogue(acc, pool, relu, addend))


def _conv_acc_calls():
    """Patch kernels.conv_acc to record each call's arguments."""
    calls = []
    conv_acc = kernels.conv_acc
    return calls, mock.patch.object(
        kernels, "conv_acc", lambda *args: calls.append(args) or conv_acc(*args))


def _partition(data, rows):
    """A random partition of [0, rows) into two or more consecutive parts."""
    cuts = data.draw(st.sets(st.integers(1, rows - 1), min_size=1))
    bounds = [0, *sorted(cuts), rows]
    return list(zip(bounds[:-1], bounds[1:]))


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 3, 5]),
       st.sampled_from([1, 2]), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans(), st.booleans(), st.data())
def test_conv_spanning_row_blocks_matches_one_gemm(k_in, k_out, k, stride, w_out, seed,
                                                   pool, relu, residual, data):
    # a map tall enough for two to four blocks of output rows, every height
    # parity; values over the full int16 range with -32768 sprinkled in; the
    # output rows cut into random parts, which the blocks merge whole.  A
    # block holds the float64 columns and accumulator of its output rows,
    # two convolution rows each when pooled, and the ones row of the bias
    pooled = 2 if pool else 1
    row_bytes = 8 * (k_in * k * k + 1 + k_out) * -(-w_out // pooled) * pooled * pooled
    block = max(1, kernels.ROW_BLOCK_BYTES // row_bytes)
    h_out = data.draw(st.integers(pooled * block + 1, pooled * 4 * block))
    h = data.draw(st.sampled_from(sorted({stride * (h_out - 1) + 1, stride * h_out})))
    width = data.draw(st.sampled_from(sorted({stride * (w_out - 1) + 1, stride * w_out})))
    rng = np.random.default_rng(seed)

    def int16s(*shape):
        a = rng.integers(fxp.QMIN, fxp.QMAX + 1, shape).astype(np.int16)
        a[rng.random(shape) < 0.05] = fxp.QMIN
        return a

    x, wt, b = int16s(k_in, h, width), int16s(k_out, k_in, k, k), int16s(k_out)
    expect = fxp.renorm_array(kernels.conv_accumulate(x, wt, b, stride))
    if pool:
        expect = kernels.maxpool2(expect)
    if relu:
        expect = kernels.relu(expect)
    rows = expect.shape[1]
    parts = _partition(data, rows)
    addend = int16s(*expect.shape) if residual else None
    if residual:
        expect = kernels.relu(fxp.sat_add_array(expect, addend))
    calls, patch = _conv_acc_calls()
    with patch:
        got = kernels.conv2d(x, wt, b, stride, relu, pool, parts, addend)
    assert len(calls) >= 2
    assert got.dtype == np.int16 and np.array_equal(got, expect)
    # each GEMM's output rows, two convolution rows each when pooled, are a
    # union of whole parts, and the GEMMs' stripes of the one padded map
    # cover it in order
    bounds, h0 = [0] + [h1 for _, h1 in parts], 0
    for xp, r0, r1, *_ in calls:
        assert xp is calls[0][0] and r0 == h0 * pooled * stride
        conv = (r1 - r0 - k) // stride + 1
        h0 += -(-conv // 2) if pool else conv
        assert h0 in bounds
    assert h0 == rows
    # parts that leave a gap, overlap, stop short or run past the map raise
    # before any row is computed
    for bad in (parts[1:], parts[:1] + parts, parts[:-1], parts + [(rows, rows + 1)]):
        calls.clear()
        with patch, pytest.raises(ValueError, match="row part"):
            kernels.conv2d(x, wt, b, stride, relu, pool, bad, addend)
        assert not calls


def test_untiled_conv_temporaries_fit_the_row_block_budget():
    # every conv_acc call of infer_untiled builds float64 columns, their
    # ones row included, and a float64 accumulator within ROW_BLOCK_BYTES,
    # unless one output row alone is larger; conv_1's 100 x 100 outputs over
    # 25 taps into 32 channels (4.6 MB of columns and accumulator) take
    # several blocks
    graph = net.build_dronet()
    store = net.random_store(graph, 0)
    calls, patch = _conv_acc_calls()
    with patch:
        kernels.infer_untiled(graph, store, oracles.random_image(0))
    for xp, r0, r1, wb, kh, kw, stride, pool in calls:
        rows, cols = _gemm_grid(xp, r0, r1, kh, kw, stride, pool)
        row_bytes = 8 * sum(wb.shape) * cols
        assert rows * row_bytes <= max(kernels.ROW_BLOCK_BYTES, row_bytes)
    # the GEMMs take conv_1's integer weights cast to float64, unscaled,
    # and its bias times 2**12
    w, b = store["conv_1"]
    assert sum(wb.dtype == np.float64 and np.array_equal(wb[:, :-1], w.reshape(len(w), -1))
               and np.array_equal(wb[:, -1], b.astype(np.int64) << fxp.FRAC_BITS)
               for _, _, _, wb, *_ in calls) >= 2


def _gemm_grid(xp, r0, r1, kh, kw, stride, pool):
    """Output rows of a conv_acc call over the stripe [r0, r1) of xp and
    its GEMM's columns per output row: a pooled row takes two convolution
    rows over the rounded-up width."""
    h_out, w_out = (r1 - r0 - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    if pool:
        return -(-h_out // 2), 4 * -(-w_out // 2)
    return h_out, w_out


ROW_BYTES = st.one_of(st.integers(1, 2 * kernels.ROW_BLOCK_BYTES),
                      st.integers(1, 40).map(lambda n: kernels.ROW_BLOCK_BYTES // n),
                      st.integers(1, 40).map(lambda n: kernels.ROW_BLOCK_BYTES // n + 1))


@given(st.lists(st.integers(1, 8), min_size=1, max_size=40), ROW_BYTES)
def test_row_blocks_merge_whole_parts_within_the_budget(sizes, row_bytes):
    bounds = np.cumsum([0] + sizes).tolist()
    h = bounds[-1]
    blocks = kernels.row_blocks(list(zip(bounds[:-1], bounds[1:])), h, row_bytes)
    # unions of consecutive parts, covering [0, h) once
    assert blocks[0][0] == 0 and blocks[-1][1] == h
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for h0, h1 in blocks:
        assert h0 in bounds and h1 in bounds and h0 < h1
        one_part = bounds.index(h1) == bounds.index(h0) + 1
        assert (h1 - h0) * row_bytes <= kernels.ROW_BLOCK_BYTES or one_part
    # greedy: no two neighbouring blocks would fit as one
    for (h0, _), (_, h1) in zip(blocks, blocks[1:]):
        assert (h1 - h0) * row_bytes > kernels.ROW_BLOCK_BYTES
    # one-row parts give conv2d's blocks of max(1, budget // row_bytes) rows
    block = max(1, kernels.ROW_BLOCK_BYTES // row_bytes)
    assert kernels.row_blocks([(r, r + 1) for r in range(h)], h, row_bytes) == \
        [(r, min(r + block, h)) for r in range(0, h, block)]


def test_conv_random_3x3_s2_on_stem_shape():
    rng = np.random.default_rng(99)
    x = fxp.quantize_array(rng.uniform(-1, 1, (32, 50, 50)))
    w = fxp.quantize_array(rng.uniform(-1, 1, (32, 32, 3, 3)))
    b = fxp.quantize_array(rng.uniform(-1, 1, 32))
    got = kernels.conv2d(x, w, b, stride=2)
    assert got.shape == (32, 25, 25)
    assert np.array_equal(got, oracles.naive_renorm(oracles.naive_conv_acc(x, w, b, 2)))


def test_conv_channel_mismatch():
    x = np.zeros((3, 6, 6), np.int16)
    w = np.zeros((2, 4, 3, 3), np.int16)
    with pytest.raises(ValueError, match="channel mismatch: input 3, weights 4"):
        kernels.conv_accumulate(x, w, np.zeros(2, np.int16), 1)
    # a bias of another length than the output channels would broadcast
    # (one value to every channel) or fail inside numpy
    w = np.zeros((4, 3, 3, 3), np.int16)
    for conv in (kernels.conv_accumulate, kernels.conv2d):
        for b in (np.array([4096], np.int16), np.zeros(3, np.int16), np.zeros((4, 1), np.int16)):
            with pytest.raises(ValueError, match=re.escape(f"bias shape {b.shape}, expected (4,)")):
                conv(x, w, b, 1)
    # an addend of another shape than the output would broadcast into it
    with pytest.raises(ValueError, match=re.escape("addend shape (4, 6, 1), expected (4, 6, 6)")):
        kernels.conv2d(x, w, np.zeros(4, np.int16), 1, addend=np.zeros((4, 6, 1), np.int16))


def test_exact_dot_bound_is_inclusive(monkeypatch):
    # a dot of exactly fxp.MAX_EXACT_DOT_LEN terms is exact, as net._validate
    # accepts; one channel more is rejected
    monkeypatch.setattr(fxp, "MAX_EXACT_DOT_LEN", 9)
    w, b = np.zeros((1, 1, 3, 3), np.int16), np.zeros(1, np.int16)
    kernels.conv_accumulate(np.zeros((1, 4, 4), np.int16), w, b, 1)
    with pytest.raises(ValueError, match="dot length"):
        kernels.conv_accumulate(np.zeros((2, 4, 4), np.int16),
                                np.zeros((1, 2, 3, 3), np.int16), b, 1)
    # the FC heads accumulate through conv_acc too
    assert kernels.fully_connected(np.ones(9, np.int16), np.ones(9, np.int16), 0) == 0
    with pytest.raises(ValueError, match="dot length"):
        kernels.fully_connected(np.zeros(10, np.int16), np.zeros(10, np.int16), 0)


def test_accumulation_order_independence():
    # permuting the (c, dy, dx) summation order must not change the output
    rng = np.random.default_rng(5)
    x = fxp.quantize_array(rng.uniform(-3, 3, (4, 6, 6)))
    w = fxp.quantize_array(rng.uniform(-2, 2, (2, 4, 3, 3)))
    b = fxp.quantize_array(rng.uniform(-1, 1, 2))
    base = kernels.conv2d(x, w, b, 1)
    order = list(itertools.product(range(4), range(3), range(3)))
    rng.shuffle(order)
    pad = 1
    xp = np.zeros((4, 8, 8), np.int64)
    xp[:, 1:7, 1:7] = x
    acc = (b.astype(np.int64) << 12)[:, None, None] * np.ones((2, 6, 6), np.int64)
    for c, dy, dx in order:
        acc += (w[:, c, dy, dx].astype(np.int64)[:, None, None]
                * xp[c, dy:dy + 6, dx:dx + 6][None, :, :])
    assert np.array_equal(base, oracles.naive_renorm(acc))


def test_padding_visible_at_corners():
    x = q(np.ones((1, 9, 9)))
    w = q(np.full((1, 1, 3, 3), 0.5))
    out = kernels.conv2d(x, w, np.zeros(1, np.int16), 1)
    assert out[0, 4, 4] > out[0, 0, 0]           # zero padding weakens corners
    assert out[0, 0, 0] == out[0, 0, 8] == out[0, 8, 0] == out[0, 8, 8]


def test_maxpool_examples():
    const = q(np.full((3, 10, 10), 0.25))
    out = kernels.maxpool2(const)
    assert out.shape == (3, 5, 5) and (out == 1024).all()
    x = np.zeros((1, 2, 2), np.int16)
    x[0] = [[1, 2], [3, 4]]
    assert kernels.maxpool2(x)[0, 0, 0] == 4
    assert kernels.maxpool2(np.zeros((8, 100, 100), np.int16)).shape == (8, 50, 50)
    odd = kernels.maxpool2(np.full((1, 25, 25), -5, np.int16))
    assert odd.shape == (1, 13, 13) and (odd == -5).all()   # edge pools in-range only


def test_pool_matches_oracle():
    rng = np.random.default_rng(3)
    x = fxp.quantize_array(rng.uniform(-4, 4, (6, 25, 25)))
    assert np.array_equal(kernels.maxpool2(x), oracles.naive_pool2(x))


@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9), st.data())
def test_pool_matches_oracle_on_any_shape(k, h, w, data):
    # every parity of H and W, values over the full int16 range including
    # -32768, the value odd shapes are padded with
    values = st.integers(fxp.QMIN, fxp.QMAX) | st.just(fxp.QMIN)
    x = np.array(data.draw(st.lists(values, min_size=k * h * w, max_size=k * h * w)),
                 np.int16).reshape(k, h, w)
    got = kernels.maxpool2(x)
    assert got.dtype == np.int16 and np.array_equal(got, oracles.naive_pool2(x))


def test_relu_add():
    assert kernels.relu(q([[-0.5, 0.25]])[None])[0, 0].tolist() == [0, 1024]
    a, b = q([[7.5]])[None], q([[7.5]])[None]
    assert kernels.add(a, b)[0, 0, 0] == 32767   # saturates at 8 - 2**-12
    x = fxp.quantize_array(np.random.default_rng(0).uniform(-2, 2, (2, 3, 3)))
    assert np.array_equal(kernels.add(x, np.zeros_like(x)), x)
    assert np.array_equal(kernels.add(x, -x), np.zeros_like(x))
    y = fxp.quantize_array(np.random.default_rng(1).uniform(-2, 2, (2, 3, 3)))
    assert np.array_equal(kernels.add(x, y), kernels.add(y, x))
    with pytest.raises(ValueError, match="shape"):
        kernels.add(x, x[:1])


def test_relu_idempotent():
    x = fxp.quantize_array(np.random.default_rng(2).uniform(-4, 4, (3, 5, 5)))
    assert np.array_equal(kernels.relu(kernels.relu(x)), kernels.relu(x))


def test_fully_connected():
    w = np.zeros(6272, np.int16)
    assert kernels.fully_connected(np.zeros(6272, np.int16), w, 123) == 123
    x = np.zeros(6272, np.int16)
    x[17] = 4096                                  # one-hot 1.0
    w = fxp.quantize_array(np.random.default_rng(0).uniform(-1, 1, 6272))
    b = 300
    assert kernels.fully_connected(x, w, b) == int(w[17]) + 300
    rng = np.random.default_rng(8)
    x = rng.integers(fxp.QMIN, fxp.QMAX + 1, 6272).astype(np.int16)
    w = rng.integers(fxp.QMIN, fxp.QMAX + 1, 6272).astype(np.int16)
    exact = sum(int(a) * int(c) for a, c in zip(x.tolist(), w.tolist())) + (b << 12)
    expect = max(min(exact >> 12, fxp.QMAX), fxp.QMIN)
    assert kernels.fully_connected(x, w, b) == expect
    with pytest.raises(ValueError, match="length"):
        kernels.fully_connected(x[:10], w, 0)


def test_infer_untiled_zero_weights():
    graph = net.build_dronet()
    res = kernels.infer_untiled(graph, net.zero_store(graph), oracles.random_image(0))
    assert res.steering == 0.0
    assert res.collision_prob == 0.5


def test_infer_untiled_matches_naive_interpreter():
    graph = net.build_dronet()
    for seed in range(3):                         # acceptance covers 20 seeds
        store = net.random_store(graph, seed)
        image = oracles.random_image(seed)
        res = kernels.infer_untiled(graph, store, image)
        naive = oracles.naive_infer(graph, store, image)
        assert res.tensors.keys() == naive.keys()
        assert oracles.tensor_mismatches(res.tensors, naive) == []

