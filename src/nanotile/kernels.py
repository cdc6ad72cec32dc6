"""Untiled golden kernels: conv, pool, relu, add, fully-connected.

Tensors are numpy arrays shaped (K, H, W), channel-major then row-major,
dtype int16 for Q4.12.  Convolutions use same-zero padding (pad =
kernel//2) with ceil output sizing, accumulate products exactly and
renormalize once per output element.

The integer accumulation is routed through float64 GEMM: every partial sum is
bounded by len * 2**30 <= 2**53 for len <= fxp.MAX_EXACT_DOT_LEN, so the
float path is bit-exact and an order of magnitude faster than integer matmul.
conv_acc is the one exact accumulation, for the untiled kernels, the FC
heads and the tiled executor alike.  Its layout is channel-major end to
end: columns are (K*kh*kw, pixels) and the weights multiply from the left,
so the accumulator comes out as a C-contiguous (K_out, H, W) array that the
bias add and renorm walk in order.  conv_rows (conv_acc, bias, one renorm)
turns a padded input stripe into int16 output rows.  fully_connected runs
it once over its input viewed as (k, 1, 1); conv2d and the tiled executor
run it once per block of output rows that row_blocks gives, so no
temporary of either engine grows with the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fxp, net


def _check3(x: np.ndarray) -> None:
    if x.ndim != 3:
        raise ValueError(f"tensor: expected (K, H, W), got shape {x.shape}")


def conv_acc(xp: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Exact accumulator of weights (K_out, K, kh, kw) over an already padded
    input (K, Hp, Wp), no bias: a fresh C-contiguous (K_out, h_out, w_out)
    int64 array.  The windows are a strided view, one row per weight tap and
    one column per output pixel; the dot length is checked before any of
    them is copied."""
    k_out, _, kh, kw = w.shape
    k = xp.shape[0]
    if k * kh * kw > fxp.MAX_EXACT_DOT_LEN:
        raise ValueError("dot length too long for exact float64 accumulation")
    h_out, w_out = (xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(k, kh, kw, h_out, w_out),
        strides=(s0, s1, s2, s1 * stride, s2 * stride), writeable=False)
    cols = windows.reshape(k * kh * kw, h_out * w_out).astype(np.float64)
    acc = (w.reshape(k_out, -1).astype(np.float64) @ cols).astype(np.int64)
    return acc.reshape(k_out, h_out, w_out)


def pad_same(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad kh//2 rows and kw//2 columns on each side."""
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * ph, x.shape[2] + 2 * pw), x.dtype)
    xp[:, ph:ph + x.shape[1], pw:pw + x.shape[2]] = x
    return xp


# Byte budget for the float64 columns of one block of output rows.
# Whole-map temporaries (columns, product, accumulator, renorm) of conv_1 run
# to megabytes, which the allocator hands back to the system and faults in
# afresh on every frame; blocks this size are reused.
ROW_BLOCK_BYTES = 256 * 1024


def row_blocks(parts, row_bytes: int) -> list[tuple[int, int]]:
    """Consecutive (h0, h1) row ranges merged while a block's float64 columns,
    row_bytes per row, fit ROW_BLOCK_BYTES; a range alone larger stays whole."""
    blocks = []
    for h0, h1 in parts:
        if blocks and (h1 - blocks[-1][0]) * row_bytes <= ROW_BLOCK_BYTES:
            h0 = blocks.pop()[0]
        blocks.append((h0, h1))
    return blocks


def _check_conv(x: np.ndarray, w: np.ndarray) -> None:
    _check3(x)
    if x.shape[0] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[0]}, weights {w.shape[1]}")


def acc_bias(b: np.ndarray) -> np.ndarray:
    """The bias at the accumulator's scale 2**-24, shaped (K_out, 1, 1)."""
    return (b.astype(np.int64) << fxp.FRAC_BITS)[:, None, None]


def conv_rows(xp: np.ndarray, w: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """Q4.12 output rows over a padded input stripe: conv_acc, plus the
    acc_bias bias, renormalized once; int16 (K_out, h_out, w_out)."""
    acc = conv_acc(xp, w, stride)
    acc += bias
    return fxp.renorm_array(acc)


def conv_accumulate(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                    stride: int) -> np.ndarray:
    """Exact conv accumulator at scale 2**-24, same-zero padding, bias included."""
    _check_conv(x, w)
    acc = conv_acc(pad_same(x, w.shape[2], w.shape[3]), w, stride)
    acc += acc_bias(b)
    return acc


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
           fused_relu: bool = False, fused_pool: bool = False) -> np.ndarray:
    """Q4.12 convolution; renorm once, then optional fused pool and ReLU.
    The output is computed by conv_rows in the row_blocks of its one-row
    ranges (one row when a row alone is larger) and written into one int16
    map, which the pool and ReLU then read."""
    _check_conv(x, w)
    k_out, k_in, kh, kw = w.shape
    xp = pad_same(x, kh, kw)
    h_out, w_out = (xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    bias = acc_bias(b)
    out = np.empty((k_out, h_out, w_out), np.int16)
    for h0, h1 in row_blocks([(h, h + 1) for h in range(h_out)], 8 * k_in * kh * kw * w_out):
        out[:, h0:h1] = conv_rows(xp[:, h0 * stride:(h1 - 1) * stride + kh], w, bias, stride)
    if fused_pool:
        out = maxpool2(out)
    if fused_relu:
        out = relu(out)
    return out


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2/s2 max-pool; odd trailing rows/cols pool over what is in range."""
    _check3(x)
    k, h, w = x.shape
    if h % 2 or w % 2:
        padded = np.full((k, h + h % 2, w + w % 2), np.iinfo(np.int16).min, np.int16)
        padded[:, :h, :w] = x
        x = padded
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def add(a: np.ndarray, b: np.ndarray, fused_relu: bool = False) -> np.ndarray:
    """Saturating elementwise Q4.12 addition."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = fxp.sat_add_array(a, b)
    return relu(out) if fused_relu else out


def fully_connected(x_flat: np.ndarray, w_flat: np.ndarray, b: int) -> np.int16:
    """Single renorm after the full fan-in accumulation; returns the Q4.12
    raw.  It runs conv_rows as a 1x1 convolution over the input viewed as
    (k, 1, 1), as the executor runs the FC heads."""
    if x_flat.shape != w_flat.shape:
        raise ValueError(f"length mismatch: {x_flat.shape} vs {w_flat.shape}")
    k = len(x_flat)
    out = conv_rows(x_flat.reshape(k, 1, 1), w_flat.reshape(1, k, 1, 1),
                    acc_bias(np.array([b])), 1)
    return out[0, 0, 0]


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass
class InferResult:
    steering: float
    collision_prob: float
    raw_steering: int      # Q4.12 raw
    raw_collision: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)  # activations by name


def infer_untiled(graph: net.NetworkGraph, store: net.WeightStore,
                  image: np.ndarray) -> InferResult:
    """Run the graph in order; steering dequantized, collision logit through sigmoid."""
    acts: dict[str, np.ndarray] = {net.INPUT_TENSOR: image}
    heads: dict[str, np.int16] = {}

    for spec in graph.layers:
        src = acts[spec.inputs[0]]
        if spec.kind == net.CONV:
            w, b = store[spec.name]
            out = conv2d(src, w, b, spec.stride, spec.fused_relu, spec.fused_pool)
        elif spec.kind == net.RELU:
            out = relu(src)
        elif spec.kind == net.ADD:
            out = add(src, acts[spec.inputs[1]], spec.fused_relu)
        elif spec.kind == net.FC:
            w, b = store[spec.name]
            heads[spec.name] = fully_connected(src.ravel(), w.ravel(), int(b[0]))
            continue
        else:
            raise ValueError(f"unknown layer kind {spec.kind}")
        acts[spec.output] = out

    steer_raw, coll_raw = int(heads["fully_1"]), int(heads["fully_2"])
    return InferResult(steer_raw / fxp.SCALE, sigmoid(coll_raw / fxp.SCALE),
                       steer_raw, coll_raw, acts)
