"""Untiled golden kernels: conv, pool, relu, add, fully-connected.

Tensors are numpy arrays shaped (K, H, W), channel-major then row-major,
dtype int16 for Q4.12.  Convolutions use same-zero padding (pad =
kernel//2) with ceil output sizing, accumulate products exactly and
renormalize once per output element.

The integer accumulation is routed through float64 GEMM: every partial sum is
bounded by len * 2**30 + 2**27 <= 2**53 for len <= fxp.MAX_EXACT_DOT_LEN,
bias included, so the float path is bit-exact and an order of magnitude
faster than integer matmul.  conv_acc is the one exact accumulation, for the
untiled kernels, the FC heads and the tiled executor alike.  Its layout is
channel-major end to end: the weights, packed by pack_weights with the bias
times 2**12 as their last column, multiply from the left columns of
(K*kh*kw + 1, pixels) whose last row is ones, so the GEMM returns the biased
accumulator the target's int32 register holds, as a C-contiguous
(K_out, H, W) array, or phase-major for a fused pool.

conv2d is the one conv loop of both engines.  It pads the input once into
one C-contiguous map (a 1x1 kernel reads a contiguous input as it is),
packs the weights once and runs conv_block once per block that row_blocks
merges from its parts (output row ranges: one-row ranges for the untiled
engine, a plan's row ranges for the executor), writing into the block's
rows of one int16 map.  A block passes the padded map and the padded rows
[r0, r1) its convolution rows read; conv_acc reads them through one
bounds-checked view into the map's buffer, so no stripe is sliced and a
row range past the map raises instead of reading past it.
The FC heads run through it as 1x1 convolutions over their input viewed as
(k, 1, 1).  conv_block keeps the accumulator in float64 from the GEMM to
the one int16 cast; each step of its epilogue gives the bits of the
integer chain (renorm_array, maxpool2, relu, add):
- the GEMM gives the exact biased integer accumulator at scale 2**-24;
- the max-pool runs on the accumulator, one maximum over its four phase
  slabs: the scale, floor, clip and the cast are all monotone, so the
  maximum commutes with them (the slots past an odd edge hold -inf), and
  it leaves a quarter of the elements to scale;
- the accumulator times 2**-12, a power of two, is exact for an integer
  below 2**53, so it comes out in Q4.12 units, bias included;
- one in-place clip saturates, with 0 for its lower bound where a ReLU is
  fused, as relu(clip(a)) == clip(a, 0, QMAX);
- a residual adds the int16 addend to the saturated sum in float, exactly,
  and a second clip saturates it with 0 for its lower bound: a fused join
  is always followed by a ReLU (tiler.node_kernels rejects one that is not);
- the last clip casts into the output rows.  Clipping to integer bounds
  and adding an integer commute with the floor, so the floor is taken
  only where the last clip's lower bound is below 0; above 0 the cast's
  truncation is the floor.
No temporary of either engine grows with the map: ROW_BLOCK_BYTES bounds a
block's float64 columns plus its accumulator.
conv_accumulate casts the same GEMM to the int64 accumulator at scale
2**-24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fxp, net


def _check3(x: np.ndarray) -> None:
    if x.ndim != 3:
        raise ValueError(f"tensor: expected (K, H, W), got shape {x.shape}")


def conv_acc(xp: np.ndarray, r0: int, r1: int, wb: np.ndarray, kh: int, kw: int,
             stride: int, pool: bool) -> np.ndarray:
    """Exact biased accumulator of packed weights wb (pack_weights: K_out
    rows of K*kh*kw taps and the bias times 2**12) over the stripe of rows
    [r0, r1) of the C-contiguous padded map xp (K, Hp, Wp): a fresh
    C-contiguous float64 array of integers at scale 2**-24, the value the
    target's int32 register holds.  The windows are one view into xp's
    buffer at the stripe's byte offset, which numpy checks against the
    buffer, so a row range past the map raises ValueError; they are copied
    into float64 columns, one row per weight tap, a row of ones for the
    bias, and one column per output pixel; the dot length is checked before
    any of them is copied.  Unpooled it is (K_out, h_out, w_out).  For a
    fused 2x2 pool the columns are phase-major:
    (K_out, 2, 2, ceil(h_out/2), ceil(w_out/2)), [:, dy, dx, i, j] holding
    convolution pixel (2i+dy, 2j+dx), so the pool is one maximum over four
    contiguous slabs.  Only a pooled grid with an odd extent pads the
    stripe, a copy of it read through a checked view of the same kind, with
    zeros for the rounded-up grid, and sets the slots past the map to -inf;
    an even grid has no such slots."""
    k = xp.shape[0]
    if k * kh * kw > fxp.MAX_EXACT_DOT_LEN:
        raise ValueError("dot length too long for exact float64 accumulation")
    h_out, w_out = (r1 - r0 - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    ph, pw = -(-h_out // 2), -(-w_out // 2)
    odd = pool and (h_out % 2 or w_out % 2)
    if odd:
        # the rounded-up grid reads at most stride rows and columns more;
        # the stripe is a checked view, as a slice would silently cut a
        # range that runs past the map
        stripe = np.ndarray((k, r1 - r0, xp.shape[2]), xp.dtype, xp, r0 * xp.strides[1],
                            xp.strides)
        xp, r0 = np.pad(stripe, ((0, 0), (0, stride), (0, stride))), 0
    s0, s1, s2 = xp.strides
    dy, dx = s1 * stride, s2 * stride
    grid, steps = ((2, 2, ph, pw), (dy, dx, 2 * dy, 2 * dx)) if pool else \
        ((h_out, w_out), (dy, dx))
    windows = np.ndarray((k, kh, kw, *grid), xp.dtype, xp, r0 * s1, (s0, s1, s2, *steps))
    cols = np.empty((k * kh * kw + 1, math.prod(grid)))
    cols[:-1] = windows.reshape(-1, cols.shape[1])
    cols[-1] = 1
    acc = (wb @ cols).reshape(-1, *grid)
    if odd:
        acc[:, 1, :, h_out // 2:] = -np.inf        # dy = 1 past the last row
        acc[:, :, 1, :, w_out // 2:] = -np.inf     # dx = 1 past the last column
    return acc


def pack_weights(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weights (K_out, K, kh, kw) and bias (K_out,) as the float64 GEMM
    matrix (K_out, K*kh*kw + 1) whose last column is the bias times 2**12."""
    return np.concatenate((w.reshape(len(w), -1), b[:, None] * float(fxp.SCALE)), axis=1)


def pad_same(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad kh//2 rows and kw//2 columns on each side into a fresh
    C-contiguous map; a 1x1 kernel reads its input as it is when it is
    C-contiguous, else a C-contiguous copy of it."""
    ph, pw = kh // 2, kw // 2
    if ph == pw == 0:
        return np.ascontiguousarray(x)
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * ph, x.shape[2] + 2 * pw), x.dtype)
    xp[:, ph:ph + x.shape[1], pw:pw + x.shape[2]] = x
    return xp


# Byte budget for the float64 columns plus the float64 accumulator of one
# block of output rows.  Whole-map temporaries of conv_1 run to megabytes,
# which the allocator hands back to the system and faults in afresh on every
# frame; blocks this size are reused.  A layer whose weights outweigh its
# columns fits in one block, so its weights are packed for one GEMM only.
ROW_BLOCK_BYTES = 1024 * 1024


def row_blocks(parts, rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """Consecutive (h0, h1) row ranges merged while a block's float64 columns
    (the ones row included) and accumulator, row_bytes per output row (a
    pooled row's four phases over the width rounded up to even), fit
    ROW_BLOCK_BYTES; a range alone larger stays whole.  The parts must cover
    [0, rows) in order, once each: conv2d writes the blocks into an
    uninitialised map, so a gap would leave garbage rows."""
    blocks = []
    end = 0
    for h0, h1 in parts:
        if h0 != end or h1 <= h0:
            raise ValueError(f"row part {(h0, h1)}: expected a non-empty range from {end}")
        end = h1
        if blocks and (h1 - blocks[-1][0]) * row_bytes <= ROW_BLOCK_BYTES:
            h0 = blocks.pop()[0]
        blocks.append((h0, h1))
    if end != rows:
        raise ValueError(f"row parts end at {end}, not {rows}")
    return blocks


def _check_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    _check3(x)
    if x.shape[0] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[0]}, weights {w.shape[1]}")
    if b.shape != w.shape[:1]:
        raise ValueError(f"bias shape {b.shape}, expected {w.shape[:1]}")


def conv_block(xp: np.ndarray, r0: int, r1: int, wb: np.ndarray, kh: int, kw: int,
               stride: int, pool: bool, relu: bool, addend: np.ndarray | None,
               out: np.ndarray) -> None:
    """Q4.12 output rows over the stripe of rows [r0, r1) of the
    C-contiguous padded map xp, written into out, the int16
    (K_out, rows, cols) rows of the map: conv_acc with the packed weights,
    then the optional 2x2 max-pool over its four phase slabs, the scale by
    2**-12, saturation (ReLU when relu), and the optional saturating add of
    an int16 addend with the ReLU after it.  Both clips are the ndarray
    method, which skips np.clip's wrapper layers.  The floor is taken only
    where the last clip's lower bound is below 0; above it the cast's
    truncation is the floor."""
    acc = conv_acc(xp, r0, r1, wb, kh, kw, stride, pool)
    if pool:
        acc = acc.max(axis=(1, 2))
    acc *= 1 / fxp.SCALE
    low = 0 if relu else fxp.QMIN
    if addend is not None:
        acc.clip(low, fxp.QMAX, out=acc)
        acc += addend
        low = 0
    if low < 0:
        np.floor(acc, out=acc)
    acc.clip(low, fxp.QMAX, out=out, casting="unsafe")


def conv_accumulate(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                    stride: int) -> np.ndarray:
    """Exact int64 conv accumulator at scale 2**-24, same-zero padding, bias
    included: conv_acc's GEMM cast to int64."""
    _check_conv(x, w, b)
    xp = pad_same(x, *w.shape[2:])
    return conv_acc(xp, 0, xp.shape[1], pack_weights(w, b), *w.shape[2:], stride,
                    False).astype(np.int64)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
           fused_relu: bool = False, fused_pool: bool = False, parts=None,
           addend: np.ndarray | None = None) -> np.ndarray:
    """Q4.12 convolution, optionally fused with a 2x2 max-pool and a ReLU,
    renormalized once per output, and optionally followed by the saturating
    add of an int16 addend of the output's shape and a ReLU: a fused
    residual join is always followed by a ReLU, as tiler.node_kernels
    enforces.  conv_block computes the output in the row_blocks of parts,
    output row ranges that cover the output once each in order (one-row
    ranges by default), written into one int16 map; a block's convolution
    rows are its output rows, two per output row when pooled."""
    _check_conv(x, w, b)
    k_out, k_in, kh, kw = w.shape
    xp = pad_same(x, kh, kw)
    h_out, w_out = (xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    wb = pack_weights(w, b)
    pooled = 2 if fused_pool else 1          # convolution rows per output row
    rows, cols = -(-h_out // pooled), -(-w_out // pooled)
    out = np.empty((k_out, rows, cols), np.int16)
    if addend is not None and addend.shape != out.shape:
        raise ValueError(f"addend shape {addend.shape}, expected {out.shape}")
    if parts is None:
        parts = [(h, h + 1) for h in range(rows)]
    # a block's columns, the ones row included, and accumulator per output row
    for h0, h1 in row_blocks(parts, rows, 8 * (wb.shape[1] + k_out) * cols * pooled ** 2):
        c0, c1 = h0 * pooled, min(h1 * pooled, h_out)
        conv_block(xp, c0 * stride, (c1 - 1) * stride + kh, wb, kh, kw, stride, fused_pool,
                   fused_relu, None if addend is None else addend[:, h0:h1], out[:, h0:h1])
    return out


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2/s2 max-pool of an integer map; odd trailing rows/cols pool over
    what is in range."""
    _check3(x)
    k, h, w = x.shape
    if h % 2 or w % 2:
        padded = np.full((k, h + h % 2, w + w % 2), np.iinfo(x.dtype).min, x.dtype)
        padded[:, :h, :w] = x
        x = padded
    out = np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2])
    np.maximum(out, x[:, 1::2, 0::2], out=out)
    return np.maximum(out, x[:, 1::2, 1::2], out=out)


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
    raw.  It runs conv2d as a 1x1 convolution over the input viewed as
    (k, 1, 1), as both engines run the FC heads."""
    if x_flat.shape != w_flat.shape:
        raise ValueError(f"length mismatch: {x_flat.shape} vs {w_flat.shape}")
    k = len(x_flat)
    out = conv2d(x_flat.reshape(k, 1, 1), w_flat.reshape(1, k, 1, 1), np.array([b]), 1)
    return out[0, 0, 0]


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def check_frame(graph: net.NetworkGraph, image: np.ndarray) -> None:
    """Raise unless the graph has the two heads a result reads, steering
    then collision, each one value, and the image is its int16 input map."""
    if [graph.tensors[t] for t in graph.outputs] != [(1, 1, 1)] * 2:
        raise ValueError(f"graph outputs {graph.outputs}: a frame needs two heads, "
                         "steering and collision, of one value each")
    shape = graph.tensors[net.INPUT_TENSOR]
    if image.shape != shape or image.dtype != np.int16:
        raise ValueError(f"input must be int16 {shape}")


@dataclass
class InferResult:
    """One frame: the two heads' Q4.12 raws, and every activation by name,
    the input and the FC heads' (1, 1, 1) maps included."""
    raw_steering: int
    raw_collision: int
    tensors: dict[str, np.ndarray]

    @classmethod
    def from_tensors(cls, graph: net.NetworkGraph, tensors: dict[str, np.ndarray], *more):
        """The result whose raws are read from the maps of the graph's two
        outputs, in graph order; more fills the fields a subclass adds."""
        steering, collision = graph.outputs
        return cls(int(tensors[steering][0, 0, 0]), int(tensors[collision][0, 0, 0]),
                   tensors, *more)

    @property
    def steering(self) -> float:
        """The steering head dequantized."""
        return self.raw_steering / fxp.SCALE

    @property
    def collision_prob(self) -> float:
        """The collision logit through the sigmoid."""
        return sigmoid(self.raw_collision / fxp.SCALE)


def infer_untiled(graph: net.NetworkGraph, store: net.WeightStore,
                  image: np.ndarray) -> InferResult:
    """Run the graph in order, every layer's output kept under its name."""
    check_frame(graph, image)
    acts: dict[str, np.ndarray] = {net.INPUT_TENSOR: image}
    for spec in graph.layers:
        src = acts[spec.inputs[0]]
        if spec.kind in (net.CONV, net.FC):
            # an FC head runs as a 1x1 convolution over its input viewed as
            # (k_in, 1, 1); the view is a no-op for a convolution
            out = conv2d(src.reshape(spec.k_in, spec.h_in, spec.w_in), *store[spec.name],
                         spec.stride, spec.fused_relu, spec.fused_pool)
        elif spec.kind == net.RELU:
            out = relu(src)
        elif spec.kind == net.ADD:
            out = add(src, acts[spec.inputs[1]], spec.fused_relu)
        else:
            raise ValueError(f"unknown layer kind {spec.kind}")
        acts[spec.output] = out
    return InferResult.from_tensors(graph, acts)
