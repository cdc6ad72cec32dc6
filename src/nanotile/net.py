"""DroNet graph definition, MAC/parameter accounting, weight and image I/O.

The graph is the 18-row deployed network: a 5x5/s2 stem convolution with a
fused 2x2 max-pool, three residual blocks (two 3x3 convs on the main path,
a 1x1/s2 bypass, a join), and two single-output fully connected heads for
steering and collision logit.  Batch norm is assumed folded offline; dropout
is identity at inference.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import fxp

CONV = "conv"
FC = "fully-connected"
RELU = "relu"
ADD = "add"

INPUT_TENSOR = "input"
INPUT_SHAPE = (1, 200, 200)

# bound of every cache keyed on a graph (in tiler, l2plan, cost and
# executor); kept here, below all of them, so each reads it at import time
GRAPHS_CACHED = 32

_MAGIC = b"PDRN"
_VERSION = 1
_KIND_CODES = {CONV: 1, FC: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class WeightFileError(Exception):
    pass


class BadMagicError(WeightFileError):
    pass


class VersionMismatchError(WeightFileError):
    pass


class ShapeMismatchError(WeightFileError):
    pass


class TruncatedFileError(WeightFileError):
    pass


class ImageFormatError(Exception):
    pass


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    inputs: tuple[str, ...]          # tensor names consumed
    k_in: int = 0
    k_out: int = 0
    kh: int = 0
    kw: int = 0
    stride: int = 1
    h_in: int = 0
    w_in: int = 0
    fused_relu: bool = False
    fused_pool: bool = False         # 2x2/s2 max-pool folded into this conv
    # output extents after any fused pooling, derived when the row is built
    h_out: int = field(init=False)
    w_out: int = field(init=False)

    def __post_init__(self):
        pool = 2 if self.fused_pool else 1
        object.__setattr__(self, "h_out", _ceil_div(self.conv_h_out, pool))
        object.__setattr__(self, "w_out", _ceil_div(self.conv_w_out, pool))

    @property
    def output(self) -> str:
        return self.name

    @property
    def has_params(self) -> bool:
        return self.kind in (CONV, FC)

    @property
    def n_params(self) -> int:
        """Weights plus biases (meaningful for rows with has_params)."""
        return self.k_out * self.k_in * self.kh * self.kw + self.k_out

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.k_out, self.k_in, self.kh, self.kw)

    @property
    def conv_h_out(self) -> int:
        """Convolution output rows before any fused pooling."""
        return -(-self.h_in // self.stride)

    @property
    def conv_w_out(self) -> int:
        return -(-self.w_in // self.stride)

    @property
    def macs(self) -> int:
        if self.kind == CONV:
            return (self.k_in * self.k_out * self.kh * self.kw
                    * self.conv_h_out * self.conv_w_out)
        if self.kind == FC:
            return self.k_in * self.k_out
        return 0


@dataclass(frozen=True)
class NetworkGraph:
    """The rows, a tuple, and what derives from them once, when the graph is
    built.  Frozen and read-only, so a graph compares and hashes by its
    rows; the hash too is computed once, for the caches keyed on a graph."""

    layers: tuple[LayerSpec, ...]
    # (k, h, w) of every row's output, and of the input as its first reader
    # sees it, read-only
    tensors: Mapping[str, tuple[int, int, int]] = field(init=False, compare=False)
    # the tensors that no row reads, in graph order: the network's results
    outputs: tuple[str, ...] = field(init=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "_hash", hash((self.layers,)))
        tensors = {}
        for spec in self.layers:
            if INPUT_TENSOR in spec.inputs:
                tensors.setdefault(INPUT_TENSOR, (spec.k_in, spec.h_in, spec.w_in))
            tensors[spec.output] = (spec.k_out, spec.h_out, spec.w_out)
        object.__setattr__(self, "tensors", MappingProxyType(tensors))
        read = {t for spec in self.layers for t in spec.inputs}
        object.__setattr__(self, "outputs",
                           tuple(s.output for s in self.layers if s.output not in read))

    def __hash__(self) -> int:
        return self._hash

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def param_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.has_params]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _conv(name, src, k_in, k_out, kh, kw, stride, h_in, w_in,
          fused_relu=False, fused_pool=False) -> LayerSpec:
    return LayerSpec(name, CONV, (src,), k_in, k_out, kh, kw, stride,
                     h_in, w_in, fused_relu, fused_pool)


def build_dronet() -> NetworkGraph:
    """The fixed deployed graph: input 1x200x200 down to two scalar heads."""
    layers: list[LayerSpec] = []

    def ew(name, kind, inputs, shape, fused_relu=False):
        k, h, w = shape
        layers.append(LayerSpec(name, kind, inputs, k_in=k, k_out=k, h_in=h, w_in=w,
                                fused_relu=fused_relu))

    layers.append(_conv("conv_1", INPUT_TENSOR, 1, 32, 5, 5, 2, 200, 200,
                        fused_pool=True))                       # 32x50x50
    ew("relu_1", RELU, ("conv_1",), (32, 50, 50))

    def res_block(idx, src, k_in, k_out, h, relu_fused_join):
        a, b, byp = f"conv_{3*idx-1}", f"conv_{3*idx}", f"conv_{3*idx+1}"
        h2 = _ceil_div(h, 2)
        layers.append(_conv(a, src, k_in, k_out, 3, 3, 2, h, h, fused_relu=True))
        layers.append(_conv(b, a, k_out, k_out, 3, 3, 1, h2, h2))
        layers.append(_conv(byp, src, k_in, k_out, 1, 1, 2, h, h))
        join = f"add_{idx}"
        ew(join, ADD, (b, byp), (k_out, h2, h2), fused_relu=relu_fused_join)
        if not relu_fused_join:
            ew(f"relu_{idx + 1}", RELU, (join,), (k_out, h2, h2))
        return join if relu_fused_join else f"relu_{idx + 1}"

    x = res_block(1, "relu_1", 32, 32, 50, relu_fused_join=False)   # 32x25x25
    x = res_block(2, x, 32, 64, 25, relu_fused_join=False)          # 64x13x13
    x = res_block(3, x, 64, 128, 13, relu_fused_join=True)          # 128x7x7

    fan_in = 128 * 7 * 7
    for head in ("fully_1", "fully_2"):
        layers.append(LayerSpec(head, FC, (x,), k_in=fan_in, k_out=1,
                                kh=1, kw=1, h_in=1, w_in=1))

    graph = NetworkGraph(layers)
    _validate(graph)
    total = mac_count(graph)["conv_total"]
    if not (40_000_000 <= total <= 42_000_000):
        raise ValueError(f"conv MAC total {total} drifted out of [40M, 42M]")
    return graph


def _validate(graph: NetworkGraph) -> None:
    seen = {INPUT_TENSOR}
    for spec in graph.layers:
        for t in spec.inputs:
            if t not in seen:
                raise ValueError(f"{spec.name}: input {t} has no earlier producer")
        if spec.output in seen:
            raise ValueError(f"duplicate producer for {spec.output}")
        seen.add(spec.output)
        k, h, w = graph.tensors[spec.inputs[0]]
        reads = (k * h * w, 1, 1) if spec.kind == FC else (k, h, w)   # FC reads it flattened
        if (spec.k_in, spec.h_in, spec.w_in) != reads:
            raise ValueError(f"{spec.name}: declares input {(spec.k_in, spec.h_in, spec.w_in)}, "
                             f"but reads {spec.inputs[0]} as {reads}")
        if spec.kind == ADD:
            a, b = (graph.tensors[t] for t in spec.inputs)
            if a != b:
                raise ValueError(f"{spec.name}: join operands {a} vs {b}")
    longest = max(l.k_in * max(l.kh, 1) * max(l.kw, 1) for l in graph.param_layers())
    if longest > fxp.MAX_EXACT_DOT_LEN:
        raise ValueError("dot-product length breaks exact float64 accumulation")


def mac_count(graph: NetworkGraph) -> dict:
    """Per-layer MACs plus conv-only and overall totals."""
    per_layer = {l.name: l.macs for l in graph.layers}
    conv_total = sum(l.macs for l in graph.layers if l.kind == CONV)
    return {"per_layer": per_layer,
            "conv_total": conv_total,
            "total": sum(per_layer.values())}


def param_count(graph: NetworkGraph) -> dict:
    per_layer = {spec.name: spec.n_params for spec in graph.param_layers()}
    total = sum(per_layer.values())
    return {"per_layer": per_layer, "total": total,
            "bytes_2": 2 * total, "bytes_4": 4 * total}


class WeightStore:
    """Q4.12 weights [K_out][K_in][kh][kw] and biases [K_out] per param layer."""

    def __init__(self, tensors: dict[str, tuple[np.ndarray, np.ndarray]]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.tensors[name]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightStore):
            return NotImplemented
        if self.tensors.keys() != other.tensors.keys():
            return False
        return all(np.array_equal(self.tensors[k][0], other.tensors[k][0])
                   and np.array_equal(self.tensors[k][1], other.tensors[k][1])
                   for k in self.tensors)


def random_store(graph: NetworkGraph, seed: int, amplitude: float = 1.0) -> WeightStore:
    """Seeded pseudo-random weights, uniform in [-amplitude, amplitude] pre-quantization."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for spec in graph.param_layers():
        w = fxp.quantize_array(rng.uniform(-amplitude, amplitude, spec.weight_shape))
        b = fxp.quantize_array(rng.uniform(-amplitude, amplitude, (spec.k_out,)))
        tensors[spec.name] = (w, b)
    return WeightStore(tensors)


def zero_store(graph: NetworkGraph) -> WeightStore:
    return WeightStore({s.name: (np.zeros(s.weight_shape, np.int16),
                                 np.zeros((s.k_out,), np.int16))
                        for s in graph.param_layers()})


def save_weights(store: WeightStore, graph: NetworkGraph, path: str) -> None:
    """Little-endian PDRN container, one self-describing record per param layer."""
    buf = io.BytesIO()
    params = graph.param_layers()
    buf.write(_MAGIC)
    buf.write(struct.pack("<HH", _VERSION, len(params)))
    for spec in params:
        w, b = store[spec.name]
        if w.shape != spec.weight_shape or b.shape != (spec.k_out,):
            raise ShapeMismatchError(f"{spec.name}: store shape {w.shape} does not "
                                     f"match graph {spec.weight_shape}")
        buf.write(struct.pack("<BHHBBB", _KIND_CODES[spec.kind], spec.k_in,
                              spec.k_out, spec.kh, spec.kw, spec.stride))
        buf.write(w.astype("<i2").tobytes())
        buf.write(b.astype("<i2").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_weights(path: str, graph: NetworkGraph) -> WeightStore:
    with open(path, "rb") as f:
        data = f.read()
    view = memoryview(data)
    if data[:4] != _MAGIC:
        raise BadMagicError("bad magic")
    if len(data) < 8:
        raise TruncatedFileError("truncated file: header")
    version, n_layers = struct.unpack("<HH", view[4:8])
    if version != _VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    offset = 8
    records = []
    for i in range(n_layers):
        if offset + 8 > len(data):
            raise TruncatedFileError(f"truncated file: record {i} header")
        kind_code, k_in, k_out, kh, kw, stride = struct.unpack_from("<BHHBBB", view, offset)
        offset += 8
        if kind_code not in _KIND_NAMES:
            raise ShapeMismatchError(f"record {i}: unknown layer kind {kind_code}")
        n_w, n_b = k_out * k_in * kh * kw, k_out
        need = 2 * (n_w + n_b)
        if offset + need > len(data):
            raise TruncatedFileError(f"truncated file: record {i} tensor data")
        w = np.frombuffer(view, dtype="<i2", count=n_w, offset=offset)
        w = w.reshape(k_out, k_in, kh, kw).astype(np.int16)
        offset += 2 * n_w
        b = np.frombuffer(view, dtype="<i2", count=n_b, offset=offset).astype(np.int16)
        offset += 2 * n_b
        records.append((kind_code, k_in, k_out, kh, kw, stride, w, b))
    if offset != len(data):
        raise ShapeMismatchError(f"{len(data) - offset} trailing bytes after "
                                 f"the last of {n_layers} records")
    params = graph.param_layers()
    if len(params) != len(records):
        raise ShapeMismatchError(f"{len(records)} records for {len(params)} layers")
    tensors = {}
    for spec, rec in zip(params, records):
        kind_code, k_in, k_out, kh, kw, stride, w, b = rec
        expect = (_KIND_CODES[spec.kind], spec.k_in, spec.k_out,
                  spec.kh, spec.kw, spec.stride)
        if (kind_code, k_in, k_out, kh, kw, stride) != expect:
            raise ShapeMismatchError(f"{spec.name}: file record {rec[:6]} does "
                                     f"not match graph {expect}")
        tensors[spec.name] = (w, b)
    return WeightStore(tensors)


# Q4.12 value of each 8-bit pixel p, quantize_array(p / 255)
_PIXEL_Q = fxp.quantize_array(np.arange(256) / 255.0)


def load_image(path: str) -> np.ndarray:
    """8-bit grayscale PGM (P5) to a Q4.12 input tensor (1, 200, 200).

    Frames of another size are center-cropped square then nearest-neighbor
    resized, by row then by column; pixel p maps to quantize_array(p / 255),
    looked up in a 256-entry table, as only 256 pixel values exist.
    """
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("malformed PGM header")
        return data[start:pos]

    if token() != b"P5":
        raise ImageFormatError("malformed PGM header: not P5")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as e:
        raise ImageFormatError("malformed PGM header") from e
    if maxval != 255:
        raise ImageFormatError(f"wrong bit depth: maxval {maxval}, expected 255")
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"malformed PGM: {width}x{height} frame")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < width * height:
        raise ImageFormatError("malformed PGM: pixel data short")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    img = pixels.reshape(height, width)

    side = min(height, width)
    top, left = (height - side) // 2, (width - side) // 2
    img = img[top:top + side, left:left + side]
    target = INPUT_SHAPE[1]
    if side != target:
        idx = (np.arange(target) * side) // target
        img = img[idx][:, idx]
    return _PIXEL_Q[img][np.newaxis, :, :]


def graph_summary(graph: NetworkGraph, csv: bool = False) -> str:
    macs = mac_count(graph)["per_layer"]
    rows = []
    for spec in graph.layers:
        rows.append((spec.name, spec.kind,
                     f"{spec.k_in}x{spec.h_in}x{spec.w_in}",
                     f"{spec.k_out}x{spec.h_out}x{spec.w_out}",
                     f"{spec.kh}x{spec.kw}" if spec.kind == CONV else "-",
                     spec.stride, macs[spec.name]))
    if csv:
        lines = ["layer,kind,in,out,kernel,stride,macs"]
        lines += [",".join(str(c) for c in r) for r in rows]
        return "\n".join(lines)
    lines = [f"{'layer':<10} {'kind':<16} {'in':<12} {'out':<12} {'kernel':<7} "
             f"{'stride':<7} {'macs':>10}"]
    for r in rows:
        lines.append(f"{r[0]:<10} {r[1]:<16} {r[2]:<12} {r[3]:<12} {r[4]:<7} "
                     f"{r[5]:<7} {r[6]:>10}")
    lines.append(f"{'total conv MACs':<40} {mac_count(graph)['conv_total']:>21}")
    return "\n".join(lines)
