"""Tiling planner: search tile shapes per node kernel under the L1 budget.

Graph rows are grouped into node kernels (a body convolution plus fused
prologue/epilogue ops, a standalone elementwise op, or a fully connected
head).  Each node kernel is tiled in one of two schemes:

  spatial       output rows are cut into stripes (consecutive stripes share
                kernel-stride input rows), the full weight set stays resident
                in L1, and workers split the output width;
  feature-wise  full feature maps stay resident, the output channel range is
                cut into chunks (weights stream per chunk), the input channel
                range may also be cut, and workers split output channels.

When the input channel range is cut, 32-bit partial accumulators for the
current output tile stay resident between chunks: their 4-byte footprint is
charged to the budget and a single renormalization happens after the last
chunk, which is what keeps tiled execution bit-identical to the untiled
kernels.  W is never tiled.  Double buffering doubles any stream that moves
more than one tile.  Remainder tiles are allowed.

TilePlan.tiles() is the one tile geometry: rows, channel ranges, bytes per
stream, MACs and worker split of every tile, which the executor replays and
the transfer accounting sums.  _loads gives the sums the cycle model needs
in closed form, over ints for one plan or numpy arrays for a search grid.
Neither is kept on the plan: the executor replays a schedule once per
distinct value, and the cost model keeps its priced rows per calibration.

A candidate's footprint and cycles do not depend on the budget, so
frontier() scores each node's grids once per calibration and keeps the
footprints at which the best plan changes; plan_layer looks a budget up
there by one step rule.  Each step's TilePlan is built on first use and
kept with its step, so every budget on one step shares one frozen plan,
and with it the plan's cost rows.  The graph's design curve, built once per
graph and calibration, holds every node's frontier and the budgets at
which some node changes step, from the graph's edge up; plan_network is
one lookup there, and every budget between two such breaks shares one
plans tuple, built by the same step rule on first use.  plan_network
builds a TileSchedule with the graph's L2 plan, so a schedule is a whole
value when it is planned.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import cost, net
from .net import GRAPHS_CACHED, _ceil_div

if TYPE_CHECKING:
    from . import l2plan    # l2plan imports tiler

DEFAULT_L1_BUDGET = 60 * 1024   # 4 KB of the 64 KB scratchpad reserved for runtime
# bound of frontier's cache, which holds one entry per node kernel and
# calibration, with the step plans built from it
FRONTIERS_CACHED = 512
SPATIAL = "spatial"
FEATUREWISE = "feature-wise"
CORES = 8


class InfeasibleError(ValueError):
    pass


def _align4(n: int) -> int:
    return (n + 3) & ~3


def _chunks(total: int, size: int) -> list[tuple[int, int]]:
    return [(start, min(start + size, total)) for start in range(0, total, size)]


_NODE_KINDS = {net.CONV: "conv", net.RELU: "ew", net.FC: "fc"}


@dataclass(frozen=True)
class NodeKernel:
    """A tiling unit: one body op plus whatever the graph fuses around it.
    Everything but the rows is derived from them when the node is built,
    the hash too, so a frontier lookup or a replay key does not rehash the
    rows."""

    rows: tuple[net.LayerSpec, ...] # graph rows this node covers, in order
    name: str = field(init=False)
    kind: str = field(init=False)   # "conv" | "ew" | "fc"
    input: str = field(init=False)  # main input tensor
    output: str = field(init=False) # output tensor (the last fused row's name)
    addend: str | None = field(init=False)  # residual-join operand DMA'd per tile
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.rows))
        body = self.rows[0]
        join = next((r for r in self.rows if r.kind == net.ADD), None)
        suffix = "+add+relu" if join else "+pool" if body.fused_pool else ""
        for attr, value in (("name", body.name + suffix), ("kind", _NODE_KINDS[body.kind]),
                            ("input", body.inputs[0]), ("output", self.rows[-1].output),
                            ("addend", join.inputs[0] if join else None)):
            object.__setattr__(self, attr, value)

    def __hash__(self) -> int:
        return self._hash

    @property
    def body(self) -> net.LayerSpec:
        return self.rows[0]

    @property
    def fused_pool(self) -> bool:
        return self.body.fused_pool

    @property
    def fused_add(self) -> bool:
        return self.addend is not None

    # node output extents (after any fused pooling)
    @property
    def h_out(self) -> int:
        return self.body.h_out

    @property
    def w_out(self) -> int:
        return self.body.w_out


@functools.lru_cache(maxsize=GRAPHS_CACHED)
def node_kernels(graph: net.NetworkGraph) -> tuple[NodeKernel, ...]:
    """Group the graph rows into node kernels (DroNet's 18 rows into 13).

    A residual join and the ReLU that follows it ride as epilogue of the
    bypass convolution, the join's second operand; a ReLU that follows
    anything else is its own node.  Computed once per graph (frozen, so it
    keys the cache); the nodes are a tuple of frozen kernels.
    """
    rows = graph.layers
    nodes: list[NodeKernel] = []
    consumed = set()
    for spec in rows:
        if spec.name in consumed:
            continue
        if spec.kind == net.ADD:
            raise ValueError(f"{spec.name}: join without a bypass convolution")
        fused = [spec]
        join = next((r for r in rows if r.kind == net.ADD
                     and r.inputs[1:] == (spec.name,)), None)
        if spec.kind == net.CONV and join is not None:
            fused.append(join)
            if not join.fused_relu:
                relu_row = next((r for r in rows if r.kind == net.RELU
                                 and r.inputs == (join.name,)), None)
                if relu_row is None:
                    raise ValueError(f"{join.name}: join without a following ReLU")
                fused.append(relu_row)
        nodes.append(NodeKernel(tuple(fused)))
        consumed.update(r.name for r in fused)
    return tuple(nodes)


class BufferSpec(NamedTuple):
    bytes: int          # one copy, 4-byte aligned
    double: bool = False

    @property
    def total(self) -> int:
        return self.bytes * (2 if self.double else 1)


class Loads(NamedTuple):
    """What a plan costs, summed over its tiles: MAC work units (MACs over
    the worker efficiency, so idle cores count), fork/join sections and
    L2<->L1 DMA descriptors per stream.  Ints or numpy arrays over a grid."""

    work: object
    forks: object
    descriptors: Mapping[str, object]


@dataclass(frozen=True)
class Tile:
    """One tile of a plan, in the order the executor replays them.  A tile
    that closes its accumulation also carries the output write-back (and
    the addend) and the fork/join sections of its output tile.  Frozen, and
    its bytes a read-only copy, like the plan that makes it."""

    index: int
    rows: tuple[int, int]                 # node-output rows
    in_rows: tuple[int, int, int, int]    # input rows read: first, last+1, pad above, below
    ci: tuple[int, int]                   # input-channel range
    co: tuple[int, int]                   # output-channel range
    bytes: Mapping[str, int]              # L2<->L1 bytes per stream this tile moves, read-only
    macs: int
    workers: tuple[tuple[int, int], ...]  # per-core split of the parallel span
    forks: int                            # fork/join sections charged to this tile
    closes: bool                          # last input-channel chunk: renorm and write back

    def __post_init__(self):
        object.__setattr__(self, "bytes", MappingProxyType(dict(self.bytes)))

    @property
    def work(self) -> float:
        """MACs over the worker efficiency: cores the split leaves idle count."""
        span = self.workers[-1][1]
        return self.macs * _worker_slots(span) / span


@dataclass(frozen=True, slots=True)
class TilePlan:
    """One scheme's tile extents for a node.  The tile counts and the L1
    buffers follow from them, through the same _extents and _buffer_terms
    that score the search grid, so equality and hash leave them out; the
    hash is taken once, when the plan is built, so a replay lookup does not
    rehash the plans.  The footprint, the sum of the buffers' totals, is
    stored with them, so its readers (the replay's budget check and peak,
    the schedule summary) do not sum the buffers again.  Frozen, its
    buffers a read-only mapping of BufferSpec tuples and its tiles a tuple:
    a changed plan is a new plan, and a new key of the executor's replay
    cache and of the cost model's priced schedules.  plan_layer hands every
    budget on one frontier step the same plan.  It keeps no tiles and no
    loads: tiles() and loads() make them on each call for their one reader
    each, a replay miss and cost.plan_rows.  The one thing kept on it is
    cost.plan_rows's priced rows, for the last calibration priced, in a slot
    filled after the plan is built."""

    node: NodeKernel
    scheme: str
    h_tile: int         # node-output rows per stripe (spatial); full otherwise
    ci_tile: int
    co_tile: int
    est_cycles: float | None = None
    n_h: int = field(init=False, compare=False)
    n_ci: int = field(init=False, compare=False)
    n_co: int = field(init=False, compare=False)
    buffers: Mapping[str, BufferSpec] = field(init=False, compare=False)
    footprint: int = field(init=False, compare=False)   # L1 bytes, the buffers' totals
    # (calibration, row costs, descriptor count): cost.plan_rows keeps them
    # here for the last calibration it priced
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.node, self.scheme, self.h_tile,
                                                self.ci_tile, self.co_tile, self.est_cycles)))
        extents = _extents(self.node, self.scheme, self.h_tile, self.ci_tile, self.co_tile)
        for name, n in zip(("n_h", "n_ci", "n_co"), extents[3:]):
            object.__setattr__(self, name, n)
        object.__setattr__(self, "buffers", MappingProxyType({
            stream: BufferSpec(int(size), bool(double))
            for stream, size, double, present
            in _buffer_terms(self.node, self.scheme, *extents) if present}))
        object.__setattr__(self, "footprint", sum(b.total for b in self.buffers.values()))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_tiles(self) -> int:
        return self.n_h * self.n_ci * self.n_co

    # -- tile geometry ------------------------------------------------------

    def h_ranges(self) -> list[tuple[int, int]]:
        if self.scheme == SPATIAL:
            return _chunks(self.node.h_out, self.h_tile)
        return [(0, self.node.h_out)]

    def ci_ranges(self) -> list[tuple[int, int]]:
        return _chunks(self.node.body.k_in, self.ci_tile)

    def co_ranges(self) -> list[tuple[int, int]]:
        return _chunks(self.node.body.k_out, self.co_tile)

    def conv_rows(self, h0: int, h1: int) -> tuple[int, int]:
        """Node-output row range -> convolution-output row range."""
        if self.node.fused_pool:
            return 2 * h0, min(2 * h1, self.node.body.conv_h_out)
        return h0, h1

    def input_rows(self, h0: int, h1: int) -> tuple[int, int, int, int]:
        """Input rows a stripe reads: (first, last+1, pad_above, pad_below)."""
        body = self.node.body
        c0, c1 = self.conv_rows(h0, h1)
        pad = body.kh // 2
        lo = c0 * body.stride - pad
        hi = (c1 - 1) * body.stride + body.kh - pad
        pad_above = max(-lo, 0)
        pad_below = max(hi - body.h_in, 0)
        return max(lo, 0), min(hi, body.h_in), pad_above, pad_below

    def worker_ranges(self, span: int) -> list[tuple[int, int]]:
        return _chunks(span, _ceil_div(span, CORES))

    def tiles(self) -> tuple[Tile, ...]:
        """Every tile in execution order, made afresh on each call."""
        return tuple(self._make_tiles())

    def _make_tiles(self):
        """The tiles, as one exact computation of the node's output: every
        range comes from _chunks and lies inside the node's tensors, the
        rows partition the output rows, each row group covers every (input,
        output) channel pair once (an elementwise node every channel once)
        and its closing tiles every output channel once, and each conv or
        FC tile reads input_rows(*rows).  The tests pin this for every plan
        they build."""
        node, body = self.node, self.node.body
        if node.kind == "fc":
            cis = self.ci_ranges()
            for t, (c0, c1) in enumerate(cis):
                closes = t == len(cis) - 1
                moved = {"in": 2 * (c1 - c0),
                         "weights": 2 * (c1 - c0) + (2 * body.k_out if t == 0 else 0)}
                if closes:
                    moved["out"] = 2 * body.k_out
                yield Tile(t, (0, 1), self.input_rows(0, 1), (c0, c1), (0, body.k_out), moved,
                           c1 - c0, tuple(self.worker_ranges(c1 - c0)), 1, closes)
            return
        if node.kind == "ew":
            if self.scheme == SPATIAL:
                steps = [((h0, h1), (0, body.k_in)) for h0, h1 in self.h_ranges()]
            else:
                steps = [((0, body.h_in), ci) for ci in self.ci_ranges()]
            for t, ((h0, h1), (c0, c1)) in enumerate(steps):
                nbytes = 2 * (c1 - c0) * (h1 - h0) * body.w_in
                if self.scheme == SPATIAL:
                    workers, forks = self.worker_ranges(body.w_in), 1
                else:
                    workers, forks = self.worker_ranges(c1 - c0), _worker_forks(c1 - c0)
                yield Tile(t, (h0, h1), (h0, h1, 0, 0), (c0, c1), (c0, c1),
                           {"in": nbytes, "out": nbytes}, 0, tuple(workers), forks, True)
            return
        spatial = self.scheme == SPATIAL
        if spatial:
            steps = [(h, (0, body.k_out)) for h in self.h_ranges()]
        else:
            steps = [((0, node.h_out), co) for co in self.co_ranges()]
        cis = self.ci_ranges()
        t = 0
        for (h0, h1), (o0, o1) in steps:
            c0, c1 = self.conv_rows(h0, h1)
            in_rows = self.input_rows(h0, h1)
            if spatial:
                workers, forks = self.worker_ranges(node.w_out), 1
            else:
                workers, forks = self.worker_ranges(o1 - o0), _worker_forks(o1 - o0)
            for j, (i0, i1) in enumerate(cis):
                moved = {"weights": 2 * body.n_params} if spatial and t == 0 else {}
                moved["in"] = 2 * (i1 - i0) * (in_rows[1] - in_rows[0]) * body.w_in
                if not spatial:
                    moved["weights"] = 2 * ((o1 - o0) * (i1 - i0) * body.kh * body.kw
                                            + ((o1 - o0) if j == 0 else 0))
                closes = j == len(cis) - 1
                if closes:
                    out_bytes = 2 * (o1 - o0) * (h1 - h0) * node.w_out
                    if node.fused_add:
                        moved["addend"] = out_bytes
                    moved["out"] = out_bytes
                macs = (o1 - o0) * (i1 - i0) * body.kh * body.kw * (c1 - c0) * body.conv_w_out
                yield Tile(t, (h0, h1), in_rows, (i0, i1), (o0, o1), moved, macs,
                           tuple(workers), forks if closes else 0, closes)
                t += 1

    # -- accounting ---------------------------------------------------------

    def loads(self) -> Loads:
        """The cycle model's sums over tiles(), in closed form."""
        return _loads(self.node, self.scheme, self.h_tile, self.ci_tile, self.co_tile,
                      self.n_h, self.n_ci, self.n_co)

    def transfer_bytes(self) -> dict[str, int]:
        """Bytes per stream over the tiles."""
        totals: dict[str, int] = {}
        for tile in self._make_tiles():
            for stream, nbytes in tile.bytes.items():
                totals[stream] = totals.get(stream, 0) + nbytes
        return totals


def _extents(node: NodeKernel, scheme: str, h_tile, ci_tile, co_tile):
    """Tile extents and tile counts for one scheme.

    Returns (h_tile, ci_tile, co_tile, n_h, n_ci, n_co).  Extents are ints or
    broadcasting numpy arrays, so one formula serves a single plan and a
    whole search grid; only a conv node cuts its output channels.
    """
    body = node.body
    n_h = _ceil_div(node.h_out, h_tile) if scheme == SPATIAL else 1
    n_co = _ceil_div(body.k_out, co_tile) if node.kind == "conv" else 1
    return h_tile, ci_tile, co_tile, n_h, _ceil_div(body.k_in, ci_tile), n_co


def _buffer_terms(node: NodeKernel, scheme: str, h_tile, ci_tile, co_tile,
                  n_h, n_ci, n_co) -> list[tuple]:
    """L1 buffers as (stream, one-copy bytes, double-buffered, present) rows.

    Takes the output of _extents, so the same formulas size one plan and
    every plan of a search grid.
    """
    body = node.body
    if node.kind == "fc":
        db = n_ci > 1
        return [("in", _align4(2 * ci_tile), db, True),
                ("weights", _align4(2 * (ci_tile + 1)), db, True),
                ("acc", 4, False, True), ("out", 4, False, True)]
    if node.kind == "ew":
        if scheme == SPATIAL:
            return [("io", _align4(2 * body.k_in * h_tile * body.w_in), n_h > 1, True)]
        return [("io", _align4(2 * ci_tile * body.h_in * body.w_in), n_ci > 1, True)]
    w_padded = body.w_in + 2 * (body.kw // 2)
    if scheme == SPATIAL:
        conv_h = np.minimum(2 * h_tile if node.fused_pool else h_tile, body.conv_h_out)
        stripe_rows = (conv_h - 1) * body.stride + body.kh
        return [
            ("in", _align4(2 * ci_tile * stripe_rows * w_padded), n_h * n_ci > 1, True),
            ("weights", _align4(2 * body.n_params), False, True),
            ("out", _align4(2 * body.k_out * h_tile * node.w_out), n_h > 1, True),
            ("acc", _align4(4 * body.k_out * conv_h * body.conv_w_out), False, n_ci > 1),
            # conv rows for one channel staged before pooling
            ("pool", _align4(2 * conv_h * body.conv_w_out), False, node.fused_pool),
            ("addend", _align4(2 * body.k_out * h_tile * node.w_out), n_h > 1,
             node.fused_add),
        ]
    h_padded = body.h_in + 2 * (body.kh // 2)
    return [
        ("in", _align4(2 * ci_tile * h_padded * w_padded), n_ci * n_co > 1, True),
        ("weights", _align4(2 * (co_tile * ci_tile * body.kh * body.kw + co_tile)),
         n_ci * n_co > 1, True),
        ("out", _align4(2 * co_tile * node.h_out * node.w_out), n_co > 1, True),
        ("acc", _align4(4 * co_tile * body.conv_h_out * body.conv_w_out), False, n_ci > 1),
        ("pool", _align4(2 * body.conv_h_out * body.conv_w_out), False, node.fused_pool),
        ("addend", _align4(2 * co_tile * node.h_out * node.w_out), n_co > 1,
         node.fused_add),
    ]


def _grid_axes(node: NodeKernel, scheme: str):
    """The candidate (h_tile, ci_tile, co_tile) extents of one scheme, as
    broadcasting arrays whose row-major order is the search order; None
    when the scheme does not apply to the node kind."""
    body = node.body
    if node.kind == "conv":
        ci = np.arange(1, body.k_in + 1)[None, :]
        if scheme == SPATIAL:
            return np.arange(1, node.h_out + 1)[:, None], ci, body.k_out
        return node.h_out, ci, np.arange(1, body.k_out + 1)[:, None]
    if node.kind == "ew":
        if scheme == SPATIAL:
            return np.arange(1, body.h_in + 1), body.k_in, body.k_in
        ci = np.arange(1, body.k_in + 1)
        return body.h_in, ci, ci
    if scheme == FEATUREWISE:
        return 1, np.arange(1, body.k_in + 1), 1
    return None


def _grid(node: NodeKernel, scheme: str):
    """One scheme's search grid: the _extents of _grid_axes, still
    broadcasting, each point's L1 footprint and the pool mask, both over the
    whole grid.  A point is feasible under a budget when its footprint fits
    it and the pool mask holds: a pooled epilogue needs a single-pass
    accumulation (n_ci == 1), whatever the budget.  None when the scheme
    does not apply to the node kind."""
    axes = _grid_axes(node, scheme)
    if axes is None:
        return None
    extents = _extents(node, scheme, *axes)
    footprint = sum(np.where(present, size * (1 + double), 0)
                    for _, size, double, present in _buffer_terms(node, scheme, *extents))
    shape = np.broadcast_shapes(*(np.shape(a) for a in axes), np.shape(footprint))
    poolable = extents[4] == 1 if node.fused_pool else True
    return (extents, np.broadcast_to(footprint, shape),
            np.broadcast_to(poolable, shape))


def _chunk_sum(total: int, size, f):
    """Sum of f(chunk length) over _chunks(total, size), size an int or array."""
    n = _ceil_div(total, size)
    return (n - 1) * f(size) + f(total - (n - 1) * size)


def _worker_slots(span):
    """The span padded to a whole core count: a tile's work is its MACs
    scaled by slots / span."""
    return CORES * _ceil_div(span, CORES)


def _worker_forks(span):
    return _ceil_div(span, CORES)


def _loads(node: NodeKernel, scheme: str, h_tile, ci_tile, co_tile,
           n_h, n_ci, n_co) -> Loads:
    """The sums of Tile.work, Tile.forks and per-stream descriptors over
    TilePlan.tiles(), in closed form.

    Takes the output of _extents.  Channel chunks cost by length alone, and
    spatial stripes partition the convolution rows under one worker split,
    so no sum needs the tiles themselves.
    """
    body = node.body
    if node.kind == "fc":
        return Loads(_chunk_sum(body.k_in, ci_tile, _worker_slots), n_ci,
                     {"in": n_ci, "weights": n_ci, "out": 1})
    if node.kind == "ew":
        if scheme == SPATIAL:
            return Loads(0, n_h, {"in": n_h, "out": n_h})
        return Loads(0, _chunk_sum(body.k_in, ci_tile, _worker_forks),
                     {"in": n_ci, "out": n_ci})
    window = body.k_in * body.kh * body.kw * body.conv_h_out * body.conv_w_out
    if scheme == SPATIAL:
        work = body.k_out * window * _worker_slots(node.w_out) / node.w_out
        forks = n_h
    else:
        work = window * _chunk_sum(body.k_out, co_tile, _worker_slots)
        forks = _chunk_sum(body.k_out, co_tile, _worker_forks)
    descriptors = {"in": n_h * n_ci * n_co,
                   "weights": 1 if scheme == SPATIAL else n_ci * n_co,
                   "out": n_h * n_co}
    if node.fused_add:
        descriptors["addend"] = n_h * n_co
    return Loads(work, forks, descriptors)


class Step(NamedTuple):
    """A frontier step: from this footprint up to the next step's, the
    node's best plan is this one."""

    footprint: int
    scheme: str
    h_tile: int
    ci_tile: int
    co_tile: int
    cycles: float


def _front(footprint, cycles, n_tiles, h_tile):
    """Indices of the points at which the best point changes, in ascending
    footprint.  Best is least (cycles, n_tiles, -h_tile), then least index.

    A point that is best at its footprint has the least cycles of the points
    that fit there, so only those are ranked.  lexsort is stable, so ties
    keep the points' order, and the lowest rank leads each run of equal
    footprints, so each step's footprint is new.
    """
    order = np.argsort(footprint, kind="stable")
    lead = np.sort(order[cycles[order] == np.minimum.accumulate(cycles[order])])
    n = len(lead)
    rank = np.empty(n, np.intp)
    rank[np.lexsort((-h_tile[lead], n_tiles[lead], cycles[lead]))] = np.arange(n)
    order = np.lexsort((rank, footprint[lead]))
    best = np.minimum.accumulate(rank[order])
    return lead[order[np.flatnonzero(np.diff(best, prepend=n))]]


class Frontier(tuple):
    """A node's Steps in ascending footprint, a tuple, with each step's
    TilePlan built on first use and kept here: every budget on a step gets
    the same frozen plan, and the plans live as long as their frontier.
    The steps' footprints are kept as a tuple too, the key that a budget is
    bisected on."""

    def __init__(self, steps):
        self.footprints = tuple(step.footprint for step in self)
        self._plans: list[TilePlan | None] = [None] * len(self)

    def plan(self, node: NodeKernel, i: int) -> TilePlan:
        """Step i's plan for the node, its est_cycles the step's cycles."""
        if self._plans[i] is None:
            self._plans[i] = TilePlan(node, *self[i][1:])
        return self._plans[i]


@functools.lru_cache(maxsize=FRONTIERS_CACHED)
def frontier(node: NodeKernel, calib) -> Frontier:
    """Every budget's best plan of a node, as the steps at which it changes.

    A candidate's cycles do not depend on the budget; only the mask
    footprint <= budget does.  So each scheme's grid is scored once, as
    numpy arrays (cost.node_cycles of _loads, the formula a TilePlan's
    cycles use), and reduced to its steps; the two schemes' steps, spatial
    first, are reduced again to the node's.  Cached per node kernel and
    calibration, both frozen, in a bounded cache, which also bounds the step
    plans the frontier keeps; the steps are immutable.
    """
    columns = []
    for scheme in (SPATIAL, FEATUREWISE):
        grid = _grid(node, scheme)
        if grid is None:
            continue
        extents, footprint, poolable = grid
        h, ci, co, n_h, n_ci, n_co = extents
        cycles = cost.node_cycles(node, _loads(node, scheme, *extents), calib)
        col = [np.broadcast_to(a, poolable.shape)[poolable]
               for a in (footprint, cycles, n_h * n_ci * n_co, h, ci, co)]
        keep = _front(*col[:4])
        columns.append([np.full(len(keep), scheme)] + [a[keep] for a in col])
    schemes, footprint, cycles, n_tiles, h, ci, co = (np.concatenate(c) for c in zip(*columns))
    keep = _front(footprint, cycles, n_tiles, h)
    return Frontier(map(Step, *(a[keep].tolist() for a in (footprint, schemes, h, ci, co, cycles))))


def plan_layer(node: NodeKernel, l1_budget: int = DEFAULT_L1_BUDGET,
               calib=None) -> TilePlan:
    """Min-cost feasible plan, equal to sorting every feasible point of both
    schemes' grids by (est_cycles, n_tiles, -h_tile, spatial first) with a
    stable sort.  Past that key the grid order decides: spatial before
    feature-wise, then h_tile or co_tile ascending, then ci_tile ascending,
    so among otherwise equal plans the smallest ci_tile wins.

    The budget is looked up in frontier(node, calib) by _step_plan, the one
    step rule that plan_network shares.  (DORY, Burrello et al. 2021, casts
    the same search as a small constrained optimisation.)
    """
    return _step_plan(node, frontier(node, calib or cost.DEFAULT_CALIB), l1_budget)


def _step_plan(node: NodeKernel, steps: Frontier, l1_budget: int) -> TilePlan:
    """The plan of the last step whose footprint fits the budget, the
    step's TilePlan, whose est_cycles is the step's cycles.  Every budget on
    one step gets the same frozen plan, built on its first lookup.  Below
    the first step nothing fits, and InfeasibleError names the schemes that
    apply."""
    i = bisect_right(steps.footprints, l1_budget)
    if i == 0:
        schemes = [s for s in (SPATIAL, FEATUREWISE) if _grid_axes(node, s) is not None]
        raise InfeasibleError(f"{node.name}: infeasible under {l1_budget} byte budget "
                              f"({', '.join(schemes)})")
    return steps.plan(node, i - 1)


@dataclass
class TileSchedule:
    """A network's tile plans under one L1 budget, with its L2 plan: the
    values the executor replays, and nothing else.  plans is a tuple of one
    plan per node, in the order of node_kernels(graph), stored as a tuple
    when it is given as another sequence; the executor checks that order
    once, when it compiles the schedule, and each frame runs it as it
    stands.  Equal schedules share one replay
    (executor.compile_schedule)."""

    graph: net.NetworkGraph
    l1_budget: int
    plans: tuple[TilePlan, ...]
    l2: l2plan.L2AllocPlan

    def __post_init__(self):
        self.plans = tuple(self.plans)

    def plan_for(self, node_name: str) -> TilePlan:
        return {p.node.name: p for p in self.plans}[node_name]


class DesignCurve:
    """A graph's L1 design curve under one calibration: each node with its
    frontier, and the budgets at which the network's schedule changes.
    breaks are the distinct step footprints from the graph's edge up, the
    edge being the largest first step, the least budget every node fits.
    Between two breaks no node changes step, so each interval's plans
    tuple is built on first use, from its break by the one step rule, and
    kept here: every budget on an interval gets the same frozen tuple."""

    def __init__(self, frontiers: tuple[tuple[NodeKernel, Frontier], ...]):
        self.frontiers = frontiers
        edge = max(steps.footprints[0] for _, steps in frontiers)
        self.breaks = tuple(sorted({f for _, steps in frontiers
                                    for f in steps.footprints if f >= edge}))
        self._plans: list[tuple[TilePlan, ...] | None] = [None] * len(self.breaks)

    def _step_plans(self, l1_budget: int) -> tuple[TilePlan, ...]:
        return tuple(_step_plan(node, steps, l1_budget) for node, steps in self.frontiers)

    def plans(self, l1_budget: int) -> tuple[TilePlan, ...]:
        """Every node's plan under the budget, in node order.  Below the
        edge the nodes are looked up one by one, so the first node that
        does not fit raises its InfeasibleError."""
        i = bisect_right(self.breaks, l1_budget) - 1
        if i < 0:
            return self._step_plans(l1_budget)
        if self._plans[i] is None:
            self._plans[i] = self._step_plans(self.breaks[i])
        return self._plans[i]


@functools.lru_cache(maxsize=GRAPHS_CACHED)
def design_curve(graph: net.NetworkGraph, calib) -> DesignCurve:
    """The graph's design curve under calib, built once per graph and
    calibration, both frozen, in a bounded cache; the frontiers, and the
    plans built from them, live as long as their entry here or in
    frontier's cache."""
    return DesignCurve(tuple((node, frontier(node, calib)) for node in node_kernels(graph)))


def plan_network(graph: net.NetworkGraph, l1_budget: int = DEFAULT_L1_BUDGET,
                 calib=None) -> TileSchedule:
    """Every node's plan_layer, read off the graph's design curve, and the
    graph's two-stack L2 plan, which is computed once per graph; a graph
    too large for its search raises here."""
    from . import l2plan    # l2plan imports tiler
    plans = design_curve(graph, calib or cost.DEFAULT_CALIB).plans(l1_budget)
    return TileSchedule(graph, l1_budget, plans, l2plan.plan_two_stack(graph))


def schedule_summary(schedule: TileSchedule, csv: bool = False) -> str:
    header = ("node", "scheme", "h_tile", "ci", "co", "tiles",
              "l1_bytes", "xfer_bytes", "est_cycles")
    rows = []
    for p in schedule.plans:
        rows.append((p.node.name, p.scheme, p.h_tile, p.ci_tile, p.co_tile,
                     p.n_tiles, p.footprint, sum(p.transfer_bytes().values()),
                     int(p.est_cycles or 0)))
    if csv:
        return "\n".join([",".join(header)] +
                         [",".join(str(c) for c in r) for r in rows])
    fmt = "{:<16} {:<13} {:>6} {:>4} {:>4} {:>6} {:>9} {:>10} {:>11}"
    return "\n".join([fmt.format(*header)] + [fmt.format(*r) for r in rows])
