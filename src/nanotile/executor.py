"""Tiled execution of a planned schedule, with its L1/L2/L3 traffic as DMA events.

The executor replays a TileSchedule and nothing else.  Memory traffic does
not depend on the data, so compile_schedule builds it once per schedule
value (its graph, L1 budget, L2 plan and tile plans) and caches the frozen
result, a MemSim, on that value, not on the schedule object.  Nothing is
allocated at run time: the trace is written straight from the plans, one
per node in the graph's node order, which the replay checks once.  L2
buffers, weights included, come and go as the schedule's allocation plan
says (two-stack, as plan_network builds it): at each step the step's
allocations land, the layer's weights are staged from L3, the node runs,
and the step's releases follow.  Each node holds its plan's L1 buffers
while it replays TilePlan.tiles() in order as logged DMA transfers and
compute events: every byte count, MAC count, row and channel range, stripe
padding and worker split comes from those tile records.  The budgets are
checked where they are known, on the plans: each node's footprint against
the schedule's L1 budget, the L2 plan by l2plan.validate_plan (whose
verdict is computed once per plan and graph value, so a replay miss for a
plan already checked reuses it) and its peak against L2_BYTES.
Tile geometry drives the trace and the cost.  TilePlan.tiles() makes it,
read-only, on a replay miss, and the executor reads it without checking it
again.
Host blocks drive the arithmetic.  Each frame runs every conv node, its
fused residual add and ReLU included, and each FC head as one call of the
conv loop the untiled engine runs too, kernels.conv2d, with the plan's row
ranges for its parts, so outputs are bit-identical to the untiled engine.
The FC heads run as 1x1 convolutions over their input viewed as
(k_in, 1, 1).  The target keeps 32-bit partial sums in L1 across
input-channel chunks; the host sums each block whole, and the chunks live
on in the trace and the cost.  A host block's GEMM returns the biased
integer accumulator the target's int32 register holds, in float64, exact by
the dot-length bound, while the budget charges the 4-byte accumulator the
target hardware would hold.
An elementwise (ReLU) node writes a fresh array, so ExecResult.tensors
holds every tensor's own map, although the L2 plan runs it in place.
A TraceLog is frozen when it is built, and encodes its events as
integer-coded columns then (TraceLog.columns); audit_trace replays those
columns on every frame with numpy reductions, so no frame walks the events
one by one.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import kernels, l2plan, net, tiler

TAG_L3_L2 = "L3->L2"
TAG_L2_L1 = "L2->L1"
TAG_L1_L2 = "L1->L2"


class MemSimError(RuntimeError):
    pass


class Event(NamedTuple):
    kind: str            # "alloc" | "free" | "xfer" | "compute"
    region: str          # L1/L2 for alloc/free, tag for xfer, "" for compute
    node: str
    tile: int
    name: str            # buffer or stream name
    bytes: int
    macs: int = 0
    workers: tuple = ()
    overlap: bool = False


class TraceColumns(NamedTuple):
    """A trace as integer-coded numpy columns, one row per event: each code
    indexes its vocabulary, which lists the values in order of first use."""
    kind: np.ndarray      # int32 codes into kinds
    region: np.ndarray    # int32 codes into regions: L1/L2/L3, a transfer tag, or ""
    node: np.ndarray      # int32 codes into nodes
    name: np.ndarray      # int32 codes into names: a buffer or a stream
    bytes: np.ndarray     # int64
    kinds: tuple[str, ...]
    regions: tuple[str, ...]
    nodes: tuple[str, ...]
    names: tuple[str, ...]


def _encode(values, n: int) -> tuple[np.ndarray, tuple]:
    """The values' codes, and their vocabulary in order of first use."""
    vocab: defaultdict = defaultdict()
    vocab.default_factory = vocab.__len__     # a new value's code is the vocabulary's size
    codes = np.fromiter(map(vocab.__getitem__, values), np.int32, n)
    return codes, tuple(vocab)


def _encode_trace(events) -> TraceColumns:
    n = len(events)
    (kind, kinds), (region, regions), (node, nodes), (name, names) = (
        _encode(map(attrgetter(f), events), n) for f in ("kind", "region", "node", "name"))
    return TraceColumns(kind, region, node, name,
                        np.fromiter(map(attrgetter("bytes"), events), np.int64, n),
                        kinds, regions, nodes, names)


class TraceLog:
    """A frozen event trace: the events as a tuple, and their columns,
    encoded once, here.  An edited trace is a new TraceLog."""

    def __init__(self, events):
        self.events: tuple[Event, ...] = tuple(events)
        self.columns = _encode_trace(self.events)

    def to_csv(self) -> str:
        lines = ["kind,region,node,tile,name,bytes,macs,workers,overlap"]
        for e in self.events:
            w = ";".join(f"{a}-{b}" for a, b in e.workers)
            lines.append(f"{e.kind},{e.region},{e.node},{e.tile},{e.name},"
                         f"{e.bytes},{e.macs},{w},{int(e.overlap)}")
        return "\n".join(lines)


class MemSim(NamedTuple):
    """A compiled schedule's memory replay, a read-only value: its frozen
    trace, and the peak bytes its plans hold in L1 and L2."""
    trace: TraceLog
    peak: Mapping[str, int]     # "L1" and "L2", read-only


@dataclass
class ExecResult(kernels.InferResult):
    """A tiled frame: the untiled engine's result fields, and the compiled
    schedule's memory replay."""
    memsim: MemSim

    @property
    def trace(self) -> TraceLog:
        return self.memsim.trace


def compile_schedule(schedule: tiler.TileSchedule) -> MemSim:
    """The schedule's memory replay, a read-only MemSim: _replay of its
    graph, L1 budget, L2 plan and tile plans, as they stand, a pure
    function of those values.  It reads the schedule and changes nothing on
    it; equal schedules share one replay, and an edited budget, L2 plan or
    plans tuple is a new key.  The plans are keyed as a tuple, which a
    plans tuple already is, so a plans list assigned after construction
    replays too.  Plans out of the graph's node order, or a plan that
    breaks a budget or the L2 plan's own check, raise MemSimError before
    any frame runs."""
    return _replay(schedule.graph, schedule.l1_budget, schedule.l2, tuple(schedule.plans))


@functools.lru_cache(maxsize=net.GRAPHS_CACHED)
def _replay(graph: net.NetworkGraph, l1_budget: int, l2_plan: l2plan.L2AllocPlan,
            plans: tuple[tiler.TilePlan, ...]) -> MemSim:
    """The trace of every plan's tiles under the L2 plan, built straight
    from the plans, and the peaks those plans hold.  Before any event is
    built, the plans' nodes are checked to be the graph's nodes in order,
    one plan each, and the budgets are checked where they are known: a
    node's footprint against the L1 budget (each node allocates exactly its
    plan's buffers, then frees them), the L2 plan by l2plan.validate_plan,
    and its peak against L2_BYTES, which validate_plan leaves to two-stack
    plans.  validate_plan keeps its verdict per (plan, graph) value, so a
    miss here for a new budget or new tile plans under an L2 plan already
    checked replays none of its events.  A failed check raises MemSimError,
    and a failed replay caches nothing.  Cached on the values, all frozen,
    in a bounded cache."""
    life = l2plan._lifetimes(graph)
    if tuple(p.node for p in plans) != life.nodes:
        raise MemSimError(f"plans run nodes {tuple(p.node.name for p in plans)}, "
                          f"the graph's nodes are {tuple(n.name for n in life.nodes)}")
    for plan in plans:
        if plan.footprint > l1_budget:
            raise MemSimError(f"L1 capacity exceeded: {plan.node.name} holds "
                              f"{plan.footprint} > {l1_budget}")
    violations = l2plan.validate_plan(l2_plan, graph)
    if violations:
        raise MemSimError(f"L2 plan: {violations[0]}")
    if l2_plan.peak_bytes > l2plan.L2_BYTES:
        raise MemSimError(f"L2 capacity exceeded: {l2_plan.peak_bytes} > {l2plan.L2_BYTES}")
    l2_events: dict[tuple[int, str], list[l2plan.AllocEvent]] = {}
    for ev in l2_plan.events:
        l2_events.setdefault((ev.step, ev.action), []).append(ev)
    events: list[Event] = []

    def l2_step(step: int, node_name: str, action: str):
        """One step's allocations or its releases, from the L2 plan."""
        events.extend(Event(action, "L2", node_name, -1, ev.buffer, ev.bytes)
                      for ev in l2_events.get((step, action), ()))

    # frame ingress: the camera path lands the image in L2 over the uDMA
    l2_step(-1, "frame", "alloc")
    events.append(Event("xfer", TAG_L3_L2, "frame", -1, "frame",
                        2 * math.prod(graph.tensors[net.INPUT_TENSOR]), overlap=True))
    for i, (node, plan) in enumerate(zip(life.nodes, plans)):
        name = node.name
        l2_step(i, name, "alloc")
        if node.kind != "ew":
            events.append(Event("xfer", TAG_L3_L2, name, -1, "weights", 2 * node.body.n_params))
        # the plan's L1 working set is held for the whole node; an
        # elementwise node streams in and out through one "io" buffer
        l1 = [(f"{name}:{b}", spec.total) for b, spec in plan.buffers.items()]
        events.extend(Event("alloc", "L1", name, -1, b, n) for b, n in l1)
        for t in plan.tiles():
            for stream, nbytes in t.bytes.items():
                if stream in ("in", "weights"):
                    # a double-buffered stream hides every fill after the
                    # first behind compute
                    double = plan.buffers["io" if node.kind == "ew" else stream].double
                    events.append(Event("xfer", TAG_L2_L1, name, t.index, stream, nbytes,
                                        overlap=double and t.index > 0))
            events.append(Event("compute", "", name, t.index, "", 0, t.macs, t.workers))
            if "addend" in t.bytes:
                events.append(Event("xfer", TAG_L2_L1, name, t.index, "addend", t.bytes["addend"]))
            if "out" in t.bytes:
                events.append(Event("xfer", TAG_L1_L2, name, t.index, "out", t.bytes["out"]))
        events.extend(Event("free", "L1", name, -1, b, n) for b, n in l1)
        l2_step(i, name, "free")
    l2_step(len(life.nodes), "end", "free")
    peak_l1 = max((plan.footprint for plan in plans), default=0)
    return MemSim(TraceLog(events), MappingProxyType({"L1": peak_l1, "L2": l2_plan.peak_bytes}))


def execute_schedule(schedule: tiler.TileSchedule, store: net.WeightStore,
                     image: np.ndarray) -> ExecResult:
    """One frame: the compiled schedule's trace, and its arithmetic run
    node by node in the schedule's node order, which the replay checks."""
    kernels.check_frame(schedule.graph, image)
    ms = compile_schedule(schedule)
    # activations by tensor name, each its own array, as in infer_untiled
    acts = {net.INPUT_TENSOR: image}
    for plan in schedule.plans:
        node, body = plan.node, plan.node.body
        if node.kind == "ew":
            # the tiles partition the map, so one ReLU over it is the
            # tiles' work
            acts[node.output] = kernels.relu(acts[node.input])
            continue
        # the view is (k_in, 1, 1) for an FC head, a no-op for a convolution
        x = acts[node.input].reshape(body.k_in, body.h_in, body.w_in)
        addend = None if node.addend is None else acts[node.addend]
        acts[node.output] = kernels.conv2d(x, *store[body.name], body.stride, body.fused_relu,
                                           node.fused_pool, plan.h_ranges(), addend)
    return ExecResult.from_tensors(schedule.graph, acts, ms)


def first_difference(res: ExecResult, ref: kernels.InferResult):
    """The first tensor, in graph order, on which a frame's tiled result and
    the untiled one differ, as (name, differing elements, elements), or None."""
    for name, expect in ref.tensors.items():
        got = res.tensors.get(name)
        if got is None:
            continue
        n = expect.size if got.shape != expect.shape else int(np.count_nonzero(got != expect))
        if n:
            return name, n, expect.size
    return None


@dataclass
class AuditReport:
    peak_l1: int
    peak_l2: int
    tag_stream_bytes: dict[tuple[str, str], int]    # by (tag, stream), first appearance first
    node_stream: dict[tuple[str, str], tuple[int, int]]  # L2<->L1 (count, bytes)
    n_events: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def tag_bytes(self) -> dict[str, int]:
        """Bytes by transfer tag, in order of first appearance: a tag's
        first (tag, stream) pair is its first event."""
        totals: dict[str, int] = {}
        for (tag, _), nbytes in self.tag_stream_bytes.items():
            totals[tag] = totals.get(tag, 0) + nbytes
        return totals


def _code(vocab: tuple, value) -> int:
    """The value's code in vocab, or -1, which no event carries."""
    return vocab.index(value) if value in vocab else -1


def _totals(keys: np.ndarray, nbytes: np.ndarray):
    """Distinct keys, which are small codes, in order of first appearance,
    with each key's event count and int64 byte sum."""
    size = int(keys.max()) + 1 if len(keys) else 0
    counts = np.bincount(keys, minlength=size)
    sums = np.zeros(size, np.int64)
    np.add.at(sums, keys, nbytes)
    first = np.full(size, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    present = np.flatnonzero(counts)
    present = present[np.argsort(first[present])]
    return present.tolist(), counts[present].tolist(), sums[present].tolist()


def audit_trace(trace: TraceLog, memsim: MemSim | None = None) -> AuditReport:
    """Independent replay of the event log: recomputes peaks and byte totals
    from the events alone.  It works on the trace's columns and recomputes
    everything on every call.  Given the MemSim, it also compares the
    trace's peaks with the ones the plans hold.

    Allocs and frees are paired per (region, buffer) by a stable sort: an
    alloc that follows an alloc of its buffer is a double alloc, and a free
    that follows no alloc frees a dead buffer and counts for nothing.  A free
    takes back the bytes of the alloc it closes, and one whose own bytes
    differ from them is a violation.  Each region's peak is the largest
    running sum of its allocs and frees, in event order.  An alloc or free
    outside L1, L2 and L3 raises ValueError."""
    c = trace.columns
    alloc, free, xfer = (_code(c.kinds, k) for k in ("alloc", "free", "xfer"))
    n_names = np.int64(max(len(c.names), 1))   # pair keys, code * n_names + code, in int64

    mem = np.flatnonzero((c.kind == alloc) | (c.kind == free))
    mem_region = c.region[mem]
    known = [_code(c.regions, r) for r in ("L1", "L2", "L3")]
    stray = mem[(mem_region != known[0]) & (mem_region != known[1]) & (mem_region != known[2])]
    if len(stray):
        i = stray[0]
        raise ValueError(f"event {i}: {c.kinds[c.kind[i]]} of {c.names[c.name[i]]!r} "
                         f"in unknown region {c.regions[c.region[i]]!r}")
    key = mem_region * n_names + c.name[mem]
    order = np.argsort(key, kind="stable")
    ev, key = mem[order], key[order]         # by (region, buffer), then in event order
    is_alloc = c.kind[ev] == alloc
    after_alloc = np.zeros(len(ev), bool)    # the buffer's previous event is an alloc
    after_alloc[1:] = (key[1:] == key[:-1]) & is_alloc[:-1]
    delta = np.zeros(len(c.kind), np.int64)
    delta[ev[is_alloc]] = c.bytes[ev[is_alloc]]
    closes = np.flatnonzero(~is_alloc & after_alloc)
    took = c.bytes[ev[closes - 1]]           # by the alloc each free closes
    delta[ev[closes]] = -took
    differs = c.bytes[ev[closes]] != took
    # messages need the alloc's bytes, but only for the frees that differ
    took_by_free = dict(zip(ev[closes[differs]].tolist(), took[differs].tolist()))
    bad = np.sort(np.concatenate([ev[is_alloc & after_alloc], ev[~is_alloc & ~after_alloc],
                                  ev[closes[differs]]]))
    violations = []
    for i in bad.tolist():
        key = (c.regions[c.region[i]], c.names[c.name[i]])
        if i in took_by_free:
            violations.append(f"free of {key} gives back {c.bytes[i]} bytes, "
                              f"its alloc took {took_by_free[i]}")
        else:
            violations.append(f"{'double alloc' if c.kind[i] == alloc else 'free of dead'} {key}")
    peak = {}
    for region in ("L1", "L2"):
        in_region = c.region == _code(c.regions, region)
        used = np.cumsum(delta[in_region])
        peak[region] = int(np.max(used[c.kind[in_region] == alloc], initial=0))

    x = np.flatnonzero(c.kind == xfer)
    nbytes, tag, name = c.bytes[x], c.region[x], c.name[x]
    keys, _, sums = _totals(tag * n_names + name, nbytes)
    tag_stream = {(c.regions[k // n_names], c.names[k % n_names]): b
                  for k, b in zip(keys, sums)}
    l2l1 = (tag == _code(c.regions, TAG_L2_L1)) | (tag == _code(c.regions, TAG_L1_L2))
    keys, counts, sums = _totals(c.node[x][l2l1] * n_names + name[l2l1], nbytes[l2l1])
    node_stream = {(c.nodes[k // n_names], c.names[k % n_names]): (n, b)
                   for k, n, b in zip(keys, counts, sums)}
    if memsim is not None:
        for region in ("L1", "L2"):
            if peak[region] != memsim.peak[region]:
                violations.append(f"{region} peak mismatch: replay {peak[region]} "
                                  f"vs memsim {memsim.peak[region]}")
    return AuditReport(peak["L1"], peak["L2"], tag_stream, node_stream, len(trace.events),
                       violations)
