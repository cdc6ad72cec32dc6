"""Tiled execution over a simulated L1/L2/L3 hierarchy with explicit DMA events.

The executor replays a TileSchedule and nothing else.  Memory traffic does
not depend on the data, so compile_schedule replays it once per schedule
value (its graph, L1 budget, L2 plan and tile plans) and caches the frozen
trace on that value, not on the schedule object.  L2 buffers, weights
included, come and go by replaying the schedule's allocation plan
(two-stack, as plan_network builds it): at each step the step's
allocations land, the layer's weights are staged from L3, the node runs,
and the step's releases follow.  Each node then replays
TilePlan.tiles() in order through simulated L1 with logged DMA transfers:
every byte count, MAC count, row and channel range, stripe padding and
worker split comes from those tile records.  L1 capacity is the schedule's
budget, so an allocation that breaks it raises.
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
on in the trace and the cost.  Host accumulators are float64, exact by the dot-length bound, while
the budget charges the 4-byte accumulator the target hardware would hold.
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
from dataclasses import dataclass, field
from operator import attrgetter
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


class MemSim:
    """Capacity-checked allocation maps for the three memory levels, and the
    events they log, which compile_schedule freezes into its trace: after
    that, events is the trace's tuple and a further event raises."""

    def __init__(self, l1_bytes: int):
        self.capacity = {"L1": l1_bytes, "L2": l2plan.L2_BYTES, "L3": None}
        self.live: dict[tuple[str, str], int] = {}
        self.used = {"L1": 0, "L2": 0, "L3": 0}
        self.peak = {"L1": 0, "L2": 0, "L3": 0}
        self.events: list[Event] = []
        self.trace: TraceLog | None = None     # set by compile_schedule

    def alloc(self, region: str, name: str, nbytes: int, node: str = ""):
        key = (region, name)
        if key in self.live:
            raise MemSimError(f"{region}:{name} already allocated")
        cap = self.capacity[region]
        if cap is not None and self.used[region] + nbytes > cap:
            raise MemSimError(f"{region} capacity exceeded: {self.used[region]} + "
                              f"{nbytes} > {cap} allocating {name}")
        self.live[key] = nbytes
        self.used[region] += nbytes
        self.peak[region] = max(self.peak[region], self.used[region])
        self.events.append(Event("alloc", region, node, -1, name, nbytes))

    def free(self, region: str, name: str, node: str = ""):
        key = (region, name)
        if key not in self.live:
            raise MemSimError(f"free of dead buffer {region}:{name}")
        nbytes = self.live.pop(key)
        self.used[region] -= nbytes
        self.events.append(Event("free", region, node, -1, name, nbytes))

    def transfer(self, tag: str, nbytes: int, src: tuple[str, str],
                 dst: tuple[str, str], node: str = "", tile: int = -1,
                 stream: str = "", overlap: bool = False):
        for region, name in (src, dst):
            if region != "L3" and (region, name) not in self.live:
                raise MemSimError(f"touch of dead buffer {region}:{name}")
        self.events.append(Event("xfer", tag, node, tile, stream, nbytes, overlap=overlap))

    def compute(self, node: str, tile: int, macs: int, workers):
        self.events.append(Event("compute", "", node, tile, "", 0, macs, tuple(workers)))


@dataclass
class ExecResult(kernels.InferResult):
    """A tiled frame: the untiled engine's result fields, and the compiled
    schedule's memory replay."""
    memsim: MemSim

    @property
    def trace(self) -> TraceLog:
        return self.memsim.trace


def compile_schedule(schedule: tiler.TileSchedule) -> MemSim:
    """The schedule's memory replay: _replay of its graph, L1 budget, L2
    plan and tile plans, a pure function of those values.  It reads the
    schedule and changes nothing on it; equal schedules share one replay,
    and an edited budget, L2 plan or plans list is a new key."""
    return _replay(schedule.graph, schedule.l1_budget, schedule.l2, tuple(schedule.plans))


@functools.lru_cache(maxsize=tiler.GRAPHS_CACHED)
def _replay(graph: net.NetworkGraph, l1_budget: int, l2_plan: l2plan.L2AllocPlan,
            plans: tuple[tiler.TilePlan, ...]) -> MemSim:
    """Replay the memory traffic of every plan's tiles through one MemSim
    under the L2 plan and freeze its trace.  Cached on the values, all
    frozen, in a bounded cache.  An allocation that breaks a budget raises
    MemSimError; a failed replay caches nothing."""
    ms = MemSim(l1_budget)
    life = l2plan._lifetimes(graph)
    by_name = {p.node.name: p for p in reversed(plans)}    # the first plan per node, as plan_for
    l2_events: dict[tuple[int, str], list[l2plan.AllocEvent]] = {}
    for ev in l2_plan.events:
        l2_events.setdefault((ev.step, ev.action), []).append(ev)

    def l2_step(step: int, node_name: str, action: str):
        """Replay one step's allocations or its releases from the L2 plan."""
        for ev in l2_events.get((step, action), []):
            if action == "alloc":
                ms.alloc("L2", ev.buffer, ev.bytes, node_name)
            else:
                ms.free("L2", ev.buffer, node_name)

    # frame ingress: the camera path lands the image in L2 over the uDMA
    l2_step(-1, "frame", "alloc")
    ms.transfer(TAG_L3_L2, 2 * math.prod(graph.tensors[net.INPUT_TENSOR]), ("L3", "camera"),
                ("L2", net.INPUT_TENSOR), "frame", stream="frame", overlap=True)
    for i, node in enumerate(life.nodes):
        plan = by_name[node.name]
        l2_step(i, node.name, "alloc")
        l2 = {"in": life.alias[node.input], "out": life.alias[node.output]}
        if node.kind != "ew":
            l2["weights"] = l2plan.weight_buffer(node)
            ms.transfer(TAG_L3_L2, 2 * node.body.n_params, ("L3", "weights"),
                        ("L2", l2["weights"]), node.name, stream="weights")
        if node.addend is not None:
            l2["addend"] = life.alias[node.addend]
        # the plan's L1 working set is held for the whole node; an
        # elementwise node streams in and out through one "io" buffer
        for bname, bspec in plan.buffers.items():
            ms.alloc("L1", f"{node.name}:{bname}", bspec.total, node.name)
        l1 = {s: "io" if node.kind == "ew" else s for s in l2}
        for t in plan.tiles():
            for stream, nbytes in t.bytes.items():
                if stream in ("in", "weights"):
                    # a double-buffered stream hides every fill after the
                    # first behind compute
                    double = plan.buffers[l1[stream]].double
                    ms.transfer(TAG_L2_L1, nbytes, ("L2", l2[stream]),
                                ("L1", f"{node.name}:{l1[stream]}"), node.name, t.index,
                                stream, overlap=double and t.index > 0)
            ms.compute(node.name, t.index, t.macs, t.workers)
            if "addend" in t.bytes:
                ms.transfer(TAG_L2_L1, t.bytes["addend"], ("L2", l2["addend"]),
                            ("L1", f"{node.name}:{l1['addend']}"), node.name, t.index,
                            "addend")
            if "out" in t.bytes:
                ms.transfer(TAG_L1_L2, t.bytes["out"], ("L1", f"{node.name}:{l1['out']}"),
                            ("L2", l2["out"]), node.name, t.index, "out")
        for bname in plan.buffers:
            ms.free("L1", f"{node.name}:{bname}", node.name)
        l2_step(i, node.name, "free")
    l2_step(len(life.nodes), "end", "free")
    ms.trace = TraceLog(ms.events)
    ms.events = ms.trace.events
    return ms


def execute_schedule(schedule: tiler.TileSchedule, store: net.WeightStore,
                     image: np.ndarray) -> ExecResult:
    """One frame: the compiled schedule's trace, and its arithmetic run
    node by node in the L2 plan's step order."""
    kernels.check_frame(schedule.graph, image)
    ms = compile_schedule(schedule)
    # activations by tensor name, each its own array, as in infer_untiled
    acts = {net.INPUT_TENSOR: image}
    for name in schedule.l2.step_names[:-1]:
        plan = schedule.plan_for(name)
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
    without trusting the executor's own counters.  It works on the trace's
    columns and recomputes everything on every call.

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
