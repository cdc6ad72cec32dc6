"""Two-stack L2 allocation planning over the node-kernel execution order.

Buffers live in linear allocation stacks: a buffer can only be released while
it sits on top of its stack, so a dead buffer buried under a live one keeps
its bytes until the cover is freed (frees cascade).  Weights are allocated
just before their layer and released just after it; feature-map lifetimes
follow the residual bypasses, which is why each residual block holds three
tensors at once.  Elementwise nodes run in place and allocate nothing.

plan_two_stack picks the stack assignment of the activation buffers (weights
ride on their layer's output stack) with the smallest peak total occupancy,
then the smaller larger-stack peak, then the first in allocation-order bits.
It finds it by a depth-first search over the buffers in allocation order with
the input pinned to stack 0 (swapping the stacks changes no peak, so the
first winner starts with 0) and with branches cut once their running peaks
reach the best found (peaks never fall, and a tie loses to the earlier
assignment): the result is the one scoring every assignment would keep.
plan_single_stack runs the same lifetime rules with one stack, which is what
makes the two-stack layout worthwhile.

One simulator serves the search and the recorded plans.  _lifetimes derives
a per-step script (the index of the buffer a step allocates, its bytes, its
weight bytes) and each buffer's size and last use; the simulator's state is
the stacks as lists of buffer indices, the occupancy and peak per stack and
the peak total, so a search branch copies a few short int lists, and events
are built only when a plan is recorded.

All of this depends on the graph alone, and the graph is frozen, so
_lifetimes and plan_two_stack are computed once per graph, in bounded caches
(net.GRAPHS_CACHED graphs) that hand every caller the same read-only
value.  validate_plan is the independent check: its own replay of the plan's
events, in one pass, computed once per (plan, graph) value in a cache of
the same bound (a plan is frozen and hashes once, when it is built), and
handed to each caller as a fresh list, so no caller changes a cached
verdict.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from . import net, tiler
from .tiler import _align4

L2_BYTES = 512 * 1024
MAX_SEARCH_BUFFERS = 20


class AllocEvent(NamedTuple):
    step: int
    action: str          # "alloc" | "free"
    buffer: str
    stack: int
    bytes: int


@dataclass(frozen=True)
class L2AllocPlan:
    """A frozen plan that hashes once, when it is built, for the caches
    keyed on it (validate_plan's verdict, the executor's replay)."""

    events: tuple[AllocEvent, ...]
    peak_bytes: int
    stack_peaks: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.events))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_stacks(self) -> int:
        return len(self.stack_peaks)

    @property
    def headroom(self) -> int:
        return L2_BYTES - self.peak_bytes


def weight_buffer(node: tiler.NodeKernel) -> str:
    """The L2 buffer a node's weights are staged into."""
    return f"w:{node.name}"


@dataclass(frozen=True)
class _Lifetimes:
    """A graph's buffer lifetimes: shared by every caller through the cache
    of _lifetimes, so tuples and read-only mappings throughout."""

    nodes: tuple[tiler.NodeKernel, ...]
    alias: Mapping[str, str]            # tensor -> backing buffer
    buffers: tuple[str, ...]            # activation buffers in alloc order
    size: tuple[int, ...]               # buffer index -> bytes
    last_use: tuple[int, ...]           # buffer index -> last step that reads it
    # step -> (index of the buffer it allocates or None, its bytes, weight
    # bytes); the step after the last node is the mission end
    script: tuple[tuple[int | None, int, int], ...]
    consumes: Mapping[int, tuple[str, ...]]     # step -> buffers read


@functools.lru_cache(maxsize=net.GRAPHS_CACHED)
def _lifetimes(graph: net.NetworkGraph) -> _Lifetimes:
    nodes = tiler.node_kernels(graph)
    if not nodes:       # nothing to execute, nothing to stage
        return _Lifetimes((), MappingProxyType({}), (), (), (), ((None, 0, 0),),
                          MappingProxyType({}))
    tensors = graph.tensors
    alias = {net.INPUT_TENSOR: net.INPUT_TENSOR}
    buffers = [net.INPUT_TENSOR]
    index = {net.INPUT_TENSOR: 0}
    k, h, w = tensors[net.INPUT_TENSOR]
    size = [_align4(2 * k * h * w)]
    last_use = [-1]
    script: list[tuple[int | None, int, int]] = []
    consumes: dict[int, tuple[str, ...]] = {}

    for i, node in enumerate(nodes):
        reads = [alias[node.input]]
        if node.addend:
            reads.append(alias[node.addend])
        consumes[i] = tuple(reads)
        for b in reads:
            last_use[index[b]] = i
        if node.kind == "ew":
            # in place: the output tensor shares its input's buffer
            alias[node.output] = alias[node.input]
            script.append((None, 0, 0))
        else:
            k, h, w = tensors[node.output]
            alias[node.output] = node.output
            index[node.output] = len(buffers)
            buffers.append(node.output)
            size.append(_align4(2 * k * h * w))
            last_use.append(i)
            script.append((len(buffers) - 1, size[-1], _align4(2 * node.body.n_params)))
    script.append((None, 0, 0))                 # the mission end allocates nothing
    for tensor in graph.outputs:
        last_use[index[alias[tensor]]] = len(nodes)   # results handed over at mission end
    return _Lifetimes(nodes, MappingProxyType(alias), tuple(buffers), tuple(size),
                      tuple(last_use), tuple(script), MappingProxyType(consumes))


class _Sim:
    """Stack occupancy while the node order executes, one step at a time.
    Each stack is a list of buffer indices; the input frame sits on stack 0
    before the first node runs.  Events are built only when recording."""

    __slots__ = ("life", "stacks", "occ", "peak", "peaks", "events")

    def __init__(self, life: _Lifetimes, n_stacks: int, record: bool):
        self.life = life
        self.stacks: list[list[int]] = [[] for _ in range(n_stacks)]
        self.occ = [0] * n_stacks
        self.peaks = [0] * n_stacks
        self.peak = 0
        self.events: list[AllocEvent] | None = [] if record else None
        if life.buffers:
            self.stacks[0].append(0)
            self.occ[0] = self.peaks[0] = self.peak = life.size[0]
            if record:
                self.events.append(AllocEvent(-1, "alloc", life.buffers[0], 0, life.size[0]))

    def fork(self) -> _Sim:
        """An independent copy that records nothing."""
        twin = _Sim.__new__(_Sim)
        twin.life, twin.peak, twin.events = self.life, self.peak, None
        twin.stacks = [s[:] for s in self.stacks]
        twin.occ, twin.peaks = self.occ[:], self.peaks[:]
        return twin

    @property
    def key(self) -> tuple[int, int]:
        """(peak total, max stack peak): both only grow as steps run."""
        return self.peak, max(self.peaks)

    def step(self, i: int, stack_of: list[int]):
        """Run step i: allocate its output on the stack stack_of gives the
        buffer, stage and release its weights on top of it, then free the
        dead buffers exposed on top, most recent first, stack 0 first."""
        life, occ, events = self.life, self.occ, self.events
        buf, size, wsize = life.script[i]
        if buf is not None:
            stack = stack_of[buf]
            self.stacks[stack].append(buf)
            # the weights sit on the output, so the peak with both covers
            # the peak after the output alone
            occ[stack] += size + wsize
            if occ[stack] > self.peaks[stack]:
                self.peaks[stack] = occ[stack]
            total = sum(occ)
            if total > self.peak:
                self.peak = total
            occ[stack] -= wsize     # layer executes here; weights released right after
            if events is not None:
                wname = weight_buffer(life.nodes[i])
                events += (AllocEvent(i, "alloc", life.buffers[buf], stack, size),
                           AllocEvent(i, "alloc", wname, stack, wsize),
                           AllocEvent(i, "free", wname, stack, wsize))
        last_use, sizes = life.last_use, life.size
        for s, held in enumerate(self.stacks):
            while held and last_use[held[-1]] <= i:
                b = held.pop()
                occ[s] -= sizes[b]
                if events is not None:
                    events.append(AllocEvent(i, "free", life.buffers[b], s, sizes[b]))


def _recorded_plan(life: _Lifetimes, stack_of: list[int], n_stacks: int) -> L2AllocPlan:
    """The plan of one stack assignment: its simulated events and peaks."""
    sim = _Sim(life, n_stacks, record=True)
    for i in range(len(life.script)):
        sim.step(i, stack_of)
    return L2AllocPlan(tuple(sim.events), sim.peak, tuple(sim.peaks))


def _search_two_stack(life: _Lifetimes) -> list[int]:
    """Stack of each buffer minimising (peak, max stack peak, bits), where
    bits lists each buffer's stack in allocation order.

    Depth-first over the buffers in allocation order, 0 before 1, so leaves
    come in bits order; each prefix's steps are simulated once.  Swapping
    the two stacks changes neither peak, so the smallest winning bits start
    with 0 and the input buffer is pinned to stack 0.  A branch whose running
    key already reaches the best leaf's is cut: the key never falls as steps
    run, and a tie loses to the earlier leaf on bits.
    """
    if not life.buffers:
        return []
    # each buffer decides the steps from its allocation up to the next one's
    starts = [i for i, (buf, _, _) in enumerate(life.script) if buf is not None]
    bounds = [0, *starts, len(life.script)]
    spans = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    bits = [0]
    root = _Sim(life, 2, record=False)
    for i in spans[0]:
        root.step(i, bits)
    best_key, best = None, None

    def descend(k: int, sim: _Sim):
        nonlocal best_key, best
        if k == len(spans):
            best_key, best = sim.key, bits[:]
            return
        for bit in (0, 1):
            # the last branch takes over the parent's state
            branch = sim.fork() if bit == 0 else sim
            bits.append(bit)
            for i in spans[k]:
                branch.step(i, bits)
            if best_key is None or branch.key < best_key:
                descend(k + 1, branch)
            bits.pop()

    descend(1, root)
    return best


@functools.lru_cache(maxsize=net.GRAPHS_CACHED)
def plan_two_stack(graph: net.NetworkGraph) -> L2AllocPlan:
    """Stack assignment minimizing peak total occupancy, then the larger stack
    peak, then the assignment bits in allocation order; the pruned search in
    _search_two_stack returns what scoring every assignment would.  Searched
    once per graph: later calls return the same frozen plan.  A graph too
    large to search raises on every call."""
    life = _lifetimes(graph)
    if len(life.buffers) > MAX_SEARCH_BUFFERS:
        raise ValueError(f"{len(life.buffers)} buffers: assignment search too large")
    return _recorded_plan(life, _search_two_stack(life), 2)


def plan_single_stack(graph: net.NetworkGraph) -> L2AllocPlan:
    """Same lifetime rules collapsed onto one linear stack."""
    life = _lifetimes(graph)
    return _recorded_plan(life, [0] * len(life.buffers), 1)


def validate_plan(plan: L2AllocPlan, graph: net.NetworkGraph) -> list[str]:
    """Independent replay: LIFO order, dependency liveness (the frame input
    live once it lands, and each node's inputs, weights and output live
    while it runs), capacity, peaks.  The verdict is computed once per
    (plan, graph) value; each call gets its own copy of it."""
    return list(_violations(plan, graph))


@functools.lru_cache(maxsize=net.GRAPHS_CACHED)
def _violations(plan: L2AllocPlan, graph: net.NetworkGraph) -> tuple[str, ...]:
    """validate_plan's verdict.  An event whose step is outside -1..n or
    whose stack the plan does not have is reported first, in event order,
    and not replayed.  The rest are replayed in one pass in step order (a
    stable sort, so each step keeps its own order).  A step's events are its
    allocations followed by its releases, and the node runs in between, so
    each step's liveness check runs before its first release, or before a
    later step's first event."""
    life = _lifetimes(graph)
    nodes, consumes, n, n_stacks = life.nodes, life.consumes, len(life.nodes), plan.n_stacks
    violations: list[str] = []
    replayed: list[AllocEvent] = []
    for ev in plan.events:
        if -1 <= ev.step <= n and 0 <= ev.stack < n_stacks:
            replayed.append(ev)
        else:
            violations.append(f"step {ev.step}: {ev.action} of {ev.buffer} on stack {ev.stack} "
                              f"outside steps -1..{n} and stacks 0..{n_stacks - 1}")
    stacks: list[list[str]] = [[] for _ in range(n_stacks)]
    occ = [0] * n_stacks
    peaks = [0] * n_stacks
    total = peak = 0
    live: set[str] = set()
    allocated: set[str] | None = None      # every buffer replayed allocating, on first need
    checked = -1                           # the next step whose liveness is checked
    # a sentinel past the last step runs the checks of the steps left
    for step, action, buffer, s, nbytes in (*sorted(replayed, key=itemgetter(0)),
                                            (n + 1, "", "", 0, 0)):
        while checked < n and (checked < step or checked == step and action != "alloc"):
            if checked < 0:
                if life.buffers and life.buffers[0] not in live:
                    violations.append(f"step -1: {life.buffers[0]} not allocated "
                                      "before the frame lands")
            else:
                for b in consumes[checked]:
                    if b not in live:
                        if allocated is None:
                            allocated = {e.buffer for e in replayed if e.action == "alloc"}
                        what = "already freed" if b in allocated else "never allocated"
                        violations.append(f"step {checked}: consumed {b} {what}")
                node = nodes[checked]
                if node.kind != "ew":
                    wname = weight_buffer(node)
                    if wname not in live:
                        violations.append(f"step {checked}: weights {wname} not staged")
                    if node.output not in live:
                        violations.append(f"step {checked}: output {node.output} not allocated")
            checked += 1
        if step > n:
            break
        held = stacks[s]
        if action == "alloc":
            held.append(buffer)
            live.add(buffer)
            occ[s] += nbytes
            total += nbytes
            peak = max(peak, total)
            peaks[s] = max(peaks[s], occ[s])
        else:
            if not held or held[-1] != buffer:
                top = held[-1] if held else None
                violations.append(f"step {step}: free of {buffer} but stack {s} top is {top}")
                if buffer in held:
                    held.remove(buffer)
            else:
                held.pop()
            live.discard(buffer)
            occ[s] -= nbytes
            total -= nbytes
    if peak != plan.peak_bytes:
        violations.append(f"recomputed peak {peak} != recorded {plan.peak_bytes}")
    if tuple(peaks) != tuple(plan.stack_peaks):
        violations.append(f"recomputed stack peaks {peaks} != {plan.stack_peaks}")
    if n_stacks == 2 and peak > L2_BYTES:
        violations.append(f"peak {peak} exceeds L2 capacity {L2_BYTES}")
    return tuple(violations)


def plan_summary(plan: L2AllocPlan, graph: net.NetworkGraph, csv: bool = False) -> str:
    """Per-step table of live buffers per stack, mirroring the allocation
    sequence: a row per node of the graph, in order, and one for the mission
    end."""
    step_names = (*(node.name for node in _lifetimes(graph).nodes), "end")
    life_rows = []
    stacks: list[list[AllocEvent]] = [[] for _ in range(plan.n_stacks)]
    by_step: dict[int, list[AllocEvent]] = {}
    for ev in plan.events:
        by_step.setdefault(ev.step, []).append(ev)
    for step in range(-1, len(step_names)):
        for ev in by_step.get(step, []):
            if ev.action == "alloc":
                stacks[ev.stack].append(ev)
            else:
                stacks[ev.stack] = [e for e in stacks[ev.stack] if e.buffer != ev.buffer]
        if step < 0:
            continue
        row = [step_names[step]]
        for s in range(plan.n_stacks):
            row.append(" ".join(e.buffer for e in stacks[s]))
            row.append(sum(e.bytes for e in stacks[s]))
        life_rows.append(row)
    if csv:
        head = ["step"]
        for s in range(plan.n_stacks):
            head += [f"stack{s}", f"stack{s}_bytes"]
        return "\n".join([",".join(head)] + [
            ",".join(f'"{c}"' if isinstance(c, str) and " " in c else str(c) for c in row)
            for row in life_rows])
    lines = [f"{row[0]:<18}" + "  ".join(f"S{s}[{row[1 + 2 * s]:<48}] {row[2 + 2 * s]:>7}"
                                         for s in range(plan.n_stacks))
             for row in life_rows]
    lines.append(f"peak {plan.peak_bytes} bytes "
                 f"({plan.peak_bytes / 1024:.1f} KB), "
                 f"headroom {plan.headroom} bytes")
    return "\n".join(lines)
