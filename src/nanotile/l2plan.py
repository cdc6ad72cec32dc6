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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import net, tiler
from .tiler import _align4

L2_BYTES = 512 * 1024
MAX_SEARCH_BUFFERS = 20


@dataclass(frozen=True)
class AllocEvent:
    step: int
    action: str          # "alloc" | "free"
    buffer: str
    stack: int
    bytes: int


@dataclass(frozen=True)
class L2AllocPlan:
    events: tuple[AllocEvent, ...]
    step_names: tuple[str, ...]
    peak_bytes: int
    stack_peaks: tuple[int, ...]

    @property
    def n_stacks(self) -> int:
        return len(self.stack_peaks)

    @property
    def headroom(self) -> int:
        return L2_BYTES - self.peak_bytes


def weight_buffer(node: tiler.NodeKernel) -> str:
    """The L2 buffer a node's weights are staged into."""
    return f"w:{node.name}"


@dataclass
class _Lifetimes:
    nodes: list[tiler.NodeKernel]
    alias: dict[str, str]               # tensor -> backing buffer
    buffers: list[str]                  # activation buffers in alloc order
    sizes: dict[str, int]
    alloc_step: dict[str, int]
    last_use: dict[str, int]
    weights: dict[int, tuple[str, int]] # step -> (weight buffer, bytes)
    consumes: dict[int, list[str]]      # step -> buffers read


def _lifetimes(graph: net.NetworkGraph) -> _Lifetimes:
    nodes = tiler.node_kernels(graph)
    if not nodes:       # nothing to execute, nothing to stage
        return _Lifetimes([], {}, [], {}, {}, {}, {}, {})
    tensors = graph.tensors
    alias = {net.INPUT_TENSOR: net.INPUT_TENSOR}
    buffers = [net.INPUT_TENSOR]
    k, h, w = tensors[net.INPUT_TENSOR]
    sizes = {net.INPUT_TENSOR: _align4(2 * k * h * w)}
    alloc_step = {net.INPUT_TENSOR: -1}
    last_use: dict[str, int] = {net.INPUT_TENSOR: -1}
    weights: dict[int, tuple[str, int]] = {}
    consumes: dict[int, list[str]] = {}

    for i, node in enumerate(nodes):
        reads = [alias[node.input]]
        if node.addend:
            reads.append(alias[node.addend])
        consumes[i] = reads
        for b in reads:
            last_use[b] = i
        if node.kind == "ew":
            # in place: the output tensor shares its input's buffer
            alias[node.output] = alias[node.input]
        else:
            buf = node.output
            k, h, w = tensors[node.output]
            sizes[buf] = _align4(2 * k * h * w)
            alias[node.output] = buf
            buffers.append(buf)
            alloc_step[buf] = i
            last_use[buf] = i
            weights[i] = (weight_buffer(node), _align4(2 * node.body.n_params))
    for tensor in graph.outputs:
        last_use[alias[tensor]] = len(nodes)    # results handed over at mission end
    return _Lifetimes(nodes, alias, buffers, sizes, alloc_step, last_use,
                      weights, consumes)


class _StackSim:
    """Stack occupancy while the node order executes, one step at a time."""

    def __init__(self, life: _Lifetimes, n_stacks: int, record: bool):
        self.life = life
        self.record = record
        self.stacks: list[list[str]] = [[] for _ in range(n_stacks)]
        self.occ = [0] * n_stacks
        self.peak = 0
        self.peaks = [0] * n_stacks
        self.events: list[AllocEvent] = []

    def fork(self) -> _StackSim:
        """An independent copy, built field by field (copy.copy is slower in
        the search's inner loop)."""
        twin = _StackSim.__new__(_StackSim)
        twin.life, twin.record, twin.peak = self.life, self.record, self.peak
        twin.stacks = [list(s) for s in self.stacks]
        twin.occ, twin.peaks = list(self.occ), list(self.peaks)
        twin.events = list(self.events)
        return twin

    @property
    def key(self) -> tuple[int, int]:
        """(peak total, max stack peak): both only grow as steps run."""
        return self.peak, max(self.peaks)

    def _bump(self):
        self.peak = max(self.peak, sum(self.occ))
        for s, o in enumerate(self.occ):
            self.peaks[s] = max(self.peaks[s], o)

    def alloc(self, step: int, name: str, size: int, stack: int):
        self.stacks[stack].append(name)
        self.occ[stack] += size
        if self.record:
            self.events.append(AllocEvent(step, "alloc", name, stack, size))
        self._bump()

    def _free_top(self, step: int, stack: int, size: int):
        name = self.stacks[stack].pop()
        self.occ[stack] -= size
        if self.record:
            self.events.append(AllocEvent(step, "free", name, stack, size))

    def step(self, i: int, stack_of: dict[str, int]):
        """Run node i (i == len(nodes) is the mission end): allocate its
        output, stage and release its weights, then free what is dead."""
        life = self.life
        if i < len(life.nodes):
            node = life.nodes[i]
            if node.kind != "ew":
                # elementwise nodes work in place and have no weights; the
                # others stage theirs on top of their output
                stack = stack_of[node.output]
                self.alloc(i, node.output, life.sizes[node.output], stack)
                wname, wsize = life.weights[i]
                self.alloc(i, wname, wsize, stack)
                # layer executes here; weights released right after
                self._free_top(i, stack, wsize)
        # release whatever is dead and exposed, most recent first
        for s, stack in enumerate(self.stacks):
            while stack and life.last_use[stack[-1]] <= i:
                self._free_top(i, s, life.sizes[stack[-1]])


def _simulate(life: _Lifetimes, stack_of: dict[str, int], n_stacks: int,
              record: bool) -> tuple[int, tuple[int, ...], list]:
    sim = _StackSim(life, n_stacks, record)
    # input frame sits in L2 before the first node runs
    if life.buffers:
        sim.alloc(-1, net.INPUT_TENSOR, life.sizes[net.INPUT_TENSOR],
                  stack_of[net.INPUT_TENSOR])
    for i in range(len(life.nodes) + 1):
        sim.step(i, stack_of)
    return sim.peak, tuple(sim.peaks), sim.events


def _recorded_plan(life: _Lifetimes, stack_of: dict[str, int], n_stacks: int) -> L2AllocPlan:
    """The plan of one stack assignment: its simulated events and peaks."""
    peak, peaks, events = _simulate(life, stack_of, n_stacks, record=True)
    return L2AllocPlan(tuple(events), (*(n.name for n in life.nodes), "end"),
                       peak, peaks)


def _search_two_stack(life: _Lifetimes) -> dict[str, int]:
    """Stack assignment minimising (peak, max stack peak, bits), where bits
    lists each buffer's stack in allocation order.

    Depth-first over the buffers in allocation order, 0 before 1, so leaves
    come in bits order; each prefix's steps are simulated once.  Swapping
    the two stacks changes neither peak, so the smallest winning bits start
    with 0 and the input buffer is pinned to stack 0.  A branch whose running
    key already reaches the best leaf's is cut: the key never falls as steps
    run, and a tie loses to the earlier leaf on bits.
    """
    if not life.buffers:
        return {}
    first, rest = life.buffers[0], life.buffers[1:]
    # each buffer decides the steps from its allocation up to the next one's
    ends = [life.alloc_step[b] for b in rest] + [len(life.nodes) + 1]
    stack_of = {first: 0}
    root = _StackSim(life, 2, record=False)
    root.alloc(-1, first, life.sizes[first], 0)
    for i in range(ends[0]):
        root.step(i, stack_of)
    best_key, best = None, None

    def descend(k: int, sim: _StackSim):
        nonlocal best_key, best
        if k == len(rest):
            best_key, best = sim.key, dict(stack_of)
            return
        buf = rest[k]
        for bit in (0, 1):
            branch = sim.fork()
            stack_of[buf] = bit
            for i in range(life.alloc_step[buf], ends[k + 1]):
                branch.step(i, stack_of)
            if best_key is None or branch.key < best_key:
                descend(k + 1, branch)
        del stack_of[buf]

    descend(0, root)
    return best


def plan_two_stack(graph: net.NetworkGraph) -> L2AllocPlan:
    """Stack assignment minimizing peak total occupancy, then the larger stack
    peak, then the assignment bits in allocation order; the pruned search in
    _search_two_stack returns what scoring every assignment would."""
    life = _lifetimes(graph)
    if len(life.buffers) > MAX_SEARCH_BUFFERS:
        raise ValueError(f"{len(life.buffers)} buffers: assignment search too large")
    return _recorded_plan(life, _search_two_stack(life), 2)


def plan_single_stack(graph: net.NetworkGraph) -> L2AllocPlan:
    """Same lifetime rules collapsed onto one linear stack."""
    life = _lifetimes(graph)
    return _recorded_plan(life, {b: 0 for b in life.buffers}, 1)


def validate_plan(plan: L2AllocPlan, graph: net.NetworkGraph) -> list[str]:
    """Independent replay: LIFO order, dependency liveness, capacity, peaks."""
    life = _lifetimes(graph)
    violations: list[str] = []
    stacks: list[list[str]] = [[] for _ in range(plan.n_stacks)]
    sizes: dict[str, int] = {}
    occ = [0] * plan.n_stacks
    peak = 0
    peaks = [0] * plan.n_stacks
    by_step: dict[int, list[AllocEvent]] = {}
    for ev in plan.events:
        by_step.setdefault(ev.step, []).append(ev)

    live: set[str] = set()
    n = len(life.nodes)
    for step in range(-1, n + 1):
        step_events = by_step.get(step, [])

        def apply(ev):
            if ev.action == "alloc":
                stacks[ev.stack].append(ev.buffer)
                sizes[ev.buffer] = ev.bytes
                live.add(ev.buffer)
                occ[ev.stack] += ev.bytes
                nonlocal peak
                peak = max(peak, sum(occ))
                peaks[ev.stack] = max(peaks[ev.stack], occ[ev.stack])
            else:
                if not stacks[ev.stack] or stacks[ev.stack][-1] != ev.buffer:
                    top = stacks[ev.stack][-1] if stacks[ev.stack] else None
                    violations.append(f"step {step}: free of {ev.buffer} but "
                                      f"stack {ev.stack} top is {top}")
                    if ev.buffer in stacks[ev.stack]:
                        stacks[ev.stack].remove(ev.buffer)
                else:
                    stacks[ev.stack].pop()
                live.discard(ev.buffer)
                occ[ev.stack] -= ev.bytes

        # a step's event list is its allocations followed by its releases;
        # the node executes in between, so liveness is checked there
        i = 0
        while i < len(step_events) and step_events[i].action == "alloc":
            apply(step_events[i])
            i += 1
        if 0 <= step < n:
            for b in life.consumes[step]:
                if b not in live:
                    ever = any(e.buffer == b and e.action == "alloc"
                               for e in plan.events)
                    what = "already freed" if ever else "never allocated"
                    violations.append(f"step {step}: consumed {b} {what}")
            if step in life.weights:
                wname = life.weights[step][0]
                if wname not in live:
                    violations.append(f"step {step}: weights {wname} not staged")
        while i < len(step_events):
            apply(step_events[i])
            i += 1
    if peak != plan.peak_bytes:
        violations.append(f"recomputed peak {peak} != recorded {plan.peak_bytes}")
    if tuple(peaks) != tuple(plan.stack_peaks):
        violations.append(f"recomputed stack peaks {peaks} != {plan.stack_peaks}")
    if plan.n_stacks == 2 and peak > L2_BYTES:
        violations.append(f"peak {peak} exceeds L2 capacity {L2_BYTES}")
    return violations


def plan_summary(plan: L2AllocPlan, csv: bool = False) -> str:
    """Per-step table of live buffers per stack, mirroring the allocation sequence."""
    life_rows = []
    stacks: list[list[AllocEvent]] = [[] for _ in range(plan.n_stacks)]
    by_step: dict[int, list[AllocEvent]] = {}
    for ev in plan.events:
        by_step.setdefault(ev.step, []).append(ev)
    n_steps = len(plan.step_names)
    for step in range(-1, n_steps):
        for ev in by_step.get(step, []):
            if ev.action == "alloc":
                stacks[ev.stack].append(ev)
            else:
                stacks[ev.stack] = [e for e in stacks[ev.stack] if e.buffer != ev.buffer]
        if step < 0 or step >= n_steps:
            continue
        row = [plan.step_names[step]]
        for s in range(plan.n_stacks):
            row.append(" ".join(e.buffer for e in stacks[s]))
            row.append(sum(e.bytes for e in stacks[s]))
        life_rows.append(row)
    if csv:
        head = ["step"]
        for s in range(plan.n_stacks):
            head += [f"stack{s}", f"stack{s}_bytes"]
        lines = [",".join(head)]
        for row in life_rows:
            lines.append(",".join(f'"{c}"' if isinstance(c, str) and " " in c else str(c)
                                  for c in row))
        return "\n".join(lines)
    lines = []
    for row in life_rows:
        lines.append(f"{row[0]:<18}" + "  ".join(
            f"S{s}[{row[1 + 2 * s]:<48}] {row[2 + 2 * s]:>7}"
            for s in range(plan.n_stacks)))
    lines.append(f"peak {plan.peak_bytes} bytes "
                 f"({plan.peak_bytes / 1024:.1f} KB), "
                 f"headroom {plan.headroom} bytes")
    return "\n".join(lines)
