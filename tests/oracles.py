"""Independent reference implementations used only as test oracles.

Deliberately structured differently from the engine: convolution is a
shift-and-add over kernel offsets with int64 einsum (the engine uses
im2col + float64 GEMM), and the graph walk below is its own loop.  The two
planners are their exhaustive forms: every tile plan, from the oracle's own
loops over the tile extents, scored once per node and calibration and
searched per budget, and every stack assignment scored in one numpy pass
over stacks held as bitmasks.  The trace audit is the event-by-event loop
that executor.audit_trace replaces with column reductions.  A frame's
input tensor is quantized pixel by pixel in float64, where net.load_image
looks each pixel up in a table.
"""

import dataclasses
import functools
from typing import NamedTuple

import numpy as np
import pytest

from nanotile import cost, executor, fxp, l2plan, net, tiler

DRONET = net.build_dronet()


def naive_conv_acc(x, w, b, stride):
    """Accumulator via per-offset channel contractions, exact int64."""
    k_out, k_in, kh, kw = w.shape
    pad = kh // 2
    h_out = -(-x.shape[1] // stride)
    w_out = -(-x.shape[2] // stride)
    xp = np.zeros((k_in, x.shape[1] + 2 * pad, x.shape[2] + 2 * pad), np.int64)
    xp[:, pad:pad + x.shape[1], pad:pad + x.shape[2]] = x
    acc = np.zeros((k_out, h_out, w_out), np.int64)
    for dy in range(kh):
        for dx in range(kw):
            patch = xp[:, dy:dy + 1 + (h_out - 1) * stride:stride,
                       dx:dx + 1 + (w_out - 1) * stride:stride]
            acc += np.einsum("kc,cyx->kyx", w[:, :, dy, dx].astype(np.int64), patch)
    return acc + (b.astype(np.int64) << fxp.FRAC_BITS)[:, None, None]


def naive_renorm(acc):
    return np.clip(acc >> fxp.FRAC_BITS, fxp.QMIN, fxp.QMAX).astype(np.int16)


def naive_pool2(x):
    k, h, w = x.shape
    ho, wo = -(-h // 2), -(-w // 2)
    out = np.empty((k, ho, wo), np.int16)
    for y in range(ho):
        for xx in range(wo):
            out[:, y, xx] = x[:, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].max(axis=(1, 2))
    return out


def naive_infer(graph, store, image):
    """From-scratch fixed-point interpreter; returns every tensor by name,
    the input included and each FC head as a (1, 1, 1) int16 map."""
    acts = {net.INPUT_TENSOR: image}
    for spec in graph.layers:
        x = acts[spec.inputs[0]]
        if spec.kind == net.CONV:
            w, b = store[spec.name]
            out = naive_renorm(naive_conv_acc(x, w, b, spec.stride))
            if spec.fused_pool:
                out = naive_pool2(out)
            if spec.fused_relu:
                out = np.maximum(out, 0)
        elif spec.kind == net.RELU:
            out = np.maximum(x, 0)
        elif spec.kind == net.ADD:
            s = x.astype(np.int64) + acts[spec.inputs[1]].astype(np.int64)
            out = np.clip(s, fxp.QMIN, fxp.QMAX).astype(np.int16)
            if spec.fused_relu:
                out = np.maximum(out, 0)
        elif spec.kind == net.FC:
            w, b = store[spec.name]
            acc = int(sum(int(a) * int(c) for a, c in
                          zip(x.ravel().tolist(), w.ravel().tolist())))
            acc += int(b[0]) << fxp.FRAC_BITS
            out = np.full((1, 1, 1), max(min(acc >> fxp.FRAC_BITS, fxp.QMAX), fxp.QMIN),
                          np.int16)
        acts[spec.output] = out
    return acts


def tensor_mismatches(got, want):
    """Names of the tensors in got, a name -> map dict, that want lacks or
    whose map differs from want's in dtype, shape or any element.  The tiled
    engine holds no map for a row it fuses into a node, so got may hold
    fewer tensors than want."""
    return [name for name, x in got.items()
            if name not in want or x.dtype != want[name].dtype
            or not np.array_equal(x, want[name])]


def load_image_pixels(img):
    """The input tensor of a uint8 (height, width) frame by the float
    formula: the centred square crop, resized to the input side by np.ix_
    nearest-neighbour indexing, then quantize_array(p / 255) over every
    pixel."""
    h, w = img.shape
    side = min(h, w)
    top, left = (h - side) // 2, (w - side) // 2
    img = img[top:top + side, left:left + side]
    target = net.INPUT_SHAPE[1]
    if side != target:
        idx = (np.arange(target) * side) // target
        img = img[np.ix_(idx, idx)]
    return fxp.quantize_array(img.astype(np.float64) / 255.0)[np.newaxis, :, :]


def random_image(seed, graph=DRONET):
    """A seeded uniform Q4.12 image in [0, 1), shaped as the graph's input."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    return fxp.quantize_array(rng.uniform(0.0, 1.0, graph.tensors[net.INPUT_TENSOR]))


def _grid_plans(node, scheme):
    """Every plan of one scheme that a pooled epilogue allows, in the
    planner's order, from explicit loops over the tile extents, built afresh
    on each call: a pooled epilogue accumulates in a single input-channel
    pass."""
    body = node.body
    extents = []
    if node.kind == "conv" and scheme == tiler.SPATIAL:
        for h_tile in range(1, node.h_out + 1):
            for ci_tile in range(1, body.k_in + 1):
                extents.append((h_tile, ci_tile, body.k_out))
    elif node.kind == "conv":
        for co_tile in range(1, body.k_out + 1):
            for ci_tile in range(1, body.k_in + 1):
                extents.append((node.h_out, ci_tile, co_tile))
    elif node.kind == "ew" and scheme == tiler.SPATIAL:
        for h_tile in range(1, body.h_in + 1):
            extents.append((h_tile, body.k_in, body.k_in))
    elif node.kind == "ew":
        for ci_tile in range(1, body.k_in + 1):
            extents.append((body.h_in, ci_tile, ci_tile))
    elif scheme == tiler.FEATUREWISE:
        for ci_tile in range(1, body.k_in + 1):
            extents.append((1, ci_tile, 1))
    plans = (tiler.TilePlan(node, scheme, *e) for e in extents)
    return [p for p in plans if not (node.fused_pool and p.n_ci > 1)]


def feasible_plans(node, l1_budget, scheme):
    """Every feasible plan of one scheme in the planner's order: the plans
    of _grid_plans whose footprint fits."""
    return [p for p in _grid_plans(node, scheme) if p.footprint <= l1_budget]


def schemes(node):
    """The schemes that apply to the node kind."""
    return ((tiler.FEATUREWISE,) if node.kind == "fc"
            else (tiler.SPATIAL, tiler.FEATUREWISE))


def infeasible_text(node, l1_budget):
    return f"{node.name}: infeasible under {l1_budget} byte budget ({', '.join(schemes(node))})"


class Scored(NamedTuple):
    """One grid plan's footprint and cycles, and the fields that rebuild it."""

    footprint: int
    cycles: float
    n_tiles: int
    scheme: str
    h_tile: int
    ci_tile: int
    co_tile: int


@functools.lru_cache(maxsize=tiler.FRONTIERS_CACHED)
def _scored(node, calib):
    """Every _grid_plans plan of the schemes that apply to the node kind,
    under an unbounded budget, scored once with cost.plan_cycles: a tuple of
    Scored rows in the schemes' order.  The plans are not kept; the callers
    build a scored plan from the row they pick."""
    return tuple(Scored(p.footprint, cost.plan_cycles(p, calib), p.n_tiles, p.scheme,
                        p.h_tile, p.ci_tile, p.co_tile)
                 for scheme in schemes(node) for p in _grid_plans(node, scheme))


def _order(row):
    """The planner's order, before the enumeration order."""
    return row.cycles, row.n_tiles, -row.h_tile, 0 if row.scheme == tiler.SPATIAL else 1


def _plan(node, row):
    return tiler.TilePlan(node, row.scheme, row.h_tile, row.ci_tile, row.co_tile,
                          est_cycles=row.cycles)


def exhaustive_plan_layer(node, l1_budget, calib=cost.DEFAULT_CALIB):
    """The first of the scored plans whose footprint fits the budget under
    (est_cycles, n_tiles, -h_tile, spatial first), as a fresh plan."""
    fits = [row for row in _scored(node, calib) if row.footprint <= l1_budget]
    if not fits:
        raise tiler.InfeasibleError(infeasible_text(node, l1_budget))
    return _plan(node, min(fits, key=_order))


def loop_frontier(node, calib=cost.DEFAULT_CALIB):
    """exhaustive_plan_layer at every budget from one scoring: the scored
    plans walked in ascending footprint.  Returns the (footprint, plan)
    steps at which the best plan so far changes, each plan a fresh one."""
    scored = _scored(node, calib)
    steps = []
    best = None
    for i in sorted(range(len(scored)), key=lambda i: scored[i].footprint):
        row = scored[i]
        key = (*_order(row), i)
        if best is None or key < best:
            best = key
            if steps and steps[-1].footprint == row.footprint:
                steps.pop()
            steps.append(row)
    return [(row.footprint, _plan(node, row)) for row in steps]


def assert_design_curve(graph, calib=cost.DEFAULT_CALIB):
    """Assert that the graph's design curve breaks where some node's
    loop_frontier steps, from the edge (the largest first step) up, and that
    plan_network at each break, one byte below it and one byte above it
    picks every node's loop_frontier plan, as plan_layer's own object.
    Below the edge it must raise the first unfit node's InfeasibleError.
    Returns the breaks."""
    nodes = tiler.node_kernels(graph)
    steps = [loop_frontier(node, calib) for node in nodes]
    edge = max(node_steps[0][0] for node_steps in steps)
    breaks = sorted({f for node_steps in steps for f, _ in node_steps if f >= edge})
    assert tiler.design_curve(graph, calib).breaks == tuple(breaks)
    for budget in sorted({b + d for b in breaks for d in (-1, 0, 1)}):
        if budget < edge:
            with pytest.raises(tiler.InfeasibleError) as got:
                tiler.plan_network(graph, budget, calib)
            first = next(n for n, s in zip(nodes, steps) if s[0][0] > budget)
            assert str(got.value) == infeasible_text(first, budget)
            continue
        plans = tiler.plan_network(graph, budget, calib).plans
        assert plans == tuple([p for f, p in s if f <= budget][-1] for s in steps), budget
        assert all(p is tiler.plan_layer(n, budget, calib) for n, p in zip(nodes, plans))
    return breaks


def stripe_reads(body, rows):
    """(first, last+1, pad_above, pad_below) of the input rows that a conv
    or FC tile over node-output rows reads, from the layer row alone: node
    row h is convolution row h, or rows 2h and 2h+1 of the ceil(h_in /
    stride) there are when a pool is fused; convolution row c reads input
    rows c * stride - kh//2 + dy for dy < kh, and the rows of that span
    above row 0 or below h_in are zero padding."""
    h0, h1 = rows
    if body.fused_pool:
        h0, h1 = 2 * h0, min(2 * h1, -(-body.h_in // body.stride))
    read = [c * body.stride - body.kh // 2 + dy for c in range(h0, h1) for dy in range(body.kh)]
    span = range(min(read), max(read) + 1)
    inside = [r for r in span if 0 <= r < body.h_in]
    return (inside[0], inside[-1] + 1, sum(r < 0 for r in span),
            sum(r >= body.h_in for r in span))


def assert_tile_geometry(plan):
    """Assert that a plan's tiles are one exact computation of its node's
    output, as the host computes it: every range lies inside the node's
    tensors, the rows partition [0, h_out), each tile reads the rows
    stripe_reads derives from the layer row (an elementwise tile its own
    rows, unpadded), and in each row group the tiles cover every (input
    channel, output channel) pair once (an elementwise node's every input
    channel once) and the closing tiles every output channel once, each the
    last tile of its output-channel range, whose input-channel chunks ascend
    from 0 with no gap."""
    node, body = plan.node, plan.node.body
    groups = {}
    for t in plan.tiles():
        for lo, hi, n in ((*t.rows, node.h_out), (*t.ci, body.k_in), (*t.co, body.k_out),
                          (*t.in_rows[:2], body.h_in)):
            assert 0 <= lo < hi <= n, (node.name, t.index)
        reads = (*t.rows, 0, 0) if node.kind == "ew" else stripe_reads(body, t.rows)
        assert t.in_rows == reads, (node.name, t.index)
        groups.setdefault(t.rows, []).append(t)
    rows = np.zeros(node.h_out, int)
    for (h0, h1), tiles in groups.items():
        rows[h0:h1] += 1
        where = (node.name, (h0, h1))
        if node.kind == "ew":
            channels = np.zeros(body.k_in, int)
            for t in tiles:
                assert t.co == t.ci and t.closes, where
                channels[t.ci[0]:t.ci[1]] += 1
            assert (channels == 1).all(), where
            continue
        pairs, closed = np.zeros((body.k_in, body.k_out), int), np.zeros(body.k_out, int)
        by_co = {}
        for t in tiles:
            pairs[t.ci[0]:t.ci[1], t.co[0]:t.co[1]] += 1
            closed[t.co[0]:t.co[1]] += t.closes
            by_co.setdefault(t.co, []).append(t)
        assert (pairs == 1).all() and (closed == 1).all(), where
        for run in by_co.values():
            assert [t.closes for t in run] == [False] * (len(run) - 1) + [True], where
            assert [t.ci[0] for t in run] == [0, *(t.ci[1] for t in run[:-1])], where
    assert (rows == 1).all(), node.name


def assert_stored_footprints(node, steps):
    """Assert that every step's plan stores the step's footprint, which is
    the sum of the plan's buffers' totals, and that the frozen plan refuses
    another."""
    for i, step in enumerate(steps):
        plan = steps.plan(node, i)
        assert plan.footprint == step.footprint, (node.name, i)
        assert plan.footprint == sum(b.total for b in plan.buffers.values()), (node.name, i)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.footprint = 0
        assert plan.footprint == step.footprint, (node.name, i)


def exhaustive_two_stack(graph):
    """Score every stack assignment of the activation buffers, the input's
    included, in one numpy pass; keep the smallest (peak, max stack peak,
    index in itertools.product order) and return its plan, with the events
    replay_two_stack records for it.

    Column a of the pass is the assignment whose bits, read as a binary
    number with buffer 0 on top, are a.  Each stack is a bitmask of the
    buffers it holds; buffers are allocated in index order, so the top of a
    stack is its highest bit, and a step's frees pop every dead bit above
    the highest live one."""
    life = l2plan._lifetimes(graph)
    n = len(life.buffers)
    column = np.arange(2 ** n)
    stack_of = [(column >> (n - 1 - b)) & 1 for b in range(n)]
    # by bitmask: the bytes of its buffers, and every bit up to its highest
    held_bytes, up_to_top = np.zeros(1, np.int64), np.zeros(1, np.int64)
    for b in range(n):
        held_bytes = np.concatenate([held_bytes, held_bytes + life.size[b]])
        up_to_top = np.concatenate([up_to_top, np.full(2 ** b, 2 ** (b + 1) - 1)])
    masks = np.zeros((2, 2 ** n), np.int64)
    peaks = np.zeros((2, 2 ** n), np.int64)

    def alloc(b, weight_bytes):
        masks[stack_of[b], column] |= 1 << b
        held = held_bytes[masks]
        held[stack_of[b], column] += weight_bytes     # staged on top, then freed
        np.maximum(peaks, held, out=peaks)
        return held.sum(0)

    peak = alloc(0, 0) if n else np.zeros(1, np.int64)
    for i, (buf, _, weight_bytes) in enumerate(life.script):
        if buf is not None:
            peak = np.maximum(peak, alloc(buf, weight_bytes))
        live = sum(1 << b for b in range(n) if life.last_use[b] > i)
        masks &= up_to_top[masks & live]
    best = np.lexsort((peaks.max(0), peak))[0]
    bits = tuple(int(s[best]) for s in stack_of)
    got_peak, got_peaks, events = replay_two_stack(life, bits)
    assert (got_peak, max(got_peaks)) == (peak[best], peaks[:, best].max())
    return l2plan.L2AllocPlan(tuple(l2plan.AllocEvent(*e) for e in events),
                              got_peak, tuple(got_peaks))


def tampered_l2_plans(plan):
    """Edits of a two-stack L2 plan that validate_plan rejects, by name.
    "lifo": two frees of one step on one stack swapped, so the first frees a
    buried buffer.  "early free": the RES1 bypass operand conv_3 freed at
    step 3, after that step's first alloc, before the join that reads it.
    "no output": the steering head's output buffer never allocated.
    "late input": the input allocated at step 0, first, so it is not live
    when the frame lands at step -1.  Four edits put events where the plan
    has no step or stack: "stack -1" and "stack 2" move conv_9's output and
    weight events off the two stacks, "step -2" lands the input a step
    before the frame, and "step n+1" moves the last free past the mission
    end."""
    events = list(plan.events)
    frees = [i for i, e in enumerate(events)
             if e.action == "free" and not e.buffer.startswith("w:")]
    i, j = next((a, b) for a in frees for b in frees
                if a < b and events[a].stack == events[b].stack
                and events[a].step == events[b].step)
    events[i], events[j] = events[j], events[i]
    lifo = dataclasses.replace(plan, events=tuple(events))
    moved = next(e for e in plan.events if e.buffer == "conv_3" and e.action == "free")
    events = [e for e in plan.events if e is not moved]
    at = next(i for i, e in enumerate(events) if e.step == 3 and e.action == "alloc") + 1
    events.insert(at, moved._replace(step=3))
    landing = next(e for e in plan.events if e.step == -1)

    def edited(pick, **change):
        return dataclasses.replace(plan, events=tuple(
            e._replace(**change) if pick(e) else e for e in plan.events))

    def conv_9(e):
        return e.buffer in ("conv_9", "w:conv_9")

    return {"lifo": lifo, "early free": dataclasses.replace(plan, events=tuple(events)),
            "no output": dataclasses.replace(plan, events=tuple(
                e for e in plan.events if e.buffer != "fully_1")),
            "late input": dataclasses.replace(plan, events=(
                landing._replace(step=0), *(e for e in plan.events if e is not landing))),
            "stack -1": edited(conv_9, stack=-1),
            "stack 2": edited(conv_9, stack=2),
            "step -2": edited(lambda e: e is landing, step=-2),
            "step n+1": edited(lambda e: e is plan.events[-1], step=plan.events[-1].step + 1)}


def replay_l2_verdict(plan, graph):
    """validate_plan's verdict from a replay of its own, step by step.  An
    event on a step or stack the plan has not got is named first and left
    out.  Then each step's events are grouped, its leading allocations
    applied, its liveness checked (at step -1, the input's), then its other
    events applied; a buried free is named and its buffer pulled out of the
    stack."""
    life = l2plan._lifetimes(graph)
    n, n_stacks = len(life.nodes), len(plan.stack_peaks)
    violations = []
    kept = []
    for ev in plan.events:
        if ev.step in range(-1, n + 1) and ev.stack in range(n_stacks):
            kept.append(ev)
        else:
            violations.append(f"step {ev.step}: {ev.action} of {ev.buffer} on stack "
                              f"{ev.stack} outside steps -1..{n} and stacks 0..{n_stacks - 1}")
    stacks = [[] for _ in range(n_stacks)]
    occ, peaks, peak, live = [0] * n_stacks, [0] * n_stacks, 0, set()
    by_step = {}
    for ev in kept:
        by_step.setdefault(ev.step, []).append(ev)

    def apply(step, ev):
        nonlocal peak
        held = stacks[ev.stack]
        if ev.action == "alloc":
            held.append(ev.buffer)
            live.add(ev.buffer)
            occ[ev.stack] += ev.bytes
            peak = max(peak, sum(occ))
            peaks[ev.stack] = max(peaks[ev.stack], occ[ev.stack])
            return
        if held[-1:] != [ev.buffer]:
            violations.append(f"step {step}: free of {ev.buffer} but stack {ev.stack} "
                              f"top is {held[-1] if held else None}")
            if ev.buffer in held:
                held.remove(ev.buffer)
        else:
            held.pop()
        live.discard(ev.buffer)
        occ[ev.stack] -= ev.bytes

    for step in range(-1, n + 1):
        evs = by_step.get(step, [])
        lead = next((k for k, ev in enumerate(evs) if ev.action != "alloc"), len(evs))
        for ev in evs[:lead]:
            apply(step, ev)
        if step == -1 and life.buffers and life.buffers[0] not in live:
            violations.append(f"step -1: {life.buffers[0]} not allocated before the frame lands")
        if 0 <= step < n:
            node = life.nodes[step]
            for b in life.consumes[step]:
                if b not in live:
                    ever = any(e.buffer == b and e.action == "alloc" for e in kept)
                    violations.append(f"step {step}: consumed {b} "
                                      f"{'already freed' if ever else 'never allocated'}")
            if node.kind != "ew":
                if l2plan.weight_buffer(node) not in live:
                    violations.append(f"step {step}: weights {l2plan.weight_buffer(node)} "
                                      "not staged")
                if node.output not in live:
                    violations.append(f"step {step}: output {node.output} not allocated")
        for ev in evs[lead:]:
            apply(step, ev)
    if peak != plan.peak_bytes:
        violations.append(f"recomputed peak {peak} != recorded {plan.peak_bytes}")
    if tuple(peaks) != tuple(plan.stack_peaks):
        violations.append(f"recomputed stack peaks {peaks} != {plan.stack_peaks}")
    if n_stacks == 2 and peak > l2plan.L2_BYTES:
        violations.append(f"peak {peak} exceeds L2 capacity {l2plan.L2_BYTES}")
    return violations


def replay_two_stack(life, bits):
    """(peak, stack peaks, events) of one assignment, bits[b] being buffer
    b's stack.  The input is allocated before step 0.  Each step's events
    come in the planner's documented order: the output alloc, the weight
    alloc and the weight free, then the dead buffers on top of stack 0,
    most recent first, then those of stack 1."""
    stacks, occ, peaks = ([], []), [0, 0], [0, 0]
    peak = 0
    events = []

    def alloc(step, name, nbytes, s):
        nonlocal peak
        occ[s] += nbytes
        peak = max(peak, occ[0] + occ[1])
        peaks[s] = max(peaks[s], occ[s])
        events.append((step, "alloc", name, s, nbytes))

    if life.buffers:
        stacks[bits[0]].append(0)
        alloc(-1, life.buffers[0], life.size[0], bits[0])
    for i in range(len(life.nodes) + 1):
        if i < len(life.nodes) and life.nodes[i].kind != "ew":
            buf, nbytes, wbytes = life.script[i]
            s, wname = bits[buf], l2plan.weight_buffer(life.nodes[i])
            stacks[s].append(buf)
            alloc(i, life.buffers[buf], nbytes, s)
            alloc(i, wname, wbytes, s)
            occ[s] -= wbytes
            events.append((i, "free", wname, s, wbytes))
        for s in (0, 1):
            while stacks[s] and life.last_use[stacks[s][-1]] <= i:
                buf = stacks[s].pop()
                occ[s] -= life.size[buf]
                events.append((i, "free", life.buffers[buf], s, life.size[buf]))
    return peak, peaks, events


@dataclasses.dataclass
class LoopAudit:
    """loop_audit's replay, its values named as executor.AuditReport names
    them; tag_bytes is the loop's own per-event sum, where AuditReport
    derives it from tag_stream_bytes."""
    peak_l1: int
    peak_l2: int
    tag_bytes: dict[str, int]
    tag_stream_bytes: dict[tuple[str, str], int]
    node_stream: dict[tuple[str, str], tuple[int, int]]
    n_events: int
    violations: list[str]


def audit_fields(report):
    """The values of an AuditReport or a LoopAudit, LoopAudit's fields in
    order, each dict as its list of items, so that comparing two reports
    also compares the order of their entries."""
    names = [f.name for f in dataclasses.fields(LoopAudit)]
    assert {f.name for f in dataclasses.fields(report)} <= set(names)
    return [list(v.items()) if isinstance(v, dict) else v
            for v in (getattr(report, name) for name in names)]


def loop_audit(trace, memsim=None):
    """executor.audit_trace as one pass over the events in order, with a
    dict of live buffers."""
    used = {"L1": 0, "L2": 0, "L3": 0}
    peak = {"L1": 0, "L2": 0, "L3": 0}
    live: dict[tuple[str, str], int] = {}
    tag_bytes: dict[str, int] = {}
    tag_stream: dict[tuple[str, str], int] = {}
    node_stream: dict[tuple[str, str], tuple[int, int]] = {}
    violations = []
    for kind, region, node, _tile, name, nbytes, _macs, _workers, _overlap in trace.events:
        if kind == "alloc":
            key = (region, name)
            if key in live:
                violations.append(f"double alloc {key}")
            live[key] = nbytes
            used[region] += nbytes
            peak[region] = max(peak[region], used[region])
        elif kind == "free":
            key = (region, name)
            if key not in live:
                violations.append(f"free of dead {key}")
                continue
            took = live.pop(key)
            if nbytes != took:
                violations.append(f"free of {key} gives back {nbytes} bytes, its alloc took {took}")
            used[region] -= took
        elif kind == "xfer":
            tag_bytes[region] = tag_bytes.get(region, 0) + nbytes
            tag_stream[(region, name)] = tag_stream.get((region, name), 0) + nbytes
            if region in (executor.TAG_L2_L1, executor.TAG_L1_L2):
                c, b = node_stream.get((node, name), (0, 0))
                node_stream[(node, name)] = (c + 1, b + nbytes)
    if memsim is not None:
        for region in ("L1", "L2"):
            if peak[region] != memsim.peak[region]:
                violations.append(f"{region} peak mismatch: replay {peak[region]} "
                                  f"vs memsim {memsim.peak[region]}")
    return LoopAudit(peak["L1"], peak["L2"], tag_bytes, tag_stream, node_stream,
                     len(trace.events), violations)
