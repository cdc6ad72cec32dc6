import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from nanotile import cost, executor, fxp, kernels, l2plan, net, tiler


# heads, event count and trace CSV sha256 at 16/32/60 KB for random_store
# seeds 0 and 3 at amplitudes 1.0 and 0.1, recorded when the executor still
# built the input columns of each tile on its own (free rows carry their
# alloc's bytes);
# tensors_sha256 (_tensors_sha256 of ExecResult.tensors) recorded once the
# ReLU node wrote its own array, so that "conv_1" holds conv_1's map
TRACE_TABLE = json.loads((Path(__file__).parent / "data" / "trace_table.json").read_text())


@pytest.fixture(scope="module")
def graph():
    return net.build_dronet()


@pytest.fixture(scope="module")
def schedule(graph):
    return tiler.plan_network(graph, 60 * 1024)


def test_zero_weights(graph, schedule):
    res = executor.execute_schedule(schedule, net.zero_store(graph),
                                    oracles.random_image(0))
    assert res.steering == 0.0 and res.collision_prob == 0.5


@pytest.mark.parametrize("budget_kb", [16, 60])
def test_bit_exact_vs_untiled(graph, budget_kb):
    sched = tiler.plan_network(graph, budget_kb * 1024)
    # at amplitude 1.0 both heads saturate on every seed, so a wrong head
    # would still match; at 0.1 they carry the whole accumulation
    for amplitude in (1.0, 0.1):
        for seed in range(4):                # acceptance widens this to 100 seeds
            store = net.random_store(graph, seed, amplitude)
            image = oracles.random_image(seed)
            ref = kernels.infer_untiled(graph, store, image)
            res = executor.execute_schedule(sched, store, image)
            heads = (res.raw_steering, res.raw_collision)
            assert heads == (ref.raw_steering, ref.raw_collision), f"seed {seed}"
            if amplitude < 1:
                assert fxp.QMIN < min(heads) and max(heads) < fxp.QMAX, f"seed {seed}"


def _l2_events(trace):
    """The trace's L2 allocs and frees as (kind, buffer, bytes)."""
    return [(e.kind, e.name, e.bytes) for e in trace.events
            if e.region == "L2" and e.kind in ("alloc", "free")]


def test_l2_events_replay_the_l2_plan(graph):
    # weights included: the trace's L2 allocs and frees are the plan's,
    # one for one, in order and with their sizes
    for budget_kb in (16, 60):
        sched = tiler.plan_network(graph, budget_kb * 1024)
        res = executor.execute_schedule(sched, net.zero_store(graph),
                                        oracles.random_image(0))
        got = _l2_events(res.trace)
        want = [(ev.action, ev.buffer, ev.bytes) for ev in sched.l2.events]
        assert got == want
        assert any(name.startswith("w:") for _, name, _ in got)


@pytest.mark.parametrize("budget_kb", [16, 32, 60])
def test_every_node_output_matches_untiled(graph, budget_kb):
    # a saturated head hides a wrong pixel anywhere upstream, so every node
    # kernel's output is compared whole with the untiled engine's
    sched = tiler.plan_network(graph, budget_kb * 1024)
    outputs = [p.node.output for p in sched.plans]
    for amplitude in (1.0, 0.1):
        for seed in range(3):
            store = net.random_store(graph, seed, amplitude)
            image = oracles.random_image(seed)
            ref = kernels.infer_untiled(graph, store, image)
            res = executor.execute_schedule(sched, store, image)
            for name in outputs:
                np.testing.assert_array_equal(res.tensors[name], ref.tensors[name], strict=True,
                                              err_msg=f"{name}, seed {seed}, "
                                                      f"amplitude {amplitude}")


def _tensors_sha256(tensors):
    h = hashlib.sha256()
    for name in sorted(tensors):
        a = tensors[name]
        h.update(f"{name}:{a.dtype}:{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("entry", TRACE_TABLE,
                         ids=lambda e: "{budget}-{seed}-{amplitude}".format(**e))
def test_trace_table(graph, entry):
    sched = tiler.plan_network(graph, entry["budget"])
    store = net.random_store(graph, entry["seed"], entry["amplitude"])
    res = executor.execute_schedule(sched, store, oracles.random_image(entry["seed"]))
    assert [res.raw_steering, res.raw_collision] == entry["heads"]
    assert len(res.trace.events) == entry["events"]
    assert hashlib.sha256(res.trace.to_csv().encode()).hexdigest() == entry["csv_sha256"]
    assert _tensors_sha256(res.tensors) == entry["tensors_sha256"]
    # the pinned hash is the untiled engine's over the same names
    ref = kernels.infer_untiled(graph, store, oracles.random_image(entry["seed"]))
    assert _tensors_sha256({name: ref.tensors[name] for name in res.tensors}) == \
        entry["tensors_sha256"]


def _host_gemms(sched):
    """GEMMs per frame by node, counted here from the plans: consecutive row
    ranges of a conv or FC plan share one GEMM while their float64 columns,
    the bias's ones row included, and float64 accumulator fit
    kernels.ROW_BLOCK_BYTES; a range is never split."""
    gemms = {}
    for p in sched.plans:
        if p.node.kind == "ew":
            continue
        body = p.node.body
        row_bytes = 8 * (body.k_in * body.kh * body.kw + 1 + body.k_out) * p.node.w_out
        if p.node.fused_pool:
            row_bytes *= 4
        start, n = None, 0
        for h0, h1 in p.h_ranges():
            if start is None or (h1 - start) * row_bytes > kernels.ROW_BLOCK_BYTES:
                n, start = n + 1, h0
        gemms[body.name] = n
    return gemms


# (budget, tile row groups, host GEMMs per frame); the ids keep the row groups
GEMM_COUNTS = [pytest.param(16, 97, 16, id="16-97"), pytest.param(60, 25, 16, id="60-25")]


@pytest.mark.parametrize("budget_kb,groups,gemms", GEMM_COUNTS)
def test_window_columns_built_once_per_node(graph, monkeypatch, budget_kb, groups, gemms):
    # conv_acc builds a host block's columns from one bounds-checked view
    # into the node's padded map: each node pads its input once, and its
    # blocks' stripes of that one map step through its convolution rows in
    # order, one view per block, per frame
    sched = tiler.plan_network(graph, budget_kb * 1024)
    assert sum(_host_gemms(sched).values()) == gemms
    calls = []
    conv_acc = kernels.conv_acc
    monkeypatch.setattr(kernels, "conv_acc", lambda *args: calls.append(args) or conv_acc(*args))
    executor.execute_schedule(sched, net.zero_store(graph), oracles.random_image(0))
    assert len(calls) == gemms
    for p in sched.plans:
        if p.node.kind == "ew":
            continue
        body, xp, conv = p.node.body, calls[0][0], 0
        assert xp.shape == (body.k_in, body.h_in + body.kh // 2 * 2,
                            body.w_in + body.kw // 2 * 2), p.node.name
        while calls and calls[0][0] is xp:
            _, r0, r1, _, kh, _, stride, _ = calls.pop(0)
            assert r0 == conv * stride, p.node.name
            conv += (r1 - r0 - kh) // stride + 1
        assert conv == (xp.shape[1] - body.kh) // body.stride + 1, p.node.name
    assert not calls


@pytest.mark.parametrize("budget_kb,groups,gemms", GEMM_COUNTS)
def test_one_gemm_per_window(graph, monkeypatch, budget_kb, groups, gemms):
    # the tiles' row groups only split one exact sum, so the host merges
    # them into blocks within ROW_BLOCK_BYTES, one conv_acc GEMM each per
    # frame: at 16 KB conv_1+pool's 50 one-row groups take 5 GEMMs, and
    # conv_2's 1024 tiles one
    sched = tiler.plan_network(graph, budget_kb * 1024)
    distinct = sum(len({t.rows for t in p.tiles()})
                   for p in sched.plans if p.node.kind != "ew")
    assert distinct == groups
    assert sum(_host_gemms(sched).values()) == gemms
    calls = []
    conv_acc = kernels.conv_acc
    monkeypatch.setattr(kernels, "conv_acc", lambda *a: calls.append(1) or conv_acc(*a))
    executor.execute_schedule(sched, net.zero_store(graph), oracles.random_image(0))
    assert len(calls) == gemms


@pytest.mark.parametrize("budget_kb", [16, 32, 60])
def test_tiled_conv_temporaries_fit_the_row_block_budget(graph, monkeypatch, budget_kb):
    # every conv_acc call of execute_schedule builds float64 columns, their
    # ones row included, and a float64 accumulator within ROW_BLOCK_BYTES,
    # unless its block is one of the plan's row ranges; a block's
    # node-output rows are its conv rows, halved when pooled, and a pooled
    # block's columns span the width rounded up to even
    sched = tiler.plan_network(graph, budget_kb * 1024)
    store = net.random_store(graph, 0)
    calls = []
    conv_acc = kernels.conv_acc
    monkeypatch.setattr(kernels, "conv_acc", lambda *args: calls.append(args) or conv_acc(*args))
    executor.execute_schedule(sched, store, oracles.random_image(0))
    for p in sched.plans:
        if p.node.kind == "ew":
            continue
        h0 = 0
        # a node's GEMMs take its integer weights cast to float64, unscaled
        weights = store[p.node.body.name][0]
        weights = weights.reshape(len(weights), -1)
        for xp, r0, r1, wb, kh, kw, stride, pool in (
                c for c in calls
                if c[3].dtype == np.float64 and np.array_equal(c[3][:, :-1], weights)):
            assert pool == p.node.fused_pool
            h_out, w_out = (r1 - r0 - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
            if pool:
                h_out, w_out = -(-h_out // 2), 4 * -(-w_out // 2)
            h1 = h0 + h_out
            if 8 * sum(wb.shape) * h_out * w_out > kernels.ROW_BLOCK_BYTES:
                assert (h0, h1) in p.h_ranges(), p.node.name
            h0 = h1
        assert h0 == p.node.h_out, p.node.name


def test_weight_heavy_layers_take_one_gemm_per_frame(graph, monkeypatch):
    # conv_5, conv_6 and conv_9 hold more weights than columns; their whole
    # map's columns and accumulator fit one block, so both engines pack
    # their weights for one GEMM per frame, at every budget
    heavy = ("conv_5", "conv_6", "conv_9")
    store, image = net.random_store(graph, 0), oracles.random_image(0)
    calls = []
    conv_acc = kernels.conv_acc
    monkeypatch.setattr(kernels, "conv_acc",
                        lambda *args: calls.append(args[3]) or conv_acc(*args))
    runs = [lambda: kernels.infer_untiled(graph, store, image)]
    for budget_kb in (16, 32, 60):
        sched = tiler.plan_network(graph, budget_kb * 1024)
        assert [_host_gemms(sched)[name] for name in heavy] == [1, 1, 1]
        runs.append(lambda sched=sched: executor.execute_schedule(sched, store, image))
    for run in runs:
        calls.clear()
        run()
        assert [sum(np.array_equal(wb[:, :-1], store[name][0].reshape(len(wb), -1))
                    for wb in calls) for name in heavy] == [1, 1, 1]


@pytest.mark.parametrize("budget_kb", [16, 32, 60])
def test_compute_events_charge_their_tiles_forks(graph, budget_kb):
    # the trace logs one compute event per tile, input-channel chunks
    # included, while the cycle model charges fork/join sections per output
    # tile (Tile.forks is 0 on a tile that does not close); each event names
    # its tile, so the forks a trace charges come from its events' tiles
    sched = tiler.plan_network(graph, budget_kb * 1024)
    events = {}
    for e in executor.compile_schedule(sched).trace.events:
        if e.kind == "compute":
            events.setdefault(e.node, []).append(e)
    for p in sched.plans:
        tiles, got = p.tiles(), events[p.node.name]
        assert [(e.tile, e.macs, e.workers) for e in got] == \
            [(t.index, t.macs, t.workers) for t in tiles], p.node.name
        assert sum(tiles[e.tile].forks for e in got) == p.loads().forks, p.node.name
    if budget_kb == 16:
        assert (len(events["conv_2"]), sched.plan_for("conv_2").loads().forks) == (1024, 32)


def test_run_enforces_schedule_l1_budget(graph, schedule):
    tight = dataclasses.replace(schedule, l1_budget=32 * 1024)
    for _ in range(2):          # a failed compile is not cached
        with pytest.raises(executor.MemSimError, match="L1 capacity exceeded"):
            executor.execute_schedule(tight, net.zero_store(graph), oracles.random_image(0))


def test_memory_replayed_once_per_schedule(graph):
    # the trace depends on the schedule alone: different weights and images
    # give different heads over one compiled trace
    sched = tiler.plan_network(graph, 16 * 1024)
    a, b = (executor.execute_schedule(sched, net.random_store(graph, seed, 0.1),
                                      oracles.random_image(seed)) for seed in (0, 3))
    assert (a.raw_steering, a.raw_collision) != (b.raw_steering, b.raw_collision)
    assert isinstance(a.trace.events, tuple)
    assert a.trace.events == b.trace.events
    assert a.memsim.peak == b.memsim.peak


def test_budget_and_l2_peaks(graph):
    for budget_kb in (16, 32, 60):
        sched = tiler.plan_network(graph, budget_kb * 1024)
        res = executor.execute_schedule(sched, net.random_store(graph, 0),
                                        oracles.random_image(0))
        audit = executor.audit_trace(res.trace, res.memsim)
        assert audit.ok
        assert audit.peak_l1 <= budget_kb * 1024
        assert audit.peak_l2 <= 512 * 1024
        assert audit.peak_l2 == sched.l2.peak_bytes


def test_transfer_conservation(graph, schedule):
    res = executor.execute_schedule(schedule, net.random_store(graph, 2),
                                    oracles.random_image(2))
    audit = executor.audit_trace(res.trace, res.memsim)
    for p in schedule.plans:
        counts, sizes = p.loads().descriptors, p.transfer_bytes()
        for stream in sizes:
            got = audit.node_stream.get((p.node.name, stream), (0, 0))
            assert got == (counts[stream], sizes[stream]), (p.node.name, stream)
    # every output element stored exactly once
    out_elems = sum(
        spec.k_out * spec.h_out * spec.w_out
        for spec in graph.layers
        if spec.name in {pl.node.output for pl in schedule.plans})
    assert audit.tag_bytes[executor.TAG_L1_L2] == sum(
        p.transfer_bytes()["out"] for p in schedule.plans)
    # weight ingress: one transfer per parameterized layer, actual byte sizes
    w_bytes = sum(2 * (s.k_out * s.k_in * s.kh * s.kw + s.k_out)
                  for s in graph.param_layers())
    assert audit.tag_stream_bytes[(executor.TAG_L3_L2, "weights")] == w_bytes
    assert audit.tag_stream_bytes[(executor.TAG_L3_L2, "frame")] == 2 * 200 * 200


def test_reread_factors_from_first_principles(graph, schedule):
    # recompute expected stream bytes from tensor shapes alone: feature-wise
    # reloads the input once per output-channel chunk; spatial stripes share
    # kernel-minus-stride rows; outputs are stored exactly once
    res = executor.execute_schedule(schedule, net.zero_store(graph),
                                    oracles.random_image(9))
    audit = executor.audit_trace(res.trace, res.memsim)
    life = {n.name: n for n in tiler.node_kernels(graph)}
    for p in schedule.plans:
        node = life[p.node.name]
        got_in = audit.node_stream[(node.name, "in")][1]
        if node.kind == "conv":
            body = node.body
            tensor_in = 2 * body.k_in * body.h_in * body.w_in
            if p.scheme == tiler.FEATUREWISE:
                assert got_in == tensor_in * p.n_co
            else:
                # every row a kernel window touches is loaded (stride-2 1x1
                # convolutions legitimately never read stripe-final odd rows)
                rows = 0
                touched = set()
                for h0, h1 in p.h_ranges():
                    c0, c1 = p.conv_rows(h0, h1)
                    pad = body.kh // 2
                    lo = max(c0 * body.stride - pad, 0)
                    hi = min((c1 - 1) * body.stride + body.kh - pad, body.h_in)
                    rows += hi - lo
                for y in range(body.conv_h_out):
                    for dy in range(body.kh):
                        r = y * body.stride + dy - body.kh // 2
                        if 0 <= r < body.h_in:
                            touched.add(r)
                assert got_in == 2 * body.k_in * rows * body.w_in
                assert got_in >= 2 * body.k_in * len(touched) * body.w_in
            k, h, w = graph.tensors[node.output]
            assert audit.node_stream[(node.name, "out")][1] == 2 * k * h * w


def test_trace_determinism(graph):
    store = net.random_store(graph, 5)
    image = oracles.random_image(5)
    a = executor.execute_schedule(tiler.plan_network(graph, 60 * 1024), store, image)
    b = executor.execute_schedule(tiler.plan_network(graph, 60 * 1024), store, image)
    assert a.trace.to_csv() == b.trace.to_csv()


def test_double_buffered_transfers_overlap_annotation(schedule, graph):
    res = executor.execute_schedule(schedule, net.random_store(graph, 1),
                                    oracles.random_image(1))
    by_node = {}
    for ev in res.trace.events:
        if ev.kind == "xfer" and ev.name == "in" and ev.region == executor.TAG_L2_L1:
            by_node.setdefault(ev.node, []).append(ev)
    for p in schedule.plans:
        evs = by_node.get(p.node.name, [])
        if p.buffers.get("in", p.buffers.get("io")) is None:
            continue
        stream = p.buffers.get("in") or p.buffers.get("io")
        if stream.double and len(evs) > 1:
            assert not evs[0].overlap            # first fill cannot hide
            assert all(e.overlap for e in evs[1:])


@pytest.mark.parametrize("entry", TRACE_TABLE,
                         ids=lambda e: "{budget}-{seed}-{amplitude}".format(**e))
def test_audit_matches_the_event_loop(graph, entry):
    sched = tiler.plan_network(graph, entry["budget"])
    store = net.random_store(graph, entry["seed"], entry["amplitude"])
    res = executor.execute_schedule(sched, store, oracles.random_image(entry["seed"]))
    audit = executor.audit_trace(res.trace, res.memsim)
    assert audit.ok and audit.n_events == entry["events"]
    assert oracles.audit_fields(audit) == oracles.audit_fields(
        oracles.loop_audit(res.trace, res.memsim))


def _mutated(events, i, *, insert=None, replace=None):
    """A new trace: events with one event inserted before position i or the
    event at i replaced."""
    events = list(events)
    if insert is not None:
        events.insert(i, insert)
    else:
        events[i] = replace
    return executor.TraceLog(events)


def test_audit_violations_match_the_event_loop(graph):
    sched = tiler.plan_network(graph, 16 * 1024)
    ms = executor.compile_schedule(sched)
    ev = ms.trace.events
    first_in = next(i for i, e in enumerate(ev) if e.kind == "alloc" and e.region == "L1")
    free_in = next(i for i, e in enumerate(ev) if e.kind == "free" and e.name == ev[first_in].name)
    acc = next(i for i, e in enumerate(ev) if e.kind == "alloc" and e.name == "conv_9:acc")
    extra = executor.Event("alloc", "L1", ev[first_in].node, -1, "extra", 16 * 1024)
    cases = (
        (_mutated(ev, first_in + 1, insert=ev[first_in]),
         [f"double alloc {('L1', ev[first_in].name)}", "L1 peak mismatch"]),
        (_mutated(ev, free_in + 1, insert=ev[free_in]),
         [f"free of dead {('L1', ev[free_in].name)}"]),
        (_mutated(ev, first_in + 1, insert=extra), ["L1 peak mismatch"]),
        # the free still gives back its own bytes, so it no longer matches
        (_mutated(ev, acc, replace=ev[acc]._replace(bytes=ev[acc].bytes + 2)),
         [f"free of ('L1', 'conv_9:acc') gives back {ev[acc].bytes} bytes, "
          f"its alloc took {ev[acc].bytes + 2}",
          "L1 peak mismatch: replay 16242 vs memsim 16240"]),
        # a free that gives back other bytes than its alloc took; the peak
        # counts the alloc's bytes, so it still matches
        (_mutated(ev, free_in, replace=ev[free_in]._replace(bytes=0)),
         [f"free of {('L1', ev[free_in].name)} gives back 0 bytes, "
          f"its alloc took {ev[first_in].bytes}"]))
    for trace, starts in cases:
        audit = executor.audit_trace(trace, ms)
        assert oracles.audit_fields(audit) == oracles.audit_fields(
            oracles.loop_audit(trace, ms))
        assert len(audit.violations) == len(starts)
        assert all(v.startswith(s) for v, s in zip(audit.violations, starts)), audit.violations
    over_budget = executor.audit_trace(cases[2][0])
    assert over_budget.peak_l1 > sched.l1_budget and over_budget.peak_l2 == ms.peak["L2"]


def test_audit_flags_a_free_that_gives_back_other_bytes():
    trace = executor.TraceLog([executor.Event("alloc", "L1", "n0", -1, "a", 10),
                               executor.Event("free", "L1", "n0", -1, "a", 0),
                               executor.Event("alloc", "L1", "n0", -1, "b", 5)])
    for audit in (executor.audit_trace(trace), oracles.loop_audit(trace)):
        assert audit.violations == ["free of ('L1', 'a') gives back 0 bytes, its alloc took 10"]
        assert audit.peak_l1 == 10


def test_trace_encoded_once_per_schedule(graph, monkeypatch):
    calls = []
    encode = executor._encode_trace
    monkeypatch.setattr(executor, "_encode_trace",
                        lambda events: calls.append(1) or encode(events))
    # another test may have replayed an equal schedule already
    executor._replay.cache_clear()
    sched = tiler.plan_network(graph, 16 * 1024)
    for seed in (0, 1):
        res = executor.execute_schedule(sched, net.zero_store(graph), oracles.random_image(seed))
        assert executor.audit_trace(res.trace, res.memsim).ok
    assert len(calls) == 1
    # an edited trace is a new TraceLog, encoded once when it is built
    events = res.trace.events + res.trace.events[-1:]
    trace = executor.TraceLog(events)
    assert len(calls) == 2
    for _ in range(2):
        assert executor.audit_trace(trace).violations == [
            f"free of dead {(events[-1].region, events[-1].name)}"]
    assert len(calls) == 2
    assert isinstance(trace.events, tuple)


def test_audit_rejects_an_unknown_region():
    trace = executor.TraceLog([executor.Event("alloc", "L1", "n", -1, "a", 4),
                               executor.Event("alloc", "L4", "n", -1, "b", 4)])
    with pytest.raises(KeyError):
        oracles.loop_audit(trace)
    with pytest.raises(ValueError, match=re.escape("event 1: alloc of 'b' in unknown region 'L4'")):
        executor.audit_trace(trace)


def test_empty_trace_audit():
    report = executor.audit_trace(executor.TraceLog(()))
    assert report.ok and report.peak_l1 == 0 and report.peak_l2 == 0
    assert report.tag_stream_bytes == {} and report.tag_bytes == {} and report.n_events == 0


def test_trace_csv_shape(schedule, graph):
    res = executor.execute_schedule(schedule, net.zero_store(graph),
                                    oracles.random_image(0))
    lines = res.trace.to_csv().splitlines()
    assert lines[0].startswith("kind,region,node")
    assert len(lines) == len(res.trace.events) + 1


def test_schedule_l2_plan_attached(graph):
    # a schedule is planned with the graph's two-stack plan, and a frame
    # replays it without touching the schedule
    sched = tiler.plan_network(graph, 60 * 1024)
    assert sched.l2 is l2plan.plan_two_stack(graph)
    assert not l2plan.validate_plan(sched.l2, graph)
    executor.execute_schedule(sched, net.zero_store(graph), oracles.random_image(0))
    assert sched.l2 is l2plan.plan_two_stack(graph)


def test_equal_schedules_share_one_replay():
    # the replay is a function of the schedule's values: two schedules
    # planned apart, equal but not the same object, share it
    a, b = (tiler.plan_network(net.build_dronet(), 16 * 1024) for _ in range(2))
    assert a is not b and a == b
    assert executor.compile_schedule(a) is executor.compile_schedule(b)


def test_compiled_replay_follows_the_attached_l2_plan(graph):
    # the cached replay serves only the L2 plan it replayed: the single-stack
    # plan peaks past L2 (745,152 B), so a frame under it must raise, not
    # reuse the two-stack trace; a failed compile caches nothing
    sched = tiler.plan_network(graph, 60 * 1024)
    store, image = net.zero_store(graph), oracles.random_image(0)
    first = executor.execute_schedule(sched, store, image)
    assert _l2_events(first.trace) == [(ev.action, ev.buffer, ev.bytes)
                                       for ev in sched.l2.events]
    sched.l2 = l2plan.plan_single_stack(graph)
    assert sched.l2.peak_bytes > l2plan.L2_BYTES
    for _ in range(2):
        with pytest.raises(executor.MemSimError, match="L2 capacity exceeded"):
            executor.execute_schedule(sched, store, image)
    # the replay is keyed on the L2 plan's value, so a fresh equal copy of
    # plan_two_stack's plan serves the first frame's replay
    sched.l2 = dataclasses.replace(l2plan.plan_two_stack(graph))
    res = executor.execute_schedule(sched, store, image)
    assert res.memsim is first.memsim
    assert _l2_events(res.trace) == [(ev.action, ev.buffer, ev.bytes) for ev in sched.l2.events]
    assert executor.audit_trace(res.trace, res.memsim).ok
    assert executor.execute_schedule(sched, store, image).memsim is res.memsim
    # the shared plan itself, attached to a new schedule, replays the same L2 events
    again = dataclasses.replace(tiler.plan_network(graph, 60 * 1024),
                                l2=l2plan.plan_two_stack(graph))
    assert _l2_events(executor.compile_schedule(again).trace) == _l2_events(first.trace)


def test_compiled_replay_follows_the_l1_budget(graph):
    # the replay reads the L1 budget: lowering it in place after a frame
    # must replay afresh and overflow, not serve the 60 KB trace
    store, image = net.zero_store(graph), oracles.random_image(0)
    sched = tiler.plan_network(graph, 60 * 1024)
    executor.execute_schedule(sched, store, image)
    sched.l1_budget = 8 * 1024
    for _ in range(2):
        with pytest.raises(executor.MemSimError, match="L1 capacity exceeded"):
            executor.execute_schedule(sched, store, image)


def test_compiled_replay_follows_the_tile_plans(graph):
    # the replay reads the tile plans: swapping them in place after a frame
    # must replay the new plans, not serve the old trace
    store, image = net.zero_store(graph), oracles.random_image(0)
    sched = tiler.plan_network(graph, 60 * 1024)
    first = executor.execute_schedule(sched, store, image)
    small = tiler.plan_network(graph, 16 * 1024)
    sched.plans = small.plans
    res = executor.execute_schedule(sched, store, image)
    fresh = executor.compile_schedule(small)
    assert len(res.trace.events) == len(fresh.trace.events) == 6401
    assert res.trace.events == fresh.trace.events != first.trace.events
    assert executor.execute_schedule(sched, store, image).memsim is res.memsim


def test_plans_reject_edits_after_a_frame(graph):
    # the replay is cached on the plans' values, so every part of a plan
    # that it reads is read-only: an edit raises, where an edited buffer
    # would leave the next frame a stale trace of the old footprint
    store, image = net.zero_store(graph), oracles.random_image(0)
    sched = tiler.plan_network(graph, 60 * 1024)
    first = executor.execute_schedule(sched, store, image)
    plan = sched.plan_for("conv_2")
    tiles = plan.tiles()
    with pytest.raises(TypeError):
        plan.buffers["out"] = tiler.BufferSpec(100_000)
    with pytest.raises(AttributeError):
        plan.buffers["out"].bytes = 100_000
    with pytest.raises(TypeError):
        tiles[0] = tiles[1]
    with pytest.raises(TypeError):
        tiles[0].bytes["in"] = 0
    res = executor.execute_schedule(sched, store, image)
    assert oracles.audit_fields(executor.audit_trace(res.trace, res.memsim)) == \
        oracles.audit_fields(executor.audit_trace(first.trace, first.memsim))


def test_compiled_replay_is_read_only(schedule):
    # equal schedules share one cached replay, so no frame may edit it
    ms = executor.compile_schedule(schedule)
    with pytest.raises(TypeError):
        ms.peak["L1"] = 0
    with pytest.raises(AttributeError):
        ms.trace = executor.TraceLog(())
    assert isinstance(ms.trace.events, tuple)


@pytest.mark.parametrize("fault, message", [
    ("lifo", "L2 plan: step 4: free of input but stack 0 top is conv_1"),
    ("early free", "L2 plan: step 3: weights w:conv_3 not staged"),
    ("no output", "L2 plan: step 11: output fully_1 not allocated"),
    ("late input", "L2 plan: step -1: input not allocated before the frame lands"),
    ("stack 2", "L2 plan: step 9: alloc of conv_9 on stack 2 outside steps -1..13 "
                "and stacks 0..1")],
    ids=("lifo", "early-free", "no-output", "late-input", "stack-2"))
def test_a_broken_l2_plan_raises_before_the_first_layer(graph, monkeypatch, fault, message):
    # the replay runs validate_plan on the attached L2 plan: a plan that
    # breaks stack order, frees a buffer before its last reader, never
    # allocates a node's output, allocates the input only after the frame
    # lands or puts a buffer on a stack it has not got raises before any
    # layer runs, on every frame
    calls = []
    conv2d = kernels.conv2d
    monkeypatch.setattr(kernels, "conv2d", lambda *a: calls.append(1) or conv2d(*a))
    sched = tiler.plan_network(graph, 60 * 1024)
    broken = dataclasses.replace(sched, l2=oracles.tampered_l2_plans(sched.l2)[fault])
    for _ in range(2):
        with pytest.raises(executor.MemSimError, match=re.escape(message)):
            executor.execute_schedule(broken, net.zero_store(graph), oracles.random_image(0))
    assert calls == []


def test_a_graph_without_two_heads_raises_before_the_first_layer(graph, monkeypatch):
    # a DroNet prefix that ends at relu_2 validates and plans, but a result
    # reads two one-value heads: both engines name the graph's outputs
    # before they run a layer, as they do for two heads that are 50x50 maps
    cut = [r.name for r in graph.layers].index("relu_2") + 1
    prefix = net.NetworkGraph(graph.layers[:cut])
    maps = net.NetworkGraph(graph.layers[:2] + tuple(
        net.LayerSpec(name, net.CONV, ("relu_1",), k_in=32, k_out=1, kh=1, kw=1,
                      h_in=50, w_in=50) for name in ("head_a", "head_b")))
    calls = []
    conv2d = kernels.conv2d
    monkeypatch.setattr(kernels, "conv2d", lambda *a: calls.append(1) or conv2d(*a))
    image = oracles.random_image(0)
    for bad, outputs in ((prefix, "('relu_2',)"), (maps, "('head_a', 'head_b')")):
        net._validate(bad)
        sched, store = tiler.plan_network(bad, 60 * 1024), net.zero_store(bad)
        for run in (lambda: kernels.infer_untiled(bad, store, image),
                    lambda: executor.execute_schedule(sched, store, image)):
            with pytest.raises(ValueError, match=re.escape(f"graph outputs {outputs}")):
                run()
    assert calls == []


def test_plans_out_of_the_graphs_node_order_raise_before_the_first_layer(graph, monkeypatch):
    # a schedule holds one plan per node, in the graph's node order, and a
    # frame runs them as they stand: plans reversed, without the last node,
    # with one plan too many, or planned for another graph's nodes (the
    # DroNet prefix that ends at relu_2) raise on every frame before any
    # layer runs, and the failed replay caches nothing
    calls = []
    conv2d = kernels.conv2d
    monkeypatch.setattr(kernels, "conv2d", lambda *a: calls.append(1) or conv2d(*a))
    sched = tiler.plan_network(graph, 60 * 1024)
    cut = [r.name for r in graph.layers].index("relu_2") + 1
    prefix = tiler.plan_network(net.NetworkGraph(graph.layers[:cut]), 60 * 1024)
    nodes = tuple(p.node.name for p in sched.plans)
    store, image = net.zero_store(graph), oracles.random_image(0)
    for plans in (sched.plans[::-1], sched.plans[:-1], sched.plans + sched.plans[-1:],
                  prefix.plans):
        bad = dataclasses.replace(sched, plans=plans)
        message = (f"plans run nodes {tuple(p.node.name for p in plans)}, "
                   f"the graph's nodes are {nodes}")
        hits = executor._replay.cache_info().hits
        for _ in range(2):
            with pytest.raises(executor.MemSimError, match=f"^{re.escape(message)}$"):
                executor.execute_schedule(bad, store, image)
        assert executor._replay.cache_info().hits == hits
    assert calls == []


def test_a_plans_list_replays_as_its_tuple(graph):
    # the replay and the priced schedule are cached on the plans' values, so
    # a schedule built or edited with a plans list holds them as a tuple, and
    # a list assigned to a built schedule (TileSchedule is not frozen) is
    # keyed as its tuple: each compiles to the tuple schedule's replay and
    # prices its rows, and out of order raises the order check
    sched = tiler.plan_network(graph, 60 * 1024)
    memsim, rows = executor.compile_schedule(sched), cost.frame_report(sched).rows
    for listed in (dataclasses.replace(sched, plans=list(sched.plans)),
                   tiler.TileSchedule(graph, sched.l1_budget, list(sched.plans), sched.l2)):
        assert type(listed.plans) is tuple and listed == sched
        assert executor.compile_schedule(listed) is memsim
    assigned = tiler.plan_network(graph, 60 * 1024)
    assigned.plans = list(assigned.plans)
    assert executor.compile_schedule(assigned) is memsim
    assert cost.frame_report(assigned).rows is rows
    plans = sched.plans[::-1]
    message = (f"plans run nodes {tuple(p.node.name for p in plans)}, "
               f"the graph's nodes are {tuple(p.node.name for p in sched.plans)}")
    assigned.plans = list(plans)
    for bad in (dataclasses.replace(sched, plans=list(plans)), assigned):
        with pytest.raises(executor.MemSimError, match=f"^{re.escape(message)}$"):
            executor.compile_schedule(bad)


def test_bad_input_shape(schedule, graph):
    # both engines take the int16 input map only: numpy would run either on
    # a float or a wider integer image and give other heads
    image = oracles.random_image(0)
    store = net.zero_store(graph)
    for bad in (np.zeros((1, 10, 10), np.int16), image + 0.5, image.astype(np.int32) * 100):
        with pytest.raises(ValueError, match=re.escape("input must be int16 (1, 200, 200)")):
            executor.execute_schedule(schedule, store, bad)
        with pytest.raises(ValueError, match=re.escape("input must be int16 (1, 200, 200)")):
            kernels.infer_untiled(graph, store, bad)
