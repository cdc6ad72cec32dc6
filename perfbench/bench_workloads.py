"""The benchmark's workloads, their correctness gates and their metrics.

stream60k, stream16k
    One client streams camera frames in a closed loop: the next frame goes in
    only after the previous result came back, as with the camera's double
    buffer.  Each frame is loaded from its PGM file, run through the untiled
    golden kernels and through the tiled executor, audited, and fed to the
    collision filter and stop decision.  Set-up loads the weights and plans
    the L1 tiling and the L2 stacks at the workload's budget; 60 KB gives few
    large tiles, 16 KB many small ones.
design_sweep
    One seeded L1 budget per equal-width stratum of [16 KB, 64 KB).  Each design
    point does what `nanotile cost`, `mem` and `sweep` do: plan, plan L2,
    validate, report and sweep the operating points.  Whole passes over the
    same points repeat until the run's time is up; each pass gives one
    sample, the mean time of its design points.  A run has far fewer passes
    than the tail needs, so op_ms_tail falls back to the median: op_ms_p50
    and op_ms_tail are the median of the pass means, and ops_per_s is the
    reciprocal of their mean; over two passes, all three are one figure.
    Set-up plans the deployed 60 KB reference design.

An operation is a set-up, a frame, a design point, the offload mission check
or the `nanotile infer --tiled` run.  An operation fails when it raises or
breaks a gate; the run is correct when none failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from dataclasses import dataclass
from statistics import fmean, median
from time import perf_counter

import numpy as np
from nanotile import cli, cost, ctrl, executor, fxp, kernels, l2plan, net, offload, tiler

import bench_inputs
from bench_clock import RefClock
from bench_stats import Ledger, TAIL_PERCENTILE, min_samples, percentile, tail_percentile
from bench_trace import Tracer

STREAM_BUDGETS = {"stream60k": tiler.DEFAULT_L1_BUDGET, "stream16k": 16 * 1024}

SETUP_REPEATS = 5
# yardstick boundaries on each side that scale an operation, and yardstick
# runs per boundary (bench_clock.py): a frame's four neighbours span about a
# second; a set-up or design point, about a second long itself, takes three
# runs at each of three boundaries on each side
FRAME_REACH = 4
LONG_OP_REACH, LONG_OP_REPS = 3, 3
WARMUP_FRAMES = 2
MIN_FRAMES = min_samples(TAIL_PERCENTILE)
# a stream stops after this many failed frames: a run that fails is reported
# as failed without waiting for MIN_FRAMES frames that pass
MAX_FAILED_FRAMES = 10
PROBE_FRAMES = 3        # traced frames on the chosen design of design_sweep
FXP_FRAMES = 4          # distinct frames whose accumulators the traced run counts

# offload timings of the `nanotile mission` defaults
FRAME_DMA_S, RESULT_S, FETCH_S = 4e-3, 0.5e-3, 1e-3
MISSION_FRAMES = 8

# the obstacle appears 8 m ahead at the reference 4 m/s, so every design in
# the sweep stops in front of it and the mean margin stays positive
REACT_DISTANCE_M = 8.0


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    inputs: bench_inputs.Inputs
    tracer: Tracer
    ledger: Ledger


@dataclass
class Design:
    graph: net.NetworkGraph
    schedule: tiler.TileSchedule
    store: net.WeightStore | None = None
    best: cost.SweepPoint | None = None     # a design point's min-energy operating point


@dataclass
class Outcome:
    """What a workload hands to the metric assembly."""

    setup_s: list[float]            # reference seconds, as are the op times
    op_s: list[float]               # samples of a passed operation's time
    setup_wall_s: list[float]       # the same in wall seconds
    op_wall_s: list[float]
    trace_overhead_s: float | None  # median traced minus untraced operation
    yard_s: list[float]             # wall seconds of the yardstick runs
    design: Design                  # deployed (streams) or chosen (sweep) design
    reference: tiler.TileSchedule   # the 60 KB deployment the tables measured
    fingerprints: dict


def node_key(plan: tiler.TilePlan) -> str:
    return plan.node.name.replace("+", "_")


def fingerprint(schedule: tiler.TileSchedule) -> list:
    """Scheme and tile extents per node: equal fingerprints mean equal plans."""
    return [[p.node.name, p.scheme, p.h_tile, p.ci_tile, p.co_tile]
            for p in schedule.plans]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def guarded(run: Run, op: str, fn, *args):
    """One gated operation: fn returns (result, problems).  Returns the result,
    or None when the operation raised."""
    try:
        result, problems = fn(*args)
    except Exception as e:  # the loop keeps going; the failure is counted
        traceback.print_exc(file=sys.stderr)
        run.ledger.record(op, [f"{type(e).__name__}: {e}"])
        return None
    if problems:
        print(f"{op}: {'; '.join(problems)}", file=sys.stderr)
    run.ledger.record(op, problems)
    return result


# -- gates ------------------------------------------------------------------

def plan_problems(schedule: tiler.TileSchedule, violations: list[str]) -> list[str]:
    problems = [f"l2 plan: {v}" for v in violations[:3]]
    problems += [f"{p.node.name}: footprint {p.footprint} over budget {schedule.l1_budget}"
                 for p in schedule.plans if p.footprint > schedule.l1_budget]
    return problems


def frame_problems(ref: kernels.InferResult, res: executor.ExecResult,
                   audit: executor.AuditReport, l1_budget: int) -> list[str]:
    problems = []
    if (res.raw_steering, res.raw_collision) != (ref.raw_steering, ref.raw_collision):
        problems.append(f"tiled heads {(res.raw_steering, res.raw_collision)} != "
                        f"untiled {(ref.raw_steering, ref.raw_collision)}")
    problems += [f"audit: {v}" for v in audit.violations[:3]]
    if audit.peak_l1 > l1_budget:
        problems.append(f"audited L1 peak {audit.peak_l1} over budget {l1_budget}")
    if audit.peak_l2 > l2plan.L2_BYTES:
        problems.append(f"audited L2 peak {audit.peak_l2} over {l2plan.L2_BYTES}")
    return problems


# -- operations -------------------------------------------------------------

def plan_design(graph, budget: int, tracer: Tracer):
    with tracer.span("tiler.plan"):
        schedule = tiler.plan_network(graph, budget)
    with tracer.span("l2plan.plan"):
        schedule.l2 = l2plan.plan_two_stack(graph)
    with tracer.span("l2plan.validate"):
        violations = l2plan.validate_plan(schedule.l2, graph)
    tracer.count("l2plan.violations", len(violations))
    return schedule, plan_problems(schedule, violations)


def load_weights(run: Run, graph) -> net.WeightStore:
    with run.tracer.span("net.load_weights"):
        return net.load_weights(run.inputs.weights, graph)


def stream_setup(run: Run, budget: int):
    graph = net.build_dronet()
    store = load_weights(run, graph)
    schedule, problems = plan_design(graph, budget, run.tracer)
    return Design(graph, schedule, store), problems


def sweep_setup(run: Run):
    graph = net.build_dronet()
    with run.tracer.span("tiler.plan"):
        reference = tiler.plan_network(graph, tiler.DEFAULT_L1_BUDGET)
    return Design(graph, reference), plan_problems(reference, [])


def design_point(run: Run, graph, budget: int):
    schedule, problems = plan_design(graph, budget, run.tracer)
    with run.tracer.span("cost.report"):
        cost.frame_report(schedule)
    with run.tracer.span("cost.sweep"):
        _, best = cost.sweep(schedule)
    return Design(graph, schedule, best=best), problems


def frame(run: Run, design: Design, path: str, p_prev: float):
    """One closed-loop frame; returns the filtered collision probability."""
    t = run.tracer
    with t.span("frame"):
        with t.span("net.load_image"):
            image = net.load_image(path)
        with t.span("kernels.infer"):
            ref = kernels.infer_untiled(design.graph, design.store, image)
        with t.span("executor.exec"):
            res = executor.execute_schedule(design.schedule, design.store, image)
        with t.span("executor.audit"):
            audit = executor.audit_trace(res.trace, res.memsim)
        with t.span("ctrl.filter"):
            p = ctrl.filter_step(p_prev, res.collision_prob)
            stop = ctrl.stop_decision(p)
    problems = frame_problems(ref, res, audit, design.schedule.l1_budget)
    t.count("executor.frames")
    t.count("executor.events", audit.n_events)
    t.count("executor.l2l1_bytes", audit.tag_bytes.get(executor.TAG_L2_L1, 0))
    t.count("executor.peak_l1_bytes", audit.peak_l1)
    t.count("executor.mismatches",
            (res.raw_steering, res.raw_collision) != (ref.raw_steering, ref.raw_collision))
    t.count("executor.audit_violations", len(audit.violations))
    t.count("ctrl.stops", stop)
    return p, problems


def count_fxp(run: Run, design: Design, path: str):
    """Layer-by-layer pass through the public kernels that counts conv
    accumulators beyond int32 and renormalised outputs that saturate; its
    heads must equal infer_untiled's."""
    graph, store = design.graph, design.store
    image = net.load_image(path)
    acts = {net.INPUT_TENSOR: image}
    heads = {}
    with run.tracer.span("fxp.count"):
        for spec in graph.layers:
            src = acts[spec.inputs[0]]
            if spec.kind == net.CONV:
                w, b = store[spec.name]
                acc = kernels.conv_accumulate(src, w, b, spec.stride)
                shifted = acc >> fxp.FRAC_BITS
                run.tracer.count("fxp.acc", acc.size)
                run.tracer.count("fxp.acc32_overflow", int(np.count_nonzero(
                    (acc < fxp.INT32_MIN) | (acc > fxp.INT32_MAX))))
                run.tracer.count("fxp.sat", int(np.count_nonzero(
                    (shifted < fxp.QMIN) | (shifted > fxp.QMAX))))
                out = fxp.renorm_array(acc)
                if spec.fused_pool:
                    out = kernels.maxpool2(out)
                if spec.fused_relu:
                    out = kernels.relu(out)
            elif spec.kind == net.RELU:
                out = kernels.relu(src)
            elif spec.kind == net.ADD:
                out = kernels.add(src, acts[spec.inputs[1]], spec.fused_relu)
            else:
                w, b = store[spec.name]
                heads[spec.name] = int(kernels.fully_connected(src.ravel(), w.ravel(),
                                                               int(b[0])))
                continue
            acts[spec.output] = out
    ref = kernels.infer_untiled(graph, store, image)
    got = (heads["fully_1"], heads["fully_2"])
    if got != (ref.raw_steering, ref.raw_collision):
        return None, [f"counting pass heads {got} != infer_untiled "
                      f"{(ref.raw_steering, ref.raw_collision)}"]
    return None, []


def cli_infer(run: Run, budget: int):
    out = io.StringIO()
    argv = ["infer", "--weights", run.inputs.weights, "--image", run.inputs.frames[0],
            "--tiled", "--l1-budget", str(budget)]
    with run.tracer.span("cli.infer_tiled"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0 or "bit-exact vs untiled: yes" not in out.getvalue():
        return None, [f"nanotile {' '.join(argv)} exited {code}: {out.getvalue().strip()!r}"]
    return None, []


def mission(run: Run, report: cost.CostReport):
    timings = offload.Timings(FRAME_DMA_S, report.frame_s, RESULT_S, FETCH_S)
    with run.tracer.span("offload.mission"):
        timeline = offload.run_mission(MISSION_FRAMES, timings)
    violations = offload.validate_timeline(timeline)
    run.tracer.count("offload.violations", len(violations))
    return timeline, [f"timeline: {v}" for v in violations[:3]]


def react_margin(run: Run, fps: float) -> float:
    """Mean stop margin over the seeded obstacle appearance times."""
    margins = []
    for t_appear in bench_inputs.appearance_times(run.seed):
        with run.tracer.span("ctrl.react"):
            scenario = ctrl.ReactionScenario(t_appear=t_appear, fps=fps,
                                             distance_free=REACT_DISTANCE_M)
            trace = ctrl.ramp_trace(t_appear, horizon=scenario.collision_time + 1.0)
            margins.append(ctrl.simulate_reaction(scenario, trace).margin)
    return fmean(margins)


# -- workloads --------------------------------------------------------------

def repeated_setup(run: Run, fn, *args):
    """Set up SETUP_REPEATS times; every repeat must plan the same design.
    Returns the clock that timed the set-ups and the last design."""
    clock = RefClock(LONG_OP_REACH, LONG_OP_REPS)
    designs = []
    for i in range(SETUP_REPEATS):
        design = clock.measure(guarded, run, f"setup{i}", fn, run, *args)
        if design is not None:
            designs.append(design)
    if not designs:
        raise RuntimeError("every set-up failed")
    prints = {digest(fingerprint(d.schedule)) for d in designs}
    run.ledger.record("setup-determinism",
                      [] if len(prints) == 1 else [f"set-ups planned {len(prints)} designs"])
    return clock, designs[-1]


def passed_times(clock: RefClock, traced: list[bool | None], per_sample: int = 1):
    """Reference and wall seconds of the operations that passed, and the
    tracing cost: the median traced one minus the median untraced one, None
    unless both ran.  traced[k] is None where operation k failed.  With
    per_sample > 1, each consecutive group of that many operations gives one
    sample, the mean of its operations that passed."""
    groups: dict[int, list[tuple[float, float]]] = {}
    on, off = [], []
    for k, (t, w, f) in enumerate(zip(clock.ref_seconds(), clock.wall_s, traced)):
        if f is not None:
            groups.setdefault(k // per_sample, []).append((t, w))
            (on if f else off).append(t)
    overhead = median(on) - median(off) if on and off else None
    times = [fmean(t for t, _ in g) for g in groups.values()]
    walls = [fmean(w for _, w in g) for g in groups.values()]
    return times, walls, overhead


def run_stream(run: Run) -> Outcome:
    budget = STREAM_BUDGETS[run.workload]
    setup, design = repeated_setup(run, stream_setup, budget)
    frames = run.inputs.frames
    p = 0.0
    for k in range(WARMUP_FRAMES):
        out = guarded(run, f"warmup{k}", frame, run, design, frames[k], p)
        p = p if out is None else out
    tracing = run.tracer.enabled
    clock = RefClock(reach=FRAME_REACH)
    traced = []
    t_start = perf_counter()
    n = passed = 0
    failed_before = run.ledger.failed
    while ((perf_counter() - t_start < run.seconds or passed < MIN_FRAMES)
           and run.ledger.failed - failed_before < MAX_FAILED_FRAMES):
        # the traced run alternates traced and untraced frames, so the two
        # share the machine's state and their difference is the tracing cost
        run.tracer.enabled = tracing and n % 2 == 0
        path = frames[(WARMUP_FRAMES + n) % len(frames)]
        out = clock.measure(guarded, run, f"frame{n}", frame, run, design, path, p)
        traced.append(None if out is None else run.tracer.enabled)
        if out is not None:
            p = out
            passed += 1
        n += 1
    run.tracer.enabled = tracing
    if run.trace:
        for path in frames[:FXP_FRAMES]:
            guarded(run, "fxp-count", count_fxp, run, design, path)
    reference = design.schedule
    if budget != tiler.DEFAULT_L1_BUDGET:
        reference = tiler.plan_network(design.graph, tiler.DEFAULT_L1_BUDGET)
    times, walls, overhead = passed_times(clock, traced)
    return Outcome(setup.ref_seconds(), times, setup.wall_s, walls, overhead,
                   setup.yard_s + clock.yard_s,
                   design, reference, {"deployed": fingerprint(design.schedule)})


def run_design_sweep(run: Run) -> Outcome:
    setup, ref = repeated_setup(run, sweep_setup)
    budgets = bench_inputs.design_budgets(run.seed)
    points: dict[int, Design] = {}
    tracing = run.tracer.enabled
    clock = RefClock(LONG_OP_REACH, LONG_OP_REPS)
    traced = []
    t_start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - t_start < run.seconds:
        for i, budget in enumerate(budgets):
            # alternate by stratum and pass so traced and untraced points
            # cover the same budgets
            run.tracer.enabled = tracing and (i + passes) % 2 == 0
            point = clock.measure(guarded, run, f"design{passes}.{i}", design_point,
                                  run, ref.graph, budget)
            traced.append(None if point is None else run.tracer.enabled)
            if point is not None:
                points.setdefault(budget, point)
        passes += 1
    run.tracer.enabled = tracing
    if not points:
        raise RuntimeError("every design point failed")
    chosen = min(points.values(), key=lambda d: d.best.energy_j)
    if run.trace:
        chosen.store = load_weights(run, chosen.graph)
        p = 0.0
        for k in range(PROBE_FRAMES):
            out = guarded(run, f"probe{k}", frame, run, chosen, run.inputs.frames[k], p)
            p = p if out is None else out
        for path in run.inputs.frames[:FXP_FRAMES]:
            guarded(run, "fxp-count", count_fxp, run, chosen, path)
    # one sample per pass: the mean time of its design points, which covers
    # every stratum once.  Planning time is jagged across budgets, so the
    # median of single points would hang on the seed's draw in the middle
    # strata; the mean over all strata does not
    times, walls, overhead = passed_times(clock, traced, len(budgets))
    prints = {b: digest(fingerprint(d.schedule)) for b, d in sorted(points.items())}
    return Outcome(setup.ref_seconds(), times, setup.wall_s, walls, overhead,
                   setup.yard_s + clock.yard_s, chosen,
                   ref.schedule, {"chosen": fingerprint(chosen.schedule), "points": prints})


# -- metrics ----------------------------------------------------------------

def model_metrics(run: Run, outcome: Outcome) -> tuple[cost.CostReport, dict]:
    schedule = outcome.design.schedule
    with run.tracer.span("cost.report"):
        report = cost.frame_report(schedule)
    with run.tracer.span("cost.sweep"):
        _, best = cost.sweep(schedule)
    timeline = guarded(run, "mission", mission, run, report)
    if timeline is None:
        raise RuntimeError("the offload mission did not run")
    fps = 1.0 / timeline.steady_period()
    residuals = cost.fit_residuals(outcome.reference, cost.DEFAULT_CALIB, cost.DEFAULT_POWER)
    return report, {
        "model_fps": fps,
        "model_mj_per_frame": 1e3 * report.energy_j,
        "react_margin_m": react_margin(run, fps),
        "model_err_max": 100.0 * residuals["max_row_abs"],
        "model_mj_min": 1e3 * best.energy_j,
    }


def end_to_end(outcome: Outcome, model: dict, peak_rss_mb: float) -> dict:
    ops = outcome.op_s
    return {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": 1e3 * percentile(ops, 50.0),
        "op_ms_tail": 1e3 * percentile(ops, tail_percentile(len(ops))),
        "peak_rss_mb": peak_rss_mb,
        **model,
    }


def per_layer(run: Run, outcome: Outcome, report: cost.CostReport) -> dict:
    t, c = run.tracer, run.tracer.counts
    schedule = outcome.design.schedule

    def ms(name):
        return 1e3 * median(t.seconds(name))

    frames = c["executor.frames"]
    exec_ms = ms("executor.exec")
    events = c["executor.events"] / frames
    return {
        "net.load_image_ms": ms("net.load_image"),
        "net.load_weights_ms": ms("net.load_weights"),
        "fxp.acc32_overflow_frac": c["fxp.acc32_overflow"] / c["fxp.acc"],
        "fxp.sat_frac": c["fxp.sat"] / c["fxp.acc"],
        "kernels.infer_ms": ms("kernels.infer"),
        "tiler.plan_s": median(t.seconds("tiler.plan")),
        "tiler.tiles": sum(p.n_tiles for p in schedule.plans),
        **{f"tiler.{node_key(p)}.tiles": p.n_tiles for p in schedule.plans},
        "tiler.footprint_max_bytes": max(p.footprint for p in schedule.plans),
        "l2plan.plan_s": median(t.seconds("l2plan.plan")),
        "l2plan.validate_ms": ms("l2plan.validate"),
        "l2plan.peak_kb": schedule.l2.peak_bytes / 1024,
        "l2plan.violations": c.get("l2plan.violations", 0),
        "executor.exec_ms": exec_ms,
        "executor.events": events,
        "executor.us_per_event": 1e3 * exec_ms / events,
        "executor.l2l1_bytes": c["executor.l2l1_bytes"] / frames,
        "executor.audit_ms": ms("executor.audit"),
        "executor.peak_l1_bytes": c["executor.peak_l1_bytes"] / frames,
        "executor.mismatches": c["executor.mismatches"],
        "executor.audit_violations": c["executor.audit_violations"],
        "cost.report_ms": ms("cost.report"),
        "cost.sweep_ms": ms("cost.sweep"),
        "cost.exec_mcycles": report.exec_cycles / 1e6,
        "cost.dma_mcycles": report.dma_l2l1_cycles / 1e6,
        "cost.l3l2_mcycles": report.l3l2_fcycles / 1e6,
        **{f"cost.{node_key(p)}.mcycles": cost.layer_cycles(p).exec_cl / 1e6
           for p in schedule.plans},
        "offload.mission_ms": ms("offload.mission"),
        "offload.violations": c.get("offload.violations", 0),
        "ctrl.react_ms": ms("ctrl.react"),
        "ctrl.stop_frac": c["ctrl.stops"] / frames,
        "cli.infer_tiled_s": median(t.seconds("cli.infer_tiled")),
        "bench.trace_overhead_ms": 1e3 * outcome.trace_overhead_s,
        "bench.yardstick_ms": 1e3 * median(outcome.yard_s),
    }


def run_workload(run: Run) -> tuple[dict, dict]:
    """Runs the workload and its checks; returns (metrics, record) where the
    record holds the plan fingerprints and operation counts."""
    outcome = (run_design_sweep if run.workload == "design_sweep" else run_stream)(run)
    if not outcome.op_s:
        raise RuntimeError(f"no measured operation passed; failures: {run.ledger.failures[:3]}")
    # the high-water mark of set-up and the measured loop, before the checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report, model = model_metrics(run, outcome)
    guarded(run, "cli-infer", cli_infer, run, outcome.design.schedule.l1_budget)
    if run.trace:
        metrics = per_layer(run, outcome, report)
    else:
        metrics = end_to_end(outcome, model, peak_rss_mb)
    ops = len(outcome.op_s)
    record = {"ops": ops, "tail_percentile": tail_percentile(ops),
              "fail_frac": run.ledger.fail_frac,
              "setup_s": outcome.setup_s,
              "setup_wall_s": outcome.setup_wall_s,
              "op_wall_ms_p50": 1e3 * median(outcome.op_wall_s),
              "l1_budget": outcome.design.schedule.l1_budget,
              "plans": outcome.fingerprints}
    return metrics, record
