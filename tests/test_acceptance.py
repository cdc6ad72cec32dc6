"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  The heavy bit-exactness run
(criterion 3) is shared with the budget audit (criterion 4) through a
module-scoped fixture so the 100-seed sweep happens once.
"""

import random

import numpy as np
import pytest

import oracles
from nanotile import (cost, ctrl, executor, fxp, kernels, l2plan, net,
                      offload, tiler)

KB = 1024
BUDGETS = (16 * KB, 32 * KB, 60 * KB)
N_SEEDS = 100
N_NAIVE_SEEDS = 20


def _report(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"\nACCEPTANCE {num} {name}: {status}")
    assert not failures, f"criterion {num}: " + "; ".join(map(str, failures))


@pytest.fixture(scope="module")
def graph():
    return net.build_dronet()


@pytest.fixture(scope="module")
def schedule(graph):
    return tiler.plan_network(graph, 60 * KB)


@pytest.fixture(scope="module")
def bitexact_runs(graph):
    """100 seeds x 3 budgets tiled-vs-untiled, plus audits per budget."""
    schedules = {b: tiler.plan_network(graph, b) for b in BUDGETS}
    mismatches = []
    audits = {}
    for seed in range(N_SEEDS):
        store = net.random_store(graph, seed)
        image = oracles.random_image(seed)
        ref = kernels.infer_untiled(graph, store, image)
        for budget, sched in schedules.items():
            res = executor.execute_schedule(sched, store, image)
            if oracles.tensor_mismatches(res.tensors, ref.tensors):
                mismatches.append((seed, budget))
            if seed == 0:
                audits[budget] = executor.audit_trace(res.trace, res.memsim)
    return {"mismatches": mismatches, "audits": audits, "schedules": schedules}


def test_criterion_1_mac_accounting(graph):
    failures = []
    macs = net.mac_count(graph)
    if not 40_000_000 <= macs["conv_total"] <= 42_000_000:
        failures.append(f"conv MAC total {macs['conv_total']}")
    for spec in graph.layers:
        if spec.kind == net.CONV:
            h_conv = -(-spec.h_in // spec.stride)
            w_conv = -(-spec.w_in // spec.stride)
            expect = spec.k_in * spec.k_out * spec.kh * spec.kw * h_conv * w_conv
        elif spec.kind == net.FC:
            expect = spec.k_in * spec.k_out
        else:
            expect = 0
        if macs["per_layer"][spec.name] != expect:
            failures.append(f"{spec.name}: {macs['per_layer'][spec.name]} != {expect}")
    _report(1, "MAC accounting", failures)


def test_criterion_2_weight_sizes(graph):
    failures = []
    params = net.param_count(graph)
    if params["bytes_4"] <= 1 << 20:
        failures.append(f"4-byte storage {params['bytes_4']} not above 1 MB")
    if params["bytes_2"] <= 512 * KB:
        failures.append(f"2-byte storage {params['bytes_2']} not above 512 KB")
    _report(2, "weight-size claims", failures)


def test_criterion_3_bit_exactness(graph, bitexact_runs):
    failures = list(bitexact_runs["mismatches"])
    for seed in range(N_NAIVE_SEEDS):
        store = net.random_store(graph, seed)
        image = oracles.random_image(seed)
        ref = kernels.infer_untiled(graph, store, image)
        naive = oracles.naive_infer(graph, store, image)
        differ = oracles.tensor_mismatches(ref.tensors, naive)
        if differ or ref.tensors.keys() != naive.keys():
            failures.append(f"naive oracle mismatch at seed {seed} on {differ}")
    _report(3, f"bit-exactness ({N_SEEDS} seeds x {len(BUDGETS)} budgets, "
               f"{N_NAIVE_SEEDS} naive seeds)", failures)


def test_criterion_4_budget_safety(graph, bitexact_runs):
    failures = []
    for budget, audit in bitexact_runs["audits"].items():
        if audit.violations:
            failures.append(f"{budget}: audit violations {audit.violations}")
        if audit.peak_l1 > budget:
            failures.append(f"L1 peak {audit.peak_l1} over budget {budget}")
        if audit.peak_l2 > 512 * KB:
            failures.append(f"L2 peak {audit.peak_l2} over 512 KB at {budget}")
    # planner output equals the exhaustive-enumeration minimum per node
    for node in tiler.node_kernels(graph):
        chosen = tiler.plan_layer(node, 60 * KB)
        best = None
        for scheme in (tiler.SPATIAL, tiler.FEATUREWISE):
            for p in oracles.feasible_plans(node, 60 * KB, scheme):
                c = cost.plan_cycles(p, cost.DEFAULT_CALIB)
                best = c if best is None else min(best, c)
        if not (chosen.est_cycles == pytest.approx(best)):
            failures.append(f"{node.name}: planner {chosen.est_cycles} vs "
                            f"enumeration minimum {best}")
    _report(4, "budget safety and planner optimality", failures)


def test_criterion_5_memory_plan(graph):
    failures = []
    two = l2plan.plan_two_stack(graph)
    one = l2plan.plan_single_stack(graph)
    if not 333 * KB <= two.peak_bytes <= 407 * KB:
        failures.append(f"two-stack peak {two.peak_bytes / KB:.1f} KB outside "
                        f"[333, 407]")
    if not 598 * KB <= one.peak_bytes <= 732 * KB:
        failures.append(f"single-stack peak {one.peak_bytes / KB:.1f} KB outside "
                        f"[598, 732]")
    if one.peak_bytes <= 512 * KB:
        failures.append("single-stack peak unexpectedly fits on-chip")
    if two.peak_bytes > one.peak_bytes:
        failures.append("two-stack peak exceeds single-stack peak")
    if l2plan.validate_plan(two, graph):
        failures.append("two-stack plan fails validation")
    print(f"\n  [derived: two-stack {two.peak_bytes / KB:.1f} KB, "
          f"single-stack {one.peak_bytes / KB:.1f} KB, "
          f"headroom {two.headroom / KB:.1f} KB]")
    _report(5, "memory-plan reproduction", failures)


def test_criterion_6_cost_model(graph, schedule):
    failures = []
    calib, power, res = cost.calibrate(schedule)

    # (a) cycle breakdown within 10% per row
    targets = cost.load_targets()
    rep = cost.frame_report(schedule, cost.EFFICIENT, calib, power)
    udma, dma, comp, total = cost.breakdown_mcycles(rep)
    for name, got, want in (("udma L3/L2", udma, targets.udma_mcycles),
                            ("dma L2/L1", dma, targets.dma_mcycles),
                            ("computation", comp, targets.computation_mcycles),
                            ("total", total, targets.total_mcycles)):
        if abs(got / want - 1) > 0.10:
            failures.append(f"breakdown {name}: {got:.3f} M vs {want} M")

    # (b) per-layer exec times within 30% each
    for row in rep.rows:
        want = targets.layer_ms[row.name]
        got = row.exec_ms(cost.EFFICIENT)
        if abs(got / want - 1) > 0.30:
            failures.append(f"layer {row.name}: {got:.2f} ms vs {want} ms")

    # (c) frame rates at the two corners
    if not 5.0 <= rep.fps <= 7.0:
        failures.append(f"efficient-point fps {rep.fps:.2f} outside 6 +/- 1")
    fast = cost.frame_report(schedule, cost.FAST, calib, power)
    if not 16.0 <= fast.fps <= 20.0:
        failures.append(f"fast-point fps {fast.fps:.2f} outside 18 +/- 2")

    # (d) average power at the corners within 15%
    if abs(1e3 * rep.power_w / 45.0 - 1) > 0.15:
        failures.append(f"efficient power {1e3 * rep.power_w:.1f} mW vs 45")
    if abs(1e3 * fast.power_w / 272.0 - 1) > 0.15:
        failures.append(f"fast power {1e3 * fast.power_w:.1f} mW vs 272")

    # (e) sweep minimum
    _, best = cost.sweep(schedule, calib, power)
    if (best.op.vdd, best.op.f_fc, best.op.f_cl) != (1.0, 50e6, 100e6):
        failures.append(f"min-energy point ({best.op.vdd}, {best.op.f_fc / 1e6:.0f}, "
                        f"{best.op.f_cl / 1e6:.0f})")

    # (f) implied aggregate throughput
    macs = net.mac_count(graph)["conv_total"]
    tput = macs / rep.total_cycles
    if abs(tput / 2.81 - 1) > 0.05:
        failures.append(f"aggregate throughput {tput:.3f} MAC/cycle vs 2.81")
    print(f"\n  [fps {rep.fps:.2f}/{fast.fps:.2f}, power "
          f"{1e3 * rep.power_w:.1f}/{1e3 * fast.power_w:.1f} mW, "
          f"throughput {tput:.2f} MAC/cycle, "
          f"max layer error {res['max_row_abs'] * 100:.1f}%]")
    _report(6, "cost-model calibration (<= 6 fitted parameters)", failures)


def test_criterion_7_control(graph):
    failures = []
    # closed-form two-sample stop delay on a clean step
    for fps, tinf in ((10.0, 0.1), (5.0, 0.2), (20.0, 0.05), (8.0, 0.02)):
        scen = ctrl.ReactionScenario(fps=fps, inference_s=tinf,
                                     distance_free=40.0)
        out = ctrl.simulate_reaction(scen, ctrl.step_trace(4.0, horizon=30.0))
        want = ctrl.step_stop_time(4.0, fps, tinf)
        if abs(out.stop_cmd_time - want) > 1e-9:
            failures.append(f"step delay {fps} Hz: {out.stop_cmd_time} vs {want}")

    trace = ctrl.reference_trace()
    safe = ctrl.simulate_reaction(ctrl.ReactionScenario(fps=10.0), trace)
    if not safe.stopped_before_obstacle:
        failures.append("10 Hz scenario collided")
    crash = ctrl.simulate_reaction(ctrl.ReactionScenario(fps=5.0), trace)
    if crash.stopped_before_obstacle:
        failures.append("5 Hz scenario did not collide")

    rng = np.random.default_rng(2024)
    p = rng.uniform(0, 1, 10_000)
    c = rng.uniform(0, 1, 10_000)
    a = rng.uniform(1e-9, 1.0, 10_000)
    out = (1 - a) * p + a * c
    lo, hi = np.minimum(p, c), np.maximum(p, c)
    if not ((out >= lo - 1e-12) & (out <= hi + 1e-12)).all():
        failures.append("filter convexity violated")
    _report(7, "control properties", failures)


def test_criterion_8_protocol():
    failures = []
    rng = random.Random(1234)
    for i in range(1000):
        t = offload.Timings(rng.uniform(1e-4, 0.4), rng.uniform(1e-4, 0.4),
                            rng.uniform(1e-4, 0.05), rng.uniform(0, 0.02),
                            rng.uniform(0, 0.01), rng.uniform(0, 0.01),
                            rng.uniform(0, 0.03))
        n = rng.randint(2, 12)
        tl = offload.run_mission(n, t)
        viols = offload.validate_timeline(tl)
        if viols:
            failures.append(f"tuple {i}: {viols[0]}")
            break
        if abs(tl.steady_period() - offload.closed_form_period(t)) > 1e-12:
            failures.append(f"tuple {i}: period {tl.steady_period()} vs "
                            f"{offload.closed_form_period(t)}")
            break
    _report(8, "offload protocol (1000 randomized tuples)", failures)


def test_criterion_9_fixed_point_unit():
    failures = []
    rng = np.random.default_rng(99)

    xs = np.sort(rng.uniform(-12, 12, 100_000))
    raws = fxp.quantize_array(xs).astype(np.int64)
    if not (np.diff(raws) >= 0).all():
        failures.append("quantize monotonicity violated")
    if fxp.quantize_array(np.array([100.0, -100.0])).tolist() != [fxp.QMAX, fxp.QMIN]:
        failures.append("saturation broken")

    all_raws = np.arange(fxp.QMIN, fxp.QMAX + 1, dtype=np.int64)
    if not np.array_equal(
            fxp.quantize_array(all_raws / fxp.SCALE).astype(np.int64), all_raws):
        failures.append("round trip not exact over all raw values")

    accs = rng.integers(-2 ** 44, 2 ** 44, 100_000)
    got = fxp.renorm_array(accs).astype(np.int64)
    want = np.clip(accs >> 12, fxp.QMIN, fxp.QMAX)
    if not np.array_equal(got, want):
        failures.append("renorm floor/saturation mismatch")

    a = rng.integers(fxp.QMIN, fxp.QMAX + 1, 100_000)
    b = rng.integers(fxp.QMIN, fxp.QMAX + 1, 100_000)
    exact = sum(int(x) * int(y) for x, y in zip(a.tolist(), b.tolist()))
    if int(np.dot(a, b)) != exact:
        failures.append("vector dot product deviates from exact integers")
    # the engine's accumulation: a 1x1 convolution over a (3000, 1, 1) input
    acc = kernels.conv_accumulate(a[:3000].astype(np.int16).reshape(3000, 1, 1),
                                  b[:3000].astype(np.int16).reshape(1, 3000, 1, 1),
                                  np.zeros(1, np.int16), 1)
    exact3k = sum(int(x) * int(y) for x, y in zip(a[:3000].tolist(),
                                                  b[:3000].tolist()))
    if int(acc[0, 0, 0]) != exact3k:
        failures.append("mac chain deviates from exact integers")
    _report(9, "fixed-point unit properties (1e5 cases)", failures)
