"""Tests of the benchmark's own rules: percentiles, stratified draws and the
counting of failed operations."""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_clock  # noqa: E402
import bench_inputs  # noqa: E402
import bench_workloads  # noqa: E402
from bench_stats import (Ledger, min_samples, percentile, quartile_spread,  # noqa: E402
                         stratified, tail_percentile)
from bench_trace import Tracer  # noqa: E402


def test_percentile_matches_linear_interpolation():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 100, 101):
        xs = list(rng.normal(size=n))
        for q in (0, 10, 50, 90, 100):
            assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    for n in (100, 137, 1000):
        xs = list(range(n))
        assert sum(x > percentile(xs, tail_percentile(n)) for x in xs) >= 10


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


def test_ref_clock_scales_by_the_yardsticks_around_each_operation(monkeypatch):
    cases = ((1, 1, [1.0, 2.0, 4.0, 2.0], (1.5, 3.0, 3.0)),
             (2, 1, [1.0, 2.0, 4.0, 2.0], (2.0, 2.0, 2.0)),
             (1, 2, [1.0, 1.0, 2.0, 8.0, 4.0, 4.0, 2.0, 2.0], (1.5, 4.0, 3.0)))
    for reach, reps, yards, medians in cases:
        runs = iter(yards)
        ticks = itertools.count(0.0, 1.0)
        monkeypatch.setattr(bench_clock, "yardstick", lambda: next(runs))
        monkeypatch.setattr(bench_clock, "perf_counter", lambda: next(ticks))
        clock = bench_clock.RefClock(reach, reps)
        for _ in range(3):
            clock.measure(lambda: None)
        assert clock.yard_s == yards
        assert clock.ref_seconds() == pytest.approx([bench_clock.YARD_REF_S / m for m in medians])


def test_stratified_draws_one_value_per_stratum():
    draws = stratified(np.random.default_rng(3), 16.0, 64.0, 8)
    assert len(draws) == 8
    for i, x in enumerate(draws):
        assert 16.0 + 6.0 * i <= x < 16.0 + 6.0 * (i + 1)
    with pytest.raises(ValueError):
        stratified(np.random.default_rng(3), 1.0, 1.0, 4)


def test_design_budgets_and_appearances_repeat_per_seed():
    budgets = bench_inputs.design_budgets(7)
    assert budgets == bench_inputs.design_budgets(7)
    assert budgets != bench_inputs.design_budgets(8)
    width = (bench_inputs.DESIGN_L1_HI - bench_inputs.DESIGN_L1_LO) / bench_inputs.N_DESIGN_POINTS
    for i, b in enumerate(budgets):
        assert bench_inputs.DESIGN_L1_LO + i * width <= b < bench_inputs.DESIGN_L1_LO + (i + 1) * width
    times = bench_inputs.appearance_times(7)
    assert times == bench_inputs.appearance_times(7)
    assert len(times) == bench_inputs.N_APPEARANCES
    assert all(bench_inputs.APPEAR_LO_S <= t < bench_inputs.APPEAR_HI_S for t in times)


def test_ledger_counts_operations_and_failures():
    ledger = Ledger()
    assert ledger.record("a", [])
    assert not ledger.record("b", ["broken"])
    assert (ledger.attempted, ledger.failed, ledger.fail_frac) == (2, 1, 0.5)


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    inputs = bench_inputs.write_inputs(5, tmp_path_factory.mktemp("inputs"))
    run = bench_workloads.Run("stream60k", 5, 1.0, False, inputs, Tracer(), Ledger())
    design, problems = bench_workloads.stream_setup(run, bench_workloads.STREAM_BUDGETS["stream60k"])
    assert problems == []
    return run, design


def test_injected_mismatch_counts_as_failed_frame(stream_run, monkeypatch):
    run, design = stream_run
    run.ledger = Ledger()
    frame = run.inputs.frames[0]
    assert bench_workloads.guarded(run, "clean", bench_workloads.frame, run, design, frame, 0.0) is not None
    real = bench_workloads.executor.execute_schedule

    def off_by_one(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, raw_steering=res.raw_steering + 1)

    monkeypatch.setattr(bench_workloads.executor, "execute_schedule", off_by_one)
    bench_workloads.guarded(run, "injected", bench_workloads.frame, run, design, frame, 0.0)
    assert (run.ledger.attempted, run.ledger.failed) == (2, 1)
    op, problems = run.ledger.failures[0]
    assert op == "injected" and "tiled heads" in problems[0]


def test_raising_operation_counts_as_failed(stream_run):
    run, design = stream_run
    run.ledger = Ledger()
    missing = str(Path(run.inputs.frames[0]).with_name("missing.pgm"))
    assert bench_workloads.guarded(run, "f", bench_workloads.frame, run, design, missing, 0.0) is None
    assert run.ledger.failed == 1 and "FileNotFoundError" in run.ledger.failures[0][1][0]


def test_stream_stops_when_every_frame_raises(stream_run, monkeypatch):
    run, design = stream_run
    run.ledger = Ledger()

    def broken(*args, **kwargs):
        raise AssertionError("executor broke")

    monkeypatch.setattr(bench_workloads, "repeated_setup", lambda *args: (bench_clock.RefClock(), design))
    monkeypatch.setattr(bench_workloads.executor, "execute_schedule", broken)
    outcome = bench_workloads.run_stream(run)
    assert outcome.op_s == []
    assert run.ledger.failed == bench_workloads.WARMUP_FRAMES + bench_workloads.MAX_FAILED_FRAMES
    assert all("AssertionError" in problems[0] for _, problems in run.ledger.failures)
    monkeypatch.setattr(bench_workloads, "run_stream", lambda run: outcome)
    with pytest.raises(RuntimeError, match="no measured operation passed"):
        bench_workloads.run_workload(run)
