import dataclasses

import pytest

from nanotile import cost, net, tiler


@pytest.fixture(scope="module")
def graph():
    return net.build_dronet()


@pytest.fixture(scope="module")
def schedule(graph):
    return tiler.plan_network(graph, 60 * 1024)


@pytest.fixture(scope="module")
def fit(schedule):
    return cost.calibrate(schedule)


def test_calibrate_reproduces_frozen_defaults(fit):
    calib, power, _ = fit
    for name in ("eta_main", "eta_narrow", "ew_bytes_per_cycle",
                 "dispatch_cycles", "dma_setup_cycles", "l3l2_bytes_per_fcycle"):
        assert getattr(calib, name) == pytest.approx(
            getattr(cost.DEFAULT_CALIB, name), rel=1e-9), name
    assert power.k_fc == pytest.approx(cost.DEFAULT_POWER.k_fc, rel=1e-9)
    assert power.k_cl == pytest.approx(cost.DEFAULT_POWER.k_cl, rel=1e-9)


def test_calibrate_holds_negative_fork_cost_at_zero(schedule):
    # row times synthesised from the cycle formula with a fork cost of -300:
    # the fit keeps dispatch_cycles >= 0 and refits the rest without it;
    # expected values from the earlier coordinate-descent fit
    negative = dataclasses.replace(cost.DEFAULT_CALIB, dispatch_cycles=-300.0)
    rows = cost.frame_report(schedule, cost.EFFICIENT, negative).rows
    targets = dataclasses.replace(
        cost.load_targets(),
        layer_ms={r.name: r.exec_ms(cost.EFFICIENT) for r in rows})
    calib, _, _ = cost.calibrate(schedule, targets)
    assert calib.dispatch_cycles == 0.0
    assert calib.eta_main == pytest.approx(0.44493104959195545, rel=1e-9)
    assert calib.eta_narrow == pytest.approx(0.11764524901869017, rel=1e-9)
    assert calib.ew_bytes_per_cycle == pytest.approx(7.863418895934861, rel=1e-9)
    assert calib.dma_setup_cycles == cost.DEFAULT_CALIB.dma_setup_cycles
    assert calib.l3l2_bytes_per_fcycle == cost.DEFAULT_CALIB.l3l2_bytes_per_fcycle


def test_fit_residuals_within_bands(fit):
    _, _, res = fit
    assert res["max_row_abs"] <= 0.30
    assert abs(res["breakdown"]["udma"]) <= 0.10
    assert abs(res["breakdown"]["dma"]) <= 0.10
    assert abs(res["breakdown"]["computation"]) <= 0.10
    assert abs(res["breakdown"]["total"]) <= 0.10
    for v in res["power"].values():
        assert abs(v) <= 0.15


def test_eta_reference_is_measured_peak():
    assert cost.ETA_PEAK_PER_CORE == 0.64
    # the fitted whole-layer efficiency sits below the inner-kernel peak
    assert 0.2 < cost.DEFAULT_CALIB.eta_main < cost.ETA_PEAK_PER_CORE


def test_cycles_frequency_independent(schedule):
    a = cost.frame_report(schedule, cost.OpPoint(1.0, 50e6, 100e6))
    b = cost.frame_report(schedule, cost.OpPoint(1.2, 250e6, 250e6))
    assert a.exec_cycles == b.exec_cycles
    assert a.l3l2_fcycles == b.l3l2_fcycles
    # times scale as 1/f
    assert a.rows[0].exec_ms(a.op) == pytest.approx(
        b.rows[0].exec_ms(b.op) * 250 / 100)


@pytest.mark.parametrize("field", ["vdd", "f_fc", "f_cl"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_op_point_rejects_non_finite_or_non_positive(field, value):
    # a zero clock would divide by zero in the report, a NaN one print NaN
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(cost.EFFICIENT, **{field: value})


def test_report_totals_consistent(schedule):
    rep = cost.frame_report(schedule)
    assert rep.exec_cycles == pytest.approx(sum(r.exec_cycles for r in rep.rows))
    assert rep.total_cycles == pytest.approx(
        rep.computation_cycles + rep.dma_l2l1_cycles + rep.l3l2_fcycles)
    assert rep.frame_s == pytest.approx(
        rep.exec_cycles / rep.op.f_cl + rep.l3l2_fcycles / rep.op.f_fc)
    assert rep.fps == pytest.approx(1.0 / rep.frame_s)


def test_operating_corner_figures(schedule):
    eff = cost.frame_report(schedule, cost.EFFICIENT)
    assert 5.0 <= eff.fps <= 7.0
    assert 1e3 * eff.power_w == pytest.approx(45.0, rel=0.15)
    fast = cost.frame_report(schedule, cost.FAST)
    assert 16.0 <= fast.fps <= 20.0
    assert 1e3 * fast.power_w == pytest.approx(272.0, rel=0.15)
    assert fast.board_power_w > fast.power_w     # camera and DRAM on top


def test_aggregate_throughput(schedule, graph):
    rep = cost.frame_report(schedule)
    macs = net.mac_count(graph)["conv_total"]
    assert macs / rep.total_cycles == pytest.approx(2.81, rel=0.05)


def test_l3l2_share_of_cycles(schedule):
    rep = cost.frame_report(schedule)
    share = rep.l3l2_fcycles / rep.total_cycles
    assert share == pytest.approx(0.07, abs=0.02)


def test_sweep_min_energy_point(schedule):
    points, best = cost.sweep(schedule)
    assert best.op == cost.OpPoint(1.0, 50e6, 100e6)
    # the calibrated envelope keeps 1.0 V at or below 100 MHz
    assert all(p.op.f_cl <= 100e6 and p.op.f_fc <= 100e6
               for p in points if p.op.vdd == 1.0)
    by_key = {(p.op.vdd, p.op.f_fc, p.op.f_cl): p for p in points}
    # at matched frequencies the lower supply always wins on energy
    for p in points:
        twin = by_key.get((1.2, p.op.f_fc, p.op.f_cl))
        if p.op.vdd == 1.0 and twin:
            assert p.energy_j < twin.energy_j
    # energy/frame non-increasing in the cluster clock at fixed everything else
    for vdd in (1.0, 1.2):
        for f_fc in (50e6,):
            series = sorted((p.op.f_cl, p.energy_j) for p in points
                            if p.op.vdd == vdd and p.op.f_fc == f_fc)
            assert all(a[1] >= b[1] for a, b in zip(series, series[1:]))
    # frame rate strictly increases with the cluster clock
    series = sorted((p.op.f_cl, p.fps) for p in points
                    if p.op.vdd == 1.2 and p.op.f_fc == 100e6)
    assert all(a[1] < b[1] for a, b in zip(series, series[1:]))


@pytest.mark.parametrize("budget", [16 * 1024, 60 * 1024])
def test_report_at_another_point_equals_a_fresh_report(graph, budget):
    # at() reprices the same rows: every figure equals, with ==, the report
    # computed from the schedule at that point
    sched = tiler.plan_network(graph, budget)
    base = cost.frame_report(sched)
    points, _ = cost.sweep(sched)
    calib, power = cost.DEFAULT_CALIB, cost.DEFAULT_POWER
    for op in [p.op for p in points] + [cost.FAST]:
        moved = base.at(op, power)
        fresh = cost.frame_report(sched, op, calib, power)
        for f in dataclasses.fields(cost.CostReport):
            assert getattr(moved, f.name) == getattr(fresh, f.name), (op, f.name)
        assert moved.rows is base.rows


def test_sweep_csv_format(schedule):
    points, _ = cost.sweep(schedule)
    lines = cost.sweep_csv(points).splitlines()
    assert lines[0] == "vdd_v,fc_mhz,cl_mhz,fps,power_mw,energy_mj"
    assert len(lines) == len(points) + 1


def test_report_csv(schedule):
    rep = cost.frame_report(schedule)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "layer,exec_ms,l3l2_ms"
    assert len(lines) == 20                      # 18 rows + frame + header


def test_layer_cycles_breakdown(schedule):
    rep = cost.frame_report(schedule)
    total = sum(cost.layer_cycles(p).exec_cl for p in schedule.plans)
    assert total == pytest.approx(rep.exec_cycles)
    assert sum(cost.layer_cycles(p).l3l2_fcycles for p in schedule.plans) == \
        pytest.approx(rep.l3l2_fcycles)
    conv6 = cost.layer_cycles(schedule.plan_for("conv_6"))
    assert 1e3 * conv6.exec_cl / cost.EFFICIENT.f_cl == pytest.approx(17.0, rel=0.3)
    relu = cost.layer_cycles(schedule.plan_for("relu_1"))
    # zero-MAC node kernel: byte-throughput bound, below a millisecond-scale
    assert 0.2 <= 1e3 * relu.exec_cl / cost.EFFICIENT.f_cl <= 0.9


def scaled_calib(factor: float) -> cost.CalibParams:
    return cost.CalibParams(*(factor * getattr(cost.DEFAULT_CALIB, f.name)
                              for f in dataclasses.fields(cost.CalibParams)))


def assert_priced_from_row_loads(report, sched, c, op, power):
    """The report equals, with ==, sums made afresh from the plans'
    row loads, in graph order."""
    graph = sched.graph
    by_name = {r.name: r for p in sched.plans for r in cost.row_loads(p.node, p.loads())}
    loads = [by_name[spec.name] for spec in graph.layers]
    exec_rows = [r.exec_cycles(c) for r in loads]
    l3l2_rows = [r.w_bytes / c.l3l2_bytes_per_fcycle for r in loads]
    assert [r.name for r in report.rows] == [spec.name for spec in graph.layers]
    assert [r.exec_cycles for r in report.rows] == exec_rows
    assert [r.l3l2_fcycles for r in report.rows] == l3l2_rows
    exec_cycles, l3l2 = sum(exec_rows), sum(l3l2_rows)
    dma = c.dma_setup_cycles * sum(r.transfers for r in loads)
    assert (report.exec_cycles, report.l3l2_fcycles, report.dma_l2l1_cycles,
            report.computation_cycles) == (exec_cycles, l3l2, dma, exec_cycles - dma)
    t_c = exec_cycles / op.f_cl
    t = t_c + l3l2 / op.f_fc
    assert report.frame_s == t
    assert report.energy_j == op.vdd ** 2 * (power.k_fc * op.f_fc * t
                                             + power.k_cl * op.f_cl * t_c)


def test_reports_follow_the_calibration(graph):
    # rows are kept on each plan per calibration: after a default report, a
    # report and a breakdown under another calibration equal, with ==, sums
    # made from scratch from the plans' row loads, in graph order
    sched = tiler.plan_network(graph, 24 * 1024)
    cost.frame_report(sched)
    calib = scaled_calib(1.25)
    op, power = cost.FAST, cost.DEFAULT_POWER
    for c in (calib, cost.DEFAULT_CALIB, calib):
        assert_priced_from_row_loads(cost.frame_report(sched, op, c, power), sched, c, op, power)
        for p in sched.plans:
            rows = cost.row_loads(p.node, p.loads())
            assert cost.layer_cycles(p, c) == cost.LayerCycles(
                p.node.name, sum(r.exec_cycles(c) for r in rows),
                sum(r.w_bytes for r in rows) / c.l3l2_bytes_per_fcycle), p.node.name
            assert cost.plan_cycles(p, c) == cost.layer_cycles(p, c).exec_cl


def test_equal_plans_share_one_priced_schedule(graph):
    # a schedule is priced once per (graph, plans, calibration) value:
    # schedules planned apart with equal plans, at one budget or at two
    # budgets that keep every node on the same frontier step, share one
    # rows tuple in their reports and their sweeps
    assert cost._priced.cache_info().maxsize == tiler.GRAPHS_CACHED
    a = tiler.plan_network(graph, 60 * 1024)
    edge = max(p.footprint for p in a.plans)     # the lowest budget on the same steps
    assert edge < 60 * 1024
    rows = cost.frame_report(a).rows
    for budget in (60 * 1024, edge):
        b = tiler.plan_network(graph, budget)
        assert b is not a and all(p is q for p, q in zip(a.plans, b.plans))
        assert cost.frame_report(b, cost.FAST).rows is rows
        assert all(point.rows is rows for point in cost.sweep(b)[0])
    assert cost.frame_report(tiler.plan_network(graph, edge - 1)).rows is not rows


def test_another_calibration_or_plan_prices_fresh_rows(graph):
    # a new calibration, or a plan swapped in with dataclasses.replace, is a
    # new value: its rows are priced afresh and equal sums made from the row loads
    sched = tiler.plan_network(graph, 32 * 1024)
    op, power = cost.EFFICIENT, cost.DEFAULT_POWER
    rows = cost.frame_report(sched, op).rows
    calib = scaled_calib(0.75)
    report = cost.frame_report(sched, op, calib, power)
    assert report.rows is not rows
    assert_priced_from_row_loads(report, sched, calib, op, power)
    i, plan = next((i, p) for i, p in enumerate(sched.plans)
                   if p.node.kind == "conv" and p.ci_tile > 1)
    swapped = dataclasses.replace(
        sched, plans=sched.plans[:i] + (dataclasses.replace(plan, ci_tile=1),)
        + sched.plans[i + 1:])
    for c in (cost.DEFAULT_CALIB, calib):
        report = cost.frame_report(swapped, op, c, power)
        assert report.rows != cost.frame_report(sched, op, c, power).rows
        assert_priced_from_row_loads(report, swapped, c, op, power)


def test_targets_loader_env_override(tmp_path, monkeypatch):
    src = cost.data_dir()
    for f in src.iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    monkeypatch.setenv(cost.DATA_ENV, str(tmp_path))
    t = cost.load_targets()
    assert t.total_mcycles == 14.61
    assert t.layer_ms["conv_9"] == 24.8
    assert "add_1" not in t.l3l2_ms              # no weights on join rows
    assert len(t.power_points) == 2


@pytest.mark.parametrize("name, old, new, match", [
    ("gap8_layer_times.csv", "exec_ms,", "exec_time,",
     "header must name layer and exec_ms and l3l2_ms"),
    ("gap8_cycle_breakdown.csv", "1.03,0.11,13.47,14.61\n", "", "no data row"),
    ("gap8_power_points.csv", "1.2,250,250,272,18", "1.2,250,250,272",
     "data row 2 is short"),
    ("gap8_layer_times.csv", "conv_1,47.1,22.6,", "conv_1,47.1,22.6ms,",
     "data row 1: exec_ms '22.6ms' is not a finite number"),
    ("gap8_power_points.csv", "1.0,50,100,45,", "1.0,50,100,nan,",
     "data row 1: avg_power_mw 'nan' is not a finite number"),
    ("gap8_power_points.csv", "1.2,250,250,", "1.2,250,0,",
     "data row 2: cl_mhz 0 is not positive"),
    ("gap8_power_points.csv", "1.0,50,", "1.0,-50,", "data row 1: fc_mhz -50 is not positive"),
    ("gap8_power_points.csv", "1.2,250,", "0.0,250,", "data row 2: vdd_v 0 is not positive"),
    ("gap8_layer_times.csv", "fully_2,13.0,0.1,0.4\n",
     "fully_2,13.0,0.1,0.4\nconv_1,47.1,999.0,0.1\n", "data row 19: layer conv_1 repeats"),
    ("gap8_cycle_breakdown.csv", "1.03,0.11,13.47,14.61\n",
     "1.03,0.11,13.47,14.61\n1.03,0.11,13.47,14.61\n", "data row 2: the table holds one frame"),
], ids=["missing-column", "empty-table", "short-row", "non-numeric", "non-finite",
        "zero-cl-clock", "negative-fc-clock", "zero-vdd", "repeated-layer",
        "second-breakdown-row"])
def test_targets_loader_rejects_malformed_tables(tmp_path, name, old, new, match):
    for f in cost.data_dir().iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    text = (tmp_path / name).read_text()
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=match) as e:
        cost.load_targets(tmp_path)
    assert str(e.value).startswith(f"{tmp_path / name}: ")


def _edited_targets(tmp_path, name, old, new):
    """The shipped tables copied to tmp_path, with `old` replaced in `name`."""
    for f in cost.data_dir().iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    text = (tmp_path / name).read_text()
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new))
    return cost.load_targets(tmp_path)


def test_calibrate_names_a_missing_layer_row(tmp_path, schedule):
    targets = _edited_targets(tmp_path, cost.LAYER_TABLE, "conv_9,", "conv9,")
    want = f"{tmp_path / cost.LAYER_TABLE}: no row for layer conv_9"
    with pytest.raises(ValueError, match=want):
        cost.calibrate(schedule, targets)
    with pytest.raises(ValueError, match=want):
        cost.fit_residuals(schedule, cost.DEFAULT_CALIB, cost.DEFAULT_POWER, targets)


def test_calibrate_names_the_power_corner_count(tmp_path, schedule):
    corner = "1.2,250,250,272,18"
    targets = _edited_targets(tmp_path, cost.POWER_TABLE, corner,
                              f"{corner}\n1.1,150,150,140,12")
    with pytest.raises(ValueError, match=f"{tmp_path / cost.POWER_TABLE}: "
                       "3 operating corners, the power fit needs 2"):
        cost.calibrate(schedule, targets)
