import dataclasses
import json
import re
from bisect import bisect_right
from pathlib import Path

import pytest

import oracles
from nanotile import cost, net, tiler

KB = 1024
# conv_1+pool fits from 14176 bytes and conv_2, the last node to fit, from
# 15860: each edge is tested from both sides
ORACLE_BUDGETS = [8 * KB, 14175, 14176, 15859, 15860, 16 * KB, 32 * KB,
                  60 * KB, 64 * KB]
# the plans chosen at every budget from 8 to 64 KB in 1 KB steps (scheme and
# tile extents per node, or the first node that does not fit), recorded from
# the planner before its objective took in the fused join rows; those add a
# constant per node, so no plan may differ
PLAN_TABLE = json.loads((Path(__file__).parent / "data" / "plan_table.json").read_text())


@pytest.fixture(scope="module")
def graph():
    return net.build_dronet()


@pytest.fixture(scope="module")
def nodes(graph):
    return {n.name: n for n in tiler.node_kernels(graph)}


@pytest.fixture(scope="module")
def schedule(graph):
    return tiler.plan_network(graph, 60 * 1024)


def test_node_grouping(graph, nodes):
    assert len(nodes) == 13
    assert "conv_1+pool" in nodes and nodes["conv_1+pool"].fused_pool
    joined = nodes["conv_4+add+relu"]
    assert joined.addend == "conv_3"
    assert joined.input == "relu_1"
    assert joined.output == "relu_2"
    assert [r.name for r in joined.rows] == ["conv_4", "add_1", "relu_2"]
    res3 = nodes["conv_10+add+relu"]
    assert [r.name for r in res3.rows] == ["conv_10", "add_3"]
    assert nodes["relu_1"].kind == "ew"
    assert nodes["fully_1"].kind == "fc"


def test_conv9_untiled_in_h_feasible_at_64k(nodes):
    plans = oracles.feasible_plans(nodes["conv_9"], 64 * 1024, tiler.FEATUREWISE)
    assert plans and all(p.n_h == 1 for p in plans)
    assert all(p.footprint <= 64 * 1024 for p in plans)
    assert any(p.n_co > 1 for p in plans)       # weights stream in channel chunks


def test_conv1_must_tile_h(nodes):
    # the full 200x200 input map alone is 80 KB, over any 64 KB budget
    assert not oracles.feasible_plans(nodes["conv_1+pool"], 64 * 1024, tiler.FEATUREWISE)
    plans = oracles.feasible_plans(nodes["conv_1+pool"], 64 * 1024, tiler.SPATIAL)
    assert all(p.n_h > 1 for p in plans)


def test_tiny_budget_infeasible(nodes):
    assert not oracles.feasible_plans(nodes["conv_1+pool"], 1024, tiler.SPATIAL)
    with pytest.raises(tiler.InfeasibleError, match="infeasible"):
        tiler.plan_layer(nodes["conv_1+pool"], 1024)


def test_plan_network_reports_first_infeasible_node(graph):
    with pytest.raises(tiler.InfeasibleError, match="conv_1"):
        tiler.plan_network(graph, 8 * 1024)


def test_scheme_choices_match_deployment(schedule):
    by_name = {p.node.name: p for p in schedule.plans}
    assert by_name["conv_1+pool"].scheme == tiler.SPATIAL
    assert by_name["conv_6"].scheme == tiler.FEATUREWISE


def test_all_nodes_feasible_at_default_budget(schedule):
    assert len(schedule.plans) == 13
    for p in schedule.plans:
        assert p.footprint <= 60 * 1024


@pytest.mark.parametrize("budget_kb", [16, 32, 60])
def test_footprint_within_budget(graph, budget_kb):
    sched = tiler.plan_network(graph, budget_kb * 1024)
    for p in sched.plans:
        assert p.footprint <= budget_kb * 1024, p.node.name


def test_planner_equals_enumeration_minimum(nodes):
    # chosen plan cost must equal the brute-force minimum over both schemes
    for node in nodes.values():
        chosen = tiler.plan_layer(node, 60 * 1024)
        best = None
        for scheme in (tiler.SPATIAL, tiler.FEATUREWISE):
            for p in oracles.feasible_plans(node, 60 * 1024, scheme):
                c = cost.plan_cycles(p, cost.DEFAULT_CALIB)
                best = c if best is None else min(best, c)
        assert chosen.est_cycles == pytest.approx(best)


@pytest.mark.parametrize("budget", ORACLE_BUDGETS)
def test_planner_equals_exhaustive_oracle(graph, budget):
    plans, first_error = [], None
    for node in tiler.node_kernels(graph):
        try:
            want = oracles.exhaustive_plan_layer(node, budget)
        except tiler.InfeasibleError as e:
            with pytest.raises(tiler.InfeasibleError) as got:
                tiler.plan_layer(node, budget)
            assert str(got.value) == str(e)
            first_error = first_error or str(e)
            continue
        got = tiler.plan_layer(node, budget)
        assert got == want, node.name           # est_cycles included, with ==
        assert got.footprint == want.footprint
        plans.append(want)
    if first_error is None:
        assert tiler.plan_network(graph, budget).plans == tuple(plans)
    else:
        with pytest.raises(tiler.InfeasibleError) as got:
            tiler.plan_network(graph, budget)
        assert str(got.value) == first_error


def test_planner_equals_loop_frontier(nodes):
    # every step of the oracle's one-scoring walk, and one byte below it
    for node in nodes.values():
        want = oracles.loop_frontier(node)
        steps = tiler.frontier(node, cost.DEFAULT_CALIB)
        assert [s.footprint for s in steps] == [footprint for footprint, _ in want]
        assert [s.cycles for s in steps] == [plan.est_cycles for _, plan in want]
        for k, (footprint, plan) in enumerate(want):
            assert tiler.plan_layer(node, footprint) == plan, (node.name, footprint)
            if k:
                assert tiler.plan_layer(node, footprint - 1) == want[k - 1][1]
                continue
            with pytest.raises(tiler.InfeasibleError) as got:
                tiler.plan_layer(node, footprint - 1)
            assert str(got.value) == oracles.infeasible_text(node, footprint - 1)


def test_frontier_is_cached_per_calibration(graph, nodes):
    # with the default calibration's frontiers warm, another calibration
    # plans from its own
    tiler.plan_network(graph)
    calib = dataclasses.replace(cost.DEFAULT_CALIB,
                                dispatch_cycles=10 * cost.DEFAULT_CALIB.dispatch_cycles)
    moved = 0
    for budget in ORACLE_BUDGETS:
        for node in nodes.values():
            try:
                want = oracles.exhaustive_plan_layer(node, budget, calib)
            except tiler.InfeasibleError as e:
                with pytest.raises(tiler.InfeasibleError) as got:
                    tiler.plan_layer(node, budget, calib)
                assert str(got.value) == str(e)
                continue
            got = tiler.plan_layer(node, budget, calib)
            assert got == want, (node.name, budget)
            default = tiler.plan_layer(node, budget)
            moved += (got.scheme, got.h_tile, got.ci_tile, got.co_tile) != (
                default.scheme, default.h_tile, default.ci_tile, default.co_tile)
    assert moved


def test_plans_are_shared_per_frontier_step(graph, nodes):
    # a frozen plan is built once per frontier step and handed to every
    # budget on that step, and a plans tuple once per interval of the
    # graph's design curve and handed to every budget on that interval
    curve = tiler.design_curve(graph, cost.DEFAULT_CALIB)
    i = bisect_right(curve.breaks, tiler.DEFAULT_L1_BUDGET)
    a, b = tiler.plan_network(graph), tiler.plan_network(graph, curve.breaks[i] - 1)
    assert a is not b and a.plans is b.plans
    c = tiler.plan_network(graph, curve.breaks[i])
    assert c.plans is not a.plans and c.plans != a.plans
    # plan_network reads the curve, built once per graph and calibration,
    # which picks each plan by plan_layer's step rule
    assert tiler.design_curve.cache_info().maxsize == tiler.GRAPHS_CACHED
    assert all(p is tiler.plan_layer(p.node) for p in a.plans)
    for node in nodes.values():
        steps = tiler.frontier(node, cost.DEFAULT_CALIB)
        for k, step in enumerate(steps):
            plan = tiler.plan_layer(node, step.footprint)
            top = steps[k + 1].footprint - 1 if k + 1 < len(steps) else 2 * step.footprint
            assert tiler.plan_layer(node, top) is plan, (node.name, k)
            if k:
                assert tiler.plan_layer(node, step.footprint - 1) is not plan
            assert plan.est_cycles == step.cycles == cost.plan_cycles(plan), (node.name, k)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.est_cycles = -1.0


def test_design_curve_equals_the_node_frontiers(graph):
    # DroNet's schedule changes at 198 budgets from its edge, set by conv_2,
    # to the 64 KB scratchpad
    breaks = oracles.assert_design_curve(graph)
    assert breaks[0] == 15860
    assert len([b for b in breaks if b <= 64 * KB]) == 198


def test_plans_store_their_footprint(nodes):
    # a plan's footprint is stored when it is built, from its buffers: on
    # every frontier step of every DroNet node it is the step's footprint
    for node in nodes.values():
        oracles.assert_stored_footprints(node, tiler.frontier(node, cost.DEFAULT_CALIB))


def test_node_kernel_hash_is_computed_once(nodes, monkeypatch):
    # frontier's cache hashes the node kernel on every lookup; its rows are
    # hashed once, when it is built
    node = nodes["conv_2"]
    steps = tiler.frontier(node, cost.DEFAULT_CALIB)
    rebuilt = net.build_dronet()
    again = tiler.NodeKernel(tuple(rebuilt.layer(row.name) for row in node.rows))
    rehashed = []
    monkeypatch.setattr(net.LayerSpec, "__hash__", lambda spec: rehashed.append(spec) or 0)
    assert again is not node and again == node and hash(again) == hash(node)
    hits = tiler.frontier.cache_info().hits
    assert tiler.frontier(again, cost.DEFAULT_CALIB) is steps
    assert tiler.frontier.cache_info().hits == hits + 1
    assert rehashed == []


def test_tile_plan_hash_is_computed_once(graph, monkeypatch):
    # the replay cache hashes a schedule's plans on every frame; each plan
    # hashes its compared fields once, when it is built, and keeps that
    # hash when cost.plan_rows fills its priced rows
    a, b = tiler.plan_network(net.build_dronet()), tiler.plan_network(net.build_dronet())
    assert [hash(p) for p in a.plans] == [hash(q) for q in b.plans]
    fresh = [dataclasses.replace(p) for p in a.plans]
    rehashed = []
    monkeypatch.setattr(tiler.NodeKernel, "__hash__",
                        lambda node: rehashed.append(node) or 0)
    for plan, again in zip(a.plans, fresh):
        assert again is not plan and again == plan and again._rows is None
        before = hash(again)
        assert before == hash(plan)
        cost.plan_rows(again, cost.DEFAULT_CALIB)
        assert again._rows is not None and hash(again) == before
    assert hash(a.plans) == hash(tuple(fresh))
    assert rehashed == []


def test_tile_plan_is_frozen(graph):
    # the executor caches a schedule's replay on its plans' values, so an
    # extent edited in place would leave that replay under a stale key
    sched = tiler.plan_network(graph)
    plan = sched.plan_for("conv_2")
    extents = plan.co_tile, plan.n_co
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.co_tile = extents[0] * 2
    assert (plan.co_tile, plan.n_co) == extents


@pytest.mark.parametrize("entry", PLAN_TABLE, ids=lambda e: f"{e['budget'] // KB}k")
def test_plan_table(graph, entry):
    budget = entry["budget"]
    if "infeasible" in entry:
        with pytest.raises(tiler.InfeasibleError,
                           match=f"^{re.escape(entry['infeasible'])}: "):
            tiler.plan_network(graph, budget)
        return
    plans = tiler.plan_network(graph, budget).plans
    assert [[p.node.name, p.scheme, p.h_tile, p.ci_tile, p.co_tile]
            for p in plans] == entry["plans"]
    for p in plans:
        assert p.est_cycles == cost.layer_cycles(p).exec_cl, p.node.name
        oracles.assert_tile_geometry(p)
        tiles = p.tiles()
        assert [t.index for t in tiles] == list(range(p.n_tiles))
        counts, sizes = {}, {}
        for t in tiles:
            for stream, nbytes in t.bytes.items():
                counts[stream] = counts.get(stream, 0) + 1
                sizes[stream] = sizes.get(stream, 0) + nbytes
        loads = p.loads()
        assert loads.work == sum(t.work for t in tiles), p.node.name
        assert loads.forks == sum(t.forks for t in tiles), p.node.name
        assert loads.descriptors == counts, p.node.name
        assert p.transfer_bytes() == sizes


def test_pooled_epilogue_accumulates_in_one_pass():
    # conv_1+pool, DroNet's only pooled node, has one input channel, so the
    # single-pass rule never binds on it.  With 64 input channels it decides
    # feasibility: split input channels would fit from 6088 bytes, one pass
    # needs 31528
    spec = net._conv("conv_p", net.INPUT_TENSOR, 64, 4, 3, 3, 1, 24, 24, fused_pool=True)
    node = tiler.NodeKernel((spec,))
    for budget in (6088, 31527, 31528, 64 * KB):
        for scheme in (tiler.SPATIAL, tiler.FEATUREWISE):
            want = oracles.feasible_plans(node, budget, scheme)
            assert all(p.n_ci == 1 for p in want)
        try:
            want = oracles.exhaustive_plan_layer(node, budget)
        except tiler.InfeasibleError as e:
            with pytest.raises(tiler.InfeasibleError) as got:
                tiler.plan_layer(node, budget)
            assert str(got.value) == str(e)
            continue
        got = tiler.plan_layer(node, budget)
        assert got.n_ci == 1
        assert got == want


def test_network_feasibility_edges(graph):
    for budget, culprit in ((14175, "conv_1+pool"), (15859, "conv_2")):
        with pytest.raises(tiler.InfeasibleError, match=f"^{re.escape(culprit)}: "):
            tiler.plan_network(graph, budget)
    tiler.plan_network(graph, 15860)


def test_fc_head_infeasible_below_24_bytes(nodes):
    # one input and one weight-plus-bias word, both double-buffered, plus
    # the accumulator and the output: 4 + 4 + 4 + 4 + 4 + 4 bytes
    with pytest.raises(tiler.InfeasibleError) as got:
        tiler.plan_layer(nodes["fully_1"], 23)
    assert str(got.value) == "fully_1: infeasible under 23 byte budget (feature-wise)"
    plan = tiler.plan_layer(nodes["fully_1"], 24)
    assert plan.footprint == 24 and plan.ci_tile == 1


def test_join_without_following_relu_raises_value_error(graph):
    # cut after add_1: the join is not ReLU-fused and its ReLU row is gone
    cut = [r.name for r in graph.layers].index("add_1") + 1
    prefix = net.NetworkGraph(graph.layers[:cut])
    with pytest.raises(ValueError, match="add_1: join without a following ReLU"):
        tiler.node_kernels(prefix)


def test_stripe_overlap_is_kernel_minus_stride(schedule):
    for p in schedule.plans:
        if p.scheme != tiler.SPATIAL or p.node.kind != "conv":
            continue
        body = p.node.body
        ranges = p.h_ranges()
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            _, hi_a, _, pb = p.input_rows(a0, a1)
            lo_b, _, pa, _ = p.input_rows(b0, b1)
            assert pb == 0 or b1 == ranges[-1][1]
            assert hi_a - lo_b == body.kh - body.stride


def test_worker_split_exactness(schedule):
    for p in schedule.plans:
        for t in p.tiles():
            w = t.workers
            assert len(w) <= tiler.CORES and w[0][0] == 0
            assert all(a1 == b0 for (_, a1), (b0, _) in zip(w, w[1:]))  # gap-free
            if p.node.kind == "fc":
                assert w[-1][1] == t.ci[1] - t.ci[0]
            elif p.scheme == tiler.SPATIAL:
                assert w[-1][1] == p.node.w_out
            else:
                assert w[-1][1] == t.co[1] - t.co[0]


def test_double_buffer_assignment(schedule):
    for p in schedule.plans:
        counts = p.loads().descriptors
        for stream, buf in p.buffers.items():
            if stream in ("acc", "pool"):
                assert not buf.double           # resident, never streamed
            elif stream == "weights" and p.scheme == tiler.SPATIAL:
                assert not buf.double           # loaded once up front
            elif stream == "io":
                assert buf.double == (counts["in"] > 1)
            elif stream in counts:
                assert buf.double == (counts[stream] > 1), (p.node.name, stream)


def test_schedule_summary_format(schedule):
    text = tiler.schedule_summary(schedule)
    assert len(text.splitlines()) == 14
    csv = tiler.schedule_summary(schedule, csv=True)
    assert csv.splitlines()[0].startswith("node,scheme")
    assert csv.splitlines()[1].split(",")[1] == "spatial"
