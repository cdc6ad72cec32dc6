import re

import pytest

import oracles
from nanotile import cost, net, tiler

KB = 1024
# conv_1+pool fits from 14176 bytes and conv_2, the last node to fit, from
# 15860: each edge is tested from both sides
ORACLE_BUDGETS = [8 * KB, 14175, 14176, 15859, 15860, 16 * KB, 32 * KB,
                  60 * KB, 64 * KB]


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
    plans = tiler.enumerate_tilings(nodes["conv_9"], 64 * 1024, tiler.FEATUREWISE)
    assert plans and all(p.n_h == 1 for p in plans)
    assert all(p.footprint <= 64 * 1024 for p in plans)
    assert any(p.n_co > 1 for p in plans)       # weights stream in channel chunks


def test_conv1_must_tile_h(nodes):
    # the full 200x200 input map alone is 80 KB, over any 64 KB budget
    with pytest.raises(tiler.InfeasibleError):
        tiler.enumerate_tilings(nodes["conv_1+pool"], 64 * 1024, tiler.FEATUREWISE)
    plans = tiler.enumerate_tilings(nodes["conv_1+pool"], 64 * 1024, tiler.SPATIAL)
    assert all(p.n_h > 1 for p in plans)


def test_tiny_budget_infeasible(nodes):
    with pytest.raises(tiler.InfeasibleError, match="infeasible"):
        tiler.enumerate_tilings(nodes["conv_1+pool"], 1024, tiler.SPATIAL)
    with pytest.raises(tiler.InfeasibleError):
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
            try:
                for p in tiler.enumerate_tilings(node, 60 * 1024, scheme):
                    c = cost.plan_cycles(p, cost.DEFAULT_CALIB)
                    best = c if best is None else min(best, c)
            except tiler.InfeasibleError:
                pass
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
            first_error = first_error or f"{node.name}: {e}"
            continue
        got = tiler.plan_layer(node, budget)
        assert got == want, node.name           # est_cycles included, with ==
        assert got.footprint == want.footprint
        plans.append(want)
    if first_error is None:
        assert tiler.plan_network(graph, budget).plans == plans
    else:
        with pytest.raises(tiler.InfeasibleError) as got:
            tiler.plan_network(graph, budget)
        assert str(got.value) == first_error


def test_network_feasibility_edges(graph):
    for budget, culprit in ((14175, "conv_1+pool"), (15859, "conv_2")):
        with pytest.raises(tiler.InfeasibleError, match=f"^{re.escape(culprit)}: "):
            tiler.plan_network(graph, budget)
    tiler.plan_network(graph, 15860)


def test_join_without_following_relu_raises_value_error(graph):
    # cut after add_1: the join is not ReLU-fused and its ReLU row is gone
    cut = [r.name for r in graph.layers].index("add_1") + 1
    prefix = net.NetworkGraph(graph.layers[:cut], dict(graph.tensors))
    with pytest.raises(ValueError, match="add_1: join without a following ReLU"):
        tiler.node_kernels(prefix)


def test_stripe_overlap_is_kernel_minus_stride(schedule):
    for p in schedule.plans:
        if p.scheme != tiler.SPATIAL or p.node.kind != "conv":
            continue
        body = p.node.body
        ranges = p.h_ranges()
        assert p.overlap_rows == max(body.kh - body.stride, 0)
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            _, hi_a, _, pb = p.input_rows(a0, a1)
            lo_b, _, pa, _ = p.input_rows(b0, b1)
            assert pb == 0 or b1 == ranges[-1][1]
            assert hi_a - lo_b == body.kh - body.stride


def test_worker_split_exactness(schedule):
    for p in schedule.plans:
        if p.node.kind == "ew":
            continue
        if p.scheme == tiler.SPATIAL:
            ranges = p.worker_ranges(p.node.w_out)
            span = p.node.w_out
            covered = sorted(ranges)
            assert covered[0][0] == 0 and covered[-1][1] == span
            for (a0, a1), (b0, b1) in zip(covered, covered[1:]):
                assert a1 == b0                       # disjoint, gap-free
        else:
            total = []
            for o0, o1 in p.co_ranges():
                for w0, w1 in p.worker_ranges(o1 - o0):
                    total.append((o0 + w0, o0 + w1))
            total.sort()
            assert total[0][0] == 0
            assert total[-1][1] == p.node.body.k_out
            for (a0, a1), (b0, b1) in zip(total, total[1:]):
                assert a1 == b0


def test_tile_ranges_cover_iteration_space(schedule):
    for p in schedule.plans:
        hs = p.h_ranges()
        assert hs[0][0] == 0 and hs[-1][1] == p.node.h_out
        assert all(a1 == b0 for (a0, a1), (b0, b1) in zip(hs, hs[1:]))
        cis = p.ci_ranges()
        assert cis[0][0] == 0 and cis[-1][1] == p.node.body.k_in
        cos = p.co_ranges()
        assert cos[0][0] == 0 and cos[-1][1] == p.node.body.k_out


def test_double_buffer_assignment(schedule):
    for p in schedule.plans:
        counts = p.transfer_counts()
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
