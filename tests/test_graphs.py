"""Small DroNet-style graphs through the whole pipeline.

The strategy draws an input of 1-3 channels and 8-40 rows and columns, an
optional stem convolution with a fused pool and a ReLU row, one to three
residual blocks (3x3/s2 with a fused ReLU, 3x3/s1, a 1x1/s2 bypass and a
join whose ReLU is fused or a row of its own) and two single-output fully
connected heads.  Each graph is planned, L2-planned, executed tiled and
untiled and interpreted by the naive oracle, and every stage is checked
against its oracle or replay.  Every distinct node stays in
tiler.frontier's cache, so the example count is kept small.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

import oracles
from nanotile import cost, executor, kernels, l2plan, net, tiler


@st.composite
def dronet_like(draw):
    k, h, w = draw(st.integers(1, 3)), draw(st.integers(8, 40)), draw(st.integers(8, 40))
    rows = []
    x = net.INPUT_TENSOR

    def add(row):
        nonlocal x, k, h, w
        rows.append(row)
        x, k, h, w = row.output, row.k_out, row.h_out, row.w_out
        return row.name

    def elementwise(name, kind, inputs, fused_relu=False):
        return add(net.LayerSpec(name, kind, inputs, k_in=k, k_out=k, h_in=h, w_in=w,
                                 fused_relu=fused_relu))

    if draw(st.booleans()):
        kh, stride = draw(st.sampled_from((3, 5))), draw(st.integers(1, 2))
        add(net._conv("stem", x, k, draw(st.integers(1, 8)), kh, kh, stride, h, w,
                      fused_pool=True))
        elementwise("stem_relu", net.RELU, (x,))
    for i in range(draw(st.integers(1, 3))):
        src, k_src, h_src, w_src = x, k, h, w
        k_out = draw(st.integers(1, 8))
        add(net._conv(f"conv_{i}a", src, k_src, k_out, 3, 3, 2, h_src, w_src, fused_relu=True))
        main = add(net._conv(f"conv_{i}b", x, k, k_out, 3, 3, 1, h, w))
        bypass = add(net._conv(f"conv_{i}c", src, k_src, k_out, 1, 1, 2, h_src, w_src))
        fused = draw(st.booleans())
        elementwise(f"add_{i}", net.ADD, (main, bypass), fused_relu=fused)
        if not fused:
            elementwise(f"relu_{i}", net.RELU, (x,))
    for head in ("head_a", "head_b"):
        rows.append(net.LayerSpec(head, net.FC, (x,), k_in=k * h * w, k_out=1, kh=1, kw=1,
                                  h_in=1, w_in=1))
    return net.NetworkGraph(rows)


@settings(max_examples=12, deadline=None)
@given(graph=dronet_like(), data=st.data())
def test_random_graph_runs_the_whole_pipeline(graph, data):
    net._validate(graph)
    nodes = tiler.node_kernels(graph)
    steps = [tiler.frontier(node, cost.DEFAULT_CALIB) for node in nodes]
    for node, node_steps in zip(nodes, steps):
        oracles.assert_stored_footprints(node, node_steps)
    breaks = oracles.assert_design_curve(graph)
    # a break of the graph's design curve, or one byte below it
    budget = max(breaks[0], data.draw(st.sampled_from(breaks)) - data.draw(st.integers(0, 1)))
    schedule = tiler.plan_network(graph, budget)
    assert schedule.plans == tuple(oracles.exhaustive_plan_layer(node, budget) for node in nodes)
    for plan in schedule.plans:
        oracles.assert_tile_geometry(plan)

    schedule.l2 = l2plan.plan_two_stack(graph)
    assert schedule.l2 == oracles.exhaustive_two_stack(graph)
    assert l2plan.validate_plan(schedule.l2, graph) == []
    # the cold one-pass verdict is the step-by-step replay's, on the plans
    # and on a swap, a drop and a step shift of the two-stack plan's events
    events = list(schedule.l2.events)
    i, j = (data.draw(st.integers(0, len(events) - 1)) for _ in range(2))
    swapped = events[:]
    swapped[i], swapped[j] = events[j], events[i]
    shifted = events[:]
    shifted[i] = events[i]._replace(step=events[i].step + data.draw(st.sampled_from((-1, 1))))
    for plan in (schedule.l2, l2plan.plan_single_stack(graph),
                 *(dataclasses.replace(schedule.l2, events=tuple(edit))
                   for edit in (swapped, events[:i] + events[i + 1:], shifted))):
        assert list(l2plan._violations.__wrapped__(plan, graph)) == \
            oracles.replay_l2_verdict(plan, graph)
    frees = {ev.buffer: ev.step for ev in schedule.l2.events if ev.action == "free"}
    assert [frees[t] for t in graph.outputs] == [len(nodes)] * 2   # live to the mission end

    seed = data.draw(st.integers(0, 2**16))
    store = net.random_store(graph, seed, data.draw(st.sampled_from((1.0, 0.1))))
    image = oracles.random_image(seed, graph)
    ref = kernels.infer_untiled(graph, store, image)
    res = executor.execute_schedule(schedule, store, image)
    # the tiled engine holds the input and every node's output, not the rows
    # fused inside a node
    assert res.tensors.keys() == {net.INPUT_TENSOR, *(node.output for node in nodes)}
    assert oracles.tensor_mismatches(res.tensors, ref.tensors) == []
    naive = oracles.naive_infer(graph, store, image)
    assert ref.tensors.keys() == naive.keys()
    assert oracles.tensor_mismatches(ref.tensors, naive) == []
    heads = tuple(int(ref.tensors[t][0, 0, 0]) for t in graph.outputs)
    assert (ref.raw_steering, ref.raw_collision) == heads
    assert (res.raw_steering, res.raw_collision) == heads

    audit = executor.audit_trace(res.trace, res.memsim)
    assert audit.violations == []
    assert audit.peak_l1 <= budget
    assert audit.peak_l2 <= l2plan.L2_BYTES
    frame = audit.tag_stream_bytes[(executor.TAG_L3_L2, "frame")]
    assert frame == 2 * math.prod(graph.tensors[net.INPUT_TENSOR])
