import dataclasses
import re

import pytest

import oracles
from nanotile import executor, l2plan, net, tiler

KB = 1024

# live set forced by data dependencies while conv_9 runs, from tensor shapes:
# RES3 input (64x13x13) + conv_8 out + conv_9 out (128x7x7 each) + conv_9 weights
CONV9_LIVE = (2 * 64 * 13 * 13) + 2 * (2 * 128 * 7 * 7) + 2 * (128 * 128 * 9 + 128)


@pytest.fixture(scope="module")
def graph():
    return net.build_dronet()


@pytest.fixture(scope="module")
def two(graph):
    return l2plan.plan_two_stack(graph)


@pytest.fixture(scope="module")
def one(graph):
    return l2plan.plan_single_stack(graph)


def test_two_stack_peak_band(two):
    assert 333 * KB <= two.peak_bytes <= 407 * KB
    assert two.headroom >= 100 * KB
    # the dependency-forced live set at conv_9 is a hard lower bound the
    # search achieves exactly
    assert two.peak_bytes == CONV9_LIVE == 341_888


def test_single_stack_peak_band(one):
    assert 598 * KB <= one.peak_bytes <= 732 * KB
    assert one.peak_bytes > 512 * KB            # infeasible on-chip
    # burial under LIFO keeps every earlier feature map alive through conv_9
    acts = (2 * 200 * 200 + 2 * 32 * 50 * 50 + 3 * (2 * 32 * 25 * 25)
            + 3 * (2 * 64 * 13 * 13) + 2 * (2 * 128 * 7 * 7))
    w9 = 2 * (128 * 128 * 9 + 128)
    assert one.peak_bytes == acts + w9 == 745_152


def test_two_never_worse_than_one(two, one):
    assert two.peak_bytes <= one.peak_bytes


def test_plans_validate(graph, two, one):
    assert l2plan.validate_plan(two, graph) == []
    assert l2plan.validate_plan(one, graph) == []


def test_weights_live_only_around_their_layer(two):
    open_w = {}
    for ev in two.events:
        if not ev.buffer.startswith("w:"):
            continue
        if ev.action == "alloc":
            open_w[ev.buffer] = ev.step
        else:
            assert ev.step == open_w.pop(ev.buffer)   # freed within the same step
    assert not open_w


def test_lifo_violation_detected(graph, two):
    # swap two frees on the same stack so one targets a buried buffer
    tampered = oracles.tampered_l2_plans(two)["lifo"]
    # each verdict is cached on its own (plan, graph) value: a tampered plan
    # still fails after the good one passed, and the good one still passes
    for _ in range(2):
        assert any("free of" in v for v in l2plan.validate_plan(tampered, graph))
        assert l2plan.validate_plan(two, graph) == []


def test_early_free_of_bypass_tensor_detected(graph, two):
    # freeing the RES1 bypass operand before its join step breaks liveness
    tampered = oracles.tampered_l2_plans(two)["early free"]
    violations = l2plan.validate_plan(tampered, graph)
    assert any("conv_3" in v for v in violations)


def test_unallocated_output_detected(graph, two):
    # a head's output buffer that is never allocated is written while dead
    tampered = oracles.tampered_l2_plans(two)["no output"]
    assert l2plan.validate_plan(tampered, graph) == ["step 11: output fully_1 not allocated"]


def test_late_input_detected(graph, two):
    # an input allocated only at step 0 is not live when the frame lands
    tampered = oracles.tampered_l2_plans(two)["late input"]
    assert l2plan.validate_plan(tampered, graph) == [
        "step -1: input not allocated before the frame lands"]
    sched = dataclasses.replace(tiler.plan_network(graph, 60 * KB), l2=tampered)
    with pytest.raises(executor.MemSimError, match="^L2 plan: step -1: input not allocated"):
        executor.compile_schedule(sched)


def _outside(step, action, buffer, stack):
    return (f"step {step}: {action} of {buffer} on stack {stack} "
            "outside steps -1..13 and stacks 0..1")


@pytest.mark.parametrize("fault, outside", [
    ("stack -1", [_outside(9, "alloc", "conv_9", -1), _outside(9, "alloc", "w:conv_9", -1),
                  _outside(9, "free", "w:conv_9", -1), _outside(10, "free", "conv_9", -1)]),
    ("stack 2", [_outside(9, "alloc", "conv_9", 2), _outside(9, "alloc", "w:conv_9", 2),
                 _outside(9, "free", "w:conv_9", 2), _outside(10, "free", "conv_9", 2)]),
    ("step -2", [_outside(-2, "alloc", "input", 0)]),
    ("step n+1", [_outside(14, "free", "relu_3", 0)])],
    ids=("stack-minus-1", "stack-2", "step-minus-2", "step-past-end"))
def test_events_off_the_plans_steps_and_stacks_are_reported_first(graph, two, fault, outside):
    # an event on a stack the plan has not got, before the frame lands or
    # after the mission end is named first, in event order, and not
    # replayed: stack -1 would alias stack 1 and pass, stack 2 would index
    # past the stacks, the input landed at step -2 would read "already
    # freed" when step 0 reads it, and a free past the mission end would be
    # dropped unreported
    tampered = oracles.tampered_l2_plans(two)[fault]
    verdict = l2plan.validate_plan(tampered, graph)
    kept = dataclasses.replace(tampered, events=tuple(
        e for e in tampered.events if -1 <= e.step <= 13 and e.stack in (0, 1)))
    assert verdict == outside + l2plan.validate_plan(kept, graph)
    sched = dataclasses.replace(tiler.plan_network(graph, 60 * KB), l2=tampered)
    with pytest.raises(executor.MemSimError, match=f"^L2 plan: {re.escape(outside[0])}$"):
        executor.compile_schedule(sched)


def test_one_pass_verdicts_equal_the_step_replay(graph, two, one):
    # the cold verdict, on the good plans and on every tampered one
    plans = [two, one, *oracles.tampered_l2_plans(two).values()]
    for plan in plans:
        assert list(l2plan._violations.__wrapped__(plan, graph)) == \
            oracles.replay_l2_verdict(plan, graph)


def test_verdict_is_computed_once_per_value(graph, two):
    # equal plans recorded apart share one verdict
    life = l2plan._lifetimes(graph)
    stack = {ev.buffer: ev.stack for ev in two.events if ev.action == "alloc"}
    bits = [stack[b] for b in life.buffers]
    a, b = (l2plan._recorded_plan(life, bits, 2) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert l2plan.validate_plan(a, graph) == []
    hits = l2plan._violations.cache_info().hits
    assert l2plan.validate_plan(b, graph) == []
    assert l2plan._violations.cache_info().hits == hits + 1
    # equal tampered plans built apart share one verdict, and no caller
    # can change it through the list it gets
    first = oracles.tampered_l2_plans(two)["early free"]
    again = oracles.tampered_l2_plans(two)["early free"]
    assert first is not again
    assert l2plan._violations(first, graph) is l2plan._violations(again, graph)
    verdict = l2plan.validate_plan(first, graph)
    expected = list(verdict)
    verdict.clear()
    assert l2plan.validate_plan(again, graph) == expected != []
    assert l2plan._violations.cache_info().maxsize == tiler.GRAPHS_CACHED


def test_plan_hashes_once(two):
    # the hash is computed when the plan is built, from its events
    assert two._hash == hash(two.events)
    assert hash(two) == two._hash
    assert "_hash" not in repr(two)


def node_boundary_prefixes(graph):
    """The graph cut after each node kernel's last row, empty prefix included."""
    row = {spec.name: i for i, spec in enumerate(graph.layers)}
    ends = {0} | {max(row[r.name] for r in node.rows) + 1
                  for node in tiler.node_kernels(graph)}
    return [net.NetworkGraph(graph.layers[:k]) for k in sorted(ends)]


def test_search_equals_exhaustive_oracle(graph, two):
    assert two == oracles.exhaustive_two_stack(graph)
    prefixes = node_boundary_prefixes(graph)
    assert len(prefixes) == 14
    for prefix in prefixes:
        assert l2plan.plan_two_stack(prefix) == oracles.exhaustive_two_stack(prefix), \
            prefix.layers[-1].name if prefix.layers else "empty"


def test_search_size_guard(monkeypatch):
    # the input and 20 chained convolutions: one buffer over the limit
    rows, x = [], net.INPUT_TENSOR
    for i in range(l2plan.MAX_SEARCH_BUFFERS):
        rows.append(net._conv(f"conv_{i}", x, 1, 1, 3, 3, 1, 8, 8))
        x = rows[-1].output
    g = net.NetworkGraph(rows)
    assert len(l2plan._lifetimes(g).buffers) == 21

    def search(life):
        raise AssertionError("search ran")

    monkeypatch.setattr(l2plan, "_search_two_stack", search)
    with pytest.raises(ValueError, match="^21 buffers: assignment search too large$"):
        l2plan.plan_two_stack(g)
    # one conv fewer is searched
    with pytest.raises(AssertionError, match="search ran"):
        l2plan.plan_two_stack(net.NetworkGraph(rows[:-1]))


def test_single_layer_graph_peak():
    # one conv: peak is input + output + weights, no stack interplay
    spec = net.LayerSpec("conv_1", net.CONV, (net.INPUT_TENSOR,), 1, 4, 3, 3, 1, 8, 8)
    g = net.NetworkGraph([spec])
    plan = l2plan.plan_two_stack(g)
    expect = (2 * 64 + 3) // 4 * 4 + 2 * 4 * 64 + (2 * (4 * 9 + 4) + 3) // 4 * 4
    assert plan.peak_bytes == expect


def test_empty_graph():
    g = net.NetworkGraph([])
    plan = l2plan.plan_single_stack(g)
    assert plan.peak_bytes == 0
    assert plan.events == ()


def test_determinism(graph, two):
    # the uncached search, run again, finds the same plan
    again = l2plan.plan_two_stack.__wrapped__(graph)
    assert again is not two
    assert again == two


def test_plans_are_shared_per_graph():
    # the graph-only derivations are computed once per graph: a separately
    # built, equal graph gets the same objects, which are read-only
    a, b = net.build_dronet(), net.build_dronet()
    assert a is not b
    assert l2plan.plan_two_stack(a) is l2plan.plan_two_stack(b)
    assert tiler.node_kernels(a) is tiler.node_kernels(b)
    assert isinstance(tiler.node_kernels(a), tuple)
    life = l2plan._lifetimes(a)
    assert life is l2plan._lifetimes(b)
    with pytest.raises(TypeError):
        life.script[0] = (None, 0, 0)
    with pytest.raises(TypeError):
        life.alias[net.INPUT_TENSOR] = "conv_1"
    with pytest.raises(TypeError):
        life.consumes[0] = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        life.size = ()
    for cached in (l2plan.plan_two_stack, l2plan._lifetimes, l2plan._violations,
                   tiler.node_kernels, tiler.frontier, executor._replay):
        assert cached.cache_info().maxsize is not None


def test_summary_dump(graph, two):
    text = l2plan.plan_summary(two, graph)
    assert "peak 341888 bytes" in text
    csv = l2plan.plan_summary(two, graph, csv=True)
    assert csv.splitlines()[0].startswith("step,stack0")
    assert len(csv.splitlines()) == 15          # 13 nodes + end + header


def test_plan_is_frozen(two):
    # the executor replays the attached plan; an edit in place would leave a
    # cached replay behind it, so a changed plan is a new plan
    with pytest.raises(TypeError):
        two.events[:] = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        two.peak_bytes = 0
