import math

import pytest
from hypothesis import given, strategies as st

from nanotile import ctrl

probs = st.floats(0.0, 1.0)


def test_filter_examples():
    assert ctrl.filter_step(0.0, 1.0) == pytest.approx(0.7)
    assert ctrl.filter_step(0.4, 0.4) == pytest.approx(0.4)   # fixed point
    p = ctrl.filter_step(ctrl.filter_step(0.0, 1.0), 1.0)
    assert p == pytest.approx(0.91)                           # 0.7 + 0.3*0.7


def test_filter_domain_errors():
    with pytest.raises(ValueError):
        ctrl.filter_step(-0.1, 0.5)
    with pytest.raises(ValueError):
        ctrl.filter_step(0.5, 1.5)


@given(probs, probs)
def test_filter_convex(p, c):
    out = ctrl.filter_step(p, c)
    assert min(p, c) - 1e-12 <= out <= max(p, c) + 1e-12


def test_stop_decision_strict():
    assert not ctrl.stop_decision(0.70)       # strict inequality
    assert ctrl.stop_decision(0.91)
    assert not ctrl.stop_decision(0.0)


def test_velocity_command():
    assert ctrl.velocity_command(0.0, 4.0) == 4.0
    assert ctrl.velocity_command(1.0, 4.0) == 0.0
    assert ctrl.velocity_command(0.5, 4.0) == 2.0
    assert ctrl.yaw_command(0.3, gain=2.0) == pytest.approx(0.6)


def test_braking_envelope():
    t, d = ctrl.braking_envelope(4.0)
    assert d == pytest.approx(0.6999, abs=1e-3)
    assert ctrl.braking_envelope(0.0) == (0.0, 0.0)
    # constant deceleration cannot satisfy both published constraints at once:
    # 400 ms at 4 m/s covers 0.8 m, not 0.7, so the envelope takes the max
    assert 0.5 * 4.0 * ctrl.MIN_STOP_TIME_S == pytest.approx(0.8)
    assert ctrl.stopping_distance(4.0) == pytest.approx(0.8)
    assert ctrl.stopping_distance(1.0) == pytest.approx(0.2)  # t_min binds
    with pytest.raises(ValueError):
        ctrl.braking_envelope(-1.0)


def test_trace_sampling():
    tr = ctrl.CollisionTrace([0.0, 1.0, 2.0], [0.1, 0.5, 0.9])
    assert tr.sample(-1.0) == 0.1
    assert tr.sample(0.5) == 0.1
    assert tr.sample(1.0) == 0.5              # hold from the breakpoint
    assert tr.sample(5.0) == 0.9
    with pytest.raises(ValueError):
        ctrl.CollisionTrace([0.0, 0.0], [0.1, 0.2])


@given(st.data())
def test_trace_sampling_equals_a_linear_scan(data):
    gaps = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=20))
    times = [data.draw(st.floats(-10.0, 10.0))]
    for gap in gaps:
        times.append(times[-1] + gap)
    values = data.draw(st.lists(probs, min_size=len(times), max_size=len(times)))
    tr = ctrl.CollisionTrace(times, values)
    before = times[0] - data.draw(st.floats(1e-6, 10.0))
    between = [(a + b) / 2 for a, b in zip(times, times[1:])]
    for t in (before, *times, *between, times[-1] + 1.0):
        held = [v for time, v in zip(times, values) if time <= t]
        assert tr.sample(t) == (held[-1] if held else values[0]), t


def test_step_trace_scenarios():
    st_trace = ctrl.step_trace(4.0)
    out = ctrl.simulate_reaction(ctrl.ReactionScenario(fps=10.0), st_trace)
    assert out.stopped_before_obstacle
    assert out.stop_cmd_time == pytest.approx(ctrl.step_stop_time(4.0, 10, 0.1))
    # two samples after appearance: p goes 0.7 (no), 0.91 (stop)
    crossing = [p for _, p in out.p_history if p > 0]
    assert crossing[0] == pytest.approx(0.7)
    assert crossing[1] == pytest.approx(0.91)


def test_closed_form_matches_simulator_across_rates():
    st_trace = ctrl.step_trace(4.0)
    for fps in (4, 5, 8, 10, 16, 20, 25, 40):
        for tinf in (0.0, 0.02, 1.0 / fps):
            scen = ctrl.ReactionScenario(fps=fps, inference_s=tinf,
                                         distance_free=40.0)
            out = ctrl.simulate_reaction(scen, ctrl.step_trace(4.0, horizon=30.0))
            assert out.stop_cmd_time == pytest.approx(
                ctrl.step_stop_time(4.0, fps, tinf), abs=1e-9), (fps, tinf)


def test_reference_trace_outcomes():
    ref = ctrl.reference_trace()
    safe = ctrl.simulate_reaction(ctrl.ReactionScenario(fps=10.0), ref)
    assert safe.stopped_before_obstacle and safe.margin > 0.5
    crash = ctrl.simulate_reaction(ctrl.ReactionScenario(fps=5.0), ref)
    assert not crash.stopped_before_obstacle


def test_monotone_distance_in_frame_rate_on_step():
    # latency fixed to one frame period (zero inference), appearance on-grid
    distances = []
    for fps in (5, 8, 10, 20, 25, 40, 50):
        scen = ctrl.ReactionScenario(fps=fps, inference_s=0.0, distance_free=40.0)
        out = ctrl.simulate_reaction(scen, ctrl.step_trace(4.0, horizon=30.0))
        distances.append(scen.v * (out.stop_cmd_time - scen.t_appear))
    assert all(a >= b - 1e-12 for a, b in zip(distances, distances[1:]))


@pytest.mark.parametrize("field", ["v", "t_appear", "distance_free", "fps", "inference_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_scenario_rejects_non_finite_or_negative(field, value):
    # with fps nan or inf the frame loop would never end
    with pytest.raises(ValueError, match=field):
        ctrl.ReactionScenario(**{field: value})
    ctrl.ReactionScenario(inference_s=0.0)
    # a finite rate whose frame loop up to the collision would run for hours
    with pytest.raises(ValueError, match=r"1e\+09 fps over a 5 s approach is 5e\+09 frames"):
        ctrl.ReactionScenario(fps=1e9)


def test_trace_too_short():
    with pytest.raises(ValueError, match="too short"):
        ctrl.simulate_reaction(ctrl.ReactionScenario(fps=10.0),
                               ctrl.CollisionTrace([0.0, 1.0], [0.0, 0.0]))


def test_no_crossing_is_a_collision():
    flat = ctrl.CollisionTrace([0.0, 20.0], [0.0, 0.0])
    out = ctrl.simulate_reaction(ctrl.ReactionScenario(fps=10.0), flat)
    assert out.stop_cmd_time is None and not out.stopped_before_obstacle


def test_trace_round_trip(tmp_path):
    tr = ctrl.ramp_trace(2.0, horizon=5.0)
    p = tmp_path / "t.csv"
    ctrl.save_trace(tr, str(p))
    again = ctrl.load_trace(str(p))
    assert len(again.times) == len(tr.times)
    mid = 2.0 + ctrl.RAMP_S / 2
    assert again.sample(mid) == pytest.approx(tr.sample(mid), abs=1e-9)


def test_load_trace_rejects_malformed_csv(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,c\n0.0,0.1\n")
    with pytest.raises(ValueError, match="header must name timestamp_s and c"):
        ctrl.load_trace(str(p))
    p.write_text("# comment\ntimestamp_s,c\n0.0,0.1\n1.0\n")
    with pytest.raises(ValueError, match="data row 2 is short"):
        ctrl.load_trace(str(p))


def test_collision_trace_rejects_non_finite():
    for times, values in (([0.0, math.nan, 2.0], [0.1, 0.5, 0.9]),
                          ([0.0, 1.0, math.inf], [0.1, 0.5, 0.9]),
                          ([0.0, 1.0, 2.0], [0.1, math.nan, 0.9])):
        with pytest.raises(ValueError, match="finite"):
            ctrl.CollisionTrace(times, values)


@pytest.mark.parametrize("row, match", [
    ("1.0,0.1,junk", "data row 2 is long: 3 fields, header has 2"),
    ("nan,0.1", "data row 2: timestamp_s 'nan' is not a finite number"),
    ("1.0,inf", "data row 2: c 'inf' is not a finite number"),
    ("0.0,0.1", "timestamps must be strictly increasing"),
], ids=["extra-field", "nan-time", "inf-value", "not-increasing"])
def test_load_trace_names_file_and_row(tmp_path, row, match):
    p = tmp_path / "t.csv"
    p.write_text(f"timestamp_s,c\n0.0,0.1\n{row}\n2.0,0.9\n")
    with pytest.raises(ValueError, match=match) as e:
        ctrl.load_trace(str(p))
    assert str(e.value).startswith(f"{p}: ")


def test_fps_sweep_csv():
    rows = ctrl.fps_sweep([5, 10], ctrl.reference_trace())
    text = ctrl.sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0].startswith("fps,")
    assert lines[1].endswith("collision")
    assert lines[2].endswith("stopped")
