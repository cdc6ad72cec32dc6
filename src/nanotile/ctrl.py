"""Closed-loop decision logic: output filtering, stop decision, braking
envelope, and the obstacle-reaction experiment.

The collision probability is low-pass filtered (p_k = (1-a) p_{k-1} + a c_k,
a = 0.7) and a stop command fires when the filtered value strictly exceeds
0.7.  Braking uses a constant-deceleration point mass back-solved from a
0.7 m stop at 4 m/s; because a 400 ms minimum stopping time is inconsistent
with that distance under constant deceleration, the simulator uses the
conservative envelope (the larger of the two implied stopping distances).

The bundled reference trace models detector confidence ramping up over the
last half second of approach, standing in for recorded flight data.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from . import csvtable

ALPHA = 0.7
STOP_THRESHOLD = 0.7
BRAKE_DISTANCE_M = 0.7       # at the 4 m/s reference approach speed
REFERENCE_SPEED = 4.0
DEFAULT_DECEL = REFERENCE_SPEED ** 2 / (2 * BRAKE_DISTANCE_M)   # 11.43 m/s^2
MIN_STOP_TIME_S = 0.4
RAMP_S = 0.5                 # ramp_trace's confidence ramp
# simulate_reaction keeps one history entry per frame up to the collision
MAX_FRAMES = 10 ** 6

_TRACE_CSV = Path(__file__).parent / "data" / "reaction_trace.csv"


def filter_step(p_prev: float, c_k: float) -> float:
    """One low-pass update: exact convex combination of state and sample."""
    if not (0.0 <= p_prev <= 1.0 and 0.0 <= c_k <= 1.0):
        raise ValueError(f"probabilities out of [0,1]: p={p_prev}, c={c_k}")
    return (1.0 - ALPHA) * p_prev + ALPHA * c_k


def stop_decision(p_k: float) -> bool:
    return p_k > STOP_THRESHOLD


def velocity_command(p_k: float, v_max: float) -> float:
    """Forward speed modulated linearly by collision probability."""
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"probability out of [0,1]: {p_k}")
    return max(0.0, v_max * (1.0 - p_k))


def yaw_command(theta_filtered: float, gain: float = 1.0) -> float:
    return gain * theta_filtered


def braking_envelope(v: float) -> tuple[float, float]:
    """Constant-deceleration stop at DEFAULT_DECEL: (time, distance)."""
    if v < 0:
        raise ValueError("speed must be >= 0")
    return v / DEFAULT_DECEL, v * v / (2.0 * DEFAULT_DECEL)


def stopping_distance(v: float) -> float:
    """Conservative stop distance: constant-deceleration estimate or the
    distance covered while stopping over MIN_STOP_TIME_S, whichever is larger."""
    _, d = braking_envelope(v)
    return max(d, 0.5 * v * MIN_STOP_TIME_S)


@dataclass
class CollisionTrace:
    """Zero-order-hold collision-probability signal c(t)."""

    times: list[float]
    values: list[float]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("trace needs matching, non-empty times and values")
        if not all(math.isfinite(x) for x in (*self.times, *self.values)):
            raise ValueError("trace times and values must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trace timestamps must be strictly increasing")

    @property
    def horizon(self) -> float:
        return self.times[-1]

    def sample(self, t: float) -> float:
        """The value of the last breakpoint at or before t; the first value
        before the first breakpoint."""
        return self.values[max(bisect_right(self.times, t) - 1, 0)]


def step_trace(t_appear: float, horizon: float = 20.0) -> CollisionTrace:
    """Clean step: 0 before the obstacle appears, 1 from then on."""
    return CollisionTrace([0.0, t_appear, horizon], [0.0, 1.0, 1.0])


def ramp_trace(t_appear: float, horizon: float = 20.0) -> CollisionTrace:
    """Detector confidence ramping linearly to 1 over RAMP_S after
    appearance, sampled every millisecond."""
    dt = 1e-3
    times, values = [0.0], [0.0]
    n = int(round(RAMP_S / dt))
    for i in range(1, n + 1):
        times.append(t_appear + i * dt)
        values.append(min(1.0, i * dt / RAMP_S))
    times.append(horizon)
    values.append(1.0)
    return CollisionTrace(times, values)


def load_trace(path: str) -> CollisionTrace:
    """Read a timestamp_s,c CSV; a malformed table, a field that is not a
    finite number or timestamps that do not increase raise ValueError naming
    the file."""
    rows = csvtable.read(path, ("timestamp_s", "c"))
    times = [csvtable.number(path, n, r, "timestamp_s") for n, r in enumerate(rows, 1)]
    values = [csvtable.number(path, n, r, "c") for n, r in enumerate(rows, 1)]
    try:
        return CollisionTrace(times, values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_trace(trace: CollisionTrace, path: str) -> None:
    with open(path, "w") as f:
        f.write("timestamp_s,c\n")
        for t, c in zip(trace.times, trace.values):
            f.write(f"{t:.6f},{c:.9f}\n")


def reference_trace() -> CollisionTrace:
    return load_trace(str(_TRACE_CSV))


@dataclass
class ReactionScenario:
    """Straight-line approach with an obstacle appearing mid-flight."""

    v: float = REFERENCE_SPEED
    t_appear: float = 4.0
    distance_free: float = 4.0
    fps: float = 10.0
    inference_s: float | None = None      # defaults to one frame period

    def __post_init__(self):
        # a non-finite rate or time would run the frame loop forever
        if not all(math.isfinite(x) and x > 0
                   for x in (self.v, self.t_appear, self.distance_free, self.fps)):
            raise ValueError("v, t_appear, distance_free and fps must be finite and positive")
        frames = self.collision_time * self.fps
        if frames > MAX_FRAMES:
            raise ValueError(f"{self.fps:g} fps over a {self.collision_time:g} s approach "
                             f"is {frames:.3g} frames, more than {MAX_FRAMES}")
        if self.inference_s is None:
            self.inference_s = 1.0 / self.fps
        if not (math.isfinite(self.inference_s) and self.inference_s >= 0):
            raise ValueError("inference_s must be finite and non-negative")

    @property
    def latency(self) -> float:
        """Frame exposure plus inference: age of the frame behind a decision."""
        return 1.0 / self.fps + self.inference_s

    @property
    def collision_time(self) -> float:
        return self.t_appear + self.distance_free / self.v


@dataclass
class ReactionOutcome:
    stop_cmd_time: float | None
    distance_remaining: float      # to the obstacle when the stop command fires
    stop_distance: float           # conservative braking envelope
    p_history: list[tuple[float, float]] = field(default_factory=list)

    @property
    def stopped_before_obstacle(self) -> bool:
        return self.stop_cmd_time is not None and self.distance_remaining >= self.stop_distance

    @property
    def margin(self) -> float:
        return self.distance_remaining - self.stop_distance


def simulate_reaction(scenario: ReactionScenario,
                      trace: CollisionTrace) -> ReactionOutcome:
    """Sample the trace at the frame rate, filter with the decision latency
    applied, fire the stop on a strict threshold crossing, then brake."""
    if trace.horizon < scenario.collision_time:
        raise ValueError("trace too short for the scenario horizon")
    period = 1.0 / scenario.fps
    d_stop = stopping_distance(scenario.v)
    p = 0.0
    history = []
    stop_cmd = None
    k = 0
    while True:
        t_frame = k * period
        decision_t = t_frame + scenario.latency
        if t_frame > trace.horizon or decision_t > scenario.collision_time:
            break                      # commands after impact do not count
        p = filter_step(p, trace.sample(t_frame))
        history.append((decision_t, p))
        if stop_decision(p):
            stop_cmd = decision_t
            break
        k += 1
    if stop_cmd is None:
        return ReactionOutcome(None, 0.0, d_stop, history)
    travelled = scenario.v * (stop_cmd - scenario.t_appear)
    remaining = scenario.distance_free - travelled
    return ReactionOutcome(stop_cmd, remaining, d_stop, history)


def step_stop_time(t_appear: float, fps: float, inference_s: float) -> float:
    """Closed-form stop time on a clean step: the filter needs n samples with
    1 - (1-ALPHA)^n > STOP_THRESHOLD, counted from the first frame at or
    after the appearance, plus the frame period and inference latency."""
    period = 1.0 / fps
    first = math.ceil(t_appear / period - 1e-12) * period
    n = math.ceil(math.log(1.0 - STOP_THRESHOLD) / math.log(1.0 - ALPHA) + 1e-12)
    if (1.0 - (1.0 - ALPHA) ** n) <= STOP_THRESHOLD:   # boundary: strict crossing
        n += 1
    return first + (n - 1) * period + period + inference_s


def fps_sweep(fps_list, trace: CollisionTrace, **scenario) -> list[dict]:
    """The reaction study at each frame rate: ReactionScenario(**scenario)
    with its fps set, so an unnamed field keeps the scenario's default."""
    rows = []
    for fps in fps_list:
        out = simulate_reaction(ReactionScenario(**scenario, fps=fps), trace)
        rows.append({"fps": fps,
                     "stop_cmd_time": out.stop_cmd_time,
                     "distance_remaining": out.distance_remaining,
                     "stop_distance": out.stop_distance,
                     "stopped": out.stopped_before_obstacle})
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = ["fps,stop_cmd_time_s,distance_remaining_m,stop_distance_m,result"]
    for r in rows:
        t = f"{r['stop_cmd_time']:.4f}" if r["stop_cmd_time"] is not None else ""
        lines.append(f"{r['fps']},{t},{r['distance_remaining']:.4f},"
                     f"{r['stop_distance']:.4f},"
                     f"{'stopped' if r['stopped'] else 'collision'}")
    return "\n".join(lines)
