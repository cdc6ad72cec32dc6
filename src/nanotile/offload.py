"""Host-accelerator offload protocol as a discrete-event timeline.

One mission: the host raises a wake interrupt, the accelerator fetches its
kernel binary from flash and configures the camera once, then frames stream:
the uDMA lands frame k+1 in L2 while the cluster computes frame k (two frame
buffers alternate), results return over SPI and an interrupt acknowledges
each one.  Steady state period is max(acquisition, compute + result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

WAKE = "wake_interrupt"
FETCH = "kernel_fetch"
CONFIG = "camera_config"
FRAME_DMA = "frame_dma"
WEIGHT_LOAD = "weight_load"
COMPUTE = "compute"
RESULT = "result_spi"
ACK = "ack_interrupt"

MISSION_STEPS = (WAKE, FETCH, CONFIG)
N_FRAME_BUFFERS = 2


@dataclass(frozen=True)
class Timings:
    frame_dma_s: float
    compute_s: float
    result_s: float
    setup_s: float = 0.001
    wake_s: float = 0.0
    config_s: float = 0.0
    weight_load_s: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("timings must be finite")
        if min(self.frame_dma_s, self.compute_s, self.result_s) <= 0:
            raise ValueError("frame_dma_s, compute_s and result_s must be positive")
        if min(self.setup_s, self.wake_s, self.config_s, self.weight_load_s) < 0:
            raise ValueError("setup timings must be non-negative")


@dataclass(frozen=True)
class ProtocolEvent:
    step: str
    actor: str                 # host | accelerator | udma
    t_start: float
    t_end: float
    frame: int                 # -1 for per-mission events
    buffer: int = -1           # frame buffer id for acquisitions


@dataclass
class Timeline:
    timings: Timings
    events: list[ProtocolEvent] = field(default_factory=list)

    def of(self, step: str, frame: int | None = None) -> list[ProtocolEvent]:
        return [e for e in self.events
                if e.step == step and (frame is None or e.frame == frame)]

    @property
    def n_frames(self) -> int:
        return 1 + max((e.frame for e in self.events), default=-1)

    def completion(self, frame: int) -> float:
        return self.of(ACK, frame)[0].t_end

    def steady_period(self) -> float:
        """Ack-to-ack spacing at the tail of the mission."""
        if self.n_frames < 2:
            raise ValueError("need at least two frames for a steady-state period")
        return self.completion(self.n_frames - 1) - self.completion(self.n_frames - 2)

    def to_csv(self) -> str:
        lines = ["frame,step,actor,buffer,t_start,t_end"]
        for e in sorted(self.events, key=lambda e: (e.t_start, e.frame)):
            lines.append(f"{e.frame},{e.step},{e.actor},{e.buffer},"
                         f"{e.t_start:.6f},{e.t_end:.6f}")
        return "\n".join(lines)


def closed_form_period(t: Timings) -> float:
    return max(t.frame_dma_s, t.weight_load_s + t.compute_s + t.result_s)


def run_mission(n_frames: int, timings: Timings) -> Timeline:
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    tl = Timeline(timings)
    t = timings.wake_s
    tl.events.append(ProtocolEvent(WAKE, "host", 0.0, t, -1))
    tl.events.append(ProtocolEvent(FETCH, "accelerator", t, t + timings.setup_s, -1))
    t += timings.setup_s
    tl.events.append(ProtocolEvent(CONFIG, "accelerator", t, t + timings.config_s, -1))
    ready = t + timings.config_s

    dma_end = [0.0] * n_frames
    compute_start = [0.0] * n_frames
    compute_end = [0.0] * n_frames
    result_end = [0.0] * n_frames
    for k in range(n_frames):
        # the buffer alternates; its previous occupant must have been consumed
        start = ready if k == 0 else dma_end[k - 1]
        if k >= N_FRAME_BUFFERS:
            start = max(start, compute_end[k - N_FRAME_BUFFERS])
        tl.events.append(ProtocolEvent(FRAME_DMA, "udma", start,
                                       start + timings.frame_dma_s, k,
                                       buffer=k % N_FRAME_BUFFERS))
        dma_end[k] = start + timings.frame_dma_s

        c = max(dma_end[k], result_end[k - 1] if k else 0.0)
        tl.events.append(ProtocolEvent(WEIGHT_LOAD, "udma", c,
                                       c + timings.weight_load_s, k))
        compute_start[k] = c + timings.weight_load_s
        compute_end[k] = compute_start[k] + timings.compute_s
        tl.events.append(ProtocolEvent(COMPUTE, "accelerator", compute_start[k],
                                       compute_end[k], k))
        result_end[k] = compute_end[k] + timings.result_s
        tl.events.append(ProtocolEvent(RESULT, "accelerator", compute_end[k],
                                       result_end[k], k))
        tl.events.append(ProtocolEvent(ACK, "accelerator", result_end[k],
                                       result_end[k], k))
    return tl


def validate_timeline(tl: Timeline) -> list[str]:
    """Causal order per frame, once-per-mission setup, and the two-buffer rule."""
    v: list[str] = []
    setup = [tl.of(step) for step in MISSION_STEPS]
    for step, found in zip(MISSION_STEPS, setup):
        if len(found) != 1:
            v.append(f"{step}: expected exactly one per mission")
    if all(setup):
        wake, fetch, config = (found[0] for found in setup)
        if not (wake.t_end <= fetch.t_start <= fetch.t_end <= config.t_start):
            v.append("mission setup out of order")
    else:
        config = None

    # frame buffer k is live from acquisition start until its compute ends
    intervals = []
    for k in range(tl.n_frames):
        try:
            dma = tl.of(FRAME_DMA, k)[0]
            wl = tl.of(WEIGHT_LOAD, k)[0]
            comp = tl.of(COMPUTE, k)[0]
            res = tl.of(RESULT, k)[0]
            ack = tl.of(ACK, k)[0]
        except IndexError:
            v.append(f"frame {k}: missing protocol step")
            continue
        intervals.append((dma.t_start, comp.t_end, k, dma.buffer))
        if config is not None and dma.t_start < config.t_end:
            v.append(f"frame {k}: acquisition before camera configured")
        if comp.t_start < dma.t_end or comp.t_start < wl.t_end:
            v.append(f"frame {k}: compute before its inputs arrived")
        if res.t_start < comp.t_end:
            v.append(f"frame {k}: result before compute finished")
        if ack.t_start < res.t_end:
            v.append(f"frame {k}: ack before result delivered")

    # a sweep over the buffer intervals' endpoints bounds simultaneous occupancy
    marks = []
    for b0, b1, k, _ in intervals:
        marks.append((b0, 1, k))
        marks.append((b1, -1, k))
    marks.sort(key=lambda m: (m[0], m[1]))      # frees before claims at a tie
    live_now = 0
    for t, delta, k in marks:
        live_now += delta
        if live_now > N_FRAME_BUFFERS:
            v.append(f"t={t:.6f}: {live_now} frame buffers live at once (frame {k})")
    for a0, a1, ka, ba in intervals:
        for b0, b1, kb, bb in intervals:
            if kb > ka and bb == ba and b0 < a1 and a0 < b1:
                v.append(f"frames {ka} and {kb} overlap in buffer {ba}")
    return v
