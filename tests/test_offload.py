import random

import pytest

from nanotile import offload


def test_compute_bound_mission():
    tl = offload.run_mission(12, offload.Timings(0.004, 0.158, 0.0005))
    assert offload.validate_timeline(tl) == []
    fps = 1.0 / tl.steady_period()
    assert fps == pytest.approx(1.0 / (0.158 + 0.0005))
    assert 6.0 <= fps <= 6.6


def test_acquisition_bound_mission():
    t = offload.Timings(0.05, 0.01, 0.001)
    tl = offload.run_mission(8, t)
    assert offload.validate_timeline(tl) == []
    assert tl.steady_period() == pytest.approx(0.05)


def test_single_frame_no_overlap():
    tl = offload.run_mission(1, offload.Timings(0.01, 0.02, 0.001))
    assert offload.validate_timeline(tl) == []
    assert tl.n_frames == 1
    with pytest.raises(ValueError):
        tl.steady_period()
    comp = tl.of(offload.COMPUTE, 0)[0]
    dma = tl.of(offload.FRAME_DMA, 0)[0]
    assert dma.t_end <= comp.t_start


def test_acquisition_overlaps_previous_compute():
    tl = offload.run_mission(6, offload.Timings(0.02, 0.1, 0.001))
    for k in range(1, 6):
        dma = tl.of(offload.FRAME_DMA, k)[0]
        prev = tl.of(offload.COMPUTE, k - 1)[0]
        assert dma.t_start < prev.t_end          # pipelined
        assert dma.buffer != tl.of(offload.FRAME_DMA, k - 1)[0].buffer


def test_mission_setup_once():
    tl = offload.run_mission(5, offload.Timings(0.01, 0.02, 0.001, setup_s=0.005))
    assert len(tl.of(offload.WAKE)) == 1
    assert len(tl.of(offload.FETCH)) == 1
    assert len(tl.of(offload.CONFIG)) == 1
    assert len(tl.of(offload.COMPUTE)) == 5


def test_ordering_violation_detected():
    tl = offload.run_mission(3, offload.Timings(0.01, 0.02, 0.001))
    bad = [e for e in tl.events if not (e.step == offload.RESULT and e.frame == 1)]
    comp = tl.of(offload.COMPUTE, 1)[0]
    bad.append(offload.ProtocolEvent(offload.RESULT, "accelerator",
                                     comp.t_start - 0.005, comp.t_start, 1))
    tampered = offload.Timeline(tl.timings, bad)
    assert any("result before compute" in v
               for v in offload.validate_timeline(tampered))


def test_missing_steps_reported():
    tl = offload.run_mission(3, offload.Timings(0.01, 0.02, 0.001))
    no_wake = offload.Timeline(tl.timings, [e for e in tl.events
                                            if e.step != offload.WAKE])
    assert offload.validate_timeline(no_wake) == [
        f"{offload.WAKE}: expected exactly one per mission"]
    no_compute = offload.Timeline(tl.timings, [
        e for e in tl.events if not (e.step == offload.COMPUTE and e.frame == 1)])
    assert offload.validate_timeline(no_compute) == ["frame 1: missing protocol step"]


def test_extra_buffer_detected():
    tl = offload.run_mission(4, offload.Timings(0.03, 0.01, 0.001))
    events = list(tl.events)
    # force frame 2's acquisition to start before frame 0's compute finished
    comp0 = tl.of(offload.COMPUTE, 0)[0]
    dma2 = tl.of(offload.FRAME_DMA, 2)[0]
    events.remove(dma2)
    events.append(offload.ProtocolEvent(offload.FRAME_DMA, "udma",
                                        comp0.t_start, comp0.t_start + 0.03,
                                        2, buffer=dma2.buffer))
    tampered = offload.Timeline(tl.timings, events)
    viols = offload.validate_timeline(tampered)
    assert any("live at once" in v or "overlap in buffer" in v for v in viols)


def test_randomized_timings_period_closed_form():
    rng = random.Random(42)
    for _ in range(400):
        t = offload.Timings(rng.uniform(1e-4, 0.3), rng.uniform(1e-4, 0.3),
                            rng.uniform(1e-4, 0.05), rng.uniform(0, 0.01),
                            rng.uniform(0, 0.005), rng.uniform(0, 0.005),
                            rng.uniform(0, 0.02))
        tl = offload.run_mission(rng.randint(2, 10), t)
        assert offload.validate_timeline(tl) == []
        assert tl.steady_period() == pytest.approx(
            offload.closed_form_period(t), abs=1e-12)


def test_csv_dump():
    tl = offload.run_mission(2, offload.Timings(0.01, 0.02, 0.001))
    lines = tl.to_csv().splitlines()
    assert lines[0] == "frame,step,actor,buffer,t_start,t_end"
    assert len(lines) == 1 + len(tl.events)


def test_bad_timings():
    with pytest.raises(ValueError):
        offload.Timings(0.0, 0.1, 0.001)
    with pytest.raises(ValueError):
        offload.run_mission(0, offload.Timings(0.01, 0.01, 0.001))
    # a NaN timing compares false against every bound, so a timeline built
    # on it would pass validate_timeline
    for field in ("frame_dma_s", "compute_s", "result_s", "setup_s", "wake_s",
                  "config_s", "weight_load_s"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                offload.Timings(**{"frame_dma_s": 0.01, "compute_s": 0.01,
                                   "result_s": 0.001, field: value})
