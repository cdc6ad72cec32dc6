"""Seeded inputs, written as files the engine reads back through its own loaders.

Every draw comes from the workload seed, one independent stream per kind of
input, so the same seed gives the same files, budgets and appearance times.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from nanotile import cli

from bench_stats import stratified

# camera frames larger than the 200x200 network input, so load_image runs its
# centre-crop and nearest-neighbour resize
FRAME_W, FRAME_H = 324, 244
N_FRAMES = 16

# L1 design space: one budget per equal-width stratum, so the mix of small and
# large budgets, and hence the planner's work, is the same for every seed
DESIGN_L1_LO, DESIGN_L1_HI = 16 * 1024, 64 * 1024
N_DESIGN_POINTS = 12

# obstacle appearance times for the reaction study, one per stratum
APPEAR_LO_S, APPEAR_HI_S = 2.0, 6.0
N_APPEARANCES = 512

_FRAMES, _BUDGETS, _APPEARANCES = 1, 2, 3


@dataclass
class Inputs:
    weights: str
    frames: list[str]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def write_inputs(seed: int, directory: Path) -> Inputs:
    """Weight file and camera frames for one seed.

    The weights come from the `gen-weights` command with its default
    amplitude, the weight distribution whose conv accumulators exceed int32.
    """
    directory.mkdir(parents=True, exist_ok=True)
    weights = directory / "weights.pdrn"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen-weights", "--seed", str(seed), "--out", str(weights)])
    if code != 0:
        raise RuntimeError(f"gen-weights exited with {code}")
    rng = _rng(seed, _FRAMES)
    frames = []
    for k in range(N_FRAMES):
        path = directory / f"frame_{k:02d}.pgm"
        write_pgm(path, rng.integers(0, 256, (FRAME_H, FRAME_W), dtype=np.uint8))
        frames.append(str(path))
    return Inputs(str(weights), frames)


def design_budgets(seed: int) -> list[int]:
    return [int(b) for b in stratified(_rng(seed, _BUDGETS), DESIGN_L1_LO,
                                       DESIGN_L1_HI, N_DESIGN_POINTS)]


def appearance_times(seed: int) -> list[float]:
    return stratified(_rng(seed, _APPEARANCES), APPEAR_LO_S, APPEAR_HI_S,
                      N_APPEARANCES)
