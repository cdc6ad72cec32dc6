"""nanotile benchmark: tiled frame streams and an L1 design sweep.

    python3 perfbench/run.py --workload stream60k --seed 1 --seconds 20 --trace 0

Run from anywhere; the engine is imported from the `src/` directory next to
this one.  Workloads (see bench_workloads.py for what each operation does):

    stream60k     closed-loop frames at the 60 KB deployment budget
    stream16k     the same loop at 16 KB, where per-tile work dominates
    design_sweep  one seeded L1 budget per stratum of [16 KB, 64 KB)

Inputs (weights, 324x244 P5 frames, budgets, obstacle appearance times) are
generated from --seed into a scratch directory under `.perfbench/`, which is
removed at exit; the engine sees only the files.  BLAS is pinned to one
thread before numpy is imported.  The run measures for --seconds (streams also
run until they have 100 frames, so their p90 has ten frames beyond it, unless
ten frames fail first; design_sweep finishes its last pass over the budgets),
then checks the modelled metrics and one in-process `nanotile infer --tiled`.

With --trace 0 the last stdout line is a JSON object holding every end-to-end
metric of BENCHMARK.json.  Their host times are reference times: wall time
scaled by a yardstick run between operations (bench_clock.py), so that the
machine's speed drift does not move them.  With --trace 1 the line holds
every per-layer metric, measured in wall time from spans around each engine
call on every other operation (bench.yardstick_ms gives the machine's speed
during the run).  Earlier stdout lines starting with `#` record the
environment, the set-up times, the raw wall times next to the reference
ones, the failure fraction and the plan fingerprints.  Failed operations
are listed on stderr and counted in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("stream60k", "stream16k", "design_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD's commit id when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    sources = sorted((SRC / "nanotile").rglob("*.py"))
    src_digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "commit": git_commit(ROOT), "src_sha256": src_digest,
            "machine": platform.machine()}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nanotile" / "__init__.py").is_file():
        print(f"error: no nanotile sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bench_inputs
    import bench_workloads
    from bench_stats import Ledger
    from bench_trace import Tracer

    declared = declared_metrics(bool(args.trace))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    with tempfile.TemporaryDirectory(dir=work, prefix=f"{args.workload}-") as tmp:
        run = bench_workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                                  bench_inputs.write_inputs(args.seed, Path(tmp)),
                                  tracer, Ledger())
        metrics, record = bench_workloads.run_workload(run)
    env = environment(np)
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 3
    print("# env " + json.dumps(env))
    print("# run " + json.dumps(record))
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
