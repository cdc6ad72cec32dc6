"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound.

    python3 perfbench/spread.py --workload stream16k --seeds 1-10

Runs are sequential, one process at a time, with the command and run length
of BENCHMARK.json.  The spread is (Q3 - Q1) / median over the seeds, with the
quartiles of statistics.quantiles(n=4); a metric is flagged when its spread
exceeds a third of its bound (setup_s excepted, whose bound limits only the
change of its median).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from bench_stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    flagged = 0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs) if len(xs) > 1 else 0.0
        over = m["name"] != "setup_s" and spread > m["bound"] / 3
        flagged += over
        print(f"{m['name']:<20} median {median(xs):12.6g} {m['unit']:<5} "
              f"spread {spread:7.4f}  bound {m['bound']:.3f}{'  OVER' if over else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
