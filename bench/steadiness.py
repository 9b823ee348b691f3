"""Steadiness report: repeat ``run.py`` over seeds and summarise each metric's spread.

    python3 bench/steadiness.py --workload peak-grid,force-sweep --seeds 1-10

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the relative
spread (q3 - q1) / median, next to the bound from ``BENCHMARK.json``.  A
spread at or above a third of its bound is flagged; ``setup_s`` is reported
but its spread is not held to its bound, only its median drift between two
sets of runs.  Every run measures ``run_seconds`` from ``BENCHMARK.json``.
The exit code is 3 when a spread is flagged, 1 when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text):
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="comma list of workload names")
    parser.add_argument("--seeds", default="1-10", help="'a-b' range or comma list")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            flag = ""
            if name != "setup_s" and s["spread"] >= bound / 3.0:
                flag = "  <-- spread at or above bound/3"
                steady = False
            print(f"{workload:18s} {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bound}{flag}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
