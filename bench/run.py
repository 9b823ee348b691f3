"""sphwrist study benchmark: one workload (or ``all``) per call, from the checkout root.

    python3 bench/run.py --workload peak-grid --seed 0 --seconds 15 --trace 0

Each workload runs in a fresh ``worker.py`` process with ``PYTHONPATH=src``
and the BLAS thread count pinned to 1.  With ``--trace 0`` the run reports
the end-to-end metrics named in ``BENCHMARK.json``, including ``setup_s``,
the median over several fresh interpreters of ``import sphwrist`` plus
``default_config()``.  With ``--trace 1`` it reports the per-layer metrics
from spans recorded around the program's public functions.  Every metric is
printed with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where an operation
is one study and a failed one is a study whose outputs fail the gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7
SETUP_CODE = ("import sys, time; start = time.perf_counter(); import sphwrist; sphwrist.default_config(); "
              "seconds = time.perf_counter() - start; "
              f"sys.path.insert(0, {str(BENCH_DIR)!r}); import speed; print(seconds * speed.speed_ratio())")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, root, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed nothing")
    return lines[-1]


def setup_seconds(root):
    """Median of calibrated fresh-interpreter set-up times; the first probe only warms the file cache."""
    run_child(["-c", SETUP_CODE], root)
    return statistics.median(float(run_child(["-c", SETUP_CODE], root)) for _ in range(SETUP_PROBES))


def git_commit(root: Path):
    """HEAD of the checkout, or ``unknown``; git is kept from looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(root, spec, workload, seed, seconds, trace):
    """Result of one workload: worker output plus ``setup_s``, checked against the contract."""
    out_dir = root / ".bench_out" / workload
    line = run_child([str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)], root)
    result = json.loads(line)
    if not trace:
        result["metrics"]["setup_s"] = setup_seconds(root)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"{workload}: metrics missing from the run: {missing}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    result["env"]["commit"] = git_commit(root)
    return result


def report(result):
    """Human-readable lines for one workload's result."""
    workload = result["workload"]
    lines = [f"# {workload}: {result['studies']} studies of {result['samples_per_study']} samples,"
             f" {result['checked']} checked, {result['failed_studies']} failed the gate;"
             f" failed_share = {result['failed_share']:.6g};"
             f" raw wall study_s median = {statistics.median(result['wall_times_s']):.6g} s"]
    lines += [f"{workload:18s} {name:42s} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines += [f"{workload:18s} problem: {p}" for p in result["problems"]]
    lines.append(f"{workload:18s} env {json.dumps(result['env'], sort_keys=True)}")
    return lines


def main(argv=None):
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (root / "src" / "sphwrist" / "__init__.py").is_file():
        print(f"error: no sphwrist sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(root, spec, w, args.seed, args.seconds, args.trace) for w in names]
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results:
        print("\n".join(report(result)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    failed = sum(r["failed_studies"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["studies"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
