"""Run one workload in this (fresh) process and print its result as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS thread count pinned to 1.  The loop is closed: one caller, one
thread, studies back to back.  A small warm-up study (21 samples per
trajectory) runs first, so lazy set-up in numpy and LAPACK is not timed.
Studies then repeat until the run's elapsed time would pass ``--seconds``;
at least one always runs.  Times are calibrated to a reference machine
speed while they are measured (``speed.py``); raw wall times are kept too.

Every study's exit codes and failed samples are counted.  The full
correctness gate runs outside the timed region on studies 1, 2, 3, 4, 8,
16, ... and on the last one, which bounds its cost when studies are fast.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import sphwrist

import checks
import spans
import speed
import workloads

WARMUP_SAMPLES = 21
BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed):
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN_VARS},
        "seed": seed,
    }


def timed_study(workload, inputs, out_dir, tracer=None):
    for stale in out_dir.glob("*.csv"):  # so that the gate never reads an earlier study's output
        stale.unlink()
    start = time.perf_counter()
    if tracer is None:
        output = workloads.run_study(workload, inputs, out_dir)
    else:
        with spans.traced(tracer):
            output = workloads.run_study(workload, inputs, out_dir)
    return start, time.perf_counter(), output


def csv_bytes(output):
    return sum(Path(p).stat().st_size for p in output.csv_paths if Path(p).exists())


def run(workload, seed, seconds, trace, out_dir):
    inputs = workloads.inputs_for_seed(seed)
    workloads.run_study(workload, inputs, out_dir, WARMUP_SAMPLES)

    problems = []
    tally = {"studies": 0, "checked": 0, "failed_studies": 0, "attempted": 0, "failed_samples": 0}

    def account(output, last):
        index = tally["studies"]
        tally["studies"] += 1
        tally["attempted"] += output.attempted
        tally["failed_samples"] += output.failed
        found = [f"exit code {c}" for c in output.exit_codes if c != 0]
        if not found and (last or index < 3 or index & (index + 1) == 0):
            tally["checked"] += 1
            found = checks.check_study(workload, output, inputs, seed)
        if found:
            tally["failed_studies"] += 1
            problems.extend(f"study {index + 1}: {p}" for p in found)

    # ``times`` holds the calibrated times of the studies whose metrics are
    # reported.  In a traced run, an untraced study is paired with each
    # traced one, the order swapping every pair; the tracing overhead is the
    # difference of the two medians.
    times, untraced, wall, per_study = [], [], [], []
    done = False
    with speed.SpeedSampler() as sampler:
        run_start = time.perf_counter()
        while not done:
            flags = ((False, True) if len(times) % 2 == 0 else (True, False)) if trace else (False,)
            for position, traced in enumerate(flags):
                tracer = spans.Tracer() if traced else None
                start, end, output = timed_study(workload, inputs, out_dir, tracer)
                calibrated = sampler.calibrated(start, end)
                wall.append(end - start)
                (times if traced or not trace else untraced).append(calibrated)
                if traced:
                    pauses, factor = sampler.window(start, end)
                    per_study.append(spans.layer_metrics(tracer.spans, output.attempted, csv_bytes(output),
                                                         factor, pauses))
                    last_spans = tracer.spans
                elapsed = time.perf_counter() - run_start
                done = position == len(flags) - 1 and elapsed + statistics.median(wall) > seconds
                account(output, done)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    study_s = statistics.median(times)
    samples = output.attempted
    if trace:
        metrics = spans.median_metrics(per_study)
        metrics["trace.overhead_s"] = study_s - statistics.median(untraced)
        (out_dir / "spans.json").write_text(json.dumps({"workload": workload, "seed": seed,
                                                        "spans": last_spans}))
    else:
        metrics = {
            "study_s": study_s,
            "samples_per_s": samples / study_s,
            "peak_rss_mb": peak_rss_mb,
            "solved_share": 1.0 - tally["failed_samples"] / tally["attempted"],
        }
    return {
        "workload": workload,
        **tally,
        "samples_per_study": samples,
        "failed_share": tally["failed_samples"] / tally["attempted"],
        "study_times_s": times,
        "wall_times_s": wall,
        "problems": problems,
        "metrics": metrics,
        "env": environment(seed),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    src = (Path.cwd() / "src").resolve()
    if Path(sphwrist.__file__).resolve().parent.parent != src:
        print(f"error: sphwrist was imported from {sphwrist.__file__}, not from {src}", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
