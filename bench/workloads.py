"""The four study workloads: inputs drawn from a seed, and one study call each.

Seed 0 gives the paper's inputs.  Any other seed draws the cone angles from
[25, 65] degrees, the radii from [0.05, 0.25] m and the cutting forces from
[0, 200] N, keeping the counts of the paper's study.  The program sees only
the generated CLI argv (``sphwrist.cli.main``) or trajectory specs (the
``sphwrist`` API).
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sphwrist
from sphwrist import cli
from sphwrist.trajectory import KIND_SEMICIRCLE

SAMPLES = 1001
LEVER_M = 0.11

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("peak-grid", "profile-grid", "force-sweep", "semicircle-verify")


@dataclass(frozen=True)
class Inputs:
    """Everything a seed decides.  Angles in degrees, lengths in m, forces in N."""

    gammas: tuple
    radii: tuple
    force_gamma: float
    force_radius: float
    forces: tuple
    semicircle_radius: float


PAPER_INPUTS = Inputs(
    gammas=(30.0, 45.0, 60.0),
    radii=(0.25, 0.15, 0.10, 0.05),
    force_gamma=45.0,
    force_radius=0.15,
    forces=(0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0),
    semicircle_radius=0.25,
)


def inputs_for_seed(seed: int) -> Inputs:
    """Seed 0: the paper's study.  Other seeds: the same counts, drawn values.

    Values are rounded so that the argv text and the parsed value agree
    exactly; drawn lists are distinct and sorted.
    """
    if seed == 0:
        return PAPER_INPUTS
    rng = random.Random(seed)

    def draw(count, low, high, digits):
        values = set()
        while len(values) < count:
            values.add(round(rng.uniform(low, high), digits))
        return tuple(sorted(values))

    return Inputs(
        gammas=draw(3, 25.0, 65.0, 2),
        radii=draw(4, 0.05, 0.25, 4),
        force_gamma=draw(1, 25.0, 65.0, 2)[0],
        force_radius=draw(1, 0.05, 0.25, 4)[0],
        forces=draw(7, 0.0, 200.0, 2),
        semicircle_radius=draw(1, 0.05, 0.25, 4)[0],
    )


def _csv_list(values):
    return ",".join(repr(float(v)) for v in values)


def cli_calls(workload: str, inputs: Inputs, out_dir: Path, samples: int = SAMPLES):
    """``(argv, output samples, csv path)`` for each CLI call of one study."""
    extra = [] if samples == SAMPLES else ["--samples", str(samples)]
    if workload == "peak-grid":
        path = out_dir / "peaks.csv"
        argv = ["sweep", "--gamma", _csv_list(inputs.gammas), "--radius", _csv_list(inputs.radii),
                *extra, "--out", str(path)]
        return [(argv, len(inputs.gammas) * len(inputs.radii) * samples, path)]
    if workload == "profile-grid":
        calls = []
        for i, (gamma, radius) in enumerate(grid_points(inputs)):
            path = out_dir / f"profile_{i:02d}.csv"
            argv = ["traj", "--traj", "circle", "--gamma", repr(gamma), "--radius", repr(radius),
                    *extra, "--out", str(path)]
            calls.append((argv, samples, path))
        return calls
    if workload == "force-sweep":
        path = out_dir / "force_sweep.csv"
        argv = ["force-sweep", "--gamma", repr(inputs.force_gamma), "--radius", repr(inputs.force_radius),
                "--fc", _csv_list(inputs.forces), "--lc", repr(LEVER_M), *extra, "--out", str(path)]
        return [(argv, len(inputs.forces) * samples, path)]
    raise ValueError(f"{workload!r} is not a CLI workload")


def grid_points(inputs: Inputs):
    """(gamma, radius) in the order the sweep CLI writes its rows."""
    return [(g, r) for g in inputs.gammas for r in inputs.radii]


@dataclass
class StudyOutput:
    """What one study produced, for the correctness gate and the metrics."""

    attempted: int
    failed: int
    csv_paths: list
    exit_codes: list
    log: str = ""
    semicircle: dict | None = None


def run_cli_study(calls) -> StudyOutput:
    """Run the CLI calls back to back; a nonzero exit fails all of its samples."""
    attempted = failed = 0
    codes = []
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv, samples, _ in calls:
            code = cli.main(argv)
            codes.append(code)
            attempted += samples
            failed += samples if code != 0 else 0
    return StudyOutput(attempted, failed, [path for _, _, path in calls], codes, log.getvalue())


def run_semicircle_study(radius: float, samples: int = SAMPLES) -> StudyOutput:
    """Per-sample ``solve_state`` plus ``power_balance_residual`` along the semicircle.

    A sample whose solve raises a ``WristError`` counts as failed and is
    recorded with its category; criterion 5a expects exactly one, at the
    singular midpoint.
    """
    config = sphwrist.default_config()
    spec = sphwrist.TrajectorySpec(kind=KIND_SEMICIRCLE, radius=radius, sample_count=samples)
    timed = sphwrist.generate(spec)
    try:
        states = sphwrist.trajectory_joint_profiles(
            [s.orientation for s in timed], timed[1].t - timed[0].t, config.geometry)
    except sphwrist.WristError as exc:
        return StudyOutput(samples, samples, [], [], f"error[{exc.category}]: {exc}")
    n = len(states)
    t = np.array([s.t for s in states])
    theta = np.array([s.angles.theta for s in states])
    tau = np.full((n, 2), math.nan)
    power = np.full((n, 2), math.nan)
    balance = np.full(n, math.nan)
    rejected = []
    for i, state in enumerate(states):
        try:
            motion, solution = sphwrist.solve_state(state, config.geometry, config.bodies, config.gravity)
        except sphwrist.WristError as exc:
            rejected.append((i, exc.category))
            continue
        tau[i] = solution.tau
        power[i] = solution.power
        balance[i] = sphwrist.power_balance_residual(state, solution, motion, config.bodies, config.gravity)
    result = {"t": t, "theta": theta, "tau": tau, "power": power, "balance": balance, "rejected": rejected}
    return StudyOutput(n, len(rejected), [], [], semicircle=result)


def run_study(workload: str, inputs: Inputs, out_dir: Path, samples: int = SAMPLES) -> StudyOutput:
    if workload == "semicircle-verify":
        return run_semicircle_study(inputs.semicircle_radius, samples)
    return run_cli_study(cli_calls(workload, inputs, out_dir, samples))
