"""Correctness gate for one study's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the study's
outputs are correct.  Checks that hold for every seed:

- row counts and exit codes;
- forward kinematics of (theta1, theta3), and the leg-2 tool axis from
  (theta2, theta4), reproduce the tool direction to 1e-9 on sampled rows,
  where the output carries joint angles (profile-grid, semicircle-verify);
- peak rates scale as 1/R and peak accelerations as 1/R^2 at fixed gamma
  (peak-grid, profile-grid);
- peak torques and powers are convex in the cutting force, because each
  sample's torque is affine in it (force-sweep);
- power balance below 1e-6 on every solved sample and the gate rejection at
  exactly the midpoint sample (semicircle-verify).

Seed 0 adds the paper's 12-point kinematic peak table (2 %) and the torque and
power values recorded in ``reference_seed0.json`` (1e-9 of the column's
largest magnitude).  Those are compared as values, not bytes.
"""

import json
import math
from pathlib import Path

import numpy as np

import sphwrist

from workloads import SAMPLES, grid_points

FK_TOL = 1e-9
PAPER_TOL = 0.02
RECORDED_TOL = 1e-9
SCALING_TOL = 1e-6
CONVEXITY_TOL = 1e-9
BALANCE_TOL = 1e-6
GATE_REJECTION = sphwrist.errors.ModelInconsistencyError.category
FK_STRIDE = 50

REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")

# The paper's table for the circle at 1 m/s: per (gamma, R) in grid order
# (gamma 30, 45, 60 outer; R 0.25, 0.15, 0.10, 0.05 inner), 4 peak rates
# [rad/s] then 4 peak accelerations [rad/s^2].
PAPER_PEAKS = np.array([
    (2.31, 2.31, 2.00, 2.00, 7.29, 7.29, 9.21, 9.21),
    (3.84, 3.84, 3.33, 3.33, 20.24, 20.24, 25.59, 25.59),
    (5.77, 5.77, 5.00, 5.00, 45.54, 45.54, 57.58, 57.59),
    (11.53, 11.53, 10.00, 10.00, 182.15, 182.15, 230.30, 230.35),
    (3.99, 3.99, 2.83, 2.83, 13.96, 13.96, 15.92, 15.92),
    (6.65, 6.65, 4.71, 4.71, 38.78, 38.78, 44.22, 44.22),
    (9.98, 9.98, 7.07, 7.07, 87.26, 87.26, 99.48, 99.48),
    (19.96, 19.96, 14.14, 14.14, 349.03, 349.03, 397.94, 397.94),
    (6.90, 6.90, 3.46, 3.46, 34.05, 34.05, 27.36, 27.36),
    (11.49, 11.49, 5.77, 5.77, 94.59, 94.59, 75.99, 75.99),
    (17.24, 17.24, 8.66, 8.66, 212.82, 212.82, 170.98, 170.98),
    (34.48, 34.48, 17.32, 17.32, 851.30, 851.30, 683.92, 683.92),
])


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def read_csv(path):
    """Header and float rows of a CSV the CLI wrote."""
    lines = Path(path).read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def _shape(name, values, shape):
    if values.shape != shape:
        return [f"{name}: expected {shape[0]} rows x {shape[1]} columns, got {values.shape}"]
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite values"]
    return []


def _against_paper(name, peaks):
    rel = np.abs(peaks - PAPER_PEAKS) / np.maximum(np.abs(peaks), np.abs(PAPER_PEAKS))
    worst = float(np.max(rel))
    return [] if worst <= PAPER_TOL else [f"{name}: kinematic peaks {worst:.2%} from the paper's table"]


def _against_recorded(name, values, recorded):
    recorded = np.asarray(recorded, dtype=float)
    if values.shape != recorded.shape:
        return [f"{name}: {values.shape} values, {recorded.shape} recorded"]
    scale = np.max(np.abs(recorded), axis=0)
    worst = float(np.max(np.abs(values - recorded) / scale))
    return [] if worst <= RECORDED_TOL else [f"{name}: {worst:.1e} relative from the recorded values"]


def _scaling(name, peaks, points):
    """rate*R and accel*R^2 must not depend on R at fixed gamma."""
    problems = []
    radii = np.array([r for _, r in points])
    products = np.concatenate([peaks[:, :4] * radii[:, None], peaks[:, 4:] * radii[:, None] ** 2], axis=1)
    for gamma in sorted({g for g, _ in points}):
        group = products[[g == gamma for g, _ in points]]
        spread = float(np.max((group.max(axis=0) - group.min(axis=0)) / np.abs(group).max(axis=0)))
        if spread > SCALING_TOL:
            problems.append(f"{name}: gamma {gamma}: peak*R^k varies by {spread:.1e} across radii")
    return problems


def _forward_kinematics(name, theta, expected, geometry):
    """Both legs must reach the expected tool directions."""
    worst = 0.0
    for th, v in zip(theta, expected):
        leg1 = sphwrist.forward_kinematics(th[0], th[2], geometry).v
        leg2 = sphwrist.leg2_tool_axis(th[1], th[3], geometry)
        worst = max(worst, float(np.linalg.norm(leg1 - v)), float(np.linalg.norm(leg2 - v)))
    return [] if worst < FK_TOL else [f"{name}: forward kinematics misses the tool direction by {worst:.1e}"]


def _sampled(n):
    return sorted(set(range(0, n, FK_STRIDE)) | {n - 1})


def check_peak_grid(path, inputs, seed, samples=SAMPLES):
    _, values = read_csv(path)
    points = grid_points(inputs)
    problems = _shape("peaks.csv", values, (len(points), 14))
    if problems:
        return problems
    if not np.allclose(values[:, :2], np.array(points), rtol=1e-12, atol=0.0):
        problems.append("peaks.csv: gamma/radius columns do not match the inputs")
    problems += _scaling("peaks.csv", values[:, 2:10], points)
    if seed == 0 and samples == SAMPLES:
        problems += _against_paper("peaks.csv", values[:, 2:10])
        problems += _against_recorded("peaks.csv T/P", values[:, 10:14], load_reference()["peak-grid"])
    return problems


def check_profile_grid(paths, inputs, seed, samples=SAMPLES):
    config = sphwrist.default_config()
    points = grid_points(inputs)
    if len(paths) != len(points):
        return [f"profile-grid: {len(paths)} outputs for {len(points)} grid points"]
    problems = []
    peaks = []
    for path, (gamma, radius) in zip(paths, points):
        name = Path(path).name
        _, values = read_csv(path)
        shape_problems = _shape(name, values, (samples, 13))
        if shape_problems:
            problems += shape_problems
            continue
        duration = 2.0 * math.pi * radius / config.tool_speed
        t = values[:, 0]
        if np.max(np.abs(t - duration * np.arange(samples) / (samples - 1))) > 1e-9 * duration:
            problems.append(f"{name}: time column is not uniform over the circle")
        rows = _sampled(samples)
        delta = t[rows] * config.tool_speed / radius
        sg, cg = math.sin(math.radians(gamma)), math.cos(math.radians(gamma))
        expected = np.column_stack([sg * np.cos(delta), sg * np.sin(delta), np.full(len(rows), -cg)])
        problems += _forward_kinematics(name, values[rows, 1:5], expected, config.geometry)
        peaks.append(np.max(np.abs(values[:, 5:13]), axis=0))
    if problems:
        return problems
    peaks = np.array(peaks)
    problems += _scaling("profile-grid", peaks, points)
    if seed == 0 and samples == SAMPLES:
        problems += _against_paper("profile-grid", peaks)
    return problems


def check_force_sweep(path, inputs, seed, samples=SAMPLES):
    _, values = read_csv(path)
    problems = _shape("force_sweep.csv", values, (len(inputs.forces), 5))
    if problems:
        return problems
    forces = values[:, 0]
    if not np.array_equal(forces, np.array(inputs.forces)):
        return ["force_sweep.csv: force column does not match the inputs"]
    peaks = values[:, 1:]
    # Chord test: each interior point lies on or below the chord of its neighbours.
    left, mid, right = forces[:-2], forces[1:-1], forces[2:]
    chord = ((right - mid)[:, None] * peaks[:-2] + (mid - left)[:, None] * peaks[2:]) / (right - left)[:, None]
    excess = float(np.max((peaks[1:-1] - chord) / np.max(np.abs(peaks), axis=0)))
    if excess > CONVEXITY_TOL:
        problems.append(f"force_sweep.csv: peaks not convex in the cutting force (excess {excess:.1e})")
    if seed == 0 and samples == SAMPLES:
        problems += _against_recorded("force_sweep.csv T/P", peaks, load_reference()["force-sweep"])
    return problems


def semicircle_reference_rows(n):
    """Rows whose torques and powers the seed-0 reference records."""
    return [i for i in range(0, n, 10) if i != (n - 1) // 2]


def check_semicircle(result, inputs, seed, samples=SAMPLES):
    if result is None:
        return ["semicircle-verify: the joint profiles failed"]
    config = sphwrist.default_config()
    n = len(result["t"])
    if n != samples:
        return [f"semicircle-verify: {n} samples, expected {samples}"]
    problems = []
    midpoint = (n - 1) // 2
    if result["rejected"] != [(midpoint, GATE_REJECTION)]:
        problems.append(f"semicircle-verify: gate rejections {result['rejected']},"
                        f" expected [({midpoint}, {GATE_REJECTION!r})]")
    solved = np.ones(n, dtype=bool)
    solved[midpoint] = False
    balance = result["balance"][solved]
    if not (np.all(np.isfinite(result["tau"][solved])) and np.all(balance < BALANCE_TOL)):
        problems.append(f"semicircle-verify: power balance {np.nanmax(balance):.1e} exceeds {BALANCE_TOL:.0e}"
                        " or a solved sample has no torque")
    rows = _sampled(n)
    delta = math.pi / 6.0 + result["t"][rows] * config.tool_speed / inputs.semicircle_radius
    expected = np.column_stack([np.zeros(len(rows)), -np.sin(delta), -np.cos(delta)])
    problems += _forward_kinematics("semicircle-verify", result["theta"][rows], expected, config.geometry)
    if seed == 0 and samples == SAMPLES:
        rows = semicircle_reference_rows(n)
        values = np.hstack([result["tau"][rows], result["power"][rows]])
        problems += _against_recorded("semicircle-verify tau/P", values, load_reference()["semicircle-verify"])
    return problems


def check_study(workload, output, inputs, seed, samples=SAMPLES):
    """All problems with one study's outputs; empty when they are correct."""
    problems = [f"CLI exit code {code}" for code in output.exit_codes if code != 0]
    if problems:
        return problems + [output.log.strip()]
    missing = [Path(p).name for p in output.csv_paths if not Path(p).is_file()]
    if missing:
        return [f"no output written: {', '.join(missing)}"]
    if workload == "peak-grid":
        return check_peak_grid(output.csv_paths[0], inputs, seed, samples)
    if workload == "profile-grid":
        return check_profile_grid(output.csv_paths, inputs, seed, samples)
    if workload == "force-sweep":
        return check_force_sweep(output.csv_paths[0], inputs, seed, samples)
    return check_semicircle(output.semicircle, inputs, seed, samples)
