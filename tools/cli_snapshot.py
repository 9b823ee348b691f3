"""Snapshot the CLI's and the per-row API's outputs on a fixed set of inputs, or compare two snapshots.

    PYTHONPATH=src python tools/cli_snapshot.py DIR [--samples N]
    python tools/cli_snapshot.py --compare A B

A snapshot runs every command below in this process through
``sphwrist.cli.main``, from inside DIR, and writes per command NAME the
files NAME.stdout, NAME.stderr, NAME.exit and, for commands that write one,
NAME.csv.  The inputs are the paper's study (the benchmark's seed 0), then
the fixed inputs of ``ERROR_CASES``, which each end in one error line, so
that a comparison shows every error line a change alters.  Then, for each
case of ``config_cases``, it writes the parameter file NAME.cfg and runs one
command with ``--config NAME.cfg``.  It
then runs the per-row Newton-Euler API (``solve_state`` and
``power_balance_residual`` on every row of a semicircle profile) on each
case of ``API_CASES`` and writes per case NAME the files NAME.csv, one row
per sample with every number as ``%.17g`` and a failing row's error line,
and NAME.stderr, the error line of ``solve_trajectory`` over the profile.
Last, for each spec of ``VW_CASES``, it writes NAME.csv with the profile
and the load-free virtual-work pass of that spec at its own rate (the
profile stage ``kinematics._profile_pass`` on the spec's generated path,
then ``dynamics._load_free_torques``), one row per sample with every number
as ``%.17g``: the joint angles, rates and accelerations, the load-free
torques tau0 and the load terms g.  No study runs this pass; it is the
own-rate reference that the tests hold the scaled unit-rate pass to.
Then, for each cone angle of ``UNIT_CASES``, with and without the load, it
writes NAME.csv with the unit-rate pass of that path
(``analysis.path_pass``), as every study that takes torques scales
it: per sample the static shaft torques c (the pass's torques at rest under
the load, ``torques.with_load(torques.rest, load)``), the shaft torques per
unit rate squared v and the drive rates; and NAME_peaks.csv with the peaks of the four
joint rates and accelerations, every number as ``%.17g``.  The
``.12g`` CSVs of the commands can hide a change in the last bits; these
cannot.  The sphwrist package is the one on the import path, so setting PYTHONPATH
to another checkout's src snapshots that checkout.

``--compare`` lists the files that differ between two snapshot directories
or are in only one, with, for a CSV, the number of differing cells and the
largest absolute difference per numeric column, also relative to that
column's largest magnitude.  It exits 0 when every file
is byte-identical, else 1.
"""

import argparse
import contextlib
import csv
import io
import os
import sys
import traceback
from pathlib import Path

GAMMAS = ("30", "45", "60")
RADII = ("0.25", "0.15", "0.10", "0.05")
GRID = ["--gamma", ",".join(GAMMAS), "--radius", ",".join(RADII)]
FORCES = "0,25,50,75,100,125,150"
# (name, semicircle radius in m, cutting force components in N and lever in m, or None,
# whether gravity is passed as a list).  The calls keep the profile's block for gravity's
# bytes; a list is checked on every call, so the last case runs that path, with the bits
# of the first.
API_CASES = (
    ("api_semicircle_0.25", 0.25, None, False),
    ("api_semicircle_0.25_load", 0.25, ((150.0, 150.0, 150.0), 0.11), False),
    ("api_semicircle_0.1337", 0.1337, None, False),
    ("api_semicircle_0.1337_load", 0.1337, ((150.0, 150.0, 150.0), 0.11), False),
    ("api_semicircle_0.25_gravity_list", 0.25, None, True),
)

# (name, cone angle in degrees, radius in m): the 12 grid specs of sweep and
# motor-check; the force-sweep spec is the grid's (45, 0.15).
VW_CASES = tuple((f"vw_{g}_{r}", float(g), float(r)) for g in GAMMAS for r in RADII)

# (name, cone angle in degrees, cutting force components in N and lever in m,
# or None): the unit-rate pass of each grid cone angle, shared by its four radii.
UNIT_CASES = tuple((f"unit_{g}{suffix}", float(g), load) for g in GAMMAS
                   for suffix, load in (("", None), ("_load", ((150.0, 150.0, 150.0), 0.11))))

# (name, argv): bad inputs, each ending in one categorised error line and exit 1.
ERROR_CASES = (
    ("error_ik_nan", ["ik", "--v", "nan,0,1"]),
    ("error_ik_huge", ["ik", "--v", "1e308,1e308,0"]),
    ("error_ik_pan_only", ["ik", "--pan", "20"]),
    ("error_fk_nan", ["fk", "--theta1", "nan", "--theta3", "0"]),
    ("error_force_sweep_lever", ["force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", FORCES, "--lc", "-1",
                                 "--out", "error_force_sweep_lever.csv"]),
    ("error_motor_check_force", ["motor-check", *GRID, "--fc", "inf", "--lc", "0.11"]),
    ("error_traj_radius", ["traj", "--gamma", "45", "--radius", "1e-300", "--out", "error_traj_radius.csv"]),
    ("error_traj_rate_overflow", ["traj", "--gamma", "60", "--radius", "1e-308", "--speed", "1.5",
                                  "--out", "error_traj_rate_overflow.csv"]),
    ("error_sweep_speed", ["sweep", "--gamma", "45", "--radius", "0.1", "--speed", "1e150",
                           "--out", "error_sweep_speed.csv"]),
    # The second radius of a cone angle fails: in the sweep its drive rates
    # overflow, in the motor check a power peak.
    ("error_sweep_second_radius", ["sweep", "--gamma", "60", "--radius", "0.25,1e-308", "--speed", "1.5",
                                   "--out", "error_sweep_second_radius.csv"]),
    ("error_motor_check_second_radius", ["motor-check", "--gamma", "45", "--radius", "0.1,1e-150", "--fc", "150",
                                         "--lc", "0.11"]),
    ("error_force_sweep_overflow", ["force-sweep", "--gamma", "45", "--radius", "0.1", "--fc", "0,1e300",
                                    "--lc", "1e10", "--out", "error_force_sweep_overflow.csv"]),
    ("error_dynamics_rate_overflow", ["dynamics", "--gamma", "60", "--radius", "1e-308", "--speed", "1.5",
                                      "--out", "error_dynamics_rate_overflow.csv"]),
    ("error_dynamics_overflow", ["dynamics", "--gamma", "45", "--radius", "0.1", "--fc", "1e200", "--lc", "1e200",
                                 "--out", "error_dynamics_overflow.csv"]),
    ("error_dynamics_negative_force", ["dynamics", "--gamma", "45", "--radius", "0.1", "--fc", "-5",
                                       "--out", "error_dynamics_negative_force.csv"]),
    ("error_force_sweep_nan", ["force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", "0,nan",
                               "--out", "error_force_sweep_nan.csv"]),
    # A trajectory spec's scalars, checked where the spec is made.
    ("error_traj_gamma_nan", ["traj", "--gamma", "nan", "--radius", "0.15", "--out", "error_traj_gamma_nan.csv"]),
    ("error_traj_radius_nan", ["traj", "--gamma", "45", "--radius", "nan", "--out", "error_traj_radius_nan.csv"]),
    ("error_sweep_speed_zero", ["sweep", *GRID, "--speed", "0", "--out", "error_sweep_speed_zero.csv"]),
)


def config_cases():
    """``(name, lines, argv)`` for the config cases: NAME.cfg holds ``lines``.

    The six error cases start from the shipped link and motor lines, with
    every other key written out at the loaded value, so that the file is the
    same for any tree that loads the same parameters; each changes, leaves
    out or adds one key (a joint force point, which is no key: every joint
    force acts at the wrist center).  The next case holds the link and motor
    lines alone, with zero gravity.  The last one sets a negative distal twist, so that a
    comparison shows what a change to the inverse kinematics does on a
    geometry other than the default.
    """
    import math

    import sphwrist
    from sphwrist.config import default_config_text

    config = sphwrist.default_config()
    shipped = [line for line in default_config_text().splitlines() if line.startswith(("body.", "motor."))]
    geometry = config.geometry
    loaded = {"geometry.alpha": geometry.alpha, "geometry.tool_length": [geometry.tool_length],
              "geometry.mount_yaw": [geometry.mount_yaw], "gravity": config.gravity,
              "defaults.sample_count": [config.sample_count], "defaults.tool_speed": [config.tool_speed]}
    full = shipped + [f"{key} = {', '.join(repr(float(x)) for x in values)}" for key, values in loaded.items()]

    def with_key(key, value=None):
        return [line for line in full if line.partition("=")[0].strip() != key] + (
            [] if value is None else [f"{key} = {value}"])

    fk = ["fk", "--theta1", "-80", "--theta3", "70"]
    negative_distal_twist = ", ".join(repr(a) for a in [math.pi / 2] * 4 + [-math.pi / 2])
    return [
        ("error_config_missing_max_torque", with_key("motor.1.max_torque"), fk),
        ("error_config_com_offset_count", with_key("body.distal.com_offset", "0.0, 0.055"), fk),
        ("error_config_negative_mass", with_key("body.terminal.mass", "-1"), fk),
        ("error_config_zero_tool_length", with_key("geometry.tool_length", "0"), fk),
        ("error_config_infinite_mount_yaw", with_key("geometry.mount_yaw", "inf"), fk),
        ("error_config_force_point", with_key("body.terminal.point.joint_distal", "0.0, 0.0, -0.07"), fk),
        ("config_link_and_motor_only", shipped + ["gravity = 0, 0, 0"],
         ["dynamics", "--gamma", "45", "--radius", "0.15", "--samples", "51", "--out", "config_link_and_motor_only.csv"]),
        ("config_negative_distal_twist", with_key("geometry.alpha", negative_distal_twist),
         ["dynamics", "--gamma", "45", "--radius", "0.15", "--samples", "51",
          "--out", "config_negative_distal_twist.csv"]),
    ]


def commands(samples=None):
    """``(name, argv)`` for every command of a snapshot; each study writes
    NAME.csv, except motor-check, which writes no file.  ``samples`` sets the
    sample count of every study that does not set its own."""
    studies = [(f"traj_{g}_{r}", ["traj", "--gamma", g, "--radius", r]) for g in GAMMAS for r in RADII]
    studies += [
        ("traj_semicircle", ["traj", "--traj", "semicircle", "--radius", "0.25"]),
        ("dynamics_circle", ["dynamics", "--gamma", "45", "--radius", "0.15"]),
        ("dynamics_circle_load", ["dynamics", "--gamma", "45", "--radius", "0.15", "--fc", "150", "--lc", "0.15"]),
        ("dynamics_semicircle", ["dynamics", "--traj", "semicircle", "--radius", "0.25"]),
        ("sweep", ["sweep", *GRID]),
        ("force_sweep", ["force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", FORCES, "--lc", "0.11"]),
        ("motor_check", ["motor-check", *GRID]),
        ("motor_check_load", ["motor-check", *GRID, "--fc", "150", "--lc", "0.11"]),
        # Two radii of one cone angle whose path rates differ by 301 orders of
        # magnitude; the first one's accelerations underflow to 0.
        ("sweep_mixed_radii", ["sweep", "--gamma", "45", "--radius", "1e300,0.1", "--samples", "11"]),
    ]
    extra = [] if samples is None else ["--samples", str(samples)]
    return [("fk", ["fk", "--theta1", "-80", "--theta3", "70"]), ("ik", ["ik", "--pan", "20", "--tilt", "-55"])] + [
        (name, [*argv, *([] if "--samples" in argv else extra),
                *([] if argv[0] == "motor-check" else ["--out", f"{name}.csv"])])
        for name, argv in studies]


def snapshot(directory: Path, samples=None):
    from sphwrist import cli

    directory.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(directory)
    try:
        runs = [*commands(samples), *ERROR_CASES]
        for name, lines, argv in config_cases():
            Path(f"{name}.cfg").write_text("\n".join(lines) + "\n")
            runs.append((name, ["--config", f"{name}.cfg", *argv]))
        for name, argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = str(cli.main(argv))
                except Exception:  # a traceback is an outcome the snapshot records
                    traceback.print_exc()
                    code = "exception"
            Path(f"{name}.stdout").write_text(out.getvalue())
            Path(f"{name}.stderr").write_text(err.getvalue())
            Path(f"{name}.exit").write_text(code + "\n")
        for name, radius, load, gravity_list in API_CASES:
            api_rows(name, radius, load, gravity_list, samples)
        for name, gamma, radius in VW_CASES:
            vw_rows(name, gamma, radius, samples)
        for name, gamma, load in UNIT_CASES:
            unit_rows(name, gamma, load, samples)
    finally:
        os.chdir(home)


def api_rows(name, radius, load, gravity_list=False, samples=None):
    """Write NAME.csv and NAME.stderr for one semicircle of the per-row API,
    with gravity as the config's array or, if ``gravity_list``, as a list."""
    import numpy as np

    import sphwrist
    from sphwrist.dynamics import UNKNOWN_SLICES
    from sphwrist.trajectory import KIND_SEMICIRCLE

    config = sphwrist.default_config()
    spec = sphwrist.TrajectorySpec(kind=KIND_SEMICIRCLE, radius=radius, tool_speed=config.tool_speed,
                                   sample_count=config.sample_count if samples is None else samples)
    path = sphwrist.generate(spec)
    profile = sphwrist.trajectory_joint_profiles(path.v, path[1].t - path[0].t, config.geometry)
    load = None if load is None else sphwrist.CuttingLoad(*load)
    args = config.geometry, config.bodies, config.gravity.tolist() if gravity_list else config.gravity, load
    reactions = [(key, sl.stop - sl.start) for key, sl in UNKNOWN_SLICES.items()]
    header = ["sample", "t", "tau[0]", "tau[1]", "power[0]", "power[1]", "residual", "balance",
              *(key if width == 1 else f"{key}_{j}" for key, width in reactions for j in range(width)), "error"]
    with open(f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, state in enumerate(profile):
            try:
                motion, solution = sphwrist.solve_state(state, *args)
                balance = sphwrist.power_balance_residual(state, solution, motion, *args[1:])
            except sphwrist.WristError as exc:
                writer.writerow([i, "%.17g" % state.t, *[""] * (len(header) - 3), f"error[{exc.category}]: {exc}"])
                continue
            values = [state.t, *solution.tau, *solution.power, solution.residual, balance,
                      *(x for key, _ in reactions for x in np.ravel(solution.reactions[key]))]
            writer.writerow([i, *("%.17g" % v for v in values), ""])
    try:
        sphwrist.solve_trajectory(profile, *args)
        line = ""
    except sphwrist.WristError as exc:
        line = f"error[{exc.category}]: {exc}\n"
    Path(f"{name}.stderr").write_text(line)


def vw_rows(name, gamma, radius, samples=None):
    """Write NAME.csv: the profile and load-free virtual-work pass of one circle spec, the profile
    from ``kinematics._profile_pass`` on the spec's generated path."""
    import math

    import sphwrist
    from sphwrist.dynamics import _load_free_torques
    from sphwrist.kinematics import _profile_pass
    from sphwrist.trajectory import KIND_CIRCLE, generate

    config = sphwrist.default_config()
    spec = sphwrist.TrajectorySpec(kind=KIND_CIRCLE, radius=radius, gamma=math.radians(gamma),
                                   tool_speed=config.tool_speed,
                                   sample_count=config.sample_count if samples is None else samples)
    path = generate(spec)
    profile, kinematics = _profile_pass(path.v, path.t[1] - path.t[0], config.geometry)
    load_free = _load_free_torques(profile, kinematics, config.bodies, config.gravity)
    header = ["sample", "t", *(f"{field}{j}" for field in ("theta", "dtheta", "ddtheta") for j in range(1, 5)),
              "tau0_1", "tau0_2", *(f"g{k}_{j}" for k in (1, 2) for j in range(3))]
    columns = [profile.t[:, None], profile.theta, profile.rates, profile.accels, load_free.tau0,
               load_free.g.reshape(len(profile), 6)]
    with open(f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(zip(*(c.tolist() for c in columns))):
            writer.writerow([i, *("%.17g" % v for part in row for v in part)])


def unit_rows(name, gamma, load, samples=None):
    """Write NAME.csv and, without a load, NAME_peaks.csv: the unit-rate pass of one circle path,
    with c from its torques at rest (``rest``) under the load."""
    import math

    import sphwrist
    from sphwrist.analysis import path_pass
    from sphwrist.trajectory import KIND_CIRCLE

    config = sphwrist.default_config()
    # The pass runs at unit radius and tool speed, whatever the spec's.
    spec = sphwrist.TrajectorySpec(kind=KIND_CIRCLE, radius=0.15, gamma=math.radians(gamma),
                                   tool_speed=config.tool_speed,
                                   sample_count=config.sample_count if samples is None else samples)
    load = None if load is None else sphwrist.CuttingLoad(*load)
    unit = path_pass(spec, config.geometry, config.bodies, config.motors, config.gravity)
    with open(f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample", "c1", "c2", "v1", "v2", "dtheta1", "dtheta2"])
        columns = (unit.torques.with_load(unit.torques.rest, load), unit.v_shaft, unit.drive_rates)
        for i, row in enumerate(zip(*(c.tolist() for c in columns))):
            writer.writerow([i, *("%.17g" % v for part in row for v in part)])
    if load is None:
        with open(f"{name}_peaks.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["peak", "joint1", "joint2", "joint3", "joint4"])
            for field in ("max_rates", "max_accels"):
                writer.writerow([field, *("%.17g" % v for v in getattr(unit, field).tolist())])


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_differences(a: Path, b: Path) -> str:
    """What differs between two CSV files: their shape, or per differing
    column the count of differing cells and, where both cells of every
    differing pair are numbers, the largest absolute difference and that
    difference over the column's largest magnitude in either file."""
    rows_a = list(csv.reader(io.StringIO(a.read_text())))
    rows_b = list(csv.reader(io.StringIO(b.read_text())))
    if rows_a[:1] != rows_b[:1] or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return f"header or shape differs ({len(rows_a)} against {len(rows_b)} lines)"
    columns = []
    for j, name in enumerate(rows_a[0]):
        cells = [(_float(x[j]), _float(y[j])) for x, y in zip(rows_a[1:], rows_b[1:]) if x[j] != y[j]]
        if cells:
            detail = f"{name}: {len(cells)} cells"
            if all(x is not None and y is not None for x, y in cells):
                diff = max(abs(x - y) for x, y in cells)
                values = [abs(v) for row in rows_a[1:] + rows_b[1:] if (v := _float(row[j])) is not None]
                scale = max(values)
                detail += f", max |diff| {diff:.3g}, relative {diff / scale if scale else 0.0:.3g}"
            columns.append(detail)
    return "; ".join(columns)


def compare(a: Path, b: Path) -> int:
    names_a = {p.name for p in a.iterdir() if p.is_file()}
    names_b = {p.name for p in b.iterdir() if p.is_file()}
    differing = 0
    for name in sorted(names_a ^ names_b):
        differing += 1
        print(f"only in {a if name in names_a else b}: {name}")
    for name in sorted(names_a & names_b):
        if (a / name).read_bytes() != (b / name).read_bytes():
            differing += 1
            detail = f": {csv_differences(a / name, b / name)}" if name.endswith(".csv") else ""
            print(f"differs: {name}{detail}")
    print(f"{len(names_a | names_b)} files, {differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", type=Path, help="snapshot directory to write")
    parser.add_argument("--samples", type=int, help="samples per trajectory (the config's count if unset)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two snapshots")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.directory is None:
        parser.error("give a snapshot directory or --compare A B")
    snapshot(args.directory, args.samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
