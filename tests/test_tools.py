import csv
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_snapshot_tool(*argv):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "cli_snapshot.py"), *map(str, argv)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_cli_snapshot_writes_and_compares(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_snapshot_tool(a, "--samples", "21").returncode == 0
    exits = {p.stem: p.read_text() for p in a.glob("*.exit")}
    # fk, ik, 13 traj, 3 dynamics, 2 sweep, force-sweep and 2 motor-check
    # runs, and two dynamics runs on config files; only the semicircle's
    # torques fail, at its singular midpoint.  The 21 error cases and the 6
    # config error cases each end in one categorised error line.
    assert len(exits) == 52 and exits.pop("dynamics_semicircle") == "1\n"
    errors = [name for name in exits if name.startswith("error_")]
    assert len(errors) == 27 and {exits.pop(name) for name in errors} == {"1\n"}
    assert set(exits.values()) == {"0\n"}
    for name in errors:
        assert re.fullmatch(r"error\[[a-z-]+\]: [^\n]+\n", (a / f"{name}.stderr").read_text())
    assert (a / "error_ik_pan_only.stderr").read_text().startswith("error[invalid-input]: provide either")
    # A peak that overflows names its spec, its force value in a force sweep, and its sample.
    spec = "error[invalid-input]: spec (kind=circle-XY, gamma=45 deg, R=0.1): "
    assert (a / "error_sweep_speed.stderr").read_text().startswith(spec + "sample 0 (t = 0 s, v = (")
    assert (a / "error_force_sweep_overflow.stderr").read_text().startswith(spec + "Fc = 1e+300 N: sample 0 (t = 0 s")
    # An overflowing dynamics series names its sample, without a spec, and its column.
    assert (a / "error_dynamics_overflow.stderr").read_text() == (
        "error[invalid-input]: sample 0 (t = 0 s, v = (0.707107, 3.43701e-16, -0.707107)): tau1_Nm is inf;"
        " the inputs overflow double precision\n")
    # Drive rates that overflow in the own-rate differencing of traj name
    # their sample.  A study scales the unit-rate pass of its path instead:
    # the first value that overflows there names its sample and column; in a
    # sweep, after the spec, also where an earlier radius of the cone angle passed.
    assert (a / "error_traj_rate_overflow.stderr").read_text() == (
        "error[invalid-input]: sample 69 (t = 2.89027e-309 s, v = (0.785905, 0.363805, -0.5)):"
        " profile rates must hold finite values\n")
    first_sample = "sample 0 (t = 0 s, v = (0.866025, 1.89012e-16, -0.5)): "
    assert (a / "error_sweep_second_radius.stderr").read_text() == (
        "error[invalid-input]: spec (kind=circle-XY, gamma=60 deg, R=1e-308): " + first_sample
        + "ddtheta1_rad_s2 is inf; the inputs overflow double precision\n")
    assert (a / "error_dynamics_rate_overflow.stderr").read_text() == (
        "error[invalid-input]: " + first_sample + "tau1_Nm is inf; the inputs overflow double precision\n")
    assert (a / "error_motor_check_second_radius.stderr").read_text() == (
        "error[invalid-input]: spec (kind=circle-XY, gamma=45 deg, R=1e-150): sample 0 (t = 0 s,"
        " v = (0.707107, 3.43701e-16, -0.707107)): P1_W is inf; the inputs overflow double precision\n")
    assert (a / "error_dynamics_negative_force.stderr").read_text() == (
        "error[invalid-input]: --fc must be non-negative\n")
    assert (a / "error_force_sweep_nan.stderr").read_text() == "error[invalid-input]: --fc must be finite\n"
    # A spec's scalars are checked where the spec is made, under its own category.
    for name, message in (("error_traj_gamma_nan", "gamma must be finite, got nan"),
                          ("error_dynamics_semicircle_gamma_nan", "gamma must be finite, got nan"),
                          ("error_traj_radius_nan", "radius must be positive"),
                          ("error_sweep_speed_zero", "tool_speed must be positive")):
        assert (a / f"{name}.stderr").read_text() == f"error[invalid-spec]: {message}\n"
    assert (a / "dynamics_semicircle.stderr").read_text().startswith(
        "error[model-inconsistency]: sample 10 (t = 0.261799 s, v = (")
    # An even-count semicircle crosses the type-II singularity between its two middle samples.
    crossing = (a / "error_dynamics_semicircle_even.stderr").read_text()
    assert crossing.startswith("error[model-inconsistency]: the path crosses a type-II singularity between sample 499"
                               " (t = 0.261537 s, v = (") and " and sample 500 (t = 0.262061 s, v = (" in crossing
    assert crossing.endswith("; the torques grow without bound there\n")
    # A config fault is reported once, by its key, with no section prefix ahead of the key.
    assert (a / "error_config_missing_max_torque.stderr").read_text() == (
        "error[config-error]: missing required key 'motor.1.max_torque'\n")
    assert (a / "error_config_com_offset_count.stderr").read_text() == (
        "error[config-error]: key 'body.distal.com_offset' must hold 3 value(s), got 2\n")
    assert (a / "error_config_negative_mass.stderr").read_text() == (
        "error[config-error]: body.terminal.mass must be positive\n")
    assert (a / "error_config_zero_tool_length.stderr").read_text() == (
        "error[config-error]: geometry.tool_length must be positive\n")
    assert (a / "error_config_infinite_mount_yaw.stderr").read_text() == (
        "error[config-error]: geometry.mount_yaw must be finite\n")
    # A joint force point, a key of an earlier joint model, is an unknown key.
    assert (a / "error_config_force_point.stderr").read_text() == (
        "error[config-error]: unknown key(s): body.terminal.point.joint_distal\n")
    # A config of the link and motor parameters alone takes the rest from the code.
    cfg_keys = {line.partition(" =")[0] for line in (a / "config_link_and_motor_only.cfg").read_text().splitlines()}
    assert {key.split(".")[0] for key in cfg_keys} == {"body", "motor", "gravity"}
    assert (a / "config_link_and_motor_only.stdout").read_text().startswith(
        "wrote 51 samples to config_link_and_motor_only.csv\n")
    assert len(list(a.glob("*.cfg"))) == 8
    assert len(list(a.glob("*.csv"))) == 46
    assert (a / "traj_30_0.25.stdout").read_text() == "wrote 21 samples to traj_30_0.25.csv\n"
    # A study that sets its own sample count keeps it.
    mixed = list(csv.reader((a / "sweep_mixed_radii.csv").open()))
    assert [row[1] for row in mixed[1:]] == ["1e+300", "0.1"] and mixed[1][6:10] == ["0"] * 4
    # The per-row API on the two semicircles, with and without a load: one
    # row per sample, every number %.17g, only the midpoint failing, refused
    # as type-II singular.
    for name in ("api_semicircle_0.25", "api_semicircle_0.25_load", "api_semicircle_0.1337",
                 "api_semicircle_0.1337_load"):
        rows = list(csv.reader((a / f"{name}.csv").open()))
        header, rows = rows[0], rows[1:]
        assert header[:8] == ["sample", "t", "tau[0]", "tau[1]", "power[0]", "power[1]", "residual", "balance"]
        assert len(header) == 34 and header[-1] == "error" and len(rows) == 21
        assert [row[0] for row in rows] == [str(i) for i in range(21)]
        failed = [row for row in rows if row[-1]]
        assert [row[0] for row in failed] == ["10"]
        assert failed[0][-1] == ("error[model-inconsistency]: the passive joint axes align;"
                                 " ideal joints cannot realize the motion at this sample")
        assert set(failed[0][2:-1]) == {""}
        for row in rows[:10]:
            assert all(repr(float(cell)) == repr(float("%.17g" % float(cell))) for cell in row[1:-1])
            assert float(row[7]) < 1e-6
        assert (a / f"{name}.stderr").read_text().startswith(
            f"error[model-inconsistency]: sample 10 (t = {float(failed[0][1]):.6g} s, v = (")
    # Gravity passed as a list is checked on every call, with the same bits.
    for suffix in (".csv", ".stderr"):
        assert (a / f"api_semicircle_0.25_gravity_list{suffix}").read_bytes() == \
            (a / f"api_semicircle_0.25{suffix}").read_bytes()

    # The own-rate load-free virtual-work pass of the 12 grid specs, the
    # tests' reference for the scaled route: one row per sample, every
    # number %.17g, so that a last-bit change shows.
    vw = sorted(a.glob("vw_*.csv"))
    grid = [f"vw_{g}_{r}" for g in ("30", "45", "60") for r in ("0.25", "0.15", "0.10", "0.05")]
    assert [p.stem for p in vw] == sorted(grid)
    for path in vw:
        rows = list(csv.reader(path.open()))
        assert rows[0][:3] == ["sample", "t", "theta1"] and rows[0][14:17] == ["tau0_1", "tau0_2", "g1_0"]
        assert len(rows[0]) == 22 and len(rows) == 22 and {len(row) for row in rows} == {22}
        assert all(cell == "%.17g" % float(cell) for row in rows[1:] for cell in row[1:])
    # The unit-rate pass of each grid cone angle, with and without the load,
    # and its rate and acceleration peaks, every number %.17g.
    unit = sorted(p.stem for p in a.glob("unit_*.csv"))
    assert unit == sorted(f"unit_{g}{suffix}" for g in ("30", "45", "60") for suffix in ("", "_load", "_peaks"))
    for g in ("30", "45", "60"):
        rows = [list(csv.reader((a / f"unit_{g}{suffix}.csv").open())) for suffix in ("", "_load")]
        for table in rows:
            assert table[0] == ["sample", "c1", "c2", "v1", "v2", "dtheta1", "dtheta2"] and len(table) == 22
            assert all(cell == "%.17g" % float(cell) for row in table[1:] for cell in row[1:])
        # The load moves c alone.
        assert [row[3:] for row in rows[0]] == [row[3:] for row in rows[1]] and rows[0] != rows[1]
        peaks = list(csv.reader((a / f"unit_{g}_peaks.csv").open()))
        assert [row[0] for row in peaks] == ["peak", "max_rates", "max_accels"] and {len(r) for r in peaks} == {5}

    same = run_snapshot_tool("--compare", a, a)
    assert (same.returncode, same.stdout) == (0, "215 files, 0 differ\n")
    shutil.copytree(a, b)
    (b / "fk.stdout").unlink()
    lines = (b / "sweep.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) + 0.5)
    lines[3] = ",".join(cells)
    (b / "sweep.csv").write_text("\n".join(lines) + "\n")
    error = (b / "api_semicircle_0.25.csv").read_text().replace("joint axes align;", "joint axes aligned;")
    (b / "api_semicircle_0.25.csv").write_text(error)
    changed = run_snapshot_tool("--compare", a, b)
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [f"only in {a}: fk.stdout", "differs: api_semicircle_0.25.csv: error: 1 cells",
                                           "differs: sweep.csv: P2_W: 1 cells, max |diff| 0.5, relative 0.00436",
                                           "215 files, 3 differ"]
