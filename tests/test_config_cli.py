import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sphwrist
from sphwrist import GRAVITY, TrajectorySpec, WristGeometry
from sphwrist.cli import build_parser, main, write_csv
from sphwrist.config import (config_from_text, default_config, default_config_text, load_config,
                             parse_config_text)
from sphwrist.errors import ConfigError
from sphwrist.trajectory import KIND_CIRCLE


def test_default_config_contents():
    config = default_config()
    assert [b.name for b in config.bodies] == ["terminal", "distal", "proximal-1", "proximal-2"]
    assert len(config.motors) == 2
    for m in config.motors:
        assert m.max_torque == 74.0
        assert m.continuous_torque == 23.0
        assert m.rotor_inertia == 0.00262
        assert m.nominal_speed == pytest.approx(2500.0 * math.pi / 30.0)
        assert m.max_speed == pytest.approx(6500.0 * math.pi / 30.0)
    np.testing.assert_allclose(config.gravity, [0.0, 0.0, -9.81])
    assert config.sample_count == 1001
    assert config.tool_speed == 1.0
    np.testing.assert_allclose(config.geometry.alpha, np.full(5, math.pi / 2.0))


def test_code_defaults_match_default_config():
    # WristGeometry(), the TrajectorySpec defaults and GRAVITY restate
    # default.cfg for callers that build them without a config.
    config = default_config()
    geometry = WristGeometry()
    for name in ("alpha", "home_thetas"):
        assert np.array_equal(getattr(geometry, name), getattr(config.geometry, name))
    assert geometry.tool_length == config.geometry.tool_length
    assert geometry.mount_yaw == config.geometry.mount_yaw
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=0.5)
    assert spec.tool_speed == config.tool_speed
    assert spec.sample_count == config.sample_count
    assert np.array_equal(GRAVITY, config.gravity)


def test_config_negative_mass_names_key():
    text = default_config_text().replace("body.terminal.mass = 0.80", "body.terminal.mass = -1.0")
    with pytest.raises(ConfigError, match="body.terminal"):
        config_from_text(text)


def test_config_missing_key_named():
    text = "\n".join(line for line in default_config_text().splitlines()
                     if not line.startswith("body.distal.mass"))
    with pytest.raises(ConfigError, match="body.distal.mass"):
        config_from_text(text)


def test_config_omitted_tool_speed_defaults_to_one():
    text = "\n".join(line for line in default_config_text().splitlines()
                     if not line.startswith("defaults.tool_speed"))
    assert config_from_text(text).tool_speed == 1.0


def test_config_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="mystery"):
        config_from_text(default_config_text() + "\nmystery.key = 1.0\n")
    # Only the points the assembly reads are accepted, so a misspelled or
    # misplaced point cannot silently sit at the wrist center.
    for key in ("body.terminal.point.joint_proximal", "body.distal.point.joint_base"):
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            config_from_text(default_config_text() + f"\n{key} = 0.0, 0.06, 0.0\n")
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_text(default_config_text() + "\ngravity = 0, 0, -9.81\n")


@pytest.mark.parametrize("old, new, key", [
    ("defaults.sample_count = 1001", "defaults.sample_count = nan", "defaults.sample_count"),
    ("defaults.sample_count = 1001", "defaults.sample_count = inf", "defaults.sample_count"),
    ("gravity = 0.0, 0.0, -9.81", "gravity = nan, 0, 0", "gravity"),
])
def test_config_non_finite_values_named(tmp_path, capsys, old, new, key):
    text = default_config_text().replace(old, new)
    with pytest.raises(ConfigError, match=key):
        config_from_text(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, _, err = run_cli(capsys, "--config", str(path), "fk", "--theta1", "0", "--theta3", "0")
    assert code == 1
    assert err.startswith("error[config-error]") and key in err


def test_config_sample_count_bounded():
    text = default_config_text().replace("defaults.sample_count = 1001", "defaults.sample_count = 1e12")
    with pytest.raises(ConfigError, match="'defaults.sample_count' must be an integer from 3 to 1000000"):
        config_from_text(text)


def test_config_parse_errors_carry_line_numbers(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        config_from_text("gravity = 0, 0, -9.81\nnot a key value line\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        config_from_text("gravity = a, b, c\n")
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg")


def test_config_not_utf8_is_one_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"gravity = 0,0,-9.81\n\xff\n")
    with pytest.raises(ConfigError, match="not UTF-8 text: byte 0xff at offset 20"):
        load_config(path)
    code, out, err = run_cli(capsys, "--config", str(path), "fk", "--theta1", "0", "--theta3", "0")
    assert (code, out) == (1, "")
    assert err == f"error[config-error]: config file {path} is not UTF-8 text: byte 0xff at offset 20\n"


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_config_not_a_regular_file_is_one_config_error(tmp_path, capsys, kind):
    path = tmp_path / "params.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        os.mkfifo(path)
    code, out, err = run_cli(capsys, "--config", str(path), "fk", "--theta1", "0", "--theta3", "0")
    assert (code, out) == (1, "")
    assert err == f"error[config-error]: cannot read config file {path}: not a regular file\n"


def test_config_wrong_arity_named():
    text = default_config_text().replace("gravity = 0.0, 0.0, -9.81", "gravity = 0.0, -9.81")
    with pytest.raises(ConfigError, match="gravity"):
        config_from_text(text)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(default_config_text())
    config = load_config(path)
    assert next(b for b in config.bodies if b.name == "distal").mass == 0.45


def test_default_config_is_one_shared_read_only_config(tmp_path):
    config = default_config()
    assert default_config() is config
    assert isinstance(config.bodies, tuple)
    with pytest.raises(ValueError):
        config.gravity[2] = 0.0
    with pytest.raises(TypeError):
        config.bodies[0].force_points["joint_distal"] = np.zeros(3)
    arrays = [config.gravity, config.geometry.alpha, config.geometry.home_thetas]
    for body in config.bodies:
        arrays += [body.com_offset, body.inertia, body.inertia_center, *body.force_points.values()]
    assert not any(a.flags.writeable for a in arrays)
    # load_config reads its file again on every call.
    path = tmp_path / "params.cfg"
    path.write_text(default_config_text())
    assert load_config(path).bodies[1].mass == 0.45
    path.write_text(default_config_text().replace("body.distal.mass = 0.45", "body.distal.mass = 0.5"))
    assert load_config(path).bodies[1].mass == 0.5
    assert default_config().bodies[1].mass == 0.45


_DEFAULT_ENTRIES = parse_config_text(default_config_text())
# A value is the rest of its line, so drawn text holds no line break.
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
_BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]) | st.floats(max_value=0.0, exclude_max=True)


@st.composite
def _bad_entry(draw):
    """A key of default.cfg and a bad value for it: one of its numbers
    replaced by nan, an infinity, zero, a negative number or text, or the
    wrong number of values."""
    key = draw(st.sampled_from(sorted(_DEFAULT_ENTRIES)))
    values = [repr(v) for v in _DEFAULT_ENTRIES[key]]
    kind = draw(st.sampled_from(["number", "text", "count"]))
    if kind == "count":
        drawn = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8)
        return key, [repr(v) for v in draw(drawn.filter(lambda v: len(v) != len(values)))]
    i = draw(st.integers(0, len(values) - 1))
    values[i] = repr(draw(_BAD_NUMBERS)) if kind == "number" else draw(_LINE_TEXT)
    return key, values


@settings(max_examples=300, deadline=None)
@given(entry=_bad_entry())
@example(entry=("body.terminal.mass", ["-0.0"]))
@example(entry=("motor.2.continuous_torque", ["inf"]))
@example(entry=("geometry.alpha", ["nan"] * 5))
@example(entry=("body.terminal.point.joint_distal", ["0.0", "#", "-0.07"]))
@example(entry=("gravity", []))
@example(entry=("body.distal.com_offset", ["-1e300", "0.055", "-0.035"]))
def test_config_bad_values_name_their_key(tmp_path_factory, entry):
    key, values = entry
    lines = [f"{key} = {', '.join(values)}" if line.partition("=")[0].strip() == key else line
             for line in default_config_text().splitlines()]
    text = "\n".join(lines) + "\n"
    try:
        config = config_from_text(text)
        rejected = None
        # Values that pass one by one must not overflow together.
        assert all(np.isfinite(b.inertia_center).all() for b in config.bodies)
    except ConfigError as exc:
        rejected = str(exc)
        assert key in rejected, rejected
    path = tmp_path_factory.mktemp("fuzz") / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(path), "fk", "--theta1", "10", "--theta3", "20"])
    err = stderr.getvalue()
    if rejected is not None:
        assert (code, stdout.getvalue(), err) == (1, "", f"error[config-error]: {rejected}\n")
    else:
        assert code == 0 and err == "" or code == 1 and err.count("\n") == 1 and "config-error" not in err, err


# --- CLI ----------------------------------------------------------------------

def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_ik_prints_joint_angles(capsys):
    code, out, _ = run_cli(capsys, "ik", "--v", "0.5,0.2,-0.8")
    assert code == 0
    for name in ("theta1_deg", "theta2_deg", "theta3_deg", "theta4_deg", "pan_deg", "tilt_deg"):
        assert name in out


def test_cli_ik_pan_tilt_input(capsys):
    code, out, _ = run_cli(capsys, "ik", "--pan", "30", "--tilt", "-45")
    assert code == 0
    assert "theta4_deg" in out


def test_cli_ik_vertical_axis_is_singular(capsys):
    code, _, err = run_cli(capsys, "ik", "--v", "0,0,1")
    assert code != 0
    assert "singular-orientation" in err


def test_cli_ik_missing_arguments(capsys):
    code, _, err = run_cli(capsys, "ik")
    assert code != 0
    assert "error[" in err


def test_cli_fk_home(capsys):
    code, out, _ = run_cli(capsys, "fk", "--theta1", "-90", "--theta3", "90")
    assert code == 0
    values = [float(p) for p in out.split("=", 1)[1].split(",")]
    np.testing.assert_allclose(values, [0.0, 0.0, -1.0], atol=1e-12)


def test_cli_traj_writes_profile_csv(tmp_path, capsys):
    out_file = tmp_path / "profile.csv"
    code, _, _ = run_cli(capsys, "traj", "--traj", "circle", "--gamma", "45",
                         "--radius", "0.25", "--samples", "101", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["t_s", "theta1_rad"]
    assert "ddtheta4_rad_s2" in lines[0]
    assert len(lines) == 102


def test_cli_traj_deterministic(tmp_path, capsys):
    args = ("traj", "--traj", "semicircle", "--radius", "0.2", "--samples", "51")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_dynamics_flags_continuous_torque(tmp_path, capsys):
    out_file = tmp_path / "dyn.csv"
    code, out, _ = run_cli(capsys, "dynamics", "--traj", "circle", "--gamma", "45",
                           "--radius", "0.15", "--samples", "101",
                           "--fc", "150", "--lc", "0.15", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t_s,tau1_Nm,tau2_Nm,tau1_shaft_Nm,tau2_shaft_Nm,P1_W,P2_W"
    shaft1 = [abs(float(line.split(",")[3])) for line in lines[1:]]
    flagged = "exceeds-continuous = yes" in out
    assert flagged == (max(shaft1) > 23.0)
    assert flagged  # 150 N at 0.15 m lever exceeds the continuous rating


def test_cli_dynamics_no_load_not_flagged(tmp_path, capsys):
    out_file = tmp_path / "dyn0.csv"
    code, out, _ = run_cli(capsys, "dynamics", "--traj", "circle", "--gamma", "45",
                           "--radius", "0.25", "--samples", "101", "--out", str(out_file))
    assert code == 0
    assert "exceeds-continuous = no" in out


def test_cli_dynamics_names_failing_sample(tmp_path, capsys):
    # The semicircle's midpoint is a wrist singularity: no ideal-joint torques
    # realize the motion there.
    code, _, err = run_cli(capsys, "dynamics", "--traj", "semicircle", "--radius", "0.25",
                           "--out", str(tmp_path / "dyn.csv"))
    assert code == 1
    assert err.startswith("error[model-inconsistency]: sample 500 (t = 0.261799 s): ")
    assert len(err.splitlines()) == 1


def test_cli_sweep_emits_reference_grid(tmp_path, capsys):
    out_file = tmp_path / "peaks.csv"
    code, _, _ = run_cli(capsys, "sweep", "--gamma", "30,45,60",
                         "--radius", "0.05,0.10,0.15,0.25", "--samples", "101",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 13  # header + 12 grid rows
    assert lines[0].startswith("gamma_deg,radius_m,max_dtheta1_rad_s")
    first = lines[1].split(",")
    assert float(first[0]) == 30.0
    assert float(first[1]) == 0.05


def test_cli_sweep_deterministic(tmp_path, capsys):
    args = ("sweep", "--gamma", "45", "--radius", "0.25", "--samples", "51")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_force_sweep(tmp_path, capsys):
    out_file = tmp_path / "force.csv"
    code, _, _ = run_cli(capsys, "force-sweep", "--gamma", "45", "--radius", "0.15",
                         "--fc", "0,50,100", "--lc", "0.11", "--samples", "51",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "Fc_N,T1_Nm,T2_Nm,P1_W,P2_W"
    assert len(lines) == 4
    torques = [float(line.split(",")[1]) for line in lines[1:]]
    assert torques == sorted(torques)


def test_cli_motor_check(capsys):
    code, out, _ = run_cli(capsys, "motor-check", "--gamma", "45,60",
                           "--radius", "0.05,0.25", "--samples", "101")
    assert code == 0
    assert out.count("continuous-ok") == 2
    assert "actuator 1" in out and "actuator 2" in out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("geometry.alpha = 1, 2\n")
    code, _, err = run_cli(capsys, "--config", str(bad), "fk", "--theta1", "0", "--theta3", "0")
    assert code == 1
    assert "error[config-error]" in err


def test_cli_invalid_gamma_category(tmp_path, capsys):
    code, _, err = run_cli(capsys, "traj", "--traj", "circle", "--gamma", "0",
                           "--radius", "0.1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "error[invalid-spec]" in err


@pytest.mark.parametrize("argv, option", [
    (("sweep", "--gamma", "a", "--radius", "0.1"), "--gamma"),
    (("sweep", "--gamma", "45", "--radius", "0.1,,"), "--radius"),
    (("sweep", "--gamma", "", "--radius", "0.1"), "--gamma"),
    (("motor-check", "--gamma", "45", "--radius", "x"), "--radius"),
    (("force-sweep", "--gamma", "45", "--radius", "0.1", "--fc", "0,ten"), "--fc"),
    (("ik", "--v", "1,2"), "--v"),
    (("ik", "--v", "1,b,0"), "--v"),
])
def test_cli_bad_number_list_names_option(capsys, argv, option):
    # Parsing fails before any output file is opened.
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error[invalid-input]: ") and option in err
    assert err.count("\n") == 1


def test_write_csv_matches_per_value_format(tmp_path):
    # Row-at-a-time formatting against formatting each value on its own.
    rng = np.random.default_rng(0)
    rows = [[-0.0, 5e-324, 1e-300, 1.7e308, 3, -12],
            [0.0, -5e-324, 123456789012345, 1e16, 0.1, 2.5]]
    rows += (rng.standard_normal((200, 6)) * 10.0 ** rng.integers(-300, 300, (200, 6))).tolist()
    header = [f"c{i}" for i in range(6)]
    path = tmp_path / "x.csv"
    write_csv(path, header, rows)
    expected = [",".join(header)] + [",".join(format(float(x), ".12g") for x in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_text().splitlines()[1] == "-0,4.94065645841e-324,1e-300,1.7e+308,3,-12"


def test_cli_huge_sample_count_is_one_error(tmp_path, capsys, monkeypatch):
    # The spec rejects the count before any path is generated.
    def fail(spec):
        raise AssertionError("generated a path")
    monkeypatch.setattr(sphwrist.trajectory, "traj_circle", fail)
    monkeypatch.setattr(sphwrist.trajectory, "traj_semicircle", fail)
    code, out, err = run_cli(capsys, "traj", "--gamma", "45", "--radius", "0.1",
                             "--samples", "1000000000000", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == "error[invalid-spec]: sample_count must be an integer from 3 to 1000000\n"
    assert not (tmp_path / "x.csv").exists()


def test_cli_unwritable_output_path(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "x.csv"
    code, _, err = run_cli(capsys, "traj", "--traj", "circle", "--gamma", "45", "--radius", "0.25",
                           "--samples", "11", "--out", str(path))
    assert code == 1
    assert err.startswith("error[io-error]: ") and str(path) in err
    assert "Traceback" not in err


def run_module(*argv):
    """``python -m sphwrist.cli`` in a separate interpreter."""
    src = str(Path(sphwrist.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "sphwrist.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_cli_usage_errors_end_in_one_error_line(capsys):
    proc = run_module("traj", "--radius", "abc")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error[invalid-input]: sphwrist traj: argument --radius: invalid float value: 'abc'\n"
    for argv in [("traj",), (), ("bogus",), ("traj", "--radius", "0.1", "--traj", "line"),
                 ("sweep", "--gamma", "45", "--radius", "0.1", "--extra", "1")]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error[invalid-input]: sphwrist") and err.count("\n") == 1, err
    proc = run_module("traj", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: sphwrist traj ")


def test_cli_reused_parser_matches_a_fresh_interpreter(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a usage error, --help and two
    # runs through that one parser print and write what a fresh
    # interpreter does for each command.
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "100")  # --help wraps to the terminal width
    argv = ("traj", "--radius", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error[invalid-input]: sphwrist traj: argument --radius: invalid float value: 'abc'\n"
    proc = run_module(*argv)
    assert (proc.returncode, proc.stderr) == (code, err)
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    proc = run_module("--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    for argv in [("traj", "--gamma", "45", "--radius", "0.1", "--samples", "51"),
                 ("sweep", "--gamma", "30,45", "--radius", "0.25,0.1", "--samples", "51")]:
        here, fresh = tmp_path / f"{argv[0]}_here.csv", tmp_path / f"{argv[0]}_fresh.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(here))
        proc = run_module(*argv, "--out", str(fresh))
        assert (code, err) == (proc.returncode, proc.stderr) == (0, "")
        assert out.replace(str(here), "OUT") == proc.stdout.replace(str(fresh), "OUT")
        assert here.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (("dynamics", "--traj", "circle", "--gamma", "45", "--radius", "0.1", "--speed", "1e150"),
     "output P1_W is inf at row 0"),
    (("traj", "--radius", "1e-300", "--gamma", "45"), "profile accels must hold finite values"),
    (("dynamics", "--radius", "0.1", "--gamma", "45", "--fc", "1e200", "--lc", "1e200"),
     "torque and acceleration must be finite"),
])
def test_cli_overflow_ends_in_one_error_line(tmp_path, argv, message):
    # A separate interpreter, so that numpy warnings reach stderr as they
    # would from the command line.
    out = tmp_path / "x.csv"
    proc = run_module(*argv, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[invalid-input]: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, column", [
    (("dynamics", "--gamma", "45", "--radius", "0.1", "--samples", "21"), "tau1_shaft_Nm"),
    (("motor-check", "--gamma", "45", "--radius", "0.1", "--samples", "21"), "T1_Nm"),
])
def test_cli_reflected_inertia_overflow_is_one_error(tmp_path, monkeypatch, capsys, argv, column):
    # The square of this ratio overflows; the shaft torque becomes inf.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "ratio.cfg"
    path.write_text(default_config_text().replace("motor.1.reduction_ratio = 1.0", "motor.1.reduction_ratio = 1e200"))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 1 and out == "" and not any(tmp_path.glob("*.csv"))
    assert err == f"error[invalid-input]: output {column} is inf at row 0; the inputs overflow double precision\n"


def test_cli_sweep_nan_gamma_says_finite(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--gamma", "45,nan", "--radius", "0.1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err == "error[invalid-spec]: gamma must be finite, got nan\n"


# Wide draws: tiny, huge, negative and non-finite values, plus ordinary ones.
_WIDE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 1e300, -1e-300, -1e300, 5e-324, 1.7e308, 0.0, -0.0]),
    st.floats(min_value=-200.0, max_value=200.0),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["traj", "dynamics"]),
    kind=st.sampled_from(["circle", "semicircle"]),
    samples=st.integers(min_value=3, max_value=41),
    values=st.fixed_dictionaries({}, optional={name: _WIDE for name in ("radius", "gamma", "speed", "fc", "lc")}),
)
@example(command="dynamics", kind="circle", samples=11, values={"radius": 0.1, "gamma": 45.0, "speed": 1e150})
@example(command="traj", kind="circle", samples=11, values={"radius": 1e-300, "gamma": 45.0})
@example(command="dynamics", kind="circle", samples=11, values={"radius": 0.1, "gamma": 45.0, "fc": 1e200, "lc": 1e200})
def test_cli_any_numbers_end_in_output_or_one_error(tmp_path_factory, command, kind, samples, values):
    out = tmp_path_factory.mktemp("fuzz") / "x.csv"
    values = {"radius": 0.1, **values}
    if command == "traj":
        values = {k: v for k, v in values.items() if k not in ("fc", "lc")}
    argv = [command, "--traj", kind, "--samples", str(samples), "--out", str(out)]
    argv += [f"--{name}={value!r}" for name, value in values.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    if code == 1:
        assert err.startswith("error[") and err.count("\n") == 1, err
        return
    assert code == 0 and err == ""
    csv = out.read_text()
    text = csv + stdout.getvalue().replace(str(out), "")
    assert "inf" not in text and "nan" not in text
    assert len(csv.splitlines()) == samples + 1


def _number_list(values):
    return ",".join(repr(v) for v in values)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["sweep", "force-sweep", "motor-check"]),
    samples=st.integers(min_value=3, max_value=41),
    # Wide draws mixed with values of the paper's range, so that whole
    # lists of valid values, and so finished studies, are drawn too.
    gammas=st.lists(_WIDE | st.floats(1.0, 89.0), min_size=1, max_size=3),
    radii=st.lists(_WIDE | st.floats(0.02, 1.0), min_size=1, max_size=3),
    forces=st.lists(_WIDE | st.floats(0.0, 300.0), min_size=1, max_size=4),
    lever=st.none() | _WIDE | st.floats(0.0, 0.5),
)
@example(command="force-sweep", samples=11, gammas=[45.0], radii=[0.1], forces=[0.0, 1e300], lever=1e300)
@example(command="sweep", samples=11, gammas=[45.0, 30.0], radii=[1e-300, 0.1], forces=[0.0], lever=None)
@example(command="sweep", samples=11, gammas=[45.0, 30.0], radii=[0.25, 0.1], forces=[0.0], lever=None)
@example(command="motor-check", samples=11, gammas=[45.0], radii=[1e300], forces=[1e200], lever=1e200)
def test_cli_number_lists_end_in_output_or_one_error(tmp_path_factory, command, samples, gammas, radii, forces,
                                                     lever):
    # force-sweep takes one cone angle and radius and a list of forces;
    # sweep and motor-check take lists of cone angles and radii, and
    # motor-check one force.
    out = tmp_path_factory.mktemp("fuzz") / "x.csv"
    argv = [command, "--samples", str(samples)]
    if command == "force-sweep":
        argv += [f"--gamma={gammas[0]!r}", f"--radius={radii[0]!r}", f"--fc={_number_list(forces)}"]
        rows = len(forces)
    else:
        argv += [f"--gamma={_number_list(gammas)}", f"--radius={_number_list(radii)}"]
        rows = len(gammas) * len(radii)
    if command == "motor-check":
        argv.append(f"--fc={forces[0]!r}")
    else:
        argv += ["--out", str(out)]
    if lever is not None and command != "sweep":
        argv.append(f"--lc={lever!r}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    if code == 1:
        assert err.startswith("error[") and err.count("\n") == 1, err
        return
    assert code == 0 and err == ""
    text = stdout.getvalue().replace(str(out), "")
    if command == "motor-check":
        assert len(text.splitlines()) == 2
    else:
        csv = out.read_text()
        assert len(csv.splitlines()) == rows + 1
        text += csv
    assert not re.search(r"\b(inf|nan)\b", text), text
