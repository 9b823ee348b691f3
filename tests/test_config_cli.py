import contextlib
import dataclasses
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
from hypothesis.extra.numpy import arrays

import sphwrist
from sphwrist import GRAVITY, TrajectorySpec, WristGeometry
from sphwrist.cli import build_parser, main, write_csv
from sphwrist.config import (config_from_text, default_config, default_config_text, load_config,
                             parse_config_text)
from sphwrist.dynamics import BODY_NAMES
from sphwrist.errors import ConfigError, InvalidInputError
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
    # default.cfg leaves the geometry, gravity and run defaults to the code, so
    # WristGeometry(), the TrajectorySpec defaults and GRAVITY are the values
    # of default_config() for callers that build them without a config.
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
    text = default_config_text() + "defaults.tool_speed = 2.5\n"
    assert config_from_text(text).tool_speed == 2.5
    text = "\n".join(line for line in text.splitlines() if not line.startswith("defaults.tool_speed"))
    assert config_from_text(text).tool_speed == 1.0


def test_config_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="mystery"):
        config_from_text(default_config_text() + "\nmystery.key = 1.0\n")
    # Every joint force acts at the wrist center, so a joint point is no key,
    # and neither is the home configuration, which nothing reads.
    for key, value in (("body.terminal.point.joint_distal", "0.0, 0.0, -0.07"),
                       ("body.proximal-1.point.joint_base", "0.0, 0.06, 0.0"),
                       ("geometry.home_thetas", "-1.0, 1.0, 1.0, -1.0")):
        with pytest.raises(ConfigError, match=f"^unknown key\\(s\\): {re.escape(key)}$"):
            config_from_text(default_config_text() + f"\n{key} = {value}\n")
    text = default_config_text() + "\ngravity = 0, 0, -9.81\n"
    assert np.array_equal(config_from_text(text).gravity, [0.0, 0.0, -9.81])
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_text(text + "gravity = 0, 0, -9.81\n")


@pytest.mark.parametrize("old, new, key", [
    ("defaults.sample_count = 1001", "defaults.sample_count = nan", "defaults.sample_count"),
    ("defaults.sample_count = 1001", "defaults.sample_count = inf", "defaults.sample_count"),
    ("gravity = 0.0, 0.0, -9.81", "gravity = nan, 0, 0", "gravity"),
])
def test_config_non_finite_values_named(tmp_path, capsys, old, new, key):
    # The key is set in the text, then given the bad value.
    text = default_config_text() + f"{old}\n"
    config_from_text(text)
    text = text.replace(old, new)
    with pytest.raises(ConfigError, match=key):
        config_from_text(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, _, err = run_cli(capsys, "--config", str(path), "fk", "--theta1", "0", "--theta3", "0")
    assert code == 1
    assert err.startswith("error[config-error]") and key in err


def test_config_sample_count_bounded():
    text = default_config_text() + "defaults.sample_count = 1e12\n"
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
    text = default_config_text() + "gravity = 0.0, -9.81\n"
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
    arrays = [config.gravity, config.geometry.alpha, config.geometry.home_thetas]
    for body in config.bodies:
        arrays += [body.com_offset, body.inertia, body.inertia_center]
    assert not any(a.flags.writeable for a in arrays)
    # load_config reads its file again on every call.
    path = tmp_path / "params.cfg"
    path.write_text(default_config_text())
    assert load_config(path).bodies[1].mass == 0.45
    path.write_text(default_config_text().replace("body.distal.mass = 0.45", "body.distal.mass = 0.5"))
    assert load_config(path).bodies[1].mass == 0.5
    assert default_config().bodies[1].mass == 0.45


# The shipped values of the keys that default.cfg leaves to the code.
_CODE_VALUES = {
    "geometry.alpha": [1.5707963267948966] * 5,
    "geometry.tool_length": [0.11],
    "geometry.mount_yaw": [0.7853981633974483],
    "gravity": [0.0, 0.0, -9.81],
    "defaults.sample_count": [1001.0],
    "defaults.tool_speed": [1.0],
}


def _config_line(key, values):
    return f"{key} = {', '.join(map(repr, values))}\n"


def _config_numbers(config):
    """Every number of a config, as float lists by config key (a body's mass,
    center of mass, inertia and inertia about the wrist center under its
    name, a motor's six numbers under its)."""
    numbers = {f"geometry.{name}": np.ravel(getattr(config.geometry, name)).tolist()
               for name in ("alpha", "tool_length", "mount_yaw")}
    for body in config.bodies:
        numbers[f"body.{body.name}"] = [body.mass, *body.com_offset.tolist(), *body.inertia.ravel().tolist(),
                                        *body.inertia_center.ravel().tolist()]
    for i, motor in enumerate(config.motors, start=1):
        numbers[f"motor.{i}"] = [getattr(motor, f.name) for f in dataclasses.fields(motor)]
    return numbers | {"gravity": config.gravity.tolist(), "defaults.sample_count": [config.sample_count],
                      "defaults.tool_speed": [config.tool_speed]}


def test_config_of_link_and_motor_keys_takes_the_code_values():
    text = "".join(f"{line}\n" for line in default_config_text().splitlines() if line.startswith(("body.", "motor.")))
    assert parse_config_text(text) == parse_config_text(default_config_text())
    numbers = _config_numbers(config_from_text(text))
    assert numbers == _config_numbers(default_config())
    assert {key: numbers[key] for key in _CODE_VALUES} == _CODE_VALUES
    # Each of those keys, when given, overrides the code's value and nothing else.
    overrides = {
        "geometry.alpha": [1.5, 1.4, 1.3, 1.2, 1.1],
        "geometry.tool_length": [0.2],
        "geometry.mount_yaw": [0.5],
        "gravity": [0.0, -9.81, 0.0],
        "defaults.sample_count": [501.0],
        "defaults.tool_speed": [0.5],
    }
    assert overrides.keys() == _CODE_VALUES.keys()
    for key, values in overrides.items():
        assert _config_numbers(config_from_text(text + _config_line(key, values))) == numbers | {key: values}


# default.cfg with the keys it leaves to the code written in at their values:
# every key the loader reads.
_FULL_TEXT = default_config_text() + "".join(_config_line(key, values) for key, values in _CODE_VALUES.items())
_DEFAULT_ENTRIES = parse_config_text(_FULL_TEXT)
# A value is the rest of its line, so drawn text holds no line break.
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
_BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]) | st.floats(max_value=0.0, exclude_max=True)


@st.composite
def _bad_entry(draw):
    """A key the loader reads and a bad value for it: one of its numbers
    replaced by nan, an infinity, zero, a negative number or text, the wrong
    number of values, or the key left out (``None``)."""
    key = draw(st.sampled_from(sorted(_DEFAULT_ENTRIES)))
    values = [repr(v) for v in _DEFAULT_ENTRIES[key]]
    kind = draw(st.sampled_from(["number", "text", "count", "left out"]))
    if kind == "left out":
        return key, None
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
@example(entry=("body.terminal.com_offset", ["0.0", "#", "0.05"]))
@example(entry=("gravity", []))
@example(entry=("body.distal.com_offset", ["-1e300", "0.055", "-0.035"]))
# A valid number above max_speed: the error names the key that holds it.
@example(entry=("motor.1.nominal_speed", ["700"]))
@example(entry=("motor.1.max_torque", None))
@example(entry=("geometry.alpha", None))
@example(entry=("body.terminal.com_offset", None))
@example(entry=("body.distal.com_offset", ["0.0", "0.055"]))
def test_config_bad_values_name_their_key(tmp_path_factory, entry):
    assert len(_DEFAULT_ENTRIES) == 30
    key, values = entry
    lines = []
    for line in _FULL_TEXT.splitlines():
        if line.partition("=")[0].strip() != key:
            lines.append(line)
        elif values is not None:
            lines.append(f"{key} = {', '.join(values)}")
    text = "\n".join(lines) + "\n"
    try:
        config = config_from_text(text)
        rejected = None
        # Values that pass one by one must not overflow together.
        assert all(np.isfinite(b.inertia_center).all() for b in config.bodies)
    except ConfigError as exc:
        rejected = str(exc)
        assert key in rejected, rejected
    if values is None:
        # Only the link and motor parameters are required.
        required = key.startswith(("body.", "motor."))
        assert rejected == (f"missing required key {key!r}" if required else None)
    elif rejected is None or "non-numeric" not in rejected:
        # The text parses, so the key holds numbers: a wrong count of them is
        # reported as such, with the key named once.
        length, count = len(_DEFAULT_ENTRIES[key]), len(parse_config_text(text)[key])
        assert count == length or rejected == f"key {key!r} must hold {length} value(s), got {count}"
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
    for argv in (("ik",), ("ik", "--pan", "20"), ("ik", "--tilt", "-45")):
        assert run_cli(capsys, *argv) == (
            1, "", "error[invalid-input]: provide either --v x,y,z or both --pan and --tilt (degrees)\n")


def test_cli_ik_v_is_checked_finite_and_scaled(capsys):
    assert run_cli(capsys, "ik", "--v", "nan,0,1") == (1, "", "error[invalid-input]: tool orientation must be finite\n")
    # Components whose plain norm overflows give the same answer as their
    # scaled-down direction.
    huge = run_cli(capsys, "ik", "--v", "0,-1e308,-1e308")
    assert huge[0] == 0 and huge == run_cli(capsys, "ik", "--v", "0,-1,-1")


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


def test_cli_traj_runs_one_traced_profile_stage(tmp_path, monkeypatch):
    # traj reaches the profile stage through the public
    # trajectory_joint_profiles, so the benchmark's tracer records one
    # kinematics.profiles span inside each cli.main span.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    argvs = [("traj", "--traj", "circle", "--gamma", "45", "--radius", "0.25", "--samples", "101"),
             ("traj", "--traj", "semicircle", "--radius", "0.2", "--samples", "51")]
    with spans.traced(spans.Tracer()) as tracer:
        for i, argv in enumerate(argvs):
            assert sphwrist.cli.main([*argv, "--out", str(tmp_path / f"{i}.csv")]) == 0
    calls = [i for i, span in enumerate(tracer.spans) if span[0] == "cli.main"]
    assert len(calls) == len(argvs)
    profiles = [span[3] for span in tracer.spans if span[0] == "kinematics.profiles"]
    assert profiles == calls


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
    assert err.startswith("error[model-inconsistency]: sample 500 (t = 0.261799 s, v = (")
    assert len(err.splitlines()) == 1


def test_cli_profile_error_names_time_and_direction(tmp_path, capsys):
    # A non-finite profile value is named as a failing torque sample is:
    # index, time and tool direction.
    with np.errstate(all="ignore"):
        code, _, err = run_cli(capsys, "traj", "--radius", "1e-300", "--gamma", "45", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err == ("error[invalid-input]: sample 0 (t = 0 s, v = (0.707107, 0, -0.707107)): "
                   "profile accels must hold finite values\n")


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


def _per_value_csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(format(x, ".12g") for x in row) for row in rows]) + "\n"


def _signed(*values):
    # A two-column table of each value and its negative.
    values = np.array(values, dtype=float)
    return np.column_stack([values, -values])


@settings(max_examples=60, deadline=None)
@given(rows=arrays(np.float64, st.tuples(st.integers(1, 600), st.integers(1, 15)),
                   elements=st.floats(allow_nan=False, allow_infinity=False)))
# Near-ties and the edges of the decade, where one scaling is not enough;
# each side of every power of ten the fixed notation reaches; the ends of
# the fixed notation and the float range.
@example(rows=_signed(9.999999999995, *((1e12 - 0.5) * 10.0 ** k for k in range(-17, 3))))
@example(rows=_signed(*(np.nextafter(10.0 ** k, d) for k in range(-6, 14) for d in (0.0, np.inf))))
@example(rows=_signed(1e-4, 9.99999999999e-5, 1e11, 999999999999.5, 2.0 ** 53))
@example(rows=_signed(-0.0, 5e-324, 1.7976931348623157e308))
def test_write_csv_matches_format_on_any_finite_table(tmp_path_factory, rows):
    # Up to 600 rows, so that tables cross the writer's 256-row blocks.
    header = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    write_csv(path, header, rows)
    assert path.read_text() == _per_value_csv(header, rows.tolist())


@pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
def test_write_csv_zero_rows_writes_the_header(tmp_path, rows):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c"], rows)
    assert path.read_text() == "a,b,c\n"


def test_write_csv_non_finite_table_writes_no_file(tmp_path):
    path = tmp_path / "x.csv"
    rows = np.ones((300, 2))
    rows[270, 1] = -np.inf
    with pytest.raises(InvalidInputError) as raised:
        write_csv(path, ["a", "b"], rows)
    assert raised.value.category == "invalid-input"
    assert str(raised.value) == "output b is -inf at row 270; the inputs overflow double precision"
    assert not path.exists()


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
    pytest.param(("dynamics", "--traj", "circle", "--gamma", "45", "--radius", "0.1", "--speed", "1e150"),
                 "sample 0 (t = 0 s, v = (0.707107, 3.43701e-16, -0.707107)): P1_W is inf;", id="dynamics-speed"),
    (("traj", "--radius", "1e-300", "--gamma", "45"), "profile accels must hold finite values"),
    pytest.param(("traj", "--gamma", "60", "--radius", "1e-308", "--speed", "1.5"),
                 "sample 69 (t = 2.89027e-309 s, v = (0.785905, 0.363805, -0.5)): profile rates must hold finite values",
                 id="traj-rates"),
    pytest.param(("sweep", "--gamma", "60", "--radius", "1e-308", "--speed", "1.5"),
                 "spec (kind=circle-XY, gamma=60 deg, R=1e-308): sample 0 (t = 0 s, v = (0.866025, 1.89012e-16,"
                 " -0.5)): ddtheta1_rad_s2 is inf;", id="sweep-rates"),
    pytest.param(("dynamics", "--radius", "0.1", "--gamma", "45", "--fc", "1e200", "--lc", "1e200"),
                 "sample 0 (t = 0 s, v = (0.707107, 3.43701e-16, -0.707107)): tau1_Nm is inf;", id="dynamics-load"),
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
    # The square of this ratio overflows; the shaft torque becomes inf.  The
    # error names the sample, and for a peak the spec ahead of it.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "ratio.cfg"
    path.write_text(default_config_text().replace("motor.1.reduction_ratio = 1.0", "motor.1.reduction_ratio = 1e200"))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 1 and out == "" and not any(tmp_path.glob("*.csv"))
    spec = "" if argv[0] == "dynamics" else "spec (kind=circle-XY, gamma=45 deg, R=0.1): "
    where = f"{spec}sample 0 (t = 0 s, v = (0.707107, 3.43701e-16, -0.707107)): {column} is inf"
    assert err == f"error[invalid-input]: {where}; the inputs overflow double precision\n"


@pytest.mark.parametrize("argv, line", [
    (("fk", "--theta1", "nan", "--theta3", "0"), "error[invalid-input]: --theta1 must be finite\n"),
    (("fk", "--theta1", "0", "--theta3=-inf"), "error[invalid-input]: --theta3 must be finite\n"),
    (("motor-check", "--gamma", "45", "--radius", "0.1", "--fc", "inf", "--lc", "0.11"),
     "error[invalid-input]: --fc must be finite\n"),
    (("dynamics", "--gamma", "45", "--radius", "0.1", "--fc", "nan", "--out", "x.csv"),
     "error[invalid-input]: --fc must be finite\n"),
    (("force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", "0,25", "--lc", "-1", "--out", "x.csv"),
     "error[invalid-input]: lever must be non-negative\n"),
    (("force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", "0,nan", "--out", "x.csv"),
     "error[invalid-input]: --fc must be finite\n"),
    (("force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", "0,inf", "--out", "x.csv"),
     "error[invalid-input]: --fc must be finite\n"),
])
def test_cli_non_finite_option_names_the_option(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (1, "", line)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("dynamics", "--gamma", "45", "--radius", "0.1", "--fc", "-5", "--out", "x.csv"),
    ("motor-check", "--gamma", "45", "--radius", "0.1", "--fc", "-5"),
    ("force-sweep", "--gamma", "45", "--radius", "0.1", "--fc", "0,-5", "--out", "x.csv"),
])
def test_cli_negative_force_component_is_refused(tmp_path, monkeypatch, capsys, argv):
    # --fc is a cutting-force component magnitude in all three commands, and
    # each of its values is checked by one rule.
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (1, "", "error[invalid-input]: --fc must be non-negative\n")
    assert not any(tmp_path.iterdir())


def test_cli_studies_read_the_config_gravity(tmp_path, monkeypatch, capsys):
    # sweep, force-sweep and motor-check take the config's gravity, as
    # dynamics does: under each config, every study's peak shaft torques are
    # the peaks that dynamics prints for the same spec.
    monkeypatch.chdir(tmp_path)
    Path("g0.cfg").write_text(default_config_text() + "gravity = 0.0, 0.0, 0.0\n")
    spec = ("--gamma", "45", "--radius", "0.15", "--samples", "51")
    peaks = []
    for config in ([], ["--config", "g0.cfg"]):
        code, out, _ = run_cli(capsys, *config, "dynamics", *spec, "--out", "d.csv")
        assert code == 0
        dynamics_peaks = re.findall(r"tau\d_shaft_peak_Nm = (\S+)", out)
        assert run_cli(capsys, *config, "sweep", *spec, "--out", "s.csv")[0] == 0
        assert Path("s.csv").read_text().splitlines()[1].split(",")[10:12] == dynamics_peaks
        assert run_cli(capsys, *config, "force-sweep", *spec, "--fc", "0", "--out", "f.csv")[0] == 0
        assert Path("f.csv").read_text().splitlines()[1].split(",")[1:3] == dynamics_peaks
        code, out, _ = run_cli(capsys, *config, "motor-check", *spec)
        assert code == 0 and re.findall(r"peak_torque_Nm = (\S+)", out) == dynamics_peaks
        peaks.append(dynamics_peaks)
    assert peaks[0] != peaks[1]


def test_cli_negative_distal_twist_closes_the_loop(tmp_path, monkeypatch, capsys):
    # A negative distal twist is a valid geometry.  dynamics runs on it, and
    # the angles that traj writes and ik prints put both legs on the same
    # tool axis; a leg-2 solve blind to the twist's sign puts leg 2 on -v.
    monkeypatch.chdir(tmp_path)
    twists = ", ".join(repr(a) for a in [math.pi / 2] * 4 + [-math.pi / 2])
    Path("neg.cfg").write_text(default_config_text() + f"geometry.alpha = {twists}\n")
    geometry = load_config("neg.cfg").geometry

    def assert_closes(theta1, theta2, theta3, theta4):
        assert np.linalg.norm(sphwrist.leg2_tool_axis(theta2, theta4, geometry)
                              - sphwrist.forward_kinematics(theta1, theta3, geometry).v) < 1e-9

    spec = ("--gamma", "45", "--radius", "0.15", "--samples", "101")
    assert run_cli(capsys, "--config", "neg.cfg", "dynamics", *spec, "--out", "d.csv")[0] == 0
    assert run_cli(capsys, "--config", "neg.cfg", "traj", *spec, "--out", "t.csv")[0] == 0
    lines = Path("t.csv").read_text().splitlines()
    columns = [lines[0].split(",").index(f"theta{j}_rad") for j in range(1, 5)]
    for line in lines[1::10]:
        cells = line.split(",")
        assert_closes(*(float(cells[j]) for j in columns))
    code, out, _ = run_cli(capsys, "--config", "neg.cfg", "ik", "--pan", "20", "--tilt", "-55")
    assert code == 0
    assert_closes(*(math.radians(float(x)) for x in re.findall(r"theta\d_deg = (\S+)", out)))


def test_cli_sweep_nan_gamma_says_finite(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--gamma", "45,nan", "--radius", "0.1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err == "error[invalid-spec]: gamma must be finite, got nan\n"


# kinematics._sample_label: sample <i> (t = <t> s, v = (x, y, z)).
_SAMPLE_LABEL = re.compile(r"sample \d+ \(t = \S+ s, v = \(\S+, \S+, \S+\)\)")


# Wide draws: tiny, huge, negative and non-finite values, plus ordinary ones.
_WIDE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 1e300, -1e-300, -1e300, 5e-324, 1.7e308, 0.0, -0.0]),
    st.floats(min_value=-200.0, max_value=200.0),
)


def _wide_or(low, high):
    return _WIDE | st.floats(low, high)


# Wide draws mixed with the ranges of default.cfg for the link masses and
# inertias (Ixx, Iyy, Izz, Ixy, Ixz, Iyz) and the motor ratings, by config
# key.  An example draws some of the keys; the others keep their default.cfg
# value.
_WIDE_CONFIG = st.fixed_dictionaries({}, optional={
    **{f"body.{name}.mass": st.tuples(_wide_or(0.1, 2.0))
       for name in BODY_NAMES},
    **{f"body.{name}.inertia": st.tuples(*[_wide_or(1e-4, 1e-2)] * 3, *[_wide_or(-1e-4, 1e-4)] * 3)
       for name in BODY_NAMES},
    **{f"motor.{i}.{key}": st.tuples(_wide_or(low, high)) for i in (1, 2) for key, (low, high) in {
        "rotor_inertia": (0.0, 1e-2), "reduction_ratio": (1.0, 100.0), "nominal_speed": (50.0, 1000.0),
        "max_speed": (50.0, 1000.0), "max_torque": (1.0, 100.0), "continuous_torque": (1.0, 100.0)}.items()},
})


def _config_option(directory, values):
    # --config with default.cfg, each key of ``values`` taking its drawn values.
    lines = []
    for line in default_config_text().splitlines():
        key = line.partition("=")[0].strip()
        lines.append(_config_line(key, values[key]) if key in values else f"{line}\n")
    path = directory / "wide.cfg"
    path.write_text("".join(lines))
    return ["--config", str(path)]


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["traj", "dynamics"]),
    kind=st.sampled_from(["circle", "semicircle"]),
    samples=st.integers(min_value=3, max_value=41),
    values=st.fixed_dictionaries({}, optional={name: _WIDE for name in ("radius", "gamma", "speed", "fc", "lc")}),
    config=_WIDE_CONFIG,
)
@example(command="dynamics", kind="circle", samples=11, values={"radius": 0.1, "gamma": 45.0, "speed": 1e150},
         config={})
@example(command="traj", kind="circle", samples=11, values={"radius": 1e-300, "gamma": 45.0}, config={})
@example(command="dynamics", kind="circle", samples=11, values={"radius": 0.1, "gamma": 45.0, "fc": 1e200, "lc": 1e200},
         config={})
@example(command="dynamics", kind="circle", samples=11, values={"gamma": 45.0, "fc": 150.0, "lc": 0.11},
         config={"motor.2.reduction_ratio": (1e200,)})
@example(command="dynamics", kind="semicircle", samples=11, values={}, config={"body.distal.mass": (1e300,)})
def test_cli_any_numbers_end_in_output_or_one_error(tmp_path_factory, command, kind, samples, values, config):
    directory = tmp_path_factory.mktemp("fuzz")
    out = directory / "x.csv"
    values = {"radius": 0.1, **values}
    if command == "traj":
        values = {k: v for k, v in values.items() if k not in ("fc", "lc")}
    argv = [*_config_option(directory, config), command, "--traj", kind, "--samples", str(samples), "--out", str(out)]
    argv += [f"--{name}={value!r}" for name, value in values.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    if code == 1:
        assert err.startswith("error[") and err.count("\n") == 1, err
        assert all(_SAMPLE_LABEL.match(err, m.start()) for m in re.finditer(r"\bsample \d", err)), err
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
    # The path rate speed / R is what the shared pass of a cone angle scales by.
    speed=st.none() | _WIDE | st.floats(0.05, 5.0),
    config=_WIDE_CONFIG,
)
@example(command="force-sweep", samples=11, gammas=[45.0], radii=[0.1], forces=[0.0, 1e300], lever=1e300, speed=None,
         config={})
@example(command="sweep", samples=11, gammas=[45.0, 30.0], radii=[1e-300, 0.1], forces=[0.0], lever=None, speed=None,
         config={})
@example(command="sweep", samples=11, gammas=[45.0, 30.0], radii=[0.25, 0.1], forces=[0.0], lever=None, speed=None,
         config={})
@example(command="motor-check", samples=11, gammas=[45.0], radii=[1e300], forces=[1e200], lever=1e200, speed=None,
         config={})
@example(command="sweep", samples=11, gammas=[45.0], radii=[0.1, 0.2], forces=[0.0], lever=None, speed=1e150, config={})
@example(command="sweep", samples=11, gammas=[45.0], radii=[0.1], forces=[0.0], lever=None, speed=None,
         config={"motor.2.reduction_ratio": (1e200,)})
@example(command="motor-check", samples=11, gammas=[45.0], radii=[0.1], forces=[150.0], lever=0.11, speed=None,
         config={"body.terminal.inertia": (1e300, 1e300, 1e300, 0.0, 0.0, 0.0), "motor.1.rotor_inertia": (1e300,)})
def test_cli_number_lists_end_in_output_or_one_error(tmp_path_factory, command, samples, gammas, radii, forces,
                                                     lever, speed, config):
    # force-sweep takes one cone angle and radius and a list of forces;
    # sweep and motor-check take lists of cone angles and radii, and
    # motor-check one force.
    directory = tmp_path_factory.mktemp("fuzz")
    out = directory / "x.csv"
    argv = [*_config_option(directory, config), command, "--samples", str(samples)]
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
    if speed is not None:
        argv.append(f"--speed={speed!r}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    if code == 1:
        assert err.startswith("error[") and err.count("\n") == 1, err
        # A per-sample error names the sample by index, time and tool direction.
        assert all(_SAMPLE_LABEL.match(err, m.start()) for m in re.finditer(r"\bsample \d", err)), err
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
