"""Command-line interface: ik, fk, traj, dynamics, sweep, force-sweep, motor-check.

Angles cross this boundary in degrees; everything behind it is radians.  All
file output is CSV with a mandatory header row, one sample per row, and a
fixed number format so identical inputs produce byte-identical files.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import analysis, dynamics, trajectory
from .config import default_config, load_config
from .errors import FileIOError, InvalidInputError, WristError
from .kinematics import (ToolOrientation, forward_kinematics, inverse_kinematics, pan_tilt_from_vector,
                         trajectory_joint_profiles, vector_from_pan_tilt)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _finite_output(header, rows) -> np.ndarray:
    """``rows`` as a 2-D float array, checked once for finite values; the
    error names the column and the first row of a non-finite entry."""
    rows = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(rows)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InvalidInputError(f"output {header[col]} is {rows[row, col]} at row {row};"
                                " the inputs overflow double precision")
    return rows


# Rows are formatted and written in blocks of this many, so that the
# formatter's temporaries stay small whatever the length of the table.
CSV_BLOCK = 256


@functools.cache
def _text_tables():
    """The tables of ``_text_words``, built at its first call.  Per 4-digit
    group g: its ASCII digits in bytes 0, 2, 4 and 6 of a little-endian
    64-bit word (the odd bytes are point slots), and its trailing zeros.
    Per layout code (X + 4) * 12 + L, of a value with decimal exponent X
    and last nonzero mantissa digit L: the prefix word (by sign), and the
    digit mask and the point of each of the three group words."""
    d = np.indices((10,) * 4).reshape(4, -1)  # the digits of 0..9999
    digits = np.zeros((10000, 8), dtype=np.uint8)
    digits[:, ::2] = 48 + d.T
    zero = d == 0
    trailing = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0].astype(np.intp))))
    exponent, last = np.arange(-4, 12)[:, None], np.arange(12)
    prefix = np.array([int.from_bytes(b"-" * negative + (b"0." + b"0" * (-x - 1)) * (x < 0), "little")
                       for negative in (0, 1) for x in range(-4, 12)], dtype="<u8").repeat(12)
    # The digits shown are the integer part and the fraction up to L.
    shown = np.maximum(exponent, last) + 1 - 4 * np.arange(3)[:, None, None]
    masks = np.array([(1 << 16 * k) - 1 for k in range(5)], dtype="<u8")[np.clip(shown, 0, 4)]
    point = np.array([ord(".") << 8 * (2 * j + 1) for j in range(4)], dtype="<u8")[exponent % 4]
    points = np.where((exponent // 4 == np.arange(3)[:, None, None]) & (0 <= exponent) & (exponent < last), point, 0)
    return digits.view("<u8")[:, 0], trailing, prefix, masks.reshape(3, -1), points.reshape(3, -1)


_POW10 = np.array([float(10 ** k) for k in range(17)])  # exact: 10**k is a double for k <= 22


def _text_words(x: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """The "%.12g" text of the finite values ``x`` (flat), each followed by
    its separator, as four little-endian 64-bit words per value; the bytes
    left 0 are not part of the text.  ``separators`` holds each separator in
    the top byte of a word.

    A value whose text is fixed notation (decimal exponent X from -4 to 11)
    is formatted in array passes.  For E the decimal exponent of |x| by
    log10, y = |x| * 10**(11 - E) is one correctly rounded multiply by an
    exact power of ten; y < 2**40, so y is within 2**-14 of the exact
    product, and rint(y) is the correctly rounded 12-digit mantissa when y
    lies in [1e11, 1e12) and its fraction is more than 2**-11 from 1/2.
    The words are the prefix, then three 4-digit groups with a point slot
    after each digit.  Every other value (zero, exponent notation, a
    near-tie, a power of ten that log10 puts in the wrong decade) is
    formatted by Python.
    """
    digits, trailing, prefix, masks, points = _text_tables()
    y = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.clip(np.floor(np.log10(y)), -5, 11).astype(np.intp)
    y *= _POW10[11 - e]
    m = np.rint(y)
    e += m == 1e12  # a mantissa of 1e12 carries into the next decade
    fast = (y >= 1e11) & (y < 1e12) & (np.abs(y - m) < 0.5 - 2.0 ** -11) & (e >= -4) & (e <= 11)
    # The three 4-digit groups of the mantissa; m < 2**40, so each step is exact.
    m = np.where(fast & (m < 1e12), m, 1e11)
    high = np.floor(m / 1e8)
    m -= high * 1e8
    middle = np.floor(m / 1e4)
    m -= middle * 1e4
    groups = [g.astype(np.intp) for g in (high, middle, m)]
    t1, t2 = trailing[groups[1]], trailing[groups[2]]
    last = 11 - (t2 + (t2 == 4) * (t1 + (t1 == 4) * trailing[groups[0]]))
    code = np.where(fast, (e + 4) * 12 + last, 0)
    words = np.empty((len(x), 4), dtype="<u8")
    words[:, 0] = prefix[(x < 0) * 192 + code]
    for i, group in enumerate(groups):
        words[:, 1 + i] = (digits[group] & masks[i][code]) | points[i][code]
    words[:, 3] |= separators  # the slot after digit 11 never holds a point
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join(format(v, ".12g").encode().ljust(31, b"\0") for v in x[slow].tolist())
        words.view(np.uint8)[slow, :31] = np.frombuffer(text, dtype=np.uint8).reshape(len(slow), 31)
    return words


def write_csv(path, header, rows):
    """Write ``header`` and the finite table ``rows`` as CSV, every value
    "%.12g"; a non-finite table raises before the file is opened."""
    rows = _finite_output(header, rows)
    separators = np.tile(np.array([ord(",")] * (len(header) - 1) + [ord("\n")], dtype="<u8") << 56, CSV_BLOCK)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), CSV_BLOCK):
                block = rows[start:start + CSV_BLOCK].ravel()
                words = _text_words(block, separators[:len(block)])
                fh.write(words.tobytes().translate(None, b"\0").decode("ascii"))
    except OSError as exc:
        raise FileIOError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _parse_floats(option, text, n=None):
    try:
        parts = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise InvalidInputError(f"{option} must be a comma-separated list of numbers, got {text!r}") from None
    if n is not None and len(parts) != n:
        raise InvalidInputError(f"{option} expects {n} comma-separated values, got {len(parts)}")
    return parts


def _finite(option, value) -> float:
    # A float option checked where the user gave it, so that the error names it.
    if not math.isfinite(value):
        raise InvalidInputError(f"{option} must be finite")
    return value


def _spec(args, radius, gamma_deg, kind=trajectory.KIND_CIRCLE) -> trajectory.TrajectorySpec:
    return trajectory.TrajectorySpec(
        kind=kind,
        radius=radius,
        tool_speed=args.speed,
        gamma=math.radians(gamma_deg) if gamma_deg is not None else None,
        sample_count=args.samples,
    )


def _traj_spec(args) -> trajectory.TrajectorySpec:
    kind = trajectory.KIND_CIRCLE if args.traj == "circle" else trajectory.KIND_SEMICIRCLE
    return _spec(args, args.radius, args.gamma, kind)


def cmd_ik(args, config):
    if args.v is not None:
        orientation = ToolOrientation.normalized(_parse_floats("--v", args.v, 3))
        pan, tilt = pan_tilt_from_vector(orientation)
    elif args.pan is not None and args.tilt is not None:
        pan, tilt = math.radians(args.pan), math.radians(args.tilt)
        orientation = vector_from_pan_tilt(pan, tilt)
    else:
        raise InvalidInputError("provide either --v x,y,z or both --pan and --tilt (degrees)")
    angles = inverse_kinematics(orientation, config.geometry)
    print(f"pan_deg = {_fmt(math.degrees(pan))}")
    print(f"tilt_deg = {_fmt(math.degrees(tilt))}")
    for i, value in enumerate(angles.theta, start=1):
        print(f"theta{i}_deg = {_fmt(math.degrees(value))}")
    return 0


def cmd_fk(args, config):
    theta1, theta3 = _finite("--theta1", args.theta1), _finite("--theta3", args.theta3)
    v = forward_kinematics(math.radians(theta1), math.radians(theta3), config.geometry).v
    print(f"v = {_fmt(v[0])}, {_fmt(v[1])}, {_fmt(v[2])}")
    return 0


_PROFILE_HEADER = (
    ["t_s"]
    + [f"theta{i}_rad" for i in range(1, 5)]
    + [f"dtheta{i}_rad_s" for i in range(1, 5)]
    + [f"ddtheta{i}_rad_s2" for i in range(1, 5)]
)


def cmd_traj(args, config):
    path = trajectory.generate(_traj_spec(args))
    profile = trajectory_joint_profiles(path.v, path.t[1] - path.t[0], config.geometry)
    rows = np.column_stack([profile.t, profile.theta, profile.rates, profile.accels])
    write_csv(args.out, _PROFILE_HEADER, rows)
    print(f"wrote {len(rows)} samples to {args.out}")
    return 0


def _force(fc: float) -> float:
    # One --fc value, a cutting-force component magnitude: finite, then non-negative.
    if _finite("--fc", fc) < 0.0:
        raise InvalidInputError("--fc must be non-negative")
    return fc


def _cutting_load(args) -> dynamics.CuttingLoad:
    return dynamics.CuttingLoad((_force(args.fc),) * 3, args.lc)


def cmd_dynamics(args, config):
    load = _cutting_load(args)
    spec = _traj_spec(args)
    unit = analysis.path_pass(spec, config.geometry, config.bodies, config.motors, config.gravity)
    tau, shaft, power = unit.series(spec.rate, load)
    header = ["t_s", "tau1_Nm", "tau2_Nm", "tau1_shaft_Nm", "tau2_shaft_Nm", "P1_W", "P2_W"]
    rows = unit.finite(spec.rate, header, np.column_stack([unit.profile.t, tau, shaft, power]))
    write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} samples to {args.out}")
    shaft_peak = analysis._column_peaks(shaft)
    for i in range(2):
        flag = "yes" if shaft_peak[i] > config.motors[i].continuous_torque else "no"
        print(f"tau{i + 1}_shaft_peak_Nm = {_fmt(shaft_peak[i])} exceeds-continuous = {flag}")
    return 0


_SWEEP_HEADER = (
    ["gamma_deg", "radius_m"]
    + [f"max_dtheta{i}_rad_s" for i in range(1, 5)]
    + [f"max_ddtheta{i}_rad_s2" for i in range(1, 5)]
    + ["T1_Nm", "T2_Nm", "P1_W", "P2_W"]
)


def _grid_specs(args):
    radii = _parse_floats("--radius", args.radius)
    return [_spec(args, r, g) for g in _parse_floats("--gamma", args.gamma) for r in radii]


def cmd_sweep(args, config):
    specs = _grid_specs(args)
    records = analysis.sweep_peaks(specs, config.geometry, config.bodies, config.motors, gravity=config.gravity)
    rows = [
        [math.degrees(rec.gamma), rec.radius, *rec.max_rates, *rec.max_accels, *rec.max_torques, *rec.max_powers]
        for rec in records
    ]
    write_csv(args.out, _SWEEP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_force_sweep(args, config):
    spec = _spec(args, args.radius, args.gamma)
    forces = [_force(fc) for fc in _parse_floats("--fc", args.fc)]
    curve = analysis.force_sweep(spec, forces, args.lc, config.geometry, config.bodies, config.motors, config.gravity)
    rows = [[fc, *rec.max_torques, *rec.max_powers] for fc, rec in curve]
    write_csv(args.out, ["Fc_N", "T1_Nm", "T2_Nm", "P1_W", "P2_W"], rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_motor_check(args, config):
    load = _cutting_load(args)
    records = analysis.sweep_peaks(_grid_specs(args), config.geometry, config.bodies, config.motors, load,
                                   config.gravity)
    # The grid's envelope: each field's maximum over all records.
    envelope = analysis.PeakRecord(None, 0.0, *(
        np.max([getattr(rec, field) for rec in records], axis=0)
        for field in ("max_rates", "max_accels", "max_torques", "max_powers")
    ))
    report = analysis.motor_feasibility(envelope, config.motors)
    for i, a in enumerate(report.actuators):
        print(
            f"actuator {i + 1}: peak_torque_Nm = {_fmt(envelope.max_torques[i])} torque = {a.torque_class}"
            f" speed = {a.speed_class} continuous_margin_Nm = {_fmt(a.continuous_margin)}"
        )
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ``InvalidInputError``, so that they end in one
    ``error[invalid-input]`` line like every other bad input; ``--help``
    still exits 0.  Subcommand parsers are built from this class too."""

    def error(self, message):
        raise InvalidInputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sphwrist",
        description="Kinematics, inverse dynamics, and actuator studies for the 2-DOF spherical wrist",
    )
    parser.add_argument("--config", help="parameter file (defaults to the built-in parameter set)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ik", help="joint angles for a tool direction")
    p.add_argument("--v", help="tool direction x,y,z (normalized)")
    p.add_argument("--pan", type=float, help="pan angle, degrees")
    p.add_argument("--tilt", type=float, help="tilt angle, degrees")
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("fk", help="tool direction for the leg-1 joint pair")
    p.add_argument("--theta1", type=float, required=True, help="degrees")
    p.add_argument("--theta3", type=float, required=True, help="degrees")
    p.set_defaults(func=cmd_fk)

    def add_traj_args(p, grid=False):
        if grid:
            p.add_argument("--gamma", required=True, help="cone angles, degrees (comma list)")
            p.add_argument("--radius", required=True, help="radii, m (comma list)")
        else:
            p.add_argument("--traj", choices=("circle", "semicircle"), default="circle")
            p.add_argument("--gamma", type=float, help="cone angle, degrees (circle only)")
            p.add_argument("--radius", type=float, required=True, help="m")
        p.add_argument("--speed", type=float, help="tool speed, m/s")
        p.add_argument("--samples", type=int, help="samples per trajectory")

    p = sub.add_parser("traj", help="joint position/velocity/acceleration CSV")
    add_traj_args(p)
    p.add_argument("--out", default="traj_profile.csv")
    p.set_defaults(func=cmd_traj)

    p = sub.add_parser("dynamics", help="actuator torque/power time-series CSV")
    add_traj_args(p)
    p.add_argument("--fc", type=float, default=0.0, help="cutting-force component magnitude, N")
    p.add_argument("--lc", type=float, help="cutting lever arm, m")
    p.add_argument("--out", default="dynamics_series.csv")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("sweep", help="peak table over a (gamma, radius) grid")
    add_traj_args(p, grid=True)
    p.add_argument("--out", default="peaks.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("force-sweep", help="peak torques versus cutting force")
    p.add_argument("--gamma", type=float, required=True, help="degrees")
    p.add_argument("--radius", type=float, required=True, help="m")
    p.add_argument("--fc", required=True, help="force magnitudes, N (comma list)")
    p.add_argument("--lc", type=float, help="lever arm, m")
    p.add_argument("--speed", type=float, help="tool speed, m/s")
    p.add_argument("--samples", type=int, help="samples per trajectory")
    p.add_argument("--out", default="force_sweep.csv")
    p.set_defaults(func=cmd_force_sweep)

    p = sub.add_parser("motor-check", help="feasibility report over a grid")
    add_traj_args(p, grid=True)
    p.add_argument("--fc", type=float, default=0.0, help="cutting-force component magnitude, N")
    p.add_argument("--lc", type=float, help="cutting lever arm, m")
    p.set_defaults(func=cmd_motor_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Overflow and invalid-operation warnings stay silent: every non-finite
        # value still ends in a categorised error, from a stage's own check or
        # from the output check.
        with np.errstate(all="ignore"):
            config = load_config(args.config) if args.config else default_config()
            # Unset run options take their values from the config (ik and fk have none).
            for name, value in (("speed", config.tool_speed), ("samples", config.sample_count),
                                ("lc", config.geometry.tool_length)):
                if getattr(args, name, value) is None:
                    setattr(args, name, value)
            return args.func(args, config)
    except WristError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
