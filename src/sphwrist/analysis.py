"""Batch studies: peak tables, cutting-force sweeps, and motor feasibility."""

from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import (
    GRAVITY,
    CuttingLoad,
    MotorSpec,
    _load_free_torques,
    _rotor_torque,
)
from .errors import InvalidInputError, WristError
from .kinematics import JointProfile, _Kinematics, _profile_pass, _sample_label
from .trajectory import TrajectorySpec, generate

TORQUE_CONTINUOUS_OK = "continuous-ok"
TORQUE_INTERMITTENT = "intermittent-only"
TORQUE_INFEASIBLE = "infeasible"
SPEED_OK = "ok"
SPEED_OVER_NOMINAL = "over-nominal"
SPEED_OVER_MAX = "over-max"


@dataclass(frozen=True, eq=False)
class PeakRecord:
    """Per-trajectory absolute maxima of joint kinematics and actuator loads.

    Torques are output-shaft values including the reflected rotor inertia;
    powers are maxima of the instantaneous shaft torque times joint rate.
    """

    gamma: float | None
    radius: float
    max_rates: np.ndarray
    max_accels: np.ndarray
    max_torques: np.ndarray
    max_powers: np.ndarray


@dataclass(frozen=True)
class ActuatorFeasibility:
    torque_class: str
    speed_class: str
    continuous_margin: float
    max_margin: float
    speed_margin: float


@dataclass(frozen=True)
class FeasibilityReport:
    actuators: tuple


def _motor_pair(motors):
    if isinstance(motors, MotorSpec):
        return motors, motors
    motors = tuple(motors)
    if len(motors) != 2:
        raise InvalidInputError("expected one MotorSpec or a pair")
    return motors


def profile_for_spec(spec: TrajectorySpec, geometry) -> tuple[JointProfile, _Kinematics]:
    """Joint profile along the generated path of one trajectory spec, and
    the kinematic terms of its pass."""
    path = generate(spec)
    return _profile_pass(path.v, path.t[1] - path.t[0], geometry)


def _column_peaks(x):
    # np.max(np.abs(x), axis=0) of an (N, k) array, taken over a contiguous
    # transpose: one pass per column, not N passes of length k.
    return np.abs(np.ascontiguousarray(x.T)).max(axis=1)


def _rotor_torques(accels, motors):
    # The reflected rotor torques (N, 2) of both actuators, unchecked.
    return np.column_stack([_rotor_torque(accels[:, i], motor) for i, motor in enumerate(_motor_pair(motors))])


def spec_pass(spec: TrajectorySpec, geometry, bodies, motors, gravity=GRAVITY):
    """The load-independent stages of one trajectory spec, run once: its
    joint profile, load-free torques, reflected rotor torques and kinematic
    peaks.  Returns ``(profile, torques, record, finite)``: ``torques(load)``
    gives the joint and output-shaft torques (N, 2), unchecked;
    ``finite(header, values, where="")`` returns a table of per-sample
    values (N, k) that is finite, and otherwise names its lowest non-finite
    entry after ``where`` by the sample's index, time and tool axis and by
    the column's header; ``record(load, where="")`` gives the PeakRecord,
    its shaft torques and powers checked by ``finite``."""
    profile, kinematics = profile_for_spec(spec, geometry)
    tool = kinematics.axes[:, 4]
    load_free = _load_free_torques(profile, kinematics, bodies, gravity)
    rotor = _rotor_torques(profile.accels, motors)
    max_rates, max_accels = _column_peaks(profile.rates), _column_peaks(profile.accels)
    for peaks in (max_rates, max_accels):
        peaks.setflags(write=False)  # shared by every record of the spec

    def torques(load: CuttingLoad | None = None):
        tau = load_free.with_load(load)
        return tau, tau + rotor

    def finite(header, values, where=""):
        bad = ~np.isfinite(values)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise InvalidInputError(f"{where}{_sample_label(i, profile.t[i], tool[i])}: {header[k]}"
                                    f" is {values[i, k]}; the inputs overflow double precision")
        return values

    def record(load: CuttingLoad | None = None, where=""):
        shaft = torques(load)[1]
        power = shaft * profile.rates[:, :2]
        max_torques, max_powers = _column_peaks(shaft), _column_peaks(power)
        if not (np.isfinite(max_torques).all() and np.isfinite(max_powers).all()):
            finite(("T1_Nm", "T2_Nm", "P1_W", "P2_W"), np.column_stack([shaft, power]), where)
        return PeakRecord(spec.gamma, spec.radius, max_rates, max_accels, max_torques, max_powers)

    return profile, torques, record, finite


def _spec_error(spec, exc: WristError) -> WristError:
    # Every WristError subclass takes one message, so the category is kept.
    # The spec holds gamma in radians; the message names it in degrees, as the CLI takes it.
    gamma = "None" if spec.gamma is None else f"{np.degrees(spec.gamma):.12g} deg"
    return type(exc)(f"spec (kind={spec.kind}, gamma={gamma}, R={spec.radius}): {exc}")


def _path_key(spec: TrajectorySpec):
    # Specs with equal keys sample the same tool directions; their radius and
    # tool speed set only the path rate.
    return spec.kind, spec.gamma, spec.sample_count


class _UnitRatePass(NamedTuple):
    """What a spec's peaks need of its path at unit path rate: the static
    shaft torques ``c`` (N, 2) under the study's load, the shaft torques per
    unit rate squared ``v`` (N, 2), the drive rates (N, 2), and the peaks of
    the four joint rates and accelerations."""

    c: np.ndarray
    v: np.ndarray
    drive_rates: np.ndarray
    max_rates: np.ndarray
    max_accels: np.ndarray


def _unit_rate_pass(spec: TrajectorySpec, geometry, bodies, motors, load, gravity) -> _UnitRatePass:
    # One profile stage at radius 1 and tool speed 1 (dt is the path-angle
    # step) and one load-free pass on it.  The static torques c are that
    # pass's projection of the gravity moments alone (``at_rest``): bit for
    # bit a second pass on the same angles at rest, at a fraction of its cost.
    profile, kinematics = profile_for_spec(replace(spec, radius=1.0, tool_speed=1.0), geometry)
    moving = _load_free_torques(profile, kinematics, bodies, gravity)
    rest = moving.at_rest()
    return _UnitRatePass(moving._replace(tau0=rest).with_load(load),
                         moving.tau0 - rest + _rotor_torques(profile.accels, motors),
                         np.ascontiguousarray(profile.rates[:, :2]), _column_peaks(profile.rates),
                         _column_peaks(profile.accels))


def _scaled_record(spec: TrajectorySpec, unit: _UnitRatePass) -> PeakRecord | None:
    """The spec's PeakRecord from the unit-rate pass of its path, or None
    where a scaled value is not finite.  At path rate k the rates scale by k
    and the accelerations by k squared, so the shaft torques are c + k^2 v
    (Hollerbach, ASME J. Dyn. Syst. Meas. Control 106(1), 1984)."""
    k = spec.rate
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow sends the spec to its own pass
        shaft = unit.c + (k * k) * unit.v
        peaks = (k * unit.max_rates, (k * k) * unit.max_accels, _column_peaks(shaft),
                 _column_peaks(shaft * (k * unit.drive_rates)))
    if not all(np.isfinite(p).all() for p in peaks):
        return None
    return PeakRecord(spec.gamma, spec.radius, *peaks)


def sweep_peaks(specs, geometry, bodies, motors, load: CuttingLoad | None = None, gravity=GRAVITY):
    """Peak records for each trajectory spec, in input order.

    Specs on the same path (kind, cone angle and sample count) that differ
    only in radius and tool speed share one pass at unit path rate, and each
    scales it by its own rate (``_scaled_record``).  A spec whose path no
    other spec shares, every spec of a path whose shared pass raises, and a
    spec whose scaled values are not finite take their own pass
    (``spec_pass``), which gives the record or the error, named at the
    spec's own rate, that it always gave.
    """
    specs = list(specs)
    left = Counter(map(_path_key, specs))
    # The unit-rate pass of each path with specs still to come, or None where
    # it raised; a path's pass is dropped at its last spec.
    passes = {}
    records = []
    for spec in specs:
        key = _path_key(spec)
        left[key] -= 1
        if left[key] and key not in passes:
            try:
                passes[key] = _unit_rate_pass(spec, geometry, bodies, motors, load, gravity)
            except Exception:  # the spec's own pass raises it again, named as that pass names it
                passes[key] = None
        record = None if passes.get(key) is None else _scaled_record(spec, passes[key])
        if not left[key]:
            passes.pop(key, None)
        if record is None:
            try:
                record = spec_pass(spec, geometry, bodies, motors, gravity)[2](load)
            except WristError as exc:
                raise _spec_error(spec, exc) from exc
        records.append(record)
    return records


def force_sweep(base_spec: TrajectorySpec, fc_values, lc: float, geometry, bodies, motors, gravity=GRAVITY):
    """Peak-torque curve versus cutting-force magnitude at fixed lever arm.

    The three cutting-force components are set equal to each value in
    ``fc_values``.  The forces and the lever are checked first; then the
    spec's load-independent stages run once (``spec_pass``), and each force
    value adds only its affine cutting term.
    """
    fc_values = [float(f) for f in fc_values]
    if not all(map(np.isfinite, fc_values)):
        raise InvalidInputError("cutting-force magnitudes must be finite")
    if min(fc_values, default=0.0) < 0.0:
        raise InvalidInputError("cutting-force magnitudes must be non-negative")
    loads = [(fc, CuttingLoad((fc, fc, fc), lc)) for fc in fc_values]
    try:
        record = spec_pass(base_spec, geometry, bodies, motors, gravity)[2]
        return [(fc, record(load, f"Fc = {fc:.12g} N: ")) for fc, load in loads]
    except WristError as exc:
        raise _spec_error(base_spec, exc) from exc


def motor_feasibility(peaks: PeakRecord, motors) -> FeasibilityReport:
    """Classify each actuator's peak torque and shaft speed against its motor.

    ``motors`` is one MotorSpec for both actuators or a pair, one per actuator.
    """
    actuators = []
    for i, motor in enumerate(_motor_pair(motors)):
        torque = float(peaks.max_torques[i])
        if torque <= motor.continuous_torque:
            torque_class = TORQUE_CONTINUOUS_OK
        elif torque <= motor.max_torque:
            torque_class = TORQUE_INTERMITTENT
        else:
            torque_class = TORQUE_INFEASIBLE
        shaft_speed = float(peaks.max_rates[i]) * motor.reduction_ratio
        if shaft_speed <= motor.nominal_speed:
            speed_class = SPEED_OK
        elif shaft_speed <= motor.max_speed:
            speed_class = SPEED_OVER_NOMINAL
        else:
            speed_class = SPEED_OVER_MAX
        actuators.append(ActuatorFeasibility(
            torque_class=torque_class,
            speed_class=speed_class,
            continuous_margin=motor.continuous_torque - torque,
            max_margin=motor.max_torque - torque,
            speed_margin=motor.max_speed - shaft_speed,
        ))
    return FeasibilityReport(tuple(actuators))
