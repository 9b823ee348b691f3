"""Batch studies: peak tables, cutting-force sweeps, and motor feasibility."""

from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .dynamics import GRAVITY, CuttingLoad, MotorSpec, _load_free_torques, _LoadFreeTorques, _rotor_torque
from .errors import InvalidInputError, WristError, finite_array, finite_scalar
from .kinematics import JointProfile, _profile_pass, _sample_label
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


@dataclass(frozen=True)
class FeasibilityReport:
    actuators: tuple


def _motor_pair(motors):
    pair = (motors, motors) if isinstance(motors, MotorSpec) else tuple(motors) if isinstance(motors, Iterable) else ()
    if len(pair) != 2 or not all(isinstance(motor, MotorSpec) for motor in pair):
        raise InvalidInputError("expected one MotorSpec or a pair")
    return pair


def _column_peaks(x):
    # np.max(np.abs(x), axis=0) of an (N, k) array, taken over a contiguous
    # transpose: one pass per column, not N passes of length k.
    return np.abs(np.ascontiguousarray(x.T)).max(axis=1)


def _rotor_torques(accels, motors):
    # The reflected rotor torques (N, 2) of both actuators, unchecked.
    return np.column_stack([_rotor_torque(accels[:, i], motor) for i, motor in enumerate(_motor_pair(motors))])


_PEAK_HEADER = (*(f"dtheta{i}_rad_s" for i in range(1, 5)), *(f"ddtheta{i}_rad_s2" for i in range(1, 5)),
                "T1_Nm", "T2_Nm", "P1_W", "P2_W")


class PathPass(NamedTuple):
    """The load-independent dynamics of one path at unit path rate.  At path
    rate k = tool_speed / radius the rates scale by k and the accelerations
    by k squared, so the torques are c + k^2 v (Hollerbach, ASME J. Dyn.
    Syst. Meas. Control 106(1), 1984).  ``torques`` is the unit-rate
    load-free pass, whose ``rest`` under a load gives the static torques
    c (N, 2); ``v_joint`` and ``v_shaft`` (N, 2) are the joint torques per
    unit rate squared and those plus the reflected rotor torques.
    ``profile`` is the unit profile, on the clock of the spec the pass was
    made for, and ``step`` its path-angle step."""

    torques: _LoadFreeTorques
    v_joint: np.ndarray
    v_shaft: np.ndarray
    drive_rates: np.ndarray
    profile: JointProfile
    step: float
    max_rates: np.ndarray
    max_accels: np.ndarray

    def series(self, rate, load: CuttingLoad | None):
        """Joint torques, shaft torques and joint powers (joint torque times
        joint rate), (N, 2) each, at path rate ``rate``, unchecked."""
        c, kk = self.torques.with_load(self.torques.rest, load), rate * rate
        tau = c + kk * self.v_joint
        return tau, c + kk * self.v_shaft, tau * (rate * self.drive_rates)

    def finite(self, rate, header, values, where=""):
        """``values`` (N, k) at path rate ``rate`` if finite; otherwise its
        lowest non-finite entry is named after ``where`` by the sample's
        index, time at that rate and tool axis, and by the column's header."""
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InvalidInputError(f"{where}{_sample_label(i, i * (self.step / rate), self.torques.axes[i, 4])}:"
                                    f" {header[j]} is {values[i, j]}; the inputs overflow double precision")
        return values

    def records(self, spec: TrajectorySpec, loads):
        """The spec's PeakRecord under each ``(where, load)`` of ``loads``,
        checked by ``finite`` after ``where``; shaft torque times joint rate
        is the power.  The records share one read-only pair of rate and
        acceleration peaks."""
        k = spec.rate
        records = []
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
            max_rates, max_accels, rates = k * self.max_rates, (k * k) * self.max_accels, k * self.drive_rates
            for peaks in (max_rates, max_accels):
                peaks.setflags(write=False)
            for where, load in loads:
                shaft = self.torques.with_load(self.torques.rest, load) + (k * k) * self.v_shaft
                peaks = (max_rates, max_accels, _column_peaks(shaft), _column_peaks(shaft * rates))
                if not all(np.isfinite(p).all() for p in peaks):
                    self.finite(k, _PEAK_HEADER, np.column_stack(
                        [k * self.profile.rates, (k * k) * self.profile.accels, shaft, shaft * rates]), where)
                records.append(PeakRecord(spec.gamma, spec.radius, *peaks))
        return records


def path_pass(spec: TrajectorySpec, geometry, bodies, motors, gravity=GRAVITY) -> PathPass:
    """The spec's path at unit path rate: one profile stage at radius and
    tool speed 1, which differences at the path-angle step, and one
    load-free pass, whose gravity moments alone also give the torques at
    rest.  The profile's times, and the times its errors name, step
    by the path-angle step over the spec's rate: the spec's own clock."""
    path = generate(replace(spec, radius=1.0, tool_speed=1.0))
    step = path.t[1] - path.t[0]
    profile, kinematics = _profile_pass(path.v, step, geometry, step / spec.rate)
    torques = _load_free_torques(profile, kinematics, bodies, gravity)
    v_joint = torques.tau0 - torques.rest
    return PathPass(torques, v_joint, v_joint + _rotor_torques(profile.accels, motors),
                    np.ascontiguousarray(profile.rates[:, :2]), profile, step, _column_peaks(profile.rates),
                    _column_peaks(profile.accels))


def _spec_error(spec, exc: WristError) -> WristError:
    # Every WristError subclass takes one message, so the category is kept.
    # The spec holds gamma in radians; the message names it in degrees, as the CLI takes it.
    gamma = "None" if spec.gamma is None else f"{np.degrees(spec.gamma):.12g} deg"
    return type(exc)(f"spec (kind={spec.kind}, gamma={gamma}, R={spec.radius}): {exc}")


def _path_key(spec: TrajectorySpec):
    # Specs with equal keys sample the same tool directions; their radius and
    # tool speed set only the path rate.
    return spec.kind, spec.gamma, spec.sample_count


def sweep_peaks(specs, geometry, bodies, motors, load: CuttingLoad | None = None, gravity=GRAVITY):
    """Peak records for each trajectory spec, in input order.

    Consecutive specs on the same path (kind, cone angle and sample count),
    as a grid gives them by cone angle, share one pass at unit path rate
    (``path_pass``), made for the first of them, and each scales it by its
    own rate; a pass is dropped when its path's specs end.  A failing spec
    is named ahead of its error.
    """
    records, motors = [], _motor_pair(motors)
    for _, path_specs in groupby(specs, _path_key):
        unit = None
        for spec in path_specs:
            try:
                if unit is None:
                    unit = path_pass(spec, geometry, bodies, motors, gravity)
                records += unit.records(spec, [("", load)])
            except WristError as exc:
                raise _spec_error(spec, exc) from exc
    return records


def force_sweep(base_spec: TrajectorySpec, fc_values, lc: float, geometry, bodies, motors, gravity=GRAVITY):
    """Peak-torque curve versus cutting-force magnitude at fixed lever arm.

    The three cutting-force components are set equal to each value in
    ``fc_values``.  The forces, the motors and the lever are checked first;
    then the spec's path makes its one pass (``path_pass``), and each force
    value adds only its affine cutting term.
    """
    name = "cutting-force magnitudes"
    fc_values = [finite_scalar(name, fc, 0.0) for fc in finite_array(name, fc_values).reshape(-1).tolist()]
    motors, lc = _motor_pair(motors), finite_scalar("lever", lc, 0.0)
    loads = [(f"Fc = {fc:.12g} N: ", CuttingLoad((fc, fc, fc), lc)) for fc in fc_values]
    try:
        records = path_pass(base_spec, geometry, bodies, motors, gravity).records(base_spec, loads)
    except WristError as exc:
        raise _spec_error(base_spec, exc) from exc
    return list(zip(fc_values, records))


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
        ))
    return FeasibilityReport(tuple(actuators))
