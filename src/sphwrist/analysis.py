"""Batch studies: peak tables, cutting-force sweeps, and motor feasibility."""

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    GRAVITY,
    CuttingLoad,
    MotorSpec,
    _load_free_torques,
    reflected_motor_torque,
    virtual_work_torques,
)
from .errors import InvalidInputError, WristError
from .kinematics import JointProfile, trajectory_joint_profiles
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


def profile_for_spec(spec: TrajectorySpec, geometry) -> JointProfile:
    """Joint profile along the generated path of one trajectory spec."""
    path = generate(spec)
    return trajectory_joint_profiles(path.v, path.t[1] - path.t[0], geometry)


def actuator_torques(profile: JointProfile, geometry, bodies, motors, gravity=GRAVITY,
                     load: CuttingLoad | None = None):
    """Joint torques and output-shaft torques of both actuators, each (N, 2).

    Joint torques by virtual work over the whole profile; the shaft torque
    adds each motor's reflected rotor inertia.
    """
    tau = virtual_work_torques(profile, geometry, bodies, gravity, load)
    return tau, _shaft_torques(profile, tau, motors)


def _shaft_torques(profile, tau, motors):
    return np.column_stack([reflected_motor_torque(tau[:, i], profile.accels[:, i], motor)
                            for i, motor in enumerate(_motor_pair(motors))])


def _peak_record(spec, profile, tau, motors):
    shaft = _shaft_torques(profile, tau, motors)
    return PeakRecord(
        gamma=spec.gamma,
        radius=spec.radius,
        max_rates=np.max(np.abs(profile.rates), axis=0),
        max_accels=np.max(np.abs(profile.accels), axis=0),
        max_torques=np.max(np.abs(shaft), axis=0),
        max_powers=np.max(np.abs(shaft * profile.rates[:, :2]), axis=0),
    )


def _spec_error(spec, exc: WristError) -> WristError:
    # Every WristError subclass takes one message, so the category is kept.
    return type(exc)(f"spec (kind={spec.kind}, gamma={spec.gamma}, R={spec.radius}): {exc}")


def sweep_peaks(specs, geometry, bodies, motors, load: CuttingLoad | None = None, gravity=GRAVITY):
    """Peak records for each trajectory spec, in input order."""
    records = []
    for spec in specs:
        try:
            profile = profile_for_spec(spec, geometry)
            tau = virtual_work_torques(profile, geometry, bodies, gravity, load)
            records.append(_peak_record(spec, profile, tau, motors))
        except WristError as exc:
            raise _spec_error(spec, exc) from exc
    return records


def force_sweep(base_spec: TrajectorySpec, fc_values, lc: float, geometry, bodies, motors, gravity=GRAVITY):
    """Peak-torque curve versus cutting-force magnitude at fixed lever arm.

    The three cutting-force components are set equal to each value in
    ``fc_values``.  The joint profile and its load-free torques are computed
    once; each force value adds only its affine cutting term.
    """
    fc_values = [float(f) for f in fc_values]
    if any(f < 0.0 or not np.isfinite(f) for f in fc_values):
        raise InvalidInputError("cutting-force magnitudes must be non-negative")
    try:
        profile = profile_for_spec(base_spec, geometry)
        load_free = _load_free_torques(profile, geometry, bodies, gravity)
        return [(fc, _peak_record(base_spec, profile, load_free.with_load(CuttingLoad((fc, fc, fc), lc)), motors))
                for fc in fc_values]
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
