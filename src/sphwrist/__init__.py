"""Kinematics, Newton-Euler dynamics, and actuator sizing for a 2-DOF spherical wrist."""

from .analysis import FeasibilityReport, PeakRecord, force_sweep, motor_feasibility, sweep_peaks
from .config import Config, default_config, load_config
from .dynamics import (GRAVITY, BodyParams, CuttingLoad, DynamicsSolution, MotorSpec, WristMotion, assemble_system,
                       body_motion, power_balance_residual, reflected_motor_torque, solve_state, solve_trajectory,
                       solve_wrenches, verify_profile, virtual_work_torques)
from .errors import WristError
from .kinematics import (JointAngles, JointProfile, JointState, ToolOrientation, forward_kinematics,
                         inverse_kinematics, leg2_tool_axis, pan_tilt_from_vector, trajectory_joint_profiles,
                         vector_from_pan_tilt)
from .rotation import WristGeometry, central_difference, chain_frames, dh_rotation, unwrap_angles, wrap_angle
from .trajectory import OrientationPath, TimedOrientation, TrajectorySpec, generate, traj_circle, traj_semicircle

__all__ = [
    "BodyParams", "Config", "CuttingLoad", "DynamicsSolution", "FeasibilityReport",
    "GRAVITY", "JointAngles", "JointProfile", "JointState", "MotorSpec", "OrientationPath", "PeakRecord",
    "TimedOrientation", "ToolOrientation", "TrajectorySpec", "WristError",
    "WristGeometry", "WristMotion", "assemble_system", "body_motion",
    "central_difference", "chain_frames", "default_config", "dh_rotation",
    "force_sweep", "forward_kinematics", "generate",
    "inverse_kinematics", "leg2_tool_axis", "load_config", "motor_feasibility",
    "pan_tilt_from_vector",
    "power_balance_residual", "reflected_motor_torque", "solve_state",
    "solve_trajectory", "solve_wrenches", "sweep_peaks", "traj_circle",
    "traj_semicircle", "trajectory_joint_profiles", "unwrap_angles",
    "vector_from_pan_tilt", "verify_profile", "virtual_work_torques", "wrap_angle",
]
