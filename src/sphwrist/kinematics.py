"""Closed-form inverse kinematics, forward kinematics, and joint profiles.

Tool orientations live in the world frame (the frame the trajectories and
gravity are written in).  The two actuated axes are horizontal there; the
conversion to the leg-1 joint frame happens through
``WristGeometry.base_axes``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchJumpError,
    InvalidInputError,
    OutOfRangeError,
    SingularConfigurationError,
    SingularOrientationError,
    UnreachableOrientationError,
    WristError,
)
from .rotation import TimeSeries, WristGeometry, central_difference, chain_frames, cross3, unwrap_angles, wrap_angle

ROUND_TRIP_TOL = 1e-9
SINGULAR_GUARD = 1e-12
ORIENTATION_GUARD = 1e-9


@dataclass(frozen=True)
class ToolOrientation:
    """Unit direction of the tool axis in the world frame."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).reshape(-1)
        if v.shape != (3,):
            raise InvalidInputError("tool orientation must be a 3-vector")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("tool orientation must be finite")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InvalidInputError("tool orientation must be unit length")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @classmethod
    def normalized(cls, v) -> "ToolOrientation":
        v = np.asarray(v, dtype=float).reshape(-1)
        n = np.linalg.norm(v)
        if not np.isfinite(n) or n < 1e-12:
            raise InvalidInputError("cannot normalize a near-zero vector")
        return cls(v / n)


@dataclass(frozen=True)
class JointAngles:
    """The four joint angles (leg 1: first and third; leg 2: second and fourth)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if theta.shape != (4,):
            raise InvalidInputError("expected 4 joint angles")
        if not np.all(np.isfinite(theta)):
            raise InvalidInputError("joint angles must be finite")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    def wrapped(self) -> "JointAngles":
        """Copy with every angle reduced to (-pi, pi]."""
        return JointAngles(wrap_angle(self.theta))


@dataclass(frozen=True)
class JointState:
    """Joint angles with first and second time derivatives at time ``t``."""

    angles: JointAngles
    rates: np.ndarray
    accels: np.ndarray
    t: float

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float).reshape(-1)
        accels = np.asarray(self.accels, dtype=float).reshape(-1)
        if rates.shape != (4,) or accels.shape != (4,):
            raise InvalidInputError("rates and accels must hold 4 entries")
        if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(accels)) and np.isfinite(self.t)):
            raise InvalidInputError("joint state entries must be finite")
        rates = rates.copy()
        accels = accels.copy()
        rates.setflags(write=False)
        accels.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "accels", accels)


def vector_from_pan_tilt(phi1: float, phi2: float) -> ToolOrientation:
    """Unit tool direction from pan (azimuth) and tilt (elevation) angles."""
    if not (np.isfinite(phi1) and np.isfinite(phi2)):
        raise InvalidInputError("pan/tilt must be finite")
    if abs(phi2) > math.pi / 2.0 + 1e-12:
        raise OutOfRangeError("tilt must satisfy |phi2| <= pi/2")
    c2 = math.cos(phi2)
    return ToolOrientation(np.array([math.cos(phi1) * c2, math.sin(phi1) * c2, math.sin(phi2)]))


def pan_tilt_from_vector(orientation: ToolOrientation):
    """Pan and tilt of a tool direction; undefined for near-vertical directions."""
    v = orientation.v
    if math.hypot(v[0], v[1]) < ORIENTATION_GUARD:
        raise SingularOrientationError("pan is undefined for a vertical tool axis")
    phi1 = math.atan2(v[1], v[0])
    phi2 = math.asin(min(1.0, max(-1.0, v[2])))
    return phi1, phi2


def _principal_from_half_tangent(num: float, den: float) -> float:
    # theta = 2*atan(num/den) up to a 2*pi shift; atan2 keeps it finite when
    # den crosses zero, wrap_angle restores the principal value.
    return wrap_angle(2.0 * math.atan2(num, den))


def _quadratic_branch(a: float, b: float, c: float, sign: float) -> float:
    """Principal angle whose half-tangent is the selected root of
    a*T^2 + b*T + c = 0 (root (-b + sign*sqrt(disc)) / (2a)).

    Cancellation-free: the conjugate form is used whenever -b and the root
    term have opposite signs, which also keeps the branch continuous as ``a``
    passes through zero.
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale < SINGULAR_GUARD:
        raise SingularConfigurationError("orientation is on a joint axis; the angle is indeterminate")
    if max(abs(a), abs(b)) < SINGULAR_GUARD:
        raise UnreachableOrientationError("orientation lies outside the reachable cone")
    disc = b * b - 4.0 * a * c
    if disc < -1e-12 * max(1.0, scale * scale):
        raise UnreachableOrientationError("orientation lies outside the reachable cone")
    s = math.sqrt(max(disc, 0.0))
    if sign >= 0.0:
        if b <= 0.0:
            return _principal_from_half_tangent(-b + s, 2.0 * a)
        return _principal_from_half_tangent(-2.0 * c, b + s)
    if b >= 0.0:
        return _principal_from_half_tangent(-b - s, 2.0 * a)
    return _principal_from_half_tangent(2.0 * c, s - b)


def forward_kinematics(theta1: float, theta3: float, geometry: WristGeometry) -> ToolOrientation:
    """Tool direction reached by the leg-1 pair, in the world frame."""
    _, axes = chain_frames((theta1, theta3), geometry, "leg-1")
    return ToolOrientation(axes[2] / np.linalg.norm(axes[2]))


def leg2_tool_axis(theta2: float, theta4: float, geometry: WristGeometry) -> np.ndarray:
    """Direction of the distal's terminal-side axis from the leg-2 pair.

    Coincides with the tool direction whenever the loop closes.
    """
    _, axes = chain_frames((theta2, theta4), geometry, "leg-2")
    return axes[2]


def inverse_kinematics(orientation: ToolOrientation, geometry: WristGeometry) -> JointAngles:
    """All four joint angles for a tool direction, single working branch.

    Solves the leg-1 pair from the cone condition about the first drive axis,
    then the leg-2 pair from the loop-closure cone about the second drive
    axis.  Raises if the direction is unreachable or lies on a drive axis.
    """
    a0, a1, a2, a3, a4 = geometry.alpha
    u = geometry.base_axes.T @ orientation.v
    ux, uy, uz = u
    # The tool axis sits at the twist a3 from the terminal's drive axis.
    cg = math.cos(a3)

    # Leg-1 drive angle from the cone condition of the terminal's drive axis.
    qa = uz * math.cos(a1) + uy * math.sin(a1) - cg
    qb = 2.0 * ux * math.sin(a1)
    qc = uz * math.cos(a1) - uy * math.sin(a1) - cg
    theta1 = _quadratic_branch(qa, qb, qc, +1.0)

    # Terminal angle from the tool components in the leg-1 elbow frame.
    c1, s1 = math.cos(theta1), math.sin(theta1)
    sa3 = math.sin(a3)
    pd = ux * c1 + uy * s1
    pe = -ux * s1 * math.cos(a1) + uy * c1 * math.cos(a1) + uz * math.sin(a1)
    sin3 = sa3 * pd
    cos3 = -sa3 * pe
    if math.hypot(sin3, cos3) < SINGULAR_GUARD:
        raise SingularConfigurationError("terminal angle is indeterminate")
    theta3 = math.atan2(sin3, cos3)

    # Leg-2 drive angle from the loop-closure cone about the second drive axis.
    qa2 = ux * math.sin(a0) * math.cos(a2) + uy * math.sin(a2) + uz * math.cos(a0) * math.cos(a2) - math.cos(a4)
    qb2 = 2.0 * (ux * math.cos(a0) * math.sin(a2) - uz * math.sin(a0) * math.sin(a2))
    qc2 = ux * math.sin(a0) * math.cos(a2) - uy * math.sin(a2) + uz * math.cos(a0) * math.cos(a2) - math.cos(a4)
    theta2 = _quadratic_branch(qa2, qb2, qc2, -1.0)

    # Distal angle from the tool components in the leg-2 elbow frame.
    if abs(math.sin(a4)) < SINGULAR_GUARD:
        raise SingularConfigurationError("distal axis twist is degenerate")
    c2, s2 = math.cos(theta2), math.sin(theta2)
    s4 = ux * c2 * math.cos(a0) + uy * s2 - uz * c2 * math.sin(a0)
    c4a = -ux * (math.sin(a0) * math.sin(a2) - s2 * math.cos(a0) * math.cos(a2))
    c4b = -uy * c2 * math.cos(a2)
    c4d = -uz * (math.cos(a0) * math.sin(a2) + s2 * math.sin(a0) * math.cos(a2))
    c4 = c4a + c4b + c4d
    if math.hypot(s4, c4) < SINGULAR_GUARD:
        raise SingularConfigurationError("distal angle is indeterminate")
    theta4 = math.atan2(s4, c4)

    return JointAngles(np.array([theta1, theta2, theta3, theta4]))


def _closure_axes(theta, geometry):
    _, axes1 = chain_frames((theta[0], theta[2]), geometry, "leg-1")
    _, axes2 = chain_frames((theta[1], theta[3]), geometry, "leg-2")
    return axes1, axes2


def _solve_passive(b1, b2, rhs):
    # Normal-equation solve of [b1, b2] x = rhs; minimum-norm when the
    # passive axes momentarily align (a genuine wrist singularity), which is
    # also the correct compatible answer there.
    g11 = b1 @ b1
    g12 = b1 @ b2
    g22 = b2 @ b2
    det = g11 * g22 - g12 * g12
    if det <= 1e-12 * max(g11, g22) ** 2:
        x, *_ = np.linalg.lstsq(np.column_stack([b1, b2]), rhs, rcond=None)
        return float(x[0]), float(x[1])
    r1 = b1 @ rhs
    r2 = b2 @ rhs
    return (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det


def _closure_rates_from_axes(axes1, axes2, rate1, rate2):
    e1, e3, e5 = axes1
    e2, e4, _ = axes2
    rhs = cross3(rate2 * e2 - rate1 * e1, e5)
    r3, r4 = _solve_passive(cross3(e3, e5), -cross3(e4, e5), rhs)
    return np.array([rate1, rate2, r3, r4])


def _closure_accels_from_axes(axes1, axes2, rates, accel1, accel2):
    e1, e3, e5 = axes1
    e2, e4, _ = axes2
    d1, d2, d3, d4 = rates
    v_dot = cross3(d1 * e1 + d3 * e3, e5)
    e3_dot = d1 * cross3(e1, e3)
    e4_dot = d2 * cross3(e2, e4)
    rhs = (
        accel2 * cross3(e2, e5) - accel1 * cross3(e1, e5)
        + d2 * cross3(e2, v_dot) - d1 * cross3(e1, v_dot)
        - d3 * (cross3(e3_dot, e5) + cross3(e3, v_dot))
        + d4 * (cross3(e4_dot, e5) + cross3(e4, v_dot))
    )
    a3, a4 = _solve_passive(cross3(e3, e5), -cross3(e4, e5), rhs)
    return np.array([accel1, accel2, a3, a4])


def closure_rates(angles: JointAngles, rate1: float, rate2: float, geometry: WristGeometry) -> np.ndarray:
    """All four joint rates from the two actuated rates via loop closure.

    Both legs must produce the same tool-axis velocity; that fixes the two
    passive rates exactly, keeping downstream dynamics workless at the ideal
    joints.
    """
    axes1, axes2 = _closure_axes(angles.theta, geometry)
    return _closure_rates_from_axes(axes1, axes2, rate1, rate2)


def closure_accels(angles: JointAngles, rates: np.ndarray, accel1: float, accel2: float,
                   geometry: WristGeometry) -> np.ndarray:
    """All four joint accelerations from the two actuated ones via loop closure.

    Differentiates the rate-closure identity; ``rates`` must already satisfy
    it.
    """
    axes1, axes2 = _closure_axes(angles.theta, geometry)
    return _closure_accels_from_axes(axes1, axes2, rates, accel1, accel2)


def trajectory_joint_profiles(orientations, dt: float, geometry: WristGeometry):
    """Joint angles, rates, and accelerations along a sampled orientation path.

    Angles come from per-sample inverse kinematics, unwrapped for continuity.
    The actuated rates and accelerations come from central differencing of
    the unwrapped series; the passive ones follow from loop closure, so every
    returned state is exactly consistent for the dynamics stage (the
    differencing error lands in the actuated coordinates only, still second
    order).
    """
    orientations = list(orientations)
    if len(orientations) < 3:
        raise InvalidInputError("need at least 3 samples to differentiate")
    if not (np.isfinite(dt) and dt > 0.0):
        raise InvalidInputError("dt must be positive")

    theta = np.empty((len(orientations), 4))
    for i, orientation in enumerate(orientations):
        try:
            theta[i] = inverse_kinematics(orientation, geometry).theta
        except WristError as exc:
            raise type(exc)(f"sample {i}: {exc}") from exc

    theta = unwrap_angles(theta, axis=0)
    jumps = np.abs(np.diff(theta, axis=0))
    if np.any(jumps > math.pi / 2.0):
        i, j = np.argwhere(jumps > math.pi / 2.0)[0]
        raise BranchJumpError(
            f"joint {j + 1} jumps {jumps[i, j]:.3f} rad between samples {i} and {i + 1};"
            " the path crosses a singularity"
        )

    drive = central_difference(TimeSeries(dt, theta[:, :2])).values
    drive_accel = central_difference(TimeSeries(dt, drive)).values

    states = []
    for i in range(theta.shape[0]):
        angles = JointAngles(theta[i])
        axes1, axes2 = _closure_axes(theta[i], geometry)
        rates = _closure_rates_from_axes(axes1, axes2, drive[i, 0], drive[i, 1])
        accels = _closure_accels_from_axes(axes1, axes2, rates, drive_accel[i, 0], drive_accel[i, 1])
        states.append(JointState(angles, rates, accels, i * dt))
    return states
