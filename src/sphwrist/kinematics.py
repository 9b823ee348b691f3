"""Closed-form inverse kinematics, forward kinematics, and joint profiles.

Tool orientations live in the world frame (the frame the trajectories and
gravity are written in).  The two actuated axes are horizontal there; the
conversion to the leg-1 joint frame happens through
``WristGeometry.base_axes``.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchJumpError,
    InvalidInputError,
    OutOfRangeError,
    SingularConfigurationError,
    SingularOrientationError,
    UnreachableOrientationError,
)
from .rotation import (WristGeometry, central_difference, chain_frames, cross_rows, leg_frames, unwrap_angles,
                       wrap_angle)

SINGULAR_GUARD = 1e-12
ORIENTATION_GUARD = 1e-9


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass from values its checks already passed,
    without running them again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
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


def _unit_directions(v) -> np.ndarray:
    """Read-only (N, 3) float copy of stacked tool directions, checked with
    the ``ToolOrientation`` rules; the error names the lowest failing sample."""
    v = np.array(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise InvalidInputError(f"tool orientations must be an (N, 3) array, got shape {v.shape}")
    finite = np.all(np.isfinite(v), axis=1)
    bad = ~finite | ~(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        problem = "finite" if not finite[i] else "unit length"
        raise InvalidInputError(f"sample {i}: tool orientation must be {problem}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class JointAngles:
    """The four joint angles (leg 1: first and third; leg 2: second and fourth)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if theta.shape != (4,):
            raise InvalidInputError("expected 4 joint angles")
        if not np.isfinite(theta).all():
            raise InvalidInputError("joint angles must be finite")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    def wrapped(self) -> "JointAngles":
        """Copy with every angle reduced to (-pi, pi]."""
        return JointAngles(wrap_angle(self.theta))


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint angles with first and second time derivatives at time ``t``;
    ``row`` is ``(profile, index)`` for a row of a ``JointProfile``."""

    angles: JointAngles
    rates: np.ndarray
    accels: np.ndarray
    t: float
    row: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float).reshape(-1)
        accels = np.asarray(self.accels, dtype=float).reshape(-1)
        if rates.shape != (4,) or accels.shape != (4,):
            raise InvalidInputError("rates and accels must hold 4 entries")
        if not (np.isfinite(rates).all() and np.isfinite(accels).all() and math.isfinite(self.t)):
            raise InvalidInputError("joint state entries must be finite")
        rates = rates.copy()
        accels = accels.copy()
        rates.setflags(write=False)
        accels.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "accels", accels)


@dataclass(frozen=True, eq=False)
class JointProfile:
    """Joint states along a sampled path, as arrays: ``t`` (N,) and
    ``theta``/``rates``/``accels`` (N, 4).

    Indexing, and iteration through it, yield one ``JointState`` per sample,
    a read-only view of its row; ``dynamics.solve_state`` keeps one solved
    block of rows on the profile (``_ne_block``).
    """

    t: np.ndarray
    theta: np.ndarray
    rates: np.ndarray
    accels: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        for name, shape in (("t", (n,)), ("theta", (n, 4)), ("rates", (n, 4)), ("accels", (n, 4))):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != shape:
                raise InvalidInputError(f"profile {name} must have shape {shape}, got {values.shape}")
            finite = np.isfinite(values)
            if not finite.all():
                raise InvalidInputError(f"sample {np.argwhere(~finite)[0][0]}: profile {name} must hold finite values")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> JointState:
        i = range(len(self.t))[operator.index(i)]
        return _unchecked(JointState, angles=_unchecked(JointAngles, theta=self.theta[i]), rates=self.rates[i],
                          accels=self.accels[i], t=float(self.t[i]), row=(self, i))


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


def _quadratic_branch(a, b, c, sign: float):
    """Principal angle whose half-tangent is the selected root of
    a*T^2 + b*T + c = 0 (root (-b + sign*sqrt(disc)) / (2a)), elementwise.

    Cancellation-free: the conjugate form is used whenever -b and the root
    term have opposite signs, which also keeps the branch continuous as ``a``
    passes through zero.  Returns the angles and the two guard checks.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    disc = b * b - 4.0 * a * c
    checks = [
        (scale < SINGULAR_GUARD, SingularConfigurationError,
         "orientation is on a joint axis; the angle is indeterminate"),
        ((np.maximum(np.abs(a), np.abs(b)) < SINGULAR_GUARD)
         | (disc < -1e-12 * np.maximum(1.0, scale * scale)),
         UnreachableOrientationError, "orientation lies outside the reachable cone"),
    ]
    s = np.sqrt(np.maximum(disc, 0.0))
    direct = sign * b <= 0.0
    num = np.where(direct, -b + sign * s, -2.0 * sign * c)
    den = np.where(direct, 2.0 * a, s + sign * b)
    # theta = 2*atan(num/den) up to a 2*pi shift; atan2 keeps it finite when
    # den crosses zero, wrap_angle restores the principal value.
    return wrap_angle(2.0 * np.arctan2(num, den)), checks


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


def _joint_angles(v, geometry: WristGeometry) -> np.ndarray:
    """Closed-form inverse kinematics of (3,) or (N, 3) world-frame tool
    directions; returns (4,) or (N, 4) joint angles on the working branch.

    Solves the leg-1 pair from the cone condition about the first drive axis,
    then the leg-2 pair from the loop-closure cone about the second drive
    axis.  Raises if a direction is unreachable or lies on a drive axis; for
    (N, 3) input the error names the lowest failing sample.
    """
    a0, a1, a2, a3, a4 = geometry.alpha
    u = v @ geometry.base_axes
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    # The tool axis sits at the twist a3 from the terminal's drive axis.
    cg = math.cos(a3)

    # Leg-1 drive angle from the cone condition of the terminal's drive axis.
    qa = uz * math.cos(a1) + uy * math.sin(a1) - cg
    qb = 2.0 * ux * math.sin(a1)
    qc = uz * math.cos(a1) - uy * math.sin(a1) - cg
    theta1, checks = _quadratic_branch(qa, qb, qc, +1.0)

    # Terminal angle from the tool components in the leg-1 elbow frame.
    c1, s1 = np.cos(theta1), np.sin(theta1)
    sa3 = math.sin(a3)
    pd = ux * c1 + uy * s1
    pe = -ux * s1 * math.cos(a1) + uy * c1 * math.cos(a1) + uz * math.sin(a1)
    sin3 = sa3 * pd
    cos3 = -sa3 * pe
    checks.append((np.hypot(sin3, cos3) < SINGULAR_GUARD, SingularConfigurationError,
                   "terminal angle is indeterminate"))
    theta3 = np.arctan2(sin3, cos3)

    # Leg-2 drive angle from the loop-closure cone about the second drive axis.
    qa2 = ux * math.sin(a0) * math.cos(a2) + uy * math.sin(a2) + uz * math.cos(a0) * math.cos(a2) - math.cos(a4)
    qb2 = 2.0 * (ux * math.cos(a0) * math.sin(a2) - uz * math.sin(a0) * math.sin(a2))
    qc2 = ux * math.sin(a0) * math.cos(a2) - uy * math.sin(a2) + uz * math.cos(a0) * math.cos(a2) - math.cos(a4)
    theta2, checks2 = _quadratic_branch(qa2, qb2, qc2, -1.0)
    checks += checks2
    checks.append((abs(math.sin(a4)) < SINGULAR_GUARD, SingularConfigurationError, "distal axis twist is degenerate"))

    # Distal angle from the tool components in the leg-2 elbow frame.
    c2, s2 = np.cos(theta2), np.sin(theta2)
    s4 = ux * c2 * math.cos(a0) + uy * s2 - uz * c2 * math.sin(a0)
    c4a = -ux * (math.sin(a0) * math.sin(a2) - s2 * math.cos(a0) * math.cos(a2))
    c4b = -uy * c2 * math.cos(a2)
    c4d = -uz * (math.cos(a0) * math.sin(a2) + s2 * math.sin(a0) * math.cos(a2))
    c4 = c4a + c4b + c4d
    checks.append((np.hypot(s4, c4) < SINGULAR_GUARD, SingularConfigurationError,
                   "distal angle is indeterminate"))
    theta4 = np.arctan2(s4, c4)

    # Report the lowest failing sample; there, the first check that fails.
    failed = np.array([np.broadcast_to(mask, ux.shape) for mask, _, _ in checks]).reshape(len(checks), -1)
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        _, error, message = checks[int(np.argmax(failed[:, i]))]
        raise error(f"sample {i}: {message}" if u.ndim > 1 else message)
    return np.stack([theta1, theta2, theta3, theta4], axis=-1)


def inverse_kinematics(orientation: ToolOrientation, geometry: WristGeometry) -> JointAngles:
    """All four joint angles for a tool direction, single working branch.

    The one-sample case of the profile stage's inverse kinematics; raises if
    the direction is unreachable or lies on a drive axis.
    """
    return JointAngles(_joint_angles(orientation.v, geometry))


def _axis_stack(f0, f1, f2) -> np.ndarray:
    """Axes e1..e6 (n, 6, 3) from ``leg_frames`` output: the two drive axes,
    the two elbow axes, then the two tool axes, leg 1's before leg 2's."""
    return np.concatenate([np.broadcast_to(f0[..., 2], f1.shape[:-1]), f1[..., 2], f2[..., 2]], axis=1)


def _passive_closure(axes):
    """Loop closure's passive columns b1, b2 (n, 3) at axes (n, 6, 3): the
    tool-axis velocity per unit rate of the terminal joint and, negated, of
    the distal joint, for closure to solve [b1, b2] x = rhs.  Also the rows
    where their Gram determinant vanishes (a type-II singularity: the passive
    axes align, and the actuated rates do not fix the passive ones)."""
    e3, e4, e5 = axes[:, 2], axes[:, 3], axes[:, 4]
    b1, b2 = cross_rows(e3, e5), -cross_rows(e4, e5)
    g11 = np.sum(b1 * b1, axis=1)
    g12 = np.sum(b1 * b2, axis=1)
    g22 = np.sum(b2 * b2, axis=1)
    return b1, b2, g11 * g22 - g12 * g12 <= 1e-12 * np.maximum(g11, g22) ** 2


def _solve_passive(passive, rhs):
    # Row-wise solve of [b1, b2] x = rhs by Cramer's rule against the normal
    # n = b1 x b2, which keeps full accuracy next to a singularity, where the
    # normal equations square the conditioning.  Minimum-norm on the singular
    # rows, which is also the correct compatible answer there.
    b1, b2, singular = passive
    n = cross_rows(b1, b2)
    nn = np.where(singular, 1.0, np.sum(n * n, axis=1))
    x = np.column_stack([np.sum(cross_rows(rhs, b2) * n, axis=1),
                         np.sum(cross_rows(b1, rhs) * n, axis=1)]) / nn[:, None]
    for i in np.flatnonzero(singular):
        x[i], *_ = np.linalg.lstsq(np.column_stack([b1[i], b2[i]]), rhs[i], rcond=None)
    return x


def _closure_rates_from_axes(axes, passive, drive):
    e1, e2, e5 = axes[:, 0], axes[:, 1], axes[:, 4]
    rate1, rate2 = drive[:, :1], drive[:, 1:]
    rhs = cross_rows(rate2 * e2 - rate1 * e1, e5)
    return np.hstack([drive, _solve_passive(passive, rhs)])


def _closure_accels_from_axes(axes, passive, rates, drive):
    e1, e2, e3, e4, e5 = (axes[:, k] for k in range(5))
    d1, d2, d3, d4 = (rates[:, k:k + 1] for k in range(4))
    accel1, accel2 = drive[:, :1], drive[:, 1:]
    v_dot = cross_rows(d1 * e1 + d3 * e3, e5)
    e3_dot = d1 * cross_rows(e1, e3)
    e4_dot = d2 * cross_rows(e2, e4)
    rhs = (
        accel2 * cross_rows(e2, e5) - accel1 * cross_rows(e1, e5)
        + d2 * cross_rows(e2, v_dot) - d1 * cross_rows(e1, v_dot)
        - d3 * (cross_rows(e3_dot, e5) + cross_rows(e3, v_dot))
        + d4 * (cross_rows(e4_dot, e5) + cross_rows(e4, v_dot))
    )
    return np.hstack([drive, _solve_passive(passive, rhs)])


def closure_rates(angles: JointAngles, rate1: float, rate2: float, geometry: WristGeometry) -> np.ndarray:
    """All four joint rates from the two actuated rates via loop closure.

    Both legs must produce the same tool-axis velocity; that fixes the two
    passive rates exactly, keeping downstream dynamics workless at the ideal
    joints.
    """
    axes = _axis_stack(*leg_frames(angles.theta[None], geometry))
    return _closure_rates_from_axes(axes, _passive_closure(axes), np.array([[rate1, rate2]], dtype=float))[0]


def closure_accels(angles: JointAngles, rates: np.ndarray, accel1: float, accel2: float,
                   geometry: WristGeometry) -> np.ndarray:
    """All four joint accelerations from the two actuated ones via loop closure.

    Differentiates the rate-closure identity; ``rates`` must already satisfy
    it.
    """
    axes = _axis_stack(*leg_frames(angles.theta[None], geometry))
    drive = np.array([[accel1, accel2]], dtype=float)
    return _closure_accels_from_axes(axes, _passive_closure(axes), np.reshape(rates, (1, 4)), drive)[0]


def trajectory_joint_profiles(orientations, dt: float, geometry: WristGeometry) -> JointProfile:
    """Joint angles, rates, and accelerations along a sampled orientation path.

    ``orientations`` is an (N, 3) array of unit world-frame tool directions,
    such as an ``OrientationPath``'s ``v``, checked here with the
    ``ToolOrientation`` rules; or a sequence of ``ToolOrientation``.

    Angles come from inverse kinematics over all samples, unwrapped for
    continuity.  The actuated rates and accelerations come from central
    differencing of the unwrapped series; the passive ones follow from loop
    closure, so every sample is exactly consistent for the dynamics stage
    (the differencing error lands in the actuated coordinates only, still
    second order).
    """
    if isinstance(orientations, np.ndarray):
        v = _unit_directions(orientations)
    else:
        v = np.array([o.v for o in orientations])
    if len(v) < 3:
        raise InvalidInputError("need at least 3 samples to differentiate")
    if not (np.isfinite(dt) and dt > 0.0):
        raise InvalidInputError("dt must be positive")

    theta = unwrap_angles(_joint_angles(v, geometry), axis=0)
    jumps = np.abs(np.diff(theta, axis=0))
    if np.any(jumps > math.pi / 2.0):
        i, j = np.argwhere(jumps > math.pi / 2.0)[0]
        raise BranchJumpError(
            f"joint {j + 1} jumps {jumps[i, j]:.3f} rad between samples {i} and {i + 1};"
            " the path crosses a singularity"
        )

    drive = central_difference(theta[:, :2], dt)
    drive_accel = central_difference(drive, dt)
    axes = _axis_stack(*leg_frames(theta, geometry))
    passive = _passive_closure(axes)
    rates = _closure_rates_from_axes(axes, passive, drive)
    accels = _closure_accels_from_axes(axes, passive, rates, drive_accel)
    return JointProfile(np.arange(len(theta)) * dt, theta, rates, accels)
