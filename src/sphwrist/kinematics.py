"""Closed-form inverse kinematics, forward kinematics, and joint profiles.

Tool orientations live in the world frame (the frame the trajectories and
gravity are written in).  The two actuated axes are horizontal there.  Both
directions of the kinematics read one description of the legs,
``WristGeometry._legs`` (each leg's base frame and its two twists): forward
kinematics chains frames from it, inverse kinematics solves each leg on it.

The profile stage (``_profile_pass``) makes the one kinematic pass over a
path: the links' frames and joint axes from one ``leg_frames`` call, and the
passive loop-closure terms with their type-II singularity test
(``_kinematics_at``).  It returns them next to the profile, which holds only
its four arrays, for a caller that reads them (``analysis.path_pass``);
every other pass builds them from the angles of the rows it solves.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BranchJumpError, InvalidInputError, OutOfRangeError, SingularConfigurationError,
                     SingularOrientationError, UnreachableOrientationError, finite_scalar, float_array, frozen_rows,
                     frozen_vector)
from .rotation import (WristGeometry, central_difference, chain_frames, cross_rows, dot_rows, leg_frames,
                       unwrap_angles, wrap_angle)

SINGULAR_GUARD = 1e-12
ORIENTATION_GUARD = 1e-9


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass from values its checks already passed,
    without running them again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _sample_label(i, t, v) -> str:
    """``sample <i> (t = <t> s, v = (x, y, z))``, each number ``.6g``: how a
    per-sample error of the profile stage or the dynamics names the sample's
    index, time and tool direction."""
    return f"sample {i} (t = {t:.6g} s, v = ({', '.join(format(c, '.6g') for c in np.asarray(v).tolist())}))"


def _index_label(i) -> str:
    return f"sample {i}"


@dataclass(frozen=True, eq=False)
class ToolOrientation:
    """Unit direction of the tool axis in the world frame."""

    v: np.ndarray

    def __post_init__(self):
        v = frozen_vector("tool orientation", self.v, 3)
        if _off_unit(v):
            raise InvalidInputError("tool orientation must be unit length")
        object.__setattr__(self, "v", v)

    @classmethod
    def normalized(cls, v) -> "ToolOrientation":
        v = frozen_vector("tool orientation", v, 3)
        # Scaled by the largest |component| first, so the norm cannot overflow.
        scale = np.max(np.abs(v))
        u = v / scale if scale > 0.0 else v
        n = np.linalg.norm(u)
        if scale * n < 1e-12:
            raise InvalidInputError("cannot normalize a near-zero vector")
        return cls(u / n)


def _off_unit(v):
    """Which directions of a (..., 3) stack fail the one unit-length test of
    ``ToolOrientation`` and ``_unit_directions``; a non-finite one fails it."""
    with np.errstate(over="ignore"):  # an overflowed norm is inf, which fails the test
        return ~(np.abs(np.sqrt(dot_rows(v, v)) - 1.0) <= 1e-12)


def _unit_directions(v) -> np.ndarray:
    """Read-only (N, 3) float copy of stacked tool directions, checked with
    the ``ToolOrientation`` rules; the error names the lowest failing sample."""
    v = float_array(v, "tool orientations must hold real numbers")
    if v.ndim != 2 or v.shape[1] != 3:
        raise InvalidInputError(f"tool orientations must be an (N, 3) array, got shape {v.shape}")
    bad = _off_unit(v)
    if bad.any():
        i = int(np.argmax(bad))
        problem = "finite" if not np.isfinite(v[i]).all() else "unit length"
        raise InvalidInputError(f"sample {i}: tool orientation must be {problem}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class JointAngles:
    """The four joint angles (leg 1: first and third; leg 2: second and fourth)."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", frozen_vector("joint angles", self.theta, 4))

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
        object.__setattr__(self, "rates", frozen_vector("rates", self.rates, 4))
        object.__setattr__(self, "accels", frozen_vector("accels", self.accels, 4))
        object.__setattr__(self, "t", finite_scalar("t", self.t))


@dataclass(frozen=True, eq=False)
class JointProfile:
    """Joint states along a sampled path, as arrays: ``t`` (N,) and
    ``theta``/``rates``/``accels`` (N, 4).

    Indexing and iteration yield one ``JointState`` per sample, a read-only
    view of its row.  Besides its four arrays, a profile holds only the one
    block of rows that ``dynamics.solve_state`` last solved (``_ne_block``).
    """

    t: np.ndarray
    theta: np.ndarray
    rates: np.ndarray
    accels: np.ndarray

    def __post_init__(self):
        for name, values in _profile_arrays(self.t, self.theta, self.rates, self.accels).items():
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> JointState:
        i = range(len(self.t))[operator.index(i)]
        return self._row(i, float(self.t[i]), self.theta[i], self.rates[i], self.accels[i])

    def __iter__(self):
        for i, (t, theta, rates, accels) in enumerate(zip(self.t.tolist(), self.theta, self.rates, self.accels)):
            yield self._row(i, t, theta, rates, accels)

    def _row(self, i, t, theta, rates, accels) -> JointState:
        # An unchecked JointState, its five fields set by one __dict__.update, and its JointAngles by one
        # object.__setattr__, which keeps CPython's compact attribute storage for a one-field object (80 B,
        # where __dict__.update makes 246 B): 1.4 us a row, against 1.6 us with _unchecked for the angles and
        # 2.7 us through _unchecked alone (2-vCPU VM).
        angles = object.__new__(JointAngles)
        object.__setattr__(angles, "theta", theta)
        state = object.__new__(JointState)
        state.__dict__.update(angles=angles, rates=rates, accels=accels, t=t, row=(self, i))
        return state


def _profile_arrays(t, theta, rates, accels, label=_index_label) -> dict:
    """The fields of a ``JointProfile`` as read-only float copies, after its
    shape and finiteness checks (``frozen_rows``)."""
    try:
        n = len(t)
    except TypeError:  # a scalar time is one sample of the wrong shape
        n = 1
    return {name: frozen_rows(f"profile {name}", values, shape, label)
            for name, values, shape in (("t", t, (n,)), ("theta", theta, (n, 4)), ("rates", rates, (n, 4)),
                                        ("accels", accels, (n, 4)))}


def vector_from_pan_tilt(phi1: float, phi2: float) -> ToolOrientation:
    """Unit tool direction from pan (azimuth) and tilt (elevation) angles."""
    phi1, phi2 = finite_scalar("pan/tilt", phi1), finite_scalar("pan/tilt", phi2)
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
    passes through zero.  At a clamped (double) root the two forms are
    -b/(2a) and -2c/b; the one with the larger denominator is used, so that
    neither is 0/0 up to rounding.  Where a and b vanish, the double root is
    T = infinity, and -2c/b gives theta = pi.  Returns the angles and the two
    guard checks.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    disc = b * b - 4.0 * a * c
    checks = [
        (scale < SINGULAR_GUARD, SingularConfigurationError,
         "orientation is on a joint axis; the angle is indeterminate"),
        (disc < -1e-12 * np.maximum(1.0, scale * scale),
         UnreachableOrientationError, "orientation lies outside the reachable cone"),
    ]
    s = np.sqrt(np.maximum(disc, 0.0))
    direct = np.where(s == 0.0, np.abs(a) >= np.abs(c), sign * b <= 0.0)
    num = np.where(direct, -b + sign * s, -2.0 * sign * c)
    den = np.where(direct, 2.0 * a, s + sign * b)
    # theta = 2*atan(num/den) up to a 2*pi shift; atan2 keeps it finite when
    # den crosses zero, wrap_angle restores the principal value.
    return wrap_angle(2.0 * np.arctan2(num, den)), checks


def forward_kinematics(theta1: float, theta3: float, geometry: WristGeometry) -> ToolOrientation:
    """Tool direction reached by the leg-1 pair, in the world frame."""
    _, axes = chain_frames((finite_scalar("thetas", theta1), finite_scalar("thetas", theta3)), geometry, "leg-1")
    return ToolOrientation(axes[2] / np.linalg.norm(axes[2]))


def leg2_tool_axis(theta2: float, theta4: float, geometry: WristGeometry) -> np.ndarray:
    """Direction of the distal's terminal-side axis from the leg-2 pair.

    Coincides with the tool direction whenever the loop closes.
    """
    _, axes = chain_frames((theta2, theta4), geometry, "leg-2")
    return axes[2]


def _leg_angles(u, cos, sin, sign: float, elbow: str):
    """Drive and elbow angles of one leg at tool directions ``u`` (..., 3) in
    its base frame, from the cosines and sines of its two twists, with their
    guard checks; ``sign`` picks the cone condition's root, ``elbow`` names
    the second joint in an error."""
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    ca, cb = cos
    sa, sb = sin
    # Drive angle from the cone condition: the tool axis sits at the second
    # twist from the elbow axis.
    qa = uz * ca + uy * sa - cb
    qb = 2.0 * ux * sa
    qc = uz * ca - uy * sa - cb
    drive, checks = _quadratic_branch(qa, qb, qc, sign)

    # Elbow angle from the tool components in the elbow frame.
    c, s = np.cos(drive), np.sin(drive)
    px = ux * c + uy * s
    py = -ux * s * ca + uy * c * ca + uz * sa
    sin_e, cos_e = sb * px, -sb * py
    checks.append((np.hypot(sin_e, cos_e) < SINGULAR_GUARD, SingularConfigurationError,
                   f"{elbow} angle is indeterminate"))
    return drive, np.arctan2(sin_e, cos_e), checks


def _joint_angles(v, geometry: WristGeometry, label=_index_label) -> np.ndarray:
    """Closed-form inverse kinematics of (3,) or (N, 3) world-frame tool
    directions; returns (4,) or (N, 4) joint angles on the working branch.

    Solves each leg by ``_leg_angles`` on its base frame and twists from
    ``WristGeometry._legs``, leg 1 (theta1, theta3) on the root of sign +1,
    leg 2 (theta2, theta4) on the root of sign -1.  Raises if a direction is
    unreachable or lies on a joint axis; for (N, 3) input the error names the
    lowest failing sample by ``label(i)``.
    """
    f0, cos, sin = geometry._legs
    theta1, theta3, checks = _leg_angles(v @ f0[0], cos[0], sin[0], +1.0, "terminal")
    theta2, theta4, checks2 = _leg_angles(v @ f0[1], cos[1], sin[1], -1.0, "distal")
    checks += checks2

    # Report the lowest failing sample; there, the first check that fails.
    if any(np.any(mask) for mask, _, _ in checks):
        failed = np.array([np.broadcast_to(mask, v.shape[:-1]) for mask, _, _ in checks]).reshape(len(checks), -1)
        i = int(np.argmax(failed.any(axis=0)))
        _, error, message = checks[int(np.argmax(failed[:, i]))]
        raise error(f"{label(i)}: {message}" if v.ndim > 1 else message)
    return np.stack([theta1, theta2, theta3, theta4], axis=-1)


def inverse_kinematics(orientation: ToolOrientation, geometry: WristGeometry) -> JointAngles:
    """All four joint angles for a tool direction, single working branch.

    The one-sample case of the profile stage's inverse kinematics; raises if
    the direction is unreachable or lies on a drive axis.
    """
    return JointAngles(_joint_angles(orientation.v, geometry))


def _axis_stack(f0, f1, f2) -> np.ndarray:
    """Axes e1..e6 (n, 6, 3) from ``leg_frames`` output: the two drive axes,
    the two elbow axes, then the two tool axes, leg 1's before leg 2's.
    Stored axis-major, so that each e_k is one contiguous (n, 3) block."""
    axes = np.empty((6, len(f1), 3))
    axes[:2] = f0[:, None, :, 2]
    axes[2:4] = f1[..., 2].transpose(1, 0, 2)
    axes[4:] = f2[..., 2].transpose(1, 0, 2)
    return axes.transpose(1, 0, 2)


class _PassiveClosure(NamedTuple):
    """Loop closure's passive columns ``b1``, ``b2`` (n, 3) at n joint states:
    the tool-axis velocity per unit rate of the terminal joint and, negated,
    of the distal joint, for closure to solve [b1, b2] x = rhs.  Their
    ``normal`` b1 x b2 (n, 3) and its squared norm ``normal_sq`` (n,), 1 on
    the ``singular`` rows (n,), where the Gram determinant of b1, b2 vanishes
    (a type-II singularity: the passive axes align, and the actuated rates do
    not fix the passive ones)."""

    b1: np.ndarray
    b2: np.ndarray
    singular: np.ndarray
    normal: np.ndarray
    normal_sq: np.ndarray


def _passive_closure(axes) -> _PassiveClosure:
    """The passive closure terms at axes e1..e6 (n, 6, 3)."""
    e3, e4, e5 = axes[:, 2], axes[:, 3], axes[:, 4]
    b1, b2 = cross_rows(e3, e5), -cross_rows(e4, e5)
    g11, g12, g22 = dot_rows(b1, b1), dot_rows(b1, b2), dot_rows(b2, b2)
    singular = g11 * g22 - g12 * g12 <= 1e-12 * np.maximum(g11, g22) ** 2
    normal = cross_rows(b1, b2)
    return _PassiveClosure(b1, b2, singular, normal, np.where(singular, 1.0, dot_rows(normal, normal)))


def _solve_passive(passive: _PassiveClosure, rhs):
    # Row-wise solve of [b1, b2] x = rhs by Cramer's rule against the normal
    # n = b1 x b2, which keeps full accuracy next to a singularity, where the
    # normal equations square the conditioning.  Minimum-norm on the singular
    # rows, which is also the correct compatible answer there.
    b1, b2, singular, n, nn = passive
    x = np.column_stack([dot_rows(cross_rows(rhs, b2), n), dot_rows(cross_rows(b1, rhs), n)]) / nn[:, None]
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


class _Kinematics(NamedTuple):
    """The kinematic terms of n joint states that every pass over them reads:
    both legs' frames after the first joint step ``f1`` and after the second
    ``f2`` (n, 2, 3, 3) each, as ``leg_frames`` gives them; axes e1..e6
    ``axes`` (n, 6, 3) (``_axis_stack``); the ``passive`` closure terms; and
    the ``geometry`` they were built on."""

    f1: np.ndarray
    f2: np.ndarray
    axes: np.ndarray
    passive: _PassiveClosure
    geometry: WristGeometry


def _frames_at(theta, geometry: WristGeometry):
    """``_kinematics_at`` without the passive closure terms: all that a Newton-Euler pass reads."""
    f0, f1, f2 = leg_frames(theta, geometry)
    return f1, f2, _axis_stack(f0, f1, f2)


def _kinematics_at(theta, geometry: WristGeometry) -> _Kinematics:
    """The kinematic terms at joint states theta (n, 4), from one ``leg_frames`` call."""
    f1, f2, axes = _frames_at(theta, geometry)
    return _Kinematics(f1, f2, axes, _passive_closure(axes), geometry)


def trajectory_joint_profiles(orientations, dt: float, geometry: WristGeometry) -> JointProfile:
    """Joint angles, rates, and accelerations along a sampled orientation path.

    ``orientations`` is a sequence of ``ToolOrientation`` or any (N, 3)
    array-like of unit world-frame tool directions (such as an
    ``OrientationPath``'s ``v``), checked with the ``ToolOrientation`` rules.

    Angles come from inverse kinematics over all samples, unwrapped for
    continuity.  The actuated rates and accelerations come from central
    differencing of the unwrapped series; the passive ones follow from loop
    closure, so every sample is exactly consistent for the dynamics stage
    (the differencing error lands in the actuated coordinates only, still
    second order).  An IK failure or a non-finite profile value names its
    lowest sample with the sample's time and tool direction
    (``_sample_label``).
    """
    return _profile_pass(orientations, dt, geometry)[0]


def _profile_pass(orientations, dt: float, geometry: WristGeometry, clock=None) -> tuple[JointProfile, _Kinematics]:
    """``trajectory_joint_profiles``, with the same checks and errors, and
    the kinematic terms of its pass (``_kinematics_at`` of the profile's
    angles), which the profile does not keep.  ``clock`` (``dt`` if None)
    is the step of the profile's times and of the times its errors name."""
    try:
        v = np.array([o.v for o in orientations])
    except (AttributeError, TypeError):  # not a sequence of ToolOrientation: any (N, 3) array-like
        v = _unit_directions(orientations)
    if len(v) < 3:
        raise InvalidInputError("need at least 3 samples to differentiate")
    dt = finite_scalar("dt", dt, 0.0, closed=False)

    clock = dt if clock is None else clock

    def label(i):
        return _sample_label(i, i * clock, v[i])

    theta = unwrap_angles(_joint_angles(v, geometry, label), axis=0)
    jumps = np.abs(np.diff(theta, axis=0))
    if np.any(jumps > math.pi / 2.0):
        i, j = np.argwhere(jumps > math.pi / 2.0)[0]
        raise BranchJumpError(f"joint {j + 1} jumps {jumps[i, j]:.3f} rad between {label(i)} and {label(i + 1)};"
                              " the path crosses a singularity or is sampled too coarsely")

    drive = frozen_rows("profile rates", central_difference(theta[:, :2], dt), (len(theta), 2), label)
    drive_accel = central_difference(drive, dt)
    _, _, axes, passive, _ = kinematics = _kinematics_at(theta, geometry)
    rates = _closure_rates_from_axes(axes, passive, drive)
    accels = _closure_accels_from_axes(axes, passive, rates, drive_accel)
    profile = _unchecked(JointProfile, **_profile_arrays(np.arange(len(theta)) * clock, theta, rates, accels, label))
    return profile, kinematics
