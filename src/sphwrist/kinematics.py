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

Loop closure is solved in closed form on the type-II determinant
D = e3 . (e4 x e5) (``_passive_closure``): the passive rates per unit rate
of each actuator are triple products over D, and the passive rates and
accelerations of a profile follow from them and from dot products of the
axes (``_closure_motion``), with no linear solve but on the singular rows.
D changes sign where a path crosses a type-II singularity.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BranchJumpError, InvalidInputError, OutOfRangeError, SingularConfigurationError,
                     SingularOrientationError, UnreachableOrientationError, finite_scalar, float_array, frozen_rows,
                     frozen_vector)
from .rotation import (WristGeometry, _wrap, central_difference, chain_frames, cross_rows, dot_rows, leg_frames,
                       wrap_angle)

SINGULAR_GUARD = 1e-12
ORIENTATION_GUARD = 1e-9
# Every torque path's type-II threshold, each on its own measure: |D| / max(b1 . b1, b2 . b2) of the closure
# (``_PassiveClosure``) and Newton-Euler's det K ratio (``dynamics._type_ii_terms``), equal on this geometry.
TYPE_II_TOL = 1e-6


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
    # den crosses zero, _wrap restores the principal value.
    return _wrap(2.0 * np.arctan2(num, den)), checks


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
    """Loop closure's passive terms at n joint states.  Both legs turn the
    tool axis e5 alike, so the passive rates x = (theta3', theta4') solve
    [b1, b2] x = r, with b1 = e3 x e5, b2 = -e4 x e5 and, for the actuated
    rates, r = (theta2' e2 - theta1' e1) x e5.  The columns and every such r
    are normal to e5, so x = -(r . e4, r . e3) / D on the type-II
    determinant D = e3 . (e4 x e5) = -(b1 x b2) . e5 (Gosselin & Angeles,
    IEEE TRA 6(3), 1990).  Holds ``b1`` (n, 3), which the tip force reads;
    D as ``det`` (n,), whose sign changes where a path crosses a type-II
    singularity; the ``singular`` rows (n,), where |D| <= ``TYPE_II_TOL``
    max(b1 . b1, b2 . b2) (the passive axes align, and the actuated rates
    do not fix the passive ones); and ``unit_rates`` (2, n, 2), the passive rates per
    unit rate of each actuator, minimum-norm least squares on the singular
    rows."""

    b1: np.ndarray
    det: np.ndarray
    singular: np.ndarray
    unit_rates: np.ndarray


def _passive_closure(axes) -> _PassiveClosure:
    """The passive closure terms at axes e1..e6 (n, 6, 3)."""
    e1, e2, e3, e4, e5 = (axes[:, k] for k in range(5))
    b1, normal = cross_rows(e3, e5), cross_rows(e4, e5)
    det = dot_rows(e3, normal)
    scale = np.maximum(dot_rows(b1, b1), dot_rows(normal, normal))
    singular = det * det <= TYPE_II_TOL * TYPE_II_TOL * scale * scale
    # x = -(r . e4, r . e3) / D at r = -e1 x e5 and r = e2 x e5, each a triple product over e4 x e5 or b1:
    # u1 = -(e1 . (e4 x e5), e1 . b1) / D and u2 = (e2 . (e4 x e5), e2 . b1) / D.
    unit_rates = np.empty((2, len(det), 2))
    unit_rates[0, :, 0], unit_rates[0, :, 1] = dot_rows(e1, normal), dot_rows(e1, b1)
    unit_rates[1, :, 0], unit_rates[1, :, 1] = dot_rows(e2, normal), dot_rows(e2, b1)
    unit_rates /= np.where(singular, 1.0, det)[:, None] * np.array([[[-1.0]], [[1.0]]])
    for i in np.flatnonzero(singular):
        unit_rates[:, i] = _singular_row(axes[i], b1[i], np.column_stack([cross_rows(e5[i], e1[i]),
                                                                          cross_rows(e2[i], e5[i])])).T
    return _PassiveClosure(b1, det, singular, unit_rates)


def _singular_row(axes, b1, rhs):
    # [b1, b2] x = rhs (3, k) at one singular row, axes (6, 3), by minimum-norm least squares.
    return np.linalg.lstsq(np.column_stack([b1, cross_rows(axes[4], axes[3])]), rhs, rcond=None)[0]


def _closure_motion(axes, passive: _PassiveClosure, drive_rates, drive_accels):
    """All four joint rates and accelerations (n, 4) at n joint states from
    the actuated ones (n, 2), by loop closure on the ``passive`` terms.  The
    passive rates are theta1' u1 + theta2' u2 on the unit rates u_k, and the
    passive accelerations theta1'' u1 + theta2'' u2 - (c . e4, c . e3) / D,
    c the velocity-product part of the right-hand side:
    c = -(w1 - w2) x (w1 x e5) - theta1' theta3' (e1 x e3) x e5
    + theta2' theta4' (e2 x e4) x e5, with w1 = theta1' e1 + theta3' e3 and
    w2 = theta2' e2 + theta4' e4 each leg's angular velocity.  Each double
    cross product is expanded into dot products of the unit axes."""
    b1, det, singular, unit_rates = passive
    e1, e2, e3, e4, e5 = (axes[:, k] for k in range(5))
    n = len(det)
    rates, accels = np.empty((n, 4)), np.empty((n, 4))
    rates[:, :2], accels[:, :2] = drive_rates, drive_accels
    d1, d2 = drive_rates[:, 0], drive_rates[:, 1]
    (u13, u14), (u23, u24) = unit_rates.transpose(0, 2, 1)
    rates[:, 2], rates[:, 3] = d1 * u13 + d2 * u23, d1 * u14 + d2 * u24
    d3, d4 = rates[:, 2], rates[:, 3]
    a12, a13, a14, a15 = (dot_rows(e1, e) for e in (e2, e3, e4, e5))
    a23, a24, a25 = (dot_rows(e2, e) for e in (e3, e4, e5))
    a34, a35, a45 = dot_rows(e3, e4), dot_rows(e3, e5), dot_rows(e4, e5)
    # (w1 - w2) . e5, w1 . e4, w1 . e3 and (w1 - w2) . w1.
    relative_5 = d1 * a15 + d3 * a35 - d2 * a25 - d4 * a45
    w1_4, w1_3 = d1 * a14 + d3 * a34, d1 * a13 + d3
    relative_w1 = d1 * (d1 + d3 * a13) + d3 * w1_3 - d2 * (d1 * a12 + d3 * a23) - d4 * w1_4
    p13, p24 = d1 * d3, d2 * d4
    c4 = a45 * relative_w1 - w1_4 * relative_5 - p13 * (a34 * a15 - a14 * a35) + p24 * (a25 - a24 * a45)
    c3 = a35 * relative_w1 - w1_3 * relative_5 - p13 * (a15 - a13 * a35) + p24 * (a34 * a25 - a23 * a45)
    d = -np.where(singular, 1.0, det)
    accels[:, 2] = drive_accels[:, 0] * u13 + drive_accels[:, 1] * u23 + c4 / d
    accels[:, 3] = drive_accels[:, 0] * u14 + drive_accels[:, 1] * u24 + c3 / d
    for i in np.flatnonzero(singular):
        # c itself, for the least-squares solve of the row.
        c = (relative_w1[i] * e5[i] - relative_5[i] * (d1[i] * e1[i] + d3[i] * e3[i])
             + p13[i] * (a35[i] * e1[i] - a15[i] * e3[i]) + p24[i] * (a25[i] * e4[i] - a45[i] * e2[i]))
        accels[i, 2:] = drive_accels[i] @ unit_rates[:, i] + _singular_row(axes[i], b1[i], c)
    return rates, accels


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

    theta = np.unwrap(_joint_angles(v, geometry, label), axis=0)
    jumps = np.abs(np.diff(theta, axis=0))
    if np.any(jumps > math.pi / 2.0):
        i, j = np.argwhere(jumps > math.pi / 2.0)[0]
        raise BranchJumpError(f"joint {j + 1} jumps {jumps[i, j]:.3f} rad between {label(i)} and {label(i + 1)};"
                              " the path crosses a singularity or is sampled too coarsely")

    drive = frozen_rows("profile rates", central_difference(theta[:, :2], dt), (len(theta), 2), label)
    drive_accel = central_difference(drive, dt)
    _, _, axes, passive, _ = kinematics = _kinematics_at(theta, geometry)
    rates, accels = _closure_motion(axes, passive, drive, drive_accel)
    profile = _unchecked(JointProfile, **_profile_arrays(np.arange(len(theta)) * clock, theta, rates, accels, label))
    return profile, kinematics
