"""Newton-Euler inverse dynamics of the four moving wrist links.

Joint model: the two base joints and the first-leg elbow are frictionless
revolutes; the terminal-distal connection is the physical revolute about the
shared tool axis (three forces plus two moments transverse to that axis);
the distal rides on the second proximal through a frictionless planar joint
(one normal force plus two in-plane moments).  Every joint axis passes
through the wrist center, so every joint force is taken there, where it is
workless for any geometry, and each joint wrench is its force and its moment
about the center, its moment's two unknowns being coordinates on two columns
of a link frame normal to the joint axis (``_assemble``).  That wrench set
closes every load path of the real mechanism, so for loop-consistent joint
states the 24-equation system is solvable to rounding error.  It carries
one internal self-stress (24 equations, 25 unknowns) in the joint forces;
the minimum-norm solution resolves it, and the actuator torques are
invariant to that choice.

Every body rotates about the fixed wrist center: Euler equations are taken
about that point and center-of-mass accelerations are purely rotational.

Everything runs over stacks of n joint states (``_motion``, ``_assemble``,
``_closed_form``, ``_power_balance_rows``), on the frames and axes that
``kinematics._frames_at`` builds from the angles of the rows a pass solves.
``_closed_form`` solves the moment balances on the loop's type-II
determinant and the force balances at their least norm, from the assembly's
factors, and the gate reads their structured residual; a row too near a
type-II singularity is refused (``TYPE_II_MESSAGE``).  Only
``assemble_system`` forms dense matrices (``_matrix``), for SVD least squares.
``solve_state`` on a row of a ``JointProfile`` solves the row's block of
``NE_BLOCK`` rows and keeps it on the profile as one record per row (motion
views, solution, error, power-balance terms), for the block's other rows
and for ``power_balance_residual``.  ``verify_profile`` makes the same
block passes over a whole profile.

The studies take their actuator torques from ``_load_free_torques``, the
load-free pass of ``virtual_work_torques`` (virtual work over a whole joint
profile, with each actuator's velocity field from loop closure), made once
per path at unit path rate by ``analysis.path_pass`` and scaled to each
spec's rate.  The Newton-Euler solve stays as the reactions API and as the
independent check on them.
"""

import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (InconsistentStateError, InvalidInputError, ModelInconsistencyError, WristError, finite_array,
                     finite_scalar, float_array, frozen_vector)
from .kinematics import TYPE_II_TOL, JointProfile, JointState, _frames_at, _Kinematics, _kinematics_at, _sample_label
from .rotation import WristGeometry, cross_rows, dot_rows

GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.setflags(write=False)

RESIDUAL_GATE = 1e-8
CLOSURE_TOL = 1e-6
# A row is refused, with virtual work's text, when its type-II determinant det K (see _closed_form) is at most
# TYPE_II_TOL of |n3| |n4| |t5a| |t5b| (2.6e-16 at the semicircles' singular midpoint, 4.2e-3 beside it).
TYPE_II_MESSAGE = "the passive joint axes align; ideal joints cannot realize the motion at this sample"
# Rows of a profile that solve_state solves together and keeps on the
# profile, with their power-balance terms: a larger block costs less time
# per row and more memory (tracemalloc: a block pass peaks at 1.20 MB at 256
# rows, 0.63 MB at 128; the solve's temporaries are 3.2-3.4 kB a row).
NE_BLOCK = 256
# A profile's block before its first solve and while its next one is solved; no key matches it.
_NO_BLOCK = ((None, None), ())

BODY_NAMES = ("terminal", "distal", "proximal-1", "proximal-2")
AXIS_NAMES = ("e1", "e2", "e3", "e4", "e5", "e6")

# The joint wrenches: action on the first body listed, reaction on the
# second.  A force acts at the wrist center and enters each body's force
# balance as +-I.
_JOINT_FORCES = (
    # (unknowns, ((body, sign), ...))
    ("terminal_revolute_force", (("terminal", 1.0), ("proximal-1", -1.0))),
    ("tool_revolute_force", (("terminal", 1.0), ("distal", -1.0))),
    ("base1_force", (("proximal-1", 1.0),)),
    ("base2_force", (("proximal-2", 1.0),)),
)
# A revolute joint carries the two moments transverse to its axis; the planar
# joint the two in its plane, transverse to its normal e4.  Each pair is in
# the coordinates of two columns of a link frame (see ``_assemble``).
_JOINT_MOMENTS = (
    # (unknowns, ((body, sign), ...))
    ("terminal_revolute_moment", (("terminal", 1.0), ("proximal-1", -1.0))),
    ("tool_revolute_moment", (("terminal", 1.0), ("distal", -1.0))),
    ("base1_moment", (("proximal-1", 1.0),)),
    ("base2_moment", (("proximal-2", 1.0),)),
    ("planar_moment", (("distal", 1.0), ("proximal-2", -1.0))),
)


@dataclass(frozen=True, eq=False)
class BodyParams:
    """Mass, geometry, and inertia of one link, in its own body frame.

    ``com_offset`` points from the wrist center to the center of mass.
    ``inertia`` is taken about the center of mass; ``inertia_center``, about
    the wrist center (parallel-axis theorem), is computed once and read-only.
    """

    name: str
    mass: float
    com_offset: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name in BODY_NAMES):  # an array has no truth value
            raise InvalidInputError(f"unknown body name {self.name!r}")
        mass = finite_scalar(f"{self.name}.mass", self.mass, 0.0, closed=False)
        com = frozen_vector(f"{self.name}.com_offset", self.com_offset, 3)
        inertia = float_array(self.inertia)
        if inertia.shape != (3, 3) or not np.all(np.isfinite(inertia)):
            raise InvalidInputError(f"{self.name}.inertia must be a finite 3x3 tensor")
        if np.max(np.abs(inertia - inertia.T)) > 1e-12 * max(1.0, np.max(np.abs(inertia))):
            raise InvalidInputError(f"{self.name}.inertia must be symmetric")
        if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
            raise InvalidInputError(f"{self.name}.inertia must be positive-definite")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error raised below
            inertia_center = inertia + mass * (np.dot(com, com) * np.eye(3) - np.outer(com, com))
        if not np.all(np.isfinite(inertia_center)):
            raise InvalidInputError(f"{self.name}.com_offset gives a non-finite inertia about the wrist center")
        for array in (inertia, inertia_center):
            array.setflags(write=False)
        vars(self).update(mass=mass, com_offset=com, inertia=inertia, inertia_center=inertia_center)


@dataclass(frozen=True)
class MotorSpec:
    """Catalog data of one actuator, referred to the output shaft."""

    rotor_inertia: float
    reduction_ratio: float
    nominal_speed: float
    max_speed: float
    max_torque: float
    continuous_torque: float

    def __post_init__(self):
        object.__setattr__(self, "rotor_inertia", finite_scalar("rotor_inertia", self.rotor_inertia, 0.0))
        for name in ("reduction_ratio", "nominal_speed", "max_speed", "max_torque", "continuous_torque"):
            object.__setattr__(self, name, finite_scalar(name, getattr(self, name), 0.0, closed=False))
        if self.max_torque < self.continuous_torque:
            raise InvalidInputError("max_torque must be at least continuous_torque")
        if self.max_speed < self.nominal_speed:
            raise InvalidInputError("max_speed must be at least nominal_speed")


@dataclass(frozen=True, eq=False)
class CuttingLoad:
    """Cutting force at the tool tip.

    Components are given along the terminal's drive axis, the tool axis, and
    their cross product; ``lever`` is the tip distance from the wrist center.
    """

    f_c: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lever: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "f_c", frozen_vector("f_c", self.f_c, 3))
        object.__setattr__(self, "lever", finite_scalar("lever", self.lever, 0.0))


def _tip_force(load: CuttingLoad, e3, e5, e3_x_e5):
    # World-frame tip force from stacked axes (n, 3); (e3, e5, e3 x e5) is
    # orthonormal only for a terminal twist of pi/2.
    return load.f_c[0] * e3 + load.f_c[1] * e5 + load.f_c[2] * e3_x_e5


_BodyTable = namedtuple("_BodyTable", "params mass com inertia inertia_center")


def _body_table(bodies) -> _BodyTable:
    # The links' parameters stacked in BODY_NAMES order.
    return _table_of(tuple(bodies))


@lru_cache(maxsize=1)
def _table_of(bodies: tuple) -> _BodyTable:
    # The same BodyParams objects (== is identity for them) get the last table.
    given = {b.name: b for b in bodies}
    missing = [n for n in BODY_NAMES if n not in given]
    if missing:
        raise InvalidInputError(f"missing body parameters for {missing}")
    params = tuple(given[n] for n in BODY_NAMES)
    return _BodyTable(params, *(np.array([getattr(p, f) for p in params])
                                for f in ("mass", "com_offset", "inertia", "inertia_center")))


# World-frame rigid-body motion of one link about the wrist center.
BodyMotion = namedtuple("BodyMotion", "R omega omega_dot r_com v_com a_com")


class WristMotion(NamedTuple):
    """World-frame motion of the links at n joint states, in ``BODY_NAMES``
    order: frames ``R`` (n, 4, 3, 3); ``omega``, ``omega_dot``, ``r_com``,
    ``v_com``, ``a_com`` (n, 4, 3); axes e1..e6 ``joint_axes`` (n, 6, 3); the
    legs' disagreement |e5 - e6| ``closure`` (n,).  For one ``state``,
    ``bodies`` and ``axes`` read it by name."""

    R: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    r_com: np.ndarray
    v_com: np.ndarray
    a_com: np.ndarray
    joint_axes: np.ndarray
    closure: np.ndarray
    state: JointState | None = None

    @property
    def bodies(self) -> dict:
        return {name: BodyMotion(*(a[0, b] for a in self[:6])) for b, name in enumerate(BODY_NAMES)}

    @property
    def axes(self) -> dict:
        return dict(zip(AXIS_NAMES, self.joint_axes[0]))


def _leg_motion(rates, accels, axes):
    """Per leg (n, 2, 3), the drive link's w and w_dot about its fixed drive
    axis, then the elbow-side link's, which compounds the leg's two rates."""
    drive, elbow = axes[:, :2], axes[:, 2:4]
    drive_rate, elbow_rate = rates[:, :2, None], rates[:, 2:, None]
    w, w_dot = drive_rate * drive, accels[:, :2, None] * drive
    return (w, w_dot, w + elbow_rate * elbow,
            w_dot + accels[:, 2:, None] * elbow + drive_rate * elbow_rate * cross_rows(drive, elbow))


def _motion(rates, accels, f1, f2, axes, table: _BodyTable) -> WristMotion:
    """Motion of every link at n joint states: ``rates`` and ``accels``
    (n, 4), at the states' frames ``f1``, ``f2`` and axes e1..e6
    (``kinematics._Kinematics``), each leg's links by ``_leg_motion`` (the
    distal's spin about the planar normal comes from the leg-2 chain)."""
    # Body order: the legs' elbow-side links (terminal, distal), then their
    # drive links (proximal-1, proximal-2).
    R = np.concatenate([f2, f1], axis=1)
    w, w_dot, elbow_w, elbow_w_dot = _leg_motion(rates, accels, axes)
    omega = np.concatenate([elbow_w, w], axis=1)
    omega_dot = np.concatenate([elbow_w_dot, w_dot], axis=1)
    n = len(R)
    r = np.empty((n, len(BODY_NAMES), 3))
    for b, com in enumerate(table.com):
        # One (3n, 3) @ (3,) product per link, not n 3x3 products: the same
        # bits in about half the time.
        r[:, b] = (R[:, b].reshape(-1, 3) @ com).reshape(n, 3)
    v = cross_rows(omega, r)
    a = cross_rows(omega_dot, r) + cross_rows(omega, v)
    gap = axes[:, 4] - axes[:, 5]
    return WristMotion(R, omega, omega_dot, r, v, a, axes, np.sqrt(dot_rows(gap, gap)))


def _open_loop_message(closure):
    return f"legs disagree on the tool axis by {closure:.2e}; joint angles do not close the loop"


def body_motion(state: JointState, geometry: WristGeometry, bodies) -> WristMotion:
    """Angular velocity/acceleration and center-of-mass motion of every link."""
    motion = _motion(state.rates[None], state.accels[None], *_frames_at(state.angles.theta[None], geometry),
                     _body_table(bodies))
    if motion.closure[0] > CLOSURE_TOL:
        raise InconsistentStateError(_open_loop_message(motion.closure[0]))
    return motion._replace(state=state)


# Each unknown's columns, from the unknowns' widths in column order.
_WIDTHS = dict(terminal_revolute_force=3, terminal_revolute_moment=2, tool_revolute_force=3, tool_revolute_moment=2,
               base1_force=3, base1_moment=2, tau1=1, base2_force=3, base2_moment=2, tau2=1, planar_force=1,
               planar_moment=2)
UNKNOWN_SLICES = {name: slice(end - width, end)
                  for (name, width), end in zip(_WIDTHS.items(), accumulate(_WIDTHS.values()))}

N_UNKNOWNS = 25
N_EQUATIONS = 24

# Per body, its force-balance and moment-balance rows, six per body in
# BODY_NAMES order.
_ROWS = {name: (slice(6 * b, 6 * b + 3), slice(6 * b + 3, 6 * b + 6)) for b, name in enumerate(BODY_NAMES)}
_TAU = [UNKNOWN_SLICES["tau1"].start, UNKNOWN_SLICES["tau2"].start]


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Linear Newton-Euler system for one sample."""

    matrix: np.ndarray
    rhs: np.ndarray
    actuated_rates: np.ndarray


# Factored Newton-Euler systems (``_matrix`` writes their matrices): joint moment ``bases`` (n, 5, 3, 2),
# ``axes`` e1..e6 and ``rhs`` (n, 24).
_Assembly = namedtuple("_Assembly", "bases axes rhs")


def _assemble(m: WristMotion, table: _BodyTable, gravity, load: CuttingLoad | None) -> _Assembly:
    """The Newton-Euler systems of n motions, as ``_Assembly``."""
    n = len(m.closure)
    # Each moment basis, in _JOINT_MOMENTS order: the x and y columns of a frame whose z column is the joint
    # axis (e3 proximal-1's, e5 the terminal's, e4 proximal-2's), and for base k the x column x_k of
    # proximal-k's frame, the common normal of e_k and the elbow axis, with e_k x x_k.
    drive_x = m.R[:, 2:, :, 0]
    base = np.stack([drive_x, cross_rows(m.joint_axes[:, :2], drive_x)], axis=3)
    bases = np.stack([m.R[:, 2, :, :2], m.R[:, 0, :, :2], base[:, 0], base[:, 1], m.R[:, 3, :, :2]], axis=1)

    # Force balances m a - m g, moment balances about the center
    # I_O w_dot + w x I_O w - r x m g, less the cutting wrench on the terminal.
    inertia = m.R @ table.inertia_center @ m.R.transpose(0, 1, 3, 2)
    weight = table.mass[:, None] * gravity
    b = np.empty((n, 4, 6))
    b[..., :3] = table.mass[:, None] * m.a_com - weight
    b[..., 3:] = ((inertia @ m.omega_dot[..., None])[..., 0]
                  + cross_rows(m.omega, (inertia @ m.omega[..., None])[..., 0]) - cross_rows(m.r_com, weight))
    if load is not None:
        e3, e5 = m.joint_axes[:, 2], m.joint_axes[:, 4]
        f = _tip_force(load, e3, e5, cross_rows(e3, e5))
        b[:, 0, :3] -= f
        b[:, 0, 3:] -= cross_rows(load.lever * e5, f)
    return _Assembly(bases, m.joint_axes, b.reshape(n, N_EQUATIONS))


def _matrix(f: _Assembly):
    """The (n, 24, 25) matrices of factored systems."""
    A = np.zeros((len(f.rhs), N_EQUATIONS, N_UNKNOWNS))
    s = UNKNOWN_SLICES
    for force, ends in _JOINT_FORCES:
        for body, sign in ends:
            A[:, _ROWS[body][0], s[force]] = sign * np.eye(3)
    for j, (moment, ends) in enumerate(_JOINT_MOMENTS):
        for body, sign in ends:
            A[:, _ROWS[body][1], s[moment]] = sign * f.bases[:, j]
    A[:, _ROWS["proximal-1"][1], s["tau1"].start] = f.axes[:, 0]
    A[:, _ROWS["proximal-2"][1], s["tau2"].start] = f.axes[:, 1]
    A[:, _ROWS["distal"][0], s["planar_force"].start] = f.axes[:, 3]
    A[:, _ROWS["proximal-2"][0], s["planar_force"].start] = -f.axes[:, 3]
    return A


def assemble_system(motion: WristMotion, bodies, gravity=GRAVITY, load: CuttingLoad | None = None) -> AssembledSystem:
    """Build the 24-equation force/moment balance with shared joint unknowns.

    Action equals reaction by construction: each interface wrench appears
    once, with opposite signs on the two bodies it couples.  The right-hand
    side carries the inertial terms, gravity, and the cutting wrench.
    """
    f = _assemble(motion, _body_table(bodies), frozen_vector("gravity", gravity, 3), load)
    return AssembledSystem(_matrix(f)[0], f.rhs[0], motion.state.rates[:2].copy())


@dataclass(frozen=True, eq=False)
class DynamicsSolution:
    """Actuator torques, joint reactions, solve residual, and actuator powers.

    ``reactions`` maps each unknown of ``UNKNOWN_SLICES`` to its value: a
    float for a scalar, and for a vector a read-only view of the solve's
    solution array, which a caller copies to change."""

    tau: np.ndarray
    reactions: dict
    residual: float
    power: np.ndarray


# The joint forces' unknowns in _JOINT_FORCES order and the joint moments'
# in _JOINT_MOMENTS order, and each joint force's part s_j per unit planar
# force p as a multiple of e4.
_FORCE_COLUMNS = tuple(i for force, _ in _JOINT_FORCES for i in range(N_UNKNOWNS)[UNKNOWN_SLICES[force]])
_MOMENT_COLUMNS = tuple(i for moment, _ in _JOINT_MOMENTS for i in range(N_UNKNOWNS)[UNKNOWN_SLICES[moment]])
_ALONG_P = np.array([-1.0, 1.0, -1.0, 1.0])


def _type_ii_terms(columns):
    """The type-II terms of the moment bases' columns (2, 5, n, 3): the
    normals n3, n4 = t_a x t_b (2, n, 3) of the terminal-revolute and planar
    bases and their squared norms (2, n); K (2, 2, n), with K m5 = q one row
    per normal for the tool-revolute moment m5 on its basis' columns t5
    (the terminal balance holds m5, the distal one -m5); det K (n,); and the
    rows (n,) where |det K| > ``TYPE_II_TOL`` |n3| |n4| |t5a| |t5b|."""
    t_a, t_b = columns[:, ::4]
    t5 = columns[:, 1]
    normal = cross_rows(t_a, t_b)
    normal_sq = dot_rows(normal, normal)
    K = dot_rows(normal[:, None], t5) * np.array([1.0, -1.0])[:, None, None]
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    full = np.abs(det) > TYPE_II_TOL * np.sqrt(np.prod(normal_sq, axis=0) * np.prod(dot_rows(t5, t5), axis=0))
    return normal, normal_sq, K, det, full


def _closed_form(f: _Assembly, rows):
    """Read-only minimum-norm solutions x (n, 25) of the factored systems
    ``f`` in ``rows`` (n,) bool, and the rows (n,) it solved; the others are
    left NaN, among them those where |det K| is at most ``TYPE_II_TOL``
    |n3| |n4| |t5a| |t5b|.  The moment balances fix the joint moments and
    torques on the loop's type-II determinant det K, and the force balances
    the joint forces and p at their least norm, in closed form, elementwise
    over the rows (README, "Model notes"; no stacked matmul, whose bits may
    depend on the block size)."""
    b, n, s = f.rhs, len(f.rhs), UNKNOWN_SLICES
    # b's force and moment parts per body (4, n, 3).
    force_rhs, moment_rhs = np.moveaxis(b.reshape(n, len(BODY_NAMES), 2, 3), 0, 2).copy().swapaxes(0, 1)
    # The bases' columns (2, 5, n, 3), and the proximal frames' (3, 2, n, 3), each a base basis and its drive axis.
    columns = np.ascontiguousarray(f.bases.transpose(3, 1, 0, 2))
    t_a, t_b = columns[:, ::4]
    t5 = columns[:, 1]
    frames = np.concatenate([columns[:, 2:4], f.axes[:, :2].swapaxes(0, 1)[None]])
    normal, normal_sq, K, det, full = _type_ii_terms(columns)
    q = dot_rows(normal, moment_rhs[:2])
    # Rows left out may divide by zero; their x is NaN below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m5 = np.stack([K[1, 1] * q[0] - K[0, 1] * q[1], K[0, 0] * q[1] - K[1, 0] * q[0]]) / det
        # Each basis' dual rows (t_b x n, n x t_a) / n.n, Cramer's rule against n (2, 2, n, 3), give m3 and m4
        # (2, 2, n); each proximal frame's transpose its base moments and torque (3, 2, n).
        dual = np.stack([cross_rows(t_b, normal), cross_rows(normal, t_a)]) / normal_sq[..., None]
        tool_terms = t5[0] * m5[0][..., None] + t5[1] * m5[1][..., None]
        moment_rhs[0] -= tool_terms
        moment_rhs[1] += tool_terms
        joint = dot_rows(dual, moment_rhs[:2])
        moment_rhs[2:] += t_a * joint[0][..., None] + t_b * joint[1][..., None]
        own = dot_rows(frames, moment_rhs[2:])
        # Each joint force is c_j + p s_j e4 (s = _ALONG_P), c (4, n, 3) from the force balances; the least
        # norm of the forces and p gives p = -sum_j s_j (e4 . c_j) / (4 e4 . e4 + 1).
        revolute = force_rhs[0] + force_rhs[1]
        c = np.stack([revolute, -force_rhs[1], force_rhs[2] + revolute, force_rhs[3]])
        e4 = f.axes[:, 3]
        p = -np.sum(_ALONG_P[:, None] * dot_rows(e4, c), axis=0) / (4.0 * dot_rows(e4, e4) + 1.0)
        forces = c + _ALONG_P[:, None, None] * (p[:, None] * e4)
    # The 25 unknowns, unknown-major (25, n).
    x = np.empty((N_UNKNOWNS, n))
    x[s["terminal_revolute_moment"]], x[s["planar_moment"]] = joint[:, 0], joint[:, 1]
    x[s["tool_revolute_moment"]] = m5
    x[s["base1_moment"].start:s["tau1"].stop], x[s["base2_moment"].start:s["tau2"].stop] = own.swapaxes(0, 1)
    x[s["planar_force"].start] = p
    x[_FORCE_COLUMNS, :] = forces.transpose(0, 2, 1).reshape(-1, n)
    solved = rows & full
    x = np.where(solved[:, None], x.T, np.nan)
    x.setflags(write=False)
    return x, solved


def _residual(f: _Assembly, x):
    """Relative residuals |A x - b| / |b| (n,) at solutions x (n, 25) of
    factored systems, A their ``_matrix``, by a structured product: per body,
    its joint forces and p e4, then its joint moments and its drive torque,
    signed as in the joint tables."""
    revolute, tool, base1, base2 = x[:, _FORCE_COLUMNS].reshape(-1, len(_JOINT_FORCES), 3).swapaxes(0, 1)
    m3, m5, m1, m2, m4 = dot_rows(f.bases, x[:, _MOMENT_COLUMNS].reshape(-1, len(_JOINT_MOMENTS), 1, 2)).swapaxes(0, 1)
    planar = x[:, UNKNOWN_SLICES["planar_force"].start, None] * f.axes[:, 3]
    # A x per body and balance (8, n, 3), less b last, which puts it nearer the exact residual.
    res = np.stack([revolute + tool, m3 + m5, planar - tool, m4 - m5, base1 - revolute,
                    m1 - m3 + x[:, _TAU[0], None] * f.axes[:, 0], base2 - planar,
                    m2 - m4 + x[:, _TAU[1], None] * f.axes[:, 1]])
    res -= f.rhs.reshape(-1, 2 * len(BODY_NAMES), 3).swapaxes(0, 1)
    rhs_norm = np.sqrt(np.sum(f.rhs * f.rhs, axis=1))
    return np.sqrt(np.sum(dot_rows(res, res), axis=0)) / np.where(rhs_norm > 0.0, rhs_norm, 1.0)


def _gate_message(residual):
    return (f"relative solve residual {residual:.2e} exceeds {RESIDUAL_GATE:.0e}; "
            "the joint state or body parameters are inconsistent with the joint model")


def _row_solutions(x, residual, actuated_rates) -> list:
    """Per row of solutions x (n, 25), the fields of its ``_solution``: torques,
    the reactions dict (views of x for vectors, floats for scalars), residual,
    powers."""
    tau = x[:, _TAU]
    reactions = [dict(zip(UNKNOWN_SLICES, row)) for row in zip(
        *(list(x[:, at]) if at.stop - at.start > 1 else x[:, at.start].tolist() for at in UNKNOWN_SLICES.values()))]
    return list(zip(tau, reactions, residual.tolist(), tau * actuated_rates))


def _solution(tau, reactions, residual, power) -> DynamicsSolution:
    # Torques, powers and a reactions dict of its own, set by one __dict__.update (as JointProfile._row).
    solution = object.__new__(DynamicsSolution)
    solution.__dict__.update(tau=tau.copy(), reactions=reactions.copy(), residual=residual, power=power.copy())
    return solution


def solve_wrenches(system: AssembledSystem) -> DynamicsSolution:
    """Minimum-norm solve (SVD least squares) of the system's matrix with a
    hard consistency gate.

    A matrix too near a type-II singular state is refused as
    model-inconsistency, with the text of ``TYPE_II_MESSAGE``, by the rule
    of the block solve (``_type_ii_terms``) on the moment bases the matrix
    holds; then the relative residual |A x - b| / |b| must stay below
    ``RESIDUAL_GATE``.  The self-stress component of the reactions is fixed
    by the minimum-norm choice.
    """
    A, b = system.matrix, system.rhs
    # Each joint moment's basis (5, 3, 2), where _matrix writes it on its first body's moment rows, as columns.
    bases = np.array([A[_ROWS[ends[0][0]][1], UNKNOWN_SLICES[moment]] for moment, ends in _JOINT_MOMENTS])
    if not _type_ii_terms(bases[None].transpose(3, 1, 0, 2))[-1][0]:
        raise ModelInconsistencyError(TYPE_II_MESSAGE)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    x.setflags(write=False)
    residual = np.linalg.norm(A @ x - b) / (np.linalg.norm(b) or 1.0)
    if residual >= RESIDUAL_GATE:
        raise ModelInconsistencyError(_gate_message(residual))
    return _solution(*_row_solutions(x[None], np.array([residual]), system.actuated_rates)[0])


def reflected_motor_torque(tau_joint, joint_accel, motor: MotorSpec):
    """Output-shaft torque including the reflected rotor inertia, elementwise."""
    tau_joint, joint_accel = (finite_array("torque and acceleration", x) for x in (tau_joint, joint_accel))
    return tau_joint + _rotor_torque(joint_accel, motor)


def _rotor_torque(joint_accel, motor: MotorSpec):
    # The reflected rotor inertia's share of the shaft torque, unchecked.
    # np.square overflows to inf where float ** 2 raises OverflowError.
    return motor.rotor_inertia * np.square(motor.reduction_ratio) * joint_accel


def _power_balance_rows(motion: WristMotion, table: _BodyTable, gravity, load: CuttingLoad | None):
    """Kinetic-energy rate and the power of gravity plus the cutting load,
    (n,) each, of n motions.  The kinetic energy is split about each center
    of mass, not about the wrist center as in the assembly."""
    n = len(motion.R)
    inertia = motion.R @ table.inertia @ motion.R.transpose(0, 1, 3, 2)
    ke_rate = (np.sum((motion.omega * (inertia @ motion.omega_dot[..., None])[..., 0]).reshape(n, -1), axis=1)
               + np.sum((table.mass[:, None] * motion.v_com * motion.a_com).reshape(n, -1), axis=1))
    p_ext = np.sum((table.mass[:, None] * motion.v_com * gravity).reshape(n, -1), axis=1)
    if load is not None:
        e3, e5 = motion.joint_axes[:, 2], motion.joint_axes[:, 4]
        p_ext = p_ext + dot_rows(_tip_force(load, e3, e5, cross_rows(e3, e5)),
                                 cross_rows(motion.omega[:, 0], load.lever * e5))
    return ke_rate, p_ext


def _balance(p_act, ke_rate, p_ext):
    return np.abs(p_act + p_ext - ke_rate) / np.maximum(1.0, np.abs(ke_rate))


def _row_balance(p_act: float, ke_rate: float, p_ext: float) -> float:
    # _balance on floats, in the same operations (np.maximum keeps a NaN, which max() would drop).  It pays
    # on the per-row path: 0.13 us a call against 1.4 us for _balance (2-vCPU VM), about 1.3 ms of the ~37 ms
    # semicircle-verify study.
    scale = abs(ke_rate)
    return abs(p_act + p_ext - ke_rate) / (1.0 if scale <= 1.0 else scale)


def power_balance_residual(state: JointState, solution: DynamicsSolution, motion: WristMotion,
                           bodies, gravity=GRAVITY, load: CuttingLoad | None = None) -> float:
    """Relative mismatch between supplied power and the kinetic-energy rate.

    Independent check on the wrench solve: actuator power plus gravity and
    cutting power must equal d(KE)/dt, with everything evaluated analytically
    from the motion terms (``_power_balance_rows``).  A motion that
    ``solve_state`` returned for a profile row reads those terms from its
    row's record in the block kept on the profile, when each of the motion's
    eight arrays is that record's own view and the block was solved for this
    gravity, these bodies and this load.  The actuator power always comes
    from ``solution.tau`` and ``state.rates``.  Gravity is checked as
    ``solve_state`` checks it, once per kept block (``_block_gravity``).
    """
    table = _body_table(bodies)
    gravity, gravity_bytes = _block_gravity(gravity, getattr(motion, "state", None))
    profile, i = (motion.state.row if motion.state is not None else None) or (None, 0)
    key, rows = getattr(profile, "_ne_block", _NO_BLOCK)
    k = i % NE_BLOCK
    if (key[:2] == (i - k, gravity_bytes) and key[3:] == (*table.params, load)
            and all(map(operator.is_, motion[:-1], rows[k][0]))):
        ke_rate, p_ext = rows[k][3]
    else:
        ke_rate, p_ext = (float(terms[0]) for terms in _power_balance_rows(motion, table, gravity, load))
    tau, rates = solution.tau, state.rates
    p_act = float(tau[0]) * float(rates[0]) + float(tau[1]) * float(rates[1])
    return _row_balance(p_act, ke_rate, p_ext)


def _block_gravity(gravity, state):
    """Gravity and its bytes, checked by ``frozen_vector`` unless they are
    the bytes of the block kept on the profile of ``state``'s row: a float64
    (3,) array of those bytes passed the check when the block was solved,
    and is taken as it is (every use of gravity is elementwise).  Reads
    nothing of ``state`` that can raise, so gravity's errors come first."""
    row = getattr(state, "row", None)
    key = getattr(row[0], "_ne_block", _NO_BLOCK)[0] if type(row) is tuple and row else _NO_BLOCK[0]
    if type(gravity) is np.ndarray and gravity.dtype == float and gravity.shape == (3,) and gravity.tobytes() == key[1]:
        return gravity, key[1]
    gravity = frozen_vector("gravity", gravity, 3)
    return gravity, gravity.tobytes()


def _solve_rows(theta, rates, accels, geometry, table, gravity, load):
    """Read-only motion, solutions x (n, 25), residuals (n,), per row None
    or the (error class, message) that the one-state calls raise for it,
    checked in their order (an open loop, a row ``_closed_form`` does not
    solve, the gate), and the power-balance terms of
    ``_power_balance_rows``, at n joint states: angles, rates and
    accelerations (n, 4) each."""
    m = _motion(rates, accels, *_frames_at(theta, geometry), table)
    f = _assemble(m, table, gravity, load)
    open_loop = m.closure > CLOSURE_TOL
    x, solved = _closed_form(f, ~open_loop)
    residual = _residual(f, x)
    errors = tuple((InconsistentStateError, _open_loop_message(c)) if o
                   else (ModelInconsistencyError, TYPE_II_MESSAGE) if not s
                   else (ModelInconsistencyError, _gate_message(r)) if r >= RESIDUAL_GATE else None
                   for o, s, c, r in zip(*(a.tolist() for a in (open_loop, solved, m.closure, residual))))
    for array in m[:-1]:
        array.setflags(write=False)
    return m, x, residual, errors, *_power_balance_rows(m, table, gravity, load)


def solve_state(state: JointState, geometry: WristGeometry, bodies,
                gravity=GRAVITY, load: CuttingLoad | None = None):
    """Motion, assembly, and solve for one joint state.

    A state indexed from a ``JointProfile`` is solved with the rest of its
    block of ``NE_BLOCK`` rows (from a multiple of ``NE_BLOCK``).  The
    profile keeps that one block as ``(key, rows)``: the key holds the
    block's first row and the inputs it was solved for (gravity by value;
    geometry, bodies and load by identity), and ``rows[k]`` is row k's
    record, built once per block: the motion's eight (1, ...) row views,
    the ``_row_solutions`` fields, None or the (error class, message) to
    raise, and the power-balance terms (ke_rate, p_ext) as floats, which
    ``power_balance_residual`` reads.  Gravity's check is made once per kept
    block (``_block_gravity``).  A state too near a type-II singularity for
    its torques to be determined is refused (``TYPE_II_MESSAGE``).
    """
    table = _body_table(bodies)
    gravity, gravity_bytes = _block_gravity(gravity, state)
    profile, i = state.row or (None, 0)
    k, start = i % NE_BLOCK, i - i % NE_BLOCK
    key = (start, gravity_bytes, geometry, *table.params, load)
    block = getattr(profile, "_ne_block", _NO_BLOCK)
    if block[0] != key:
        if profile is None:
            rows = state.angles.theta[None], state.rates[None], state.accels[None]
        else:
            # The kept block is let go first, here and on the profile, so that it is not held through the
            # next block's pass (400 kB of the semicircle study's traced peak).
            object.__setattr__(profile, "_ne_block", _NO_BLOCK)
            block = _NO_BLOCK
            span = slice(start, start + NE_BLOCK)
            rows = profile.theta[span], profile.rates[span], profile.accels[span]
        m, x, residual, errors, ke_rate, p_ext = _solve_rows(*rows, geometry, table, gravity, load)
        block = (key, list(zip(zip(*(list(a[:, None]) for a in m[:-1])), _row_solutions(x, residual, rows[1][:, :2]),
                               errors, zip(ke_rate.tolist(), p_ext.tolist()))))
        if profile is not None:
            # Stores of immutable tuples: concurrent callers each see a whole block or none.
            object.__setattr__(profile, "_ne_block", block)
    views, fields, error, _ = block[1][k]
    if error is not None:
        raise error[0](error[1])
    return WristMotion(*views, state), _solution(*fields)


class ProfileCheck(NamedTuple):
    """The Newton-Euler oracle over every row of a profile: relative solve
    ``residual`` (N,) (NaN on a row refused before the gate), ``balance``
    (N,) as ``power_balance_residual`` gives it (NaN where the row fails),
    and per row None or the (error class, message) that ``solve_state``
    raises for it."""

    residual: np.ndarray
    balance: np.ndarray
    errors: tuple


def verify_profile(profile: JointProfile, geometry: WristGeometry, bodies,
                   gravity=GRAVITY, load: CuttingLoad | None = None) -> ProfileCheck:
    """``solve_state`` and ``power_balance_residual`` on every row of a
    profile, in the same blocks of ``NE_BLOCK`` rows, without keeping
    a block on the profile."""
    table = _body_table(bodies)
    gravity = frozen_vector("gravity", gravity, 3)
    n = len(profile)
    residual, balance, errors = np.empty(n), np.empty(n), []
    for start in range(0, n, NE_BLOCK):
        rows = slice(start, start + NE_BLOCK)
        _, x, residual[rows], block_errors, ke_rate, p_ext = _solve_rows(
            profile.theta[rows], profile.rates[rows], profile.accels[rows], geometry, table, gravity, load)
        tau, rates = x[:, _TAU], profile.rates[rows]
        balance[rows] = _balance(tau[:, 0] * rates[:, 0] + tau[:, 1] * rates[:, 1], ke_rate, p_ext)
        errors += block_errors
    balance[[e is not None for e in errors]] = np.nan
    return ProfileCheck(residual, balance, tuple(errors))


def solve_trajectory(states, geometry: WristGeometry, bodies,
                     gravity=GRAVITY, load: CuttingLoad | None = None):
    """Per-sample solves along a joint-state series, in input order.

    A failing sample is named by its index, time and tool direction (leg 1's
    tool axis, as ``virtual_work_torques`` names it); the category is kept.
    """
    motions, solutions = [], []
    for i, state in enumerate(states):
        try:
            motion, solution = solve_state(state, geometry, bodies, gravity, load)
        except WristError as exc:
            v = _frames_at(state.angles.theta[None], geometry)[2][0, 4]
            raise type(exc)(f"{_sample_label(i, state.t, v)}: {exc}") from exc
        motions.append(motion)
        solutions.append(solution)
    return motions, solutions


def _matvec_rows(M, v):
    # M (N, k, 3) times v (N, 3) per row, (N, k): np.einsum("nij,nj->ni",
    # M, v) in its bits, one pass over all rows per component.  numpy's
    # einsum kernel sums the three products in the order 0, 2, 1 and seeds
    # with +0.0; tests/test_kernels.py holds this form to it.
    out = np.empty(M.shape[:2])
    for i in range(M.shape[1]):
        out[:, i] = M[:, i, 0] * v[:, 0] + M[:, i, 2] * v[:, 2] + M[:, i, 1] * v[:, 1] + 0.0
    return out


def _body_tensor_product(R, tensor, v):
    # World-frame (tensor @ v) per sample, for a symmetric tensor held
    # constant in the body frame: R (N, 3, 3), v (N, 3).  R^T v is
    # np.einsum("nji,nj->ni", R, v) in its bits.
    return _matvec_rows(R, np.column_stack([dot_rows(R[..., i], v) for i in range(3)]) @ tensor)


def _project(moments, axes, unit_rates):
    # The joint torques (N, 2) of the four body moments (terminal, distal,
    # proximal-1, proximal-2): tau_k = sum_j u_kj e_j . (the moments joint j
    # carries), with the passive rates u_k of actuator k in ``unit_rates``.
    terminal, distal, proximal1, proximal2 = moments
    e1, e2, e3, e4 = (axes[:, k] for k in range(4))
    q_passive = np.column_stack([dot_rows(e3, terminal), dot_rows(e4, distal)])
    tau = np.column_stack([dot_rows(e1, proximal1 + terminal), dot_rows(e2, proximal2 + distal)])
    for k, rates in enumerate(unit_rates):
        tau[:, k] += dot_rows(rates, q_passive)
    return tau


class _LoadFreeTorques(NamedTuple):
    """The two linear parts of a profile's virtual-work torques without a
    cutting load, and the terms that add a load.

    ``inertial`` (N, 2) are the joint torques of the inertial moments alone,
    I_O w_dot + w x I_O w, and ``rest`` (N, 2) those of the gravity moments
    -r x m g alone: the torques of the same angles at rest.  The torques
    under gravity are their sum; at path rate k a unit-rate pass scales
    ``inertial`` by k squared.  ``g`` (N, 2, 3) holds, per actuator k,
    ``e5 x w_k``, with ``w_k`` the terminal's angular velocity per unit rate
    of actuator k: a world-frame tip force f at lever l adds
    ``l * g[:, k] . f`` to torque k.  ``axes`` (N, 6, 3) and ``e3_x_e5``
    (N, 3, the passive closure's b1), the same for every load, turn a
    ``CuttingLoad`` into that world-frame force.
    """

    inertial: np.ndarray
    rest: np.ndarray
    g: np.ndarray
    axes: np.ndarray
    e3_x_e5: np.ndarray

    def static(self, load: CuttingLoad | None) -> np.ndarray:
        """The static torques (N, 2) under ``load``: ``rest`` plus the load
        term, in which they are affine, or ``rest`` itself without a load."""
        if load is None:
            return self.rest
        tip = _tip_force(load, self.axes[:, 2], self.axes[:, 4], self.e3_x_e5)
        return self.rest + load.lever * _matvec_rows(self.g, tip)


def virtual_work_torques(profile: JointProfile, geometry: WristGeometry, bodies,
                         gravity=GRAVITY, load: CuttingLoad | None = None) -> np.ndarray:
    """Actuator joint torques of every sample of a profile, (N, 2), by virtual work.

    Each body's moment about the wrist center, inertial less gravity (and
    less the cutting moment on the terminal), is M_b = I_O w_dot + w x I_O w
    - r x m g.  The ideal joints do no work, so for a unit rate of actuator k,
    with w_b^(k) each body's angular velocity then (from loop closure),
    tau_k = sum_b w_b^(k) . M_b.  Grouped by joint j with axis e_j and
    unit-rate u_kj: tau_k = sum_j u_kj e_j . (sum of M_b over the bodies j
    carries).  The torques equal those of the Newton-Euler solve, without
    its reactions.  The cutting moment l e5 x f is linear in the tip force,
    so it is added last (``_LoadFreeTorques.static``).

    Raises for the lowest failing sample, named by index and time: legs that
    do not close the loop (inconsistent-state), or passive axes that align,
    where ideal joints cannot realize a general motion (model-inconsistency,
    ``TYPE_II_MESSAGE``).  The Newton-Euler solve refuses the same samples
    with the same text, on its own type-II determinant at ``TYPE_II_TOL``.
    """
    load_free = _load_free_torques(profile, _kinematics_at(profile.theta, geometry), bodies, gravity)
    return load_free.inertial + load_free.static(load)


def _load_free_torques(profile: JointProfile, kinematics: _Kinematics, bodies, gravity=GRAVITY) -> _LoadFreeTorques:
    """The load-free pass of ``virtual_work_torques`` on the profile's
    ``kinematics`` (``_kinematics_at`` of its angles), with the same errors;
    a study over many loads makes it once per profile.  A proximal link's
    moment reaches the torques only as e_k . M, and e_k is fixed in the world
    and the link, so its inertial part is J_k theta_k'' e_k: J_k = a_k . I_O
    a_k, a_k = R_k^T e_k = (0, sin a, cos a) of the leg's first twist."""
    table = _body_table(bodies)
    gravity = frozen_vector("gravity", gravity, 3)
    f1, f2, axes, passive, geometry = kinematics
    e1, e2, _, _, e5, e6 = (axes[:, k] for k in range(6))

    closure = np.sqrt(dot_rows(e5 - e6, e5 - e6))
    open_loop = closure > CLOSURE_TOL
    failed = open_loop | passive.singular
    if failed.any():
        i = int(np.argmax(failed))
        error, message = ((InconsistentStateError, _open_loop_message(closure[i])) if open_loop[i]
                          else (ModelInconsistencyError, TYPE_II_MESSAGE))
        raise error(f"{_sample_label(i, profile.t[i], e5[i])}: {message}")

    n, frames = len(profile), (f2[:, 0], f2[:, 1], f1[:, 0], f1[:, 1])
    weights = table.mass[:, None] * gravity
    gravity_moments = [cross_rows((R.reshape(-1, 3) @ com).reshape(n, 3), w)  # the bits of _motion's r_com
                       for R, com, w in zip(frames, table.com, weights)]
    _, _, omega, omega_dot = _leg_motion(profile.rates, profile.accels, axes)
    _, cos, sin = geometry._legs
    inertial = [_body_tensor_product(frames[b], table.inertia_center[b], omega_dot[:, b])
                + cross_rows(omega[:, b], _body_tensor_product(frames[b], table.inertia_center[b], omega[:, b]))
                for b in range(2)]
    for k, e in enumerate((e1, e2)):
        a = np.array([0.0, sin[k, 0], cos[k, 0]])
        inertial.append(float(a @ table.inertia_center[2 + k] @ a) * profile.accels[:, k, None] * e)
    # g_k = e5 x w_k with w_k = e1 + u_13 e3 and u_23 e3 per unit rate of actuator k, and e5 x e3 = -b1.
    unit_rates = passive.unit_rates
    g = np.empty((n, 2, 3))
    g[:, 0] = cross_rows(e5, e1) - unit_rates[0, :, :1] * passive.b1
    g[:, 1] = -unit_rates[1, :, :1] * passive.b1
    rest = _project([np.subtract(0.0, c) for c in gravity_moments], axes, unit_rates)
    return _LoadFreeTorques(_project(inertial, axes, unit_rates), rest, g, axes, passive.b1)
