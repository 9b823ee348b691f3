"""Newton-Euler inverse dynamics of the four moving wrist links.

Joint model: the two base joints and the first-leg elbow are frictionless
revolutes; the terminal-distal connection is the physical revolute about the
shared tool axis (three forces at its bearing point plus two moments
transverse to that axis); the distal rides on the second proximal through a
frictionless planar joint (one normal force through the wrist center plus
two in-plane moments).  That wrench set closes every load path of the real
mechanism while staying workless, so for loop-consistent joint states the
24-equation system is solvable to rounding error.  It carries one internal
self-stress (24 equations, 25 unknowns); the minimum-norm solution resolves
it, and the actuator torques are invariant to that choice.

Every body rotates about the fixed wrist center: Euler equations are taken
about that point and center-of-mass accelerations are purely rotational.

Everything runs over stacks of n joint states (``_motion``, ``_assemble``,
``_solve``, ``_power_balance_rows``), on the link frames, joint axes and
passive loop-closure terms that ``kinematics._kinematics_at`` builds from
the angles of the rows a pass solves: a whole profile, one block of its
rows or one state.  The solve eliminates the joint forces (a constant +-I
block) and solves the moment balances in closed form on the loop's type-II
determinant; near-singular rows fall back to SVD least squares.  The
one-state calls are the n = 1 case.
``solve_state`` on a row of a ``JointProfile`` solves the row's aligned
block of ``NE_BLOCK`` rows and keeps it on the profile as one record per
row (motion views, solution, error, power-balance terms), for the block's
other rows and for ``power_balance_residual``.  ``verify_profile`` makes
the same block passes over a whole profile.

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
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (InconsistentStateError, InvalidInputError, ModelInconsistencyError, WristError, finite_scalar,
                     frozen_vector)
from .kinematics import JointProfile, JointState, _Kinematics, _kinematics_at, _sample_label, _solve_passive
from .rotation import WristGeometry, cross_rows, dot_rows

GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.setflags(write=False)

RESIDUAL_GATE = 1e-8
CLOSURE_TOL = 1e-6
# A row goes to lstsq when its type-II determinant det K (see _solve) is at
# most this fraction of |n3| |n4| |t5a| |t5b|, too near rank-deficient for
# the closed form: 2.6e-16 at the semicircles' singular midpoint, 4.2e-3 beside it.
TYPE_II_TOL = 1e-8
# Rows of a profile that solve_state solves together and keeps on the
# profile, with their power-balance terms: a larger block costs less time
# per row and more memory (tracemalloc: a block pass peaks at 1.2 MB at 128
# rows, 0.59 MB at 64; _solve's temporaries are 3.3 kB a row).
NE_BLOCK = 128
# A profile's block before its first solve and while its next one is solved; no key matches it.
_NO_BLOCK = ((None, None), ())

BODY_NAMES = ("terminal", "distal", "proximal-1", "proximal-2")
AXIS_NAMES = ("e1", "e2", "e3", "e4", "e5", "e6")

# The joint wrenches: action on the first body listed, reaction on the
# second.  A force enters each body's force balance as +-I and its moment
# balance about the center as +-skew(point), at the point named on the
# carrying body (the center where that body names none).
_JOINT_FORCES = (
    # (unknowns, carrying body, point, ((body, sign), ...))
    ("terminal_revolute_force", "terminal", "joint_proximal1", (("terminal", 1.0), ("proximal-1", -1.0))),
    ("tool_revolute_force", "terminal", "joint_distal", (("terminal", 1.0), ("distal", -1.0))),
    ("base1_force", "proximal-1", "joint_base", (("proximal-1", 1.0),)),
    ("base2_force", "proximal-2", "joint_base", (("proximal-2", 1.0),)),
)
# A revolute joint carries the two moments transverse to its axis; the planar
# joint the two in its plane, transverse to its normal e4.  Each basis is
# built from the joint axis and a seed axis (see ``_assemble``).
_JOINT_MOMENTS = (
    # (unknowns, joint axis, seed axis, ((body, sign), ...))
    ("terminal_revolute_moment", "e3", "e5", (("terminal", 1.0), ("proximal-1", -1.0))),
    ("tool_revolute_moment", "e5", "e3", (("terminal", 1.0), ("distal", -1.0))),
    ("base1_moment", "e1", "e3", (("proximal-1", 1.0),)),
    ("base2_moment", "e2", "e4", (("proximal-2", 1.0),)),
    ("planar_moment", "e4", "e2", (("distal", 1.0), ("proximal-2", -1.0))),
)

# The joint interaction points the assembly reads, per body; a point left
# out sits at the wrist center.
FORCE_POINT_NAMES = {name: tuple(point for _, carrier, point, _ in _JOINT_FORCES if carrier == name)
                     for name in BODY_NAMES}


@dataclass(frozen=True, eq=False)
class BodyParams:
    """Mass, geometry, and inertia of one link, in its own body frame.

    ``com_offset`` points from the wrist center to the center of mass;
    ``force_points`` name the joint interaction points the same way.
    ``inertia`` is taken about the center of mass; ``inertia_center``, about
    the wrist center (parallel-axis theorem), is computed once and read-only.
    """

    name: str
    mass: float
    com_offset: np.ndarray
    inertia: np.ndarray
    force_points: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in BODY_NAMES:
            raise InvalidInputError(f"unknown body name {self.name!r}")
        mass = finite_scalar(f"{self.name}.mass", self.mass, 0.0, closed=False)
        com = frozen_vector(f"{self.name}.com_offset", self.com_offset, 3)
        try:
            inertia = np.array(self.inertia, dtype=float)
        except (TypeError, ValueError, OverflowError):  # strings, complex numbers, ragged or huge values
            inertia = np.empty(0)
        if inertia.shape != (3, 3) or not np.all(np.isfinite(inertia)):
            raise InvalidInputError(f"{self.name}.inertia must be a finite 3x3 tensor")
        if np.max(np.abs(inertia - inertia.T)) > 1e-12 * max(1.0, np.max(np.abs(inertia))):
            raise InvalidInputError(f"{self.name}.inertia must be symmetric")
        if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
            raise InvalidInputError(f"{self.name}.inertia must be positive-definite")
        points = {k: frozen_vector(f"{self.name}.point.{k}", v, 3) for k, v in self.force_points.items()}
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error raised below
            inertia_center = inertia + mass * (np.dot(com, com) * np.eye(3) - np.outer(com, com))
        if not np.all(np.isfinite(inertia_center)):
            raise InvalidInputError(f"{self.name}.com_offset gives a non-finite inertia about the wrist center")
        for array in (inertia, inertia_center):
            array.setflags(write=False)
        vars(self).update(mass=mass, com_offset=com, inertia=inertia, inertia_center=inertia_center,
                          force_points=MappingProxyType(points))


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


_BodyTable = namedtuple("_BodyTable", "params mass com inertia inertia_center force_points")


def _body_table(bodies) -> _BodyTable:
    # The links' parameters stacked in BODY_NAMES order, and each joint
    # force's point on its carrying body (the center where it names none).
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
                                for f in ("mass", "com_offset", "inertia", "inertia_center")),
                      np.array([given[c].force_points.get(point, np.zeros(3)) for _, c, point, _ in _JOINT_FORCES]))


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
    v_com: np.ndarray | None
    a_com: np.ndarray | None
    joint_axes: np.ndarray
    closure: np.ndarray
    state: JointState | None = None

    @property
    def bodies(self) -> dict:
        return {name: BodyMotion(*(a[0, b] for a in self[:6])) for b, name in enumerate(BODY_NAMES)}

    @property
    def axes(self) -> dict:
        return dict(zip(AXIS_NAMES, self.joint_axes[0]))


def _motion(rates, accels, f1, f2, axes, table: _BodyTable, com_motion=True) -> WristMotion:
    """Motion of every link at n joint states: ``rates`` and ``accels``
    (n, 4), at the states' frames ``f1``, ``f2`` and axes e1..e6
    (``kinematics._Kinematics``).  Each proximal link spins about its fixed
    drive axis; the terminal and the distal compound their leg's two joint
    rates (the distal's spin about the planar normal comes from the leg-2
    chain).  ``com_motion`` false leaves out ``v_com`` and ``a_com``."""
    # Body order: the legs' elbow-side links (terminal, distal), then their
    # drive links (proximal-1, proximal-2).
    R = np.concatenate([f2, f1], axis=1)
    drive, elbow, tool = axes[:, :2], axes[:, 2:4], axes[:, 4:]
    drive_rate, elbow_rate = rates[:, :2, None], rates[:, 2:, None]
    w, w_dot = drive_rate * drive, accels[:, :2, None] * drive
    omega = np.concatenate([w + elbow_rate * elbow, w], axis=1)
    omega_dot = np.concatenate([w_dot + accels[:, 2:, None] * elbow
                                + drive_rate * elbow_rate * cross_rows(drive, elbow), w_dot], axis=1)
    n = len(R)
    r = np.empty((n, len(BODY_NAMES), 3))
    for b, com in enumerate(table.com):
        # One (3n, 3) @ (3,) product per link, not n 3x3 products: the same
        # bits in about half the time.
        r[:, b] = (R[:, b].reshape(-1, 3) @ com).reshape(n, 3)
    v = cross_rows(omega, r) if com_motion else None
    a = cross_rows(omega_dot, r) + cross_rows(omega, v) if com_motion else None
    gap = tool[:, 0] - tool[:, 1]
    return WristMotion(R, omega, omega_dot, r, v, a, axes, np.sqrt(dot_rows(gap, gap)))


def _open_loop_message(closure):
    return f"legs disagree on the tool axis by {closure:.2e}; joint angles do not close the loop"


def body_motion(state: JointState, geometry: WristGeometry, bodies) -> WristMotion:
    """Angular velocity/acceleration and center-of-mass motion of every link."""
    motion = _motion(state.rates[None], state.accels[None], *_kinematics_at(state.angles.theta[None], geometry)[:3],
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


_FORCE_CARRIERS = [BODY_NAMES.index(carrier) for _, carrier, _, _ in _JOINT_FORCES]
_MOMENT_AXES = [AXIS_NAMES.index(axis) for _, axis, _, _ in _JOINT_MOMENTS]
_MOMENT_SEEDS = [AXIS_NAMES.index(seed) for _, _, seed, _ in _JOINT_MOMENTS]
_ALIGNED_MESSAGE = "cannot build a transverse moment basis; axes are aligned"


def _assemble(m: WristMotion, table: _BodyTable, gravity, load: CuttingLoad | None):
    """The (n, 24, 25) matrices and (n, 24) right-hand sides of n motions,
    and the (n,) rows where a joint's axes align, so that its moment basis
    cannot be built."""
    n = len(m.closure)
    # Each moment basis: the unit vector normal to the joint axis in its plane
    # with the seed axis, then the axis cross that vector.
    axis, seed = m.joint_axes[:, _MOMENT_AXES], m.joint_axes[:, _MOMENT_SEEDS]
    normal = seed - dot_rows(seed, axis)[..., None] * axis
    length = np.sqrt(dot_rows(normal, normal))
    aligned = length < 1e-9
    normal /= np.where(aligned, 1.0, length)[..., None]
    basis = np.stack([normal, cross_rows(axis, normal)], axis=3)
    points = (m.R[:, _FORCE_CARRIERS] @ table.force_points[:, :, None])[..., 0]
    # skew[j] @ x = points[j] x x, written entry by entry so that its zeros stay +0.
    skew = np.zeros((n, len(_JOINT_FORCES), 3, 3))
    skew[..., [2, 0, 1], [1, 2, 0]] = points
    skew[..., [1, 2, 0], [2, 0, 1]] = -points
    A = np.zeros((n, N_EQUATIONS, N_UNKNOWNS))
    s = UNKNOWN_SLICES
    for j, (force, _, _, ends) in enumerate(_JOINT_FORCES):
        for body, sign in ends:
            A[:, _ROWS[body][0], s[force]] = sign * np.eye(3)
            A[:, _ROWS[body][1], s[force]] = sign * skew[:, j]
    for j, (moment, _, _, ends) in enumerate(_JOINT_MOMENTS):
        for body, sign in ends:
            A[:, _ROWS[body][1], s[moment]] = sign * basis[:, j]
    A[:, _ROWS["proximal-1"][1], s["tau1"].start] = m.joint_axes[:, 0]
    A[:, _ROWS["proximal-2"][1], s["tau2"].start] = m.joint_axes[:, 1]
    A[:, _ROWS["distal"][0], s["planar_force"].start] = m.joint_axes[:, 3]
    A[:, _ROWS["proximal-2"][0], s["planar_force"].start] = -m.joint_axes[:, 3]

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
    return A, b.reshape(n, N_EQUATIONS), aligned.any(axis=1)


def assemble_system(motion: WristMotion, bodies, gravity=GRAVITY, load: CuttingLoad | None = None) -> AssembledSystem:
    """Build the 24-equation force/moment balance with shared joint unknowns.

    Action equals reaction by construction: each interface wrench appears
    once, with opposite signs on the two bodies it couples.  The right-hand
    side carries the inertial terms, gravity, and the cutting wrench.
    """
    A, b, aligned = _assemble(motion, _body_table(bodies), frozen_vector("gravity", gravity, 3), load)
    if aligned[0]:
        raise InconsistentStateError(_ALIGNED_MESSAGE)
    return AssembledSystem(A[0], b[0], motion.state.rates[:2].copy())


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


# The joint forces' unknowns in _JOINT_FORCES order, each one's part per
# unit planar force p as a multiple of e4, and its point, as (row, column) of
# skew[2, 1], skew[0, 2] and skew[1, 0] of its block in its carrier's moment balance.
_FORCE_COLUMNS = tuple(i for force, *_ in _JOINT_FORCES for i in range(N_UNKNOWNS)[UNKNOWN_SLICES[force]])
_ALONG_P = np.array([-1.0, 1.0, -1.0, 1.0])
_POINTS = tuple((_ROWS[carrier][1].start + r, UNKNOWN_SLICES[force].start + c)
                for force, carrier, _, _ in _JOINT_FORCES for r, c in ((2, 1), (0, 2), (1, 0)))


def _columns(*blocks):
    # The columns of blocks (n, 3, k) of A, as (k, len(blocks), n, 3).
    return np.ascontiguousarray(np.stack(blocks).transpose(3, 0, 1, 2))


def _solve(A, b, rows):
    """Minimum-norm solutions x (n, 25) and relative residuals |Ax - b| / |b|
    (n,) of the systems in ``rows`` (n,) bool; the others are left NaN.

    In closed form on the loop's type-II determinant det K, elementwise over
    the rows (README, "Model notes"; no stacked matmul, whose bits may depend
    on the block size).  Rows where |det K| is at most ``TYPE_II_TOL`` |n3|
    |n4| |t5a| |t5b| take SVD least squares on A; the residual is A's own, so
    a matrix of another form fails the gate.  x is read-only: vector
    reactions are views of it."""
    n, s = len(b), UNKNOWN_SLICES
    terminal, distal, proximal1, proximal2 = (_ROWS[name][1] for name in BODY_NAMES)
    # b's force and moment parts per body (4, n, 3); per joint force its
    # constant part c and, negated, its part per unit p, -s e4 (2, 4, n, 3).
    force_rhs, moment_rhs = np.moveaxis(b.reshape(n, len(BODY_NAMES), 2, 3), 0, 2).copy().swapaxes(0, 1)
    revolute = force_rhs[0] + force_rhs[1]
    forces = np.stack([(revolute, -force_rhs[1], force_rhs[2] + revolute, force_rhs[3]),
                       np.multiply.outer(-_ALONG_P, A[:, _ROWS["distal"][0], s["planar_force"].start])])
    points = np.stack([A[:, r, c] for r, c in _POINTS]).reshape(len(_JOINT_FORCES), 3, n).swapaxes(1, 2)
    # The moment balances' right-hand sides d and p's column a (2, 4, n, 3),
    # less each joint force's moment on its two bodies (_JOINT_FORCES).
    revolute_moment, tool_moment, base1_moment, base2_moment = cross_rows(points, forces).swapaxes(0, 1)
    reduced = np.stack([-revolute_moment - tool_moment, tool_moment, revolute_moment - base1_moment, -base2_moment], 1)
    reduced[0] += moment_rhs
    # The columns t_a, t_b (2, n, 3) of the terminal-revolute and planar bases
    # and t5 of the tool-revolute one, and the proximal frames' (3, 2, n, 3).
    t_a, t_b = _columns(A[:, terminal, s["terminal_revolute_moment"]], A[:, distal, s["planar_moment"]])
    t5 = _columns(A[:, terminal, s["tool_revolute_moment"]])[:, 0]
    frames = _columns(A[:, proximal1, s["base1_moment"].start:s["tau1"].stop],
                      A[:, proximal2, s["base2_moment"].start:s["tau2"].stop])
    normal = cross_rows(t_a, t_b)
    normal_sq = dot_rows(normal, normal)
    # [K | k] (m5, p) = q, one row per normal (2, n, 3): the distal balance holds -m5.
    q = dot_rows(normal, reduced[:, :2])
    K = dot_rows(normal[:, None], t5) * np.array([1.0, -1.0])[:, None, None]
    r = np.stack([*K[0], q[1, 0], *K[1], q[1, 1]], axis=-1).reshape(n, 2, 3).swapaxes(0, 1)
    w = cross_rows(r[0], r[1])
    full = np.abs(w[:, 2]) > TYPE_II_TOL * np.sqrt(np.prod(normal_sq, axis=0) * np.prod(dot_rows(t5, t5), axis=0))
    # Rows left out may divide by zero; their x is replaced below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The rows' pseudo-inverse columns (r2 x w, w x r1) / w.w and each basis'
        # dual rows (t_b x n, n x t_a) / n.n, Cramer's rule against n (2, 2, n, 3).
        inverse = np.stack([cross_rows(r[1], w), cross_rows(w, r[0])]) / dot_rows(w, w)[:, None]
        dual = np.stack([cross_rows(t_b, normal), cross_rows(normal, t_a)]) / normal_sq[..., None]
        w -= np.sum(inverse * dot_rows(r, w)[..., None], axis=0)
        # (m5, p) of x_p and of u (2, n, 3); each moment balance less their
        # terms (2, 4, n, 3), and the joint moments that leaves.
        core = np.stack([np.sum(inverse * q[0][..., None], axis=0), w])
        p = core[..., 2]
        rest = -p[:, None, :, None] * reduced[1]
        rest[0] += reduced[0]
        tool_terms = t5[0] * core[..., :1] + t5[1] * core[..., 1:2]
        rest[:, 0] -= tool_terms
        rest[:, 1] += tool_terms
        joint = dot_rows(dual[:, None], rest[:, :2])
        rest[:, 2:] += t_a * joint[0][..., None] + t_b * joint[1][..., None]
        own = dot_rows(frames[:, None], rest[:, 2:])
        # Lifted to the 25 unknowns, unknown-major (25, 2, n).
        lifted = np.empty((N_UNKNOWNS, 2, n))
        lifted[s["terminal_revolute_moment"]], lifted[s["planar_moment"]] = joint[:, :, 0], joint[:, :, 1]
        lifted[s["tool_revolute_moment"]] = np.moveaxis(core[..., :2], 2, 0)
        lifted[s["base1_moment"].start:s["tau1"].stop], lifted[s["base2_moment"].start:s["tau2"].stop] = (
            own.transpose(2, 0, 1, 3))
        lifted[s["planar_force"].start] = p
        joint_forces = -p[:, None, :, None] * forces[1]
        joint_forces[0] += forces[0]
        lifted[_FORCE_COLUMNS, :] = joint_forces.transpose(1, 3, 0, 2).reshape(-1, 2, n)
        dots = np.sum(lifted[:, 1, None] * lifted, axis=0)
        x = (lifted[:, 0] - dots[0] / dots[1] * lifted[:, 1]).T
    x = np.where((rows & full)[:, None], x, np.nan)
    for i in np.flatnonzero(rows & ~full):
        x[i], *_ = np.linalg.lstsq(A[i], b[i], rcond=None)
    x.setflags(write=False)
    res = (A @ x[..., None])[..., 0] - b
    rhs_norm = np.sqrt(np.sum(b * b, axis=1))
    return x, np.sqrt(np.sum(res * res, axis=1)) / np.where(rhs_norm > 0.0, rhs_norm, 1.0)


def _gate_message(residual):
    return (f"relative solve residual {residual:.2e} exceeds {RESIDUAL_GATE:.0e}; "
            "the joint state or body parameters are inconsistent with the joint model")


def _row_solutions(x, residual, actuated_rates) -> list:
    """Per row of _solve's x (n, 25), the fields of its ``_solution``: torques,
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
    """Minimum-norm solve with a hard consistency gate.

    The relative residual of the solution (see ``_solve``) must stay below
    ``RESIDUAL_GATE``.  The actuator torques are unique; the self-stress
    component of the reactions is fixed by the minimum-norm choice.
    """
    x, residual = _solve(system.matrix[None], system.rhs[None], np.ones(1, dtype=bool))
    if residual[0] >= RESIDUAL_GATE:
        raise ModelInconsistencyError(_gate_message(residual[0]))
    return _solution(*_row_solutions(x, residual, system.actuated_rates)[0])


def reflected_motor_torque(tau_joint, joint_accel, motor: MotorSpec):
    """Output-shaft torque including the reflected rotor inertia, elementwise."""
    if not (np.all(np.isfinite(tau_joint)) and np.all(np.isfinite(joint_accel))):
        raise InvalidInputError("torque and acceleration must be finite")
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
    checked in their order, and the power-balance terms of
    ``_power_balance_rows``, at n joint states: angles, rates and
    accelerations (n, 4) each."""
    m = _motion(rates, accels, *_kinematics_at(theta, geometry)[:3], table)
    A, b, aligned = _assemble(m, table, gravity, load)
    open_loop = m.closure > CLOSURE_TOL
    x, residual = _solve(A, b, ~(open_loop | aligned))
    errors = tuple((InconsistentStateError, _open_loop_message(c)) if o
                   else (InconsistentStateError, _ALIGNED_MESSAGE) if al
                   else (ModelInconsistencyError, _gate_message(r)) if r >= RESIDUAL_GATE else None
                   for o, c, al, r in zip(open_loop.tolist(), m.closure.tolist(), aligned.tolist(), residual.tolist()))
    for array in m[:-1]:
        array.setflags(write=False)
    return m, x, residual, errors, *_power_balance_rows(m, table, gravity, load)


def solve_state(state: JointState, geometry: WristGeometry, bodies,
                gravity=GRAVITY, load: CuttingLoad | None = None):
    """Motion, assembly, and solve for one joint state.

    A state indexed from a ``JointProfile`` is solved with the rest of its
    aligned block of ``NE_BLOCK`` rows.  The profile keeps that one block as
    ``(key, rows)``: the key holds the block's first row and the inputs it
    was solved for (gravity by value; geometry, bodies and load by
    identity), and ``rows[k]`` is row k's record, built once per block: the
    motion's eight (1, ...) row views, the ``_row_solutions`` fields, None
    or the (error class, message) to raise, and the power-balance terms
    (ke_rate, p_ext) as floats, which ``power_balance_residual`` reads.
    Gravity's check is made once per kept block (``_block_gravity``).
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
    ``residual`` (N,), ``balance`` (N,) as ``power_balance_residual`` gives
    it (NaN where the row fails), and per row None or the (error class,
    message) that ``solve_state`` raises for it."""

    residual: np.ndarray
    balance: np.ndarray
    errors: tuple


def verify_profile(profile: JointProfile, geometry: WristGeometry, bodies,
                   gravity=GRAVITY, load: CuttingLoad | None = None) -> ProfileCheck:
    """``solve_state`` and ``power_balance_residual`` on every row of a
    profile, in the same aligned blocks of ``NE_BLOCK`` rows, without keeping
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
            v = _kinematics_at(state.angles.theta[None], geometry).axes[0, 4]
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
    """Virtual-work torques of a profile without a cutting load, the torques
    of the same angles at rest, and the terms that add a load to either.

    ``tau0`` (N, 2) are the joint torques under inertia and gravity alone,
    and ``rest`` (N, 2) those of the same angles at zero rates and
    accelerations: the projection of the gravity moments -r x m g alone.
    Each inertial moment of a pass at rest is +0 (every
    ``_body_tensor_product`` ends in + 0.0, and +0 + (+-0) is +0), so
    ``rest`` equals that pass's ``tau0`` bit for bit, signed zeros included.
    ``g`` (N, 2, 3) holds, per actuator k, ``e5 x w_k``, with ``w_k`` the
    terminal's angular velocity per unit rate of actuator k: a world-frame
    tip force f at lever l adds ``l * g[:, k] . f`` to torque k.  ``axes``
    (N, 6, 3) and ``e3_x_e5`` (N, 3), the same for every load, turn a
    ``CuttingLoad`` into that world-frame force.
    """

    tau0: np.ndarray
    rest: np.ndarray
    g: np.ndarray
    axes: np.ndarray
    e3_x_e5: np.ndarray

    def with_load(self, tau: np.ndarray, load: CuttingLoad | None) -> np.ndarray:
        """Joint torques (N, 2) ``tau`` of this pass (``tau0`` or ``rest``)
        under ``load``: the torques are affine in it.  Without a load they
        are ``tau`` itself."""
        if load is None:
            return tau
        tip = _tip_force(load, self.axes[:, 2], self.axes[:, 4], self.e3_x_e5)
        return tau + load.lever * _matvec_rows(self.g, tip)


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
    so it is added last (``_LoadFreeTorques.with_load``).

    Raises for the lowest failing sample, named by index and time: legs that
    do not close the loop (inconsistent-state), or passive axes that align,
    where ideal joints cannot realize a general motion (model-inconsistency).
    The Newton-Euler gate rejects such a sample too, unless its loads happen
    to do no work on the self-motion there (at rest with the tool
    horizontal, for one).
    """
    load_free = _load_free_torques(profile, _kinematics_at(profile.theta, geometry), bodies, gravity)
    return load_free.with_load(load_free.tau0, load)


def _load_free_torques(profile: JointProfile, kinematics: _Kinematics, bodies, gravity=GRAVITY) -> _LoadFreeTorques:
    """The load-free pass of ``virtual_work_torques`` on the profile's
    ``kinematics`` (``_kinematics_at`` of its angles), with the same errors;
    a study over many loads makes it once per profile."""
    table = _body_table(bodies)
    gravity = frozen_vector("gravity", gravity, 3)
    f1, f2, axes, passive = kinematics
    m = _motion(profile.rates, profile.accels, f1, f2, axes, table, com_motion=False)
    e1, e2, e3, _, e5, _ = (axes[:, k] for k in range(6))

    open_loop = m.closure > CLOSURE_TOL
    failed = open_loop | passive.singular
    if failed.any():
        i = int(np.argmax(failed))
        if open_loop[i]:
            error, message = InconsistentStateError, _open_loop_message(m.closure[i])
        else:
            error, message = ModelInconsistencyError, (
                "the passive joint axes align; ideal joints cannot realize the motion at this sample")
        raise error(f"{_sample_label(i, profile.t[i], e5[i])}: {message}")

    weights = table.mass[:, None] * gravity
    moments = [_body_tensor_product(m.R[:, b], table.inertia_center[b], m.omega_dot[:, b])
               + cross_rows(m.omega[:, b], _body_tensor_product(m.R[:, b], table.inertia_center[b], m.omega[:, b]))
               - cross_rows(m.r_com[:, b], weights[b])
               for b in range(len(BODY_NAMES))]
    n = len(profile)
    g = np.empty((n, 2, 3))
    unit_rates = []
    for k, drive in enumerate(np.eye(2)):
        # The passive rates per unit rate of actuator k, by loop closure.
        rates = _solve_passive(passive, cross_rows(drive[1] * e2 - drive[0] * e1, e5))
        unit_rates.append(rates)
        g[:, k] = cross_rows(e5, drive[0] * e1 + rates[:, :1] * e3)
    tau0 = _project(moments, axes, unit_rates)
    del moments  # released before the gravity moments alone are formed again for the torques at rest
    rest = _project([np.subtract(0.0, cross_rows(m.r_com[:, b], w)) for b, w in enumerate(weights)],
                    axes, unit_rates)
    return _LoadFreeTorques(tau0, rest, g, axes, cross_rows(e3, e5))
