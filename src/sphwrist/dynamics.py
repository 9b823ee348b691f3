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
it, and the actuator torques are invariant to that choice.  The solve takes
it from a QR factorization of the transposed matrix and falls back to SVD
least squares where the equations are nearly rank-deficient
(``solve_wrenches``).

Every body rotates about the fixed wrist center: Euler equations are taken
about that point and center-of-mass accelerations are purely rotational.

The studies take their actuator torques from ``virtual_work_torques``: the
principle of virtual work over a whole joint profile at once, with the
velocity field of each actuator from loop closure.  It gives the same
torques without the reactions; the per-sample Newton-Euler solve stays as
the reactions API and as the independent check on it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InconsistentStateError, InvalidInputError, ModelInconsistencyError, WristError
from .kinematics import JointProfile, JointState, _closure_rates_from_axes, _closure_singular
from .rotation import WristGeometry, chain_frames, cross3, cross_rows

GRAVITY = np.array([0.0, 0.0, -9.81])

RESIDUAL_GATE = 1e-8
CLOSURE_TOL = 1e-6
# solve_wrenches hands a sample to lstsq when the smallest diagonal entry of
# R is at most this fraction of the largest: the equations are then too near
# rank-deficient for the QR solution, and lstsq's rank decision applies.  The
# ratio is 1e-16 at the R = 0.25 m semicircle's singular midpoint, 1.7e-3 beside it.
QR_RANK_TOL = 1e-8

BODY_NAMES = ("terminal", "distal", "proximal-1", "proximal-2")

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
# built from the joint axis and a seed axis (``_transverse_basis``).
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


def _as_vector(name, value, length=3):
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (length,):
        raise InvalidInputError(f"{name} must be a {length}-vector")
    if not np.isfinite(v).all():
        raise InvalidInputError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class BodyParams:
    """Mass, geometry, and inertia of one link, in its own body frame.

    ``com_offset`` points from the wrist center to the center of mass;
    ``force_points`` name the joint interaction points the same way.
    ``inertia`` is taken about the center of mass.
    """

    name: str
    mass: float
    com_offset: np.ndarray
    inertia: np.ndarray
    force_points: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in BODY_NAMES:
            raise InvalidInputError(f"unknown body name {self.name!r}")
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise InvalidInputError(f"{self.name}: mass must be positive")
        com = _as_vector(f"{self.name}.com_offset", self.com_offset)
        inertia = np.asarray(self.inertia, dtype=float)
        if inertia.shape != (3, 3) or not np.all(np.isfinite(inertia)):
            raise InvalidInputError(f"{self.name}: inertia must be a finite 3x3 tensor")
        if np.max(np.abs(inertia - inertia.T)) > 1e-12 * max(1.0, np.max(np.abs(inertia))):
            raise InvalidInputError(f"{self.name}: inertia must be symmetric")
        if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
            raise InvalidInputError(f"{self.name}: inertia must be positive-definite")
        points = {k: _as_vector(f"{self.name}.force_points[{k}]", v) for k, v in self.force_points.items()}
        com.setflags(write=False)
        inertia = inertia.copy()
        inertia.setflags(write=False)
        for v in points.values():
            v.setflags(write=False)
        object.__setattr__(self, "com_offset", com)
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "force_points", points)

    @cached_property
    def inertia_center(self) -> np.ndarray:
        """Inertia about the wrist center (parallel-axis theorem), read-only."""
        c = self.com_offset
        inertia = self.inertia + self.mass * (np.dot(c, c) * np.eye(3) - np.outer(c, c))
        inertia.setflags(write=False)
        return inertia


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
        if not (np.isfinite(self.rotor_inertia) and self.rotor_inertia >= 0.0):
            raise InvalidInputError("motor rotor_inertia must be non-negative")
        for name in ("reduction_ratio", "nominal_speed", "max_speed", "max_torque", "continuous_torque"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"motor {name} must be positive")
        if self.max_torque < self.continuous_torque:
            raise InvalidInputError("max_torque must be at least continuous_torque")
        if self.max_speed < self.nominal_speed:
            raise InvalidInputError("max_speed must be at least nominal_speed")


@dataclass(frozen=True)
class CuttingLoad:
    """Cutting force at the tool tip.

    Components are given along the terminal's drive axis, the tool axis, and
    their cross product; ``lever`` is the tip distance from the wrist center.
    """

    f_c: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lever: float = 0.0

    def __post_init__(self):
        f = _as_vector("f_c", self.f_c)
        if not (np.isfinite(self.lever) and self.lever >= 0.0):
            raise InvalidInputError("lever must be non-negative")
        f.setflags(write=False)
        object.__setattr__(self, "f_c", f)


@dataclass(frozen=True)
class BodyMotion:
    """World-frame rigid-body motion of one link about the wrist center."""

    R: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    r_com: np.ndarray
    v_com: np.ndarray
    a_com: np.ndarray


@dataclass(frozen=True)
class WristMotion:
    """Per-body motions plus the joint axes, for one joint state."""

    bodies: dict
    axes: dict
    state: JointState
    closure_error: float


def body_motion(state: JointState, geometry: WristGeometry, bodies) -> WristMotion:
    """Angular velocity/acceleration and center-of-mass motion of every link.

    Each proximal link spins about its fixed drive axis; the terminal and the
    distal compound their leg's two joint rates, including the distal's spin
    about the planar-joint normal, which the leg-2 chain resolves directly.
    """
    params = _index_bodies(bodies)
    th = state.angles.theta
    d1, d2, d3, d4 = state.rates.tolist()
    a1, a2, a3, a4 = state.accels.tolist()

    frames1, (e1, e3, e5) = chain_frames(th[[0, 2]], geometry, "leg-1")
    frames2, (e2, e4, e6) = chain_frames(th[[1, 3]], geometry, "leg-2")

    gap = e5 - e6
    closure = math.sqrt(gap @ gap)
    if closure > CLOSURE_TOL:
        raise InconsistentStateError(
            f"legs disagree on the tool axis by {closure:.2e}; joint angles do not close the loop"
        )

    motions = {}

    def add(name, R, omega, omega_dot):
        r = R @ params[name].com_offset
        v = cross3(omega, r)
        motions[name] = BodyMotion(R, omega, omega_dot, r, v, cross3(omega_dot, r) + cross3(omega, v))

    w1, w1_dot = d1 * e1, a1 * e1
    w2, w2_dot = d2 * e2, a2 * e2
    add("proximal-1", frames1[1], w1, w1_dot)
    add("terminal", frames1[2], w1 + d3 * e3, w1_dot + a3 * e3 + d1 * d3 * cross3(e1, e3))
    add("proximal-2", frames2[1], w2, w2_dot)
    add("distal", frames2[2], w2 + d4 * e4, w2_dot + a4 * e4 + d2 * d4 * cross3(e2, e4))

    axes = {"e1": e1, "e2": e2, "e3": e3, "e4": e4, "e5": e5, "e6": e6}
    return WristMotion(motions, axes, state, closure)


def _index_bodies(bodies):
    params = {b.name: b for b in bodies}
    missing = [n for n in BODY_NAMES if n not in params]
    if missing:
        raise InvalidInputError(f"missing body parameters for {missing}")
    return params


def _transverse_basis(axis, seed):
    """(3, 2) columns: the unit vector normal to ``axis`` in its plane with
    ``seed``, then ``axis`` cross that vector."""
    ax, ay, az = axis.tolist()
    sx, sy, sz = seed.tolist()
    d = sx * ax + sy * ay + sz * az
    tx, ty, tz = sx - d * ax, sy - d * ay, sz - d * az
    n = math.hypot(tx, ty, tz)
    if n < 1e-9:
        raise InconsistentStateError("cannot build a transverse moment basis; axes are aligned")
    tx, ty, tz = tx / n, ty / n, tz / n
    return np.array([[tx, ay * tz - az * ty],
                     [ty, az * tx - ax * tz],
                     [tz, ax * ty - ay * tx]])


UNKNOWN_SLICES = {
    "terminal_revolute_force": slice(0, 3),
    "terminal_revolute_moment": slice(3, 5),
    "tool_revolute_force": slice(5, 8),
    "tool_revolute_moment": slice(8, 10),
    "base1_force": slice(10, 13),
    "base1_moment": slice(13, 15),
    "tau1": slice(15, 16),
    "base2_force": slice(16, 19),
    "base2_moment": slice(19, 21),
    "tau2": slice(21, 22),
    "planar_force": slice(22, 23),
    "planar_moment": slice(23, 25),
}

N_UNKNOWNS = 25
N_EQUATIONS = 24

_ROWS = {
    "terminal": (slice(0, 3), slice(3, 6)),
    "distal": (slice(6, 9), slice(9, 12)),
    "proximal-1": (slice(12, 15), slice(15, 18)),
    "proximal-2": (slice(18, 21), slice(21, 24)),
}


@dataclass(frozen=True)
class AssembledSystem:
    """Linear Newton-Euler system for one sample."""

    matrix: np.ndarray
    rhs: np.ndarray
    actuated_rates: np.ndarray


def _skew(v):
    x, y, z = v.tolist()
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def _newton_template():
    # The constant part of the matrix: the force balances' +-I blocks.
    A = np.zeros((N_EQUATIONS, N_UNKNOWNS))
    for force, _, _, ends in _JOINT_FORCES:
        for body, sign in ends:
            A[_ROWS[body][0], UNKNOWN_SLICES[force]] = sign * np.eye(3)
    A.setflags(write=False)
    return A


_NEWTON_TEMPLATE = _newton_template()
_CENTER = np.zeros(3)
_CENTER.setflags(write=False)


def cutting_wrench(motion: WristMotion, load: CuttingLoad):
    """World-frame force at the tool tip and its moment about the center."""
    e3, e5 = motion.axes["e3"], motion.axes["e5"]
    f = load.f_c[0] * e3 + load.f_c[1] * e5 + load.f_c[2] * cross3(e3, e5)
    return f, cross3(load.lever * e5, f)


def assemble_system(motion: WristMotion, bodies, gravity=GRAVITY, load: CuttingLoad | None = None) -> AssembledSystem:
    """Build the 24-equation force/moment balance with shared joint unknowns.

    Action equals reaction by construction: each interface wrench appears
    once, with opposite signs on the two bodies it couples.  The right-hand
    side carries the inertial terms, gravity, and the cutting wrench.
    """
    params = _index_bodies(bodies)
    gravity = _as_vector("gravity", gravity)

    axes = motion.axes
    s = UNKNOWN_SLICES

    A = _NEWTON_TEMPLATE.copy()
    for force, carrier, point, ends in _JOINT_FORCES:
        skew = _skew(motion.bodies[carrier].R @ params[carrier].force_points.get(point, _CENTER))
        for body, sign in ends:
            A[_ROWS[body][1], s[force]] = sign * skew
    for moment, axis, seed, ends in _JOINT_MOMENTS:
        basis = _transverse_basis(axes[axis], axes[seed])
        for body, sign in ends:
            A[_ROWS[body][1], s[moment]] = sign * basis
    # The actuator torques about the drive axes, and the planar joint's
    # normal force, which acts through the center.
    A[_ROWS["proximal-1"][1], s["tau1"].start] = axes["e1"]
    A[_ROWS["proximal-2"][1], s["tau2"].start] = axes["e2"]
    A[_ROWS["distal"][0], s["planar_force"].start] = axes["e4"]
    A[_ROWS["proximal-2"][0], s["planar_force"].start] = -axes["e4"]

    b = np.empty(N_EQUATIONS)
    for name in BODY_NAMES:
        p = params[name]
        m = motion.bodies[name]
        newton, euler = _ROWS[name]
        inertia_o = m.R @ p.inertia_center @ m.R.T
        weight = p.mass * gravity
        b[newton] = p.mass * m.a_com - weight
        b[euler] = inertia_o @ m.omega_dot + cross3(m.omega, inertia_o @ m.omega) - cross3(m.r_com, weight)
    if load is not None:
        f_cut, m_cut = cutting_wrench(motion, load)
        newton, euler = _ROWS["terminal"]
        b[newton] -= f_cut
        b[euler] -= m_cut

    return AssembledSystem(A, b, motion.state.rates[:2].copy())


@dataclass(frozen=True)
class DynamicsSolution:
    """Actuator torques, joint reactions, solve residual, and actuator powers."""

    tau: np.ndarray
    reactions: dict
    residual: float
    power: np.ndarray


def solve_wrenches(system: AssembledSystem) -> DynamicsSolution:
    """Minimum-norm solve with a hard consistency gate.

    With the QR factorization A^T = Q R, the minimum-norm solution of a
    full-row-rank system is x = Q R^-T b.  When the diagonal of R shows the
    equations nearly rank-deficient (``QR_RANK_TOL``), the SVD least-squares
    solution is taken instead.  Either way the relative residual of x must
    stay below ``RESIDUAL_GATE``.  The actuator torques are unique; the
    self-stress component of the reactions is fixed by the minimum-norm
    choice.
    """
    A, rhs = system.matrix, system.rhs
    q, r = np.linalg.qr(A.T)
    diag = np.abs(np.diagonal(r))
    if diag.min() > QR_RANK_TOL * diag.max():
        x = q @ np.linalg.solve(r.T, rhs)
    else:
        x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    res = A @ x - rhs
    res_norm = math.sqrt(res.dot(res))
    rhs_norm = math.sqrt(rhs.dot(rhs))
    residual = res_norm / rhs_norm if rhs_norm > 0.0 else res_norm
    if residual >= RESIDUAL_GATE:
        raise ModelInconsistencyError(
            f"relative solve residual {residual:.2e} exceeds {RESIDUAL_GATE:.0e}; "
            "the joint state or body parameters are inconsistent with the joint model"
        )
    tau = np.array([x[UNKNOWN_SLICES["tau1"].start], x[UNKNOWN_SLICES["tau2"].start]])
    reactions = {key: (x[sl].copy() if sl.stop - sl.start > 1 else float(x[sl.start]))
                 for key, sl in UNKNOWN_SLICES.items()}
    power = tau * system.actuated_rates
    return DynamicsSolution(tau, reactions, residual, power)


def reflected_motor_torque(tau_joint, joint_accel, motor: MotorSpec):
    """Output-shaft torque including the reflected rotor inertia, elementwise."""
    if not (np.all(np.isfinite(tau_joint)) and np.all(np.isfinite(joint_accel))):
        raise InvalidInputError("torque and acceleration must be finite")
    # np.square overflows to inf where float ** 2 raises OverflowError.
    return tau_joint + motor.rotor_inertia * np.square(motor.reduction_ratio) * joint_accel


def power_balance_residual(state: JointState, solution: DynamicsSolution, motion: WristMotion,
                           bodies, gravity=GRAVITY, load: CuttingLoad | None = None) -> float:
    """Relative mismatch between supplied power and the kinetic-energy rate.

    Independent check on the wrench solve: actuator power plus gravity and
    cutting power must equal d(KE)/dt, with everything evaluated analytically
    from the motion terms.  The kinetic energy is split about each center of
    mass, not about the wrist center as in the assembly.
    """
    params = _index_bodies(bodies)
    gravity = _as_vector("gravity", gravity)

    ke_rate = p_gravity = 0.0
    for name in BODY_NAMES:
        p = params[name]
        m = motion.bodies[name]
        inertia_c = m.R @ p.inertia @ m.R.T
        ke_rate += m.omega @ (inertia_c @ m.omega_dot) + p.mass * (m.v_com @ m.a_com)
        p_gravity += p.mass * (gravity @ m.v_com)

    p_cut = 0.0
    if load is not None:
        f_cut, _ = cutting_wrench(motion, load)
        p_cut = f_cut @ cross3(motion.bodies["terminal"].omega, load.lever * motion.axes["e5"])
    p_act = solution.tau @ state.rates[:2]
    return float(abs(p_act + p_gravity + p_cut - ke_rate) / max(1.0, abs(ke_rate)))


def solve_state(state: JointState, geometry: WristGeometry, bodies,
                gravity=GRAVITY, load: CuttingLoad | None = None):
    """Motion, assembly, and solve for one joint state."""
    motion = body_motion(state, geometry, bodies)
    solution = solve_wrenches(assemble_system(motion, bodies, gravity, load))
    return motion, solution


def solve_trajectory(states, geometry: WristGeometry, bodies,
                     gravity=GRAVITY, load: CuttingLoad | None = None):
    """Per-sample solves along a joint-state series, in input order.

    A failing sample is named by its index and time; the category is kept.
    """
    motions = []
    solutions = []
    for i, state in enumerate(states):
        try:
            motion, solution = solve_state(state, geometry, bodies, gravity, load)
        except WristError as exc:
            raise type(exc)(f"sample {i} (t = {state.t:.6g} s): {exc}") from exc
        motions.append(motion)
        solutions.append(solution)
    return motions, solutions


def _body_tensor_product(R, tensor, v):
    # World-frame (tensor @ v) per sample, for a symmetric tensor held
    # constant in the body frame: R (N, 3, 3), v (N, 3).
    return np.einsum("nij,nj->ni", R, np.einsum("nji,nj->ni", R, v) @ tensor)


class _LoadFreeTorques(NamedTuple):
    """Virtual-work torques of a profile without a cutting load, plus the
    terms that add one.

    ``tau0`` (N, 2) are the joint torques under inertia and gravity alone.
    ``g`` (N, 2, 3) holds, per actuator k, ``e5 x w_k``, with ``w_k`` the
    terminal's angular velocity per unit rate of actuator k: a world-frame
    tip force f at lever l adds ``l * g[:, k] . f`` to torque k.  ``e3`` and
    ``e5`` (N, 3) turn a ``CuttingLoad`` into that world-frame force.
    """

    tau0: np.ndarray
    g: np.ndarray
    e3: np.ndarray
    e5: np.ndarray

    def with_load(self, load: CuttingLoad | None = None) -> np.ndarray:
        """Joint torques (N, 2) under ``load``: the torques are affine in it.
        Without a load they are ``tau0`` itself."""
        if load is None:
            return self.tau0
        # World frame: (e3, e5, e3 x e5) is orthonormal only for a terminal
        # twist of pi/2.
        f = load.f_c[0] * self.e3 + load.f_c[1] * self.e5 + load.f_c[2] * cross_rows(self.e3, self.e5)
        return self.tau0 + load.lever * np.einsum("nkj,nj->nk", self.g, f)


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
    return _load_free_torques(profile, geometry, bodies, gravity).with_load(load)


def _load_free_torques(profile: JointProfile, geometry: WristGeometry, bodies,
                      gravity=GRAVITY) -> _LoadFreeTorques:
    """The load-free pass of ``virtual_work_torques``, with the same errors;
    a study over many loads makes it once per profile."""
    params = _index_bodies(bodies)
    gravity = _as_vector("gravity", gravity)
    th, dth, ddth = profile.theta, profile.rates, profile.accels

    frames1, axes1 = chain_frames(th[:, [0, 2]], geometry, "leg-1")
    frames2, axes2 = chain_frames(th[:, [1, 3]], geometry, "leg-2")
    e1, e3, e5 = axes1
    e2, e4, e6 = axes2

    closure = np.linalg.norm(e5 - e6, axis=1)
    open_loop = closure > CLOSURE_TOL
    failed = open_loop | _closure_singular(axes1, axes2)
    if failed.any():
        i = int(np.argmax(failed))
        if open_loop[i]:
            error, message = InconsistentStateError, (
                f"legs disagree on the tool axis by {closure[i]:.2e}; joint angles do not close the loop")
        else:
            error, message = ModelInconsistencyError, (
                "the passive joint axes align; ideal joints cannot realize the motion at this sample")
        raise error(f"sample {i} (t = {profile.t[i]:.6g} s): {message}")

    d1, d2, d3, d4 = (dth[:, k:k + 1] for k in range(4))
    a1, a2, a3, a4 = (ddth[:, k:k + 1] for k in range(4))
    motion = {
        "proximal-1": (frames1[1], d1 * e1, a1 * e1),
        "terminal": (frames1[2], d1 * e1 + d3 * e3, a1 * e1 + a3 * e3 + d1 * d3 * cross_rows(e1, e3)),
        "proximal-2": (frames2[1], d2 * e2, a2 * e2),
        "distal": (frames2[2], d2 * e2 + d4 * e4, a2 * e2 + a4 * e4 + d2 * d4 * cross_rows(e2, e4)),
    }
    moment = {}
    for name, (R, omega, omega_dot) in motion.items():
        p = params[name]
        moment[name] = (_body_tensor_product(R, p.inertia_center, omega_dot)
                        + cross_rows(omega, _body_tensor_product(R, p.inertia_center, omega))
                        - cross_rows(R @ p.com_offset, p.mass * gravity))

    q_passive = np.column_stack([np.sum(e3 * moment["terminal"], axis=1), np.sum(e4 * moment["distal"], axis=1)])
    tau = np.column_stack([np.sum(e1 * (moment["proximal-1"] + moment["terminal"]), axis=1),
                           np.sum(e2 * (moment["proximal-2"] + moment["distal"]), axis=1)])
    g = np.empty((len(th), 2, 3))
    for k, drive in enumerate(np.eye(2)):
        passive = _closure_rates_from_axes(axes1, axes2, np.tile(drive, (len(th), 1)))[:, 2:]
        tau[:, k] += np.sum(passive * q_passive, axis=1)
        g[:, k] = cross_rows(e5, drive[0] * e1 + passive[:, :1] * e3)
    return _LoadFreeTorques(tau, g, e3, e5)
