import itertools
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BAD_VALUES, closure_row, is_complex_array, own_rate_profile
from sphwrist import (
    GRAVITY,
    BodyParams,
    CuttingLoad,
    JointAngles,
    JointProfile,
    JointState,
    MotorSpec,
    ToolOrientation,
    TrajectorySpec,
    WristGeometry,
    WristMotion,
    assemble_system,
    body_motion,
    chain_frames,
    default_config,
    forward_kinematics,
    generate,
    inverse_kinematics,
    power_balance_residual,
    reflected_motor_torque,
    solve_state,
    solve_trajectory,
    solve_wrenches,
    sweep_peaks,
    trajectory_joint_profiles,
    verify_profile,
    virtual_work_torques,
)
from sphwrist import analysis, cli, dynamics, kinematics, rotation
from sphwrist.dynamics import (N_EQUATIONS, N_UNKNOWNS, NE_BLOCK, RESIDUAL_GATE, TYPE_II_MESSAGE, UNKNOWN_SLICES,
                               _body_table, _load_free_torques, _motion)
from sphwrist.errors import InconsistentStateError, InvalidInputError, ModelInconsistencyError, WristError
from sphwrist.kinematics import _axis_stack, _joint_angles, _kinematics_at, _passive_closure
from sphwrist.rotation import leg_frames
from sphwrist.trajectory import KIND_CIRCLE, KIND_SEMICIRCLE


def static_state(theta):
    return JointState(JointAngles(theta), np.zeros(4), np.zeros(4), 0.0)


def circle_states(geometry, gamma_deg, radius, n):
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=radius, gamma=math.radians(gamma_deg), sample_count=n)
    samples = generate(spec)
    dt = samples[1].t - samples[0].t
    return trajectory_joint_profiles([s.orientation for s in samples], dt, geometry)


# --- parameter validation ---------------------------------------------------

def test_body_params_validation():
    eye = np.eye(3) * 1e-3
    with pytest.raises(InvalidInputError):
        BodyParams(name="nope", mass=1.0, com_offset=np.zeros(3), inertia=eye)
    with pytest.raises(InvalidInputError):
        BodyParams(name="terminal", mass=-1.0, com_offset=np.zeros(3), inertia=eye)
    skew = eye.copy()
    skew[0, 1] = 1e-4
    with pytest.raises(InvalidInputError):
        BodyParams(name="terminal", mass=1.0, com_offset=np.zeros(3), inertia=skew)
    with pytest.raises(InvalidInputError):
        BodyParams(name="terminal", mass=1.0, com_offset=np.zeros(3), inertia=-eye)


def test_motor_spec_validation(motor):
    with pytest.raises(InvalidInputError):
        replace(motor, max_torque=10.0, continuous_torque=23.0)
    with pytest.raises(InvalidInputError):
        replace(motor, nominal_speed=700.0, max_speed=600.0)
    with pytest.raises(InvalidInputError):
        replace(motor, rotor_inertia=-1.0)
    replace(motor, rotor_inertia=0.0)


def test_cutting_load_validation():
    with pytest.raises(InvalidInputError):
        CuttingLoad((1.0, 0.0, 0.0), -0.1)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["body", "motor", "load"]), data=st.data())
def test_value_types_reject_bad_values_with_a_wrist_error(kind, data, motor):
    # Any value of any field, a scalar's or a vector's, either builds the
    # type or raises a WristError (the CLI's one error line), never a raw
    # TypeError or ValueError; a bool is not a number, and a complex array
    # is refused, not cut to its real part.
    fields = {"body": dict(name="terminal", mass=1.0, com_offset=np.zeros(3), inertia=np.eye(3) * 1e-3),
              "motor": {f: getattr(motor, f) for f in MotorSpec.__dataclass_fields__},
              "load": dict(f_c=np.ones(3), lever=0.1)}[kind]
    names = data.draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, unique=True))
    values = {**fields, **{name: data.draw(BAD_VALUES, label=name) for name in names}}
    try:
        built = {"body": BodyParams, "motor": MotorSpec, "load": CuttingLoad}[kind](**values)
    except WristError:
        return
    assert not any(is_complex_array(values[name]) for name in names)
    scalars = {"body": ["mass"], "motor": list(fields), "load": ["lever"]}[kind]
    for name in scalars:
        assert type(getattr(built, name)) is float and math.isfinite(getattr(built, name)), name
        assert not isinstance(values[name], bool), name


_INTAKE_SPEC = TrajectorySpec(kind=KIND_CIRCLE, radius=0.15, gamma=0.7, sample_count=5)
_INTAKE_PROFILE = JointProfile(np.arange(3.0), np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 4)))


def _intake_force_sweep(forces, motor):
    return analysis.force_sweep(_INTAKE_SPEC, forces, 0.11, WristGeometry(), default_config().bodies, motor)


@pytest.mark.parametrize("build, message", [
    (lambda motor: replace(motor, rotor_inertia=None), "rotor_inertia must be non-negative"),
    (lambda motor: CuttingLoad(lever=None), "lever must be non-negative"),
    (lambda motor: CuttingLoad(lever=True), "lever must be non-negative"),
    (lambda motor: BodyParams("terminal", None, np.zeros(3), np.eye(3)), "terminal.mass must be positive"),
    (lambda motor: BodyParams("terminal", 1j, np.zeros(3), np.eye(3)), "terminal.mass must be positive"),
    (lambda motor: CuttingLoad("abc"), "f_c must be a 3-vector"),
    (lambda motor: BodyParams("terminal", 1.0, np.zeros(3), "x"), "terminal.inertia must be a finite 3x3 tensor"),
    # The rows below give the CLI's line, category first; a bare message is an invalid-input one.
    (lambda motor: CuttingLoad(np.array([1 + 2j, 0, 0])), "error[invalid-input]: f_c must be a 3-vector"),
    (lambda motor: BodyParams("terminal", 1.0, np.zeros(3), np.eye(3) * (1 + 1j)),
     "error[invalid-input]: terminal.inertia must be a finite 3x3 tensor"),
    (lambda motor: reflected_motor_torque("a", 0.0, motor),
     "error[invalid-input]: torque and acceleration must be finite"),
    (lambda motor: virtual_work_torques(_INTAKE_PROFILE, WristGeometry(), default_config().bodies,
                                        np.array([0, 0, -9.81 + 5j])),
     "error[invalid-input]: gravity must be a 3-vector"),
    *((lambda motor, forces=forces: _intake_force_sweep(forces, motor),
       "error[invalid-input]: cutting-force magnitudes must be finite") for forces in (["a"], [None], None)),
    (lambda motor: analysis.force_sweep(_INTAKE_SPEC, [], -1.0, WristGeometry(), default_config().bodies, motor),
     "error[invalid-input]: lever must be non-negative"),
    *((lambda motor, motors=motors: sweep_peaks([_INTAKE_SPEC], WristGeometry(), default_config().bodies, motors),
       "error[invalid-input]: expected one MotorSpec or a pair") for motors in (None, 3)),
])
# No call warns: a complex value dropping its imaginary part (ComplexWarning is a RuntimeWarning).
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_value_types_name_a_bad_scalar_or_vector(motor, build, message):
    with pytest.raises(WristError) as info:
        build(motor)
    assert f"error[{info.value.category}]: {info.value}" == (
        message if message.startswith("error[") else f"error[invalid-input]: {message}")


def test_gravity_default_is_read_only():
    # GRAVITY is the default gravity of the public functions; a write to it
    # would change every later call that takes the default.
    with pytest.raises(ValueError):
        GRAVITY[2] = 0.0
    with pytest.raises(ValueError):
        np.add(GRAVITY, 1.0, out=GRAVITY)
    assert GRAVITY.tolist() == [0.0, 0.0, -9.81]


def test_value_types_store_read_only_copies_of_caller_arrays(bodies):
    # Every array a value type is given is copied in: a later write to the
    # caller's array reaches neither the stored array nor what was built from it.
    alpha, home = np.full(5, math.pi / 2.0), np.array([-1.0, 1.0, 1.0, -1.0]) * (math.pi / 2.0)
    v, theta, rates, accels = np.array([0.0, 0.6, -0.8]), np.full(4, 0.1), np.full(4, 0.2), np.full(4, 0.3)
    com, inertia, f_c = np.array([0.0, 0.01, 0.02]), np.eye(3) * 1e-3, np.ones(3)
    geometry = WristGeometry(alpha=alpha, home_thetas=home)
    state = JointState(JointAngles(theta), rates, accels, 0.0)
    terminal = BodyParams("terminal", 1.0, com, inertia)
    given = (terminal, *bodies[1:])
    stored = [(alpha, geometry.alpha), (home, geometry.home_thetas), (v, ToolOrientation(v).v),
              (theta, state.angles.theta), (rates, state.rates), (accels, state.accels),
              (com, terminal.com_offset), (inertia, terminal.inertia), (f_c, CuttingLoad(f_c, 0.1).f_c)]
    before = [array.copy() for _, array in stored]
    inertia_center, table = terminal.inertia_center.copy(), [a.copy() for a in _body_table(given)[1:]]
    for caller, array in stored:
        assert not np.shares_memory(caller, array) and not array.flags.writeable
        caller[...] = np.nan
    for (_, array), old in zip(stored, before):
        np.testing.assert_array_equal(array, old)
    np.testing.assert_array_equal(terminal.inertia_center, inertia_center)
    for built, default in zip(geometry._legs, WristGeometry()._legs):
        np.testing.assert_array_equal(built, default)
    dynamics._table_of.cache_clear()
    for rebuilt, old in zip(_body_table(given)[1:], table):
        np.testing.assert_array_equal(rebuilt, old)


# --- body motion --------------------------------------------------------------

def test_body_motion_statics_zero(geometry, bodies):
    motion = body_motion(static_state(geometry.home_thetas), geometry, bodies)
    for m in motion.bodies.values():
        np.testing.assert_allclose(m.omega, 0.0, atol=1e-15)
        np.testing.assert_allclose(m.omega_dot, 0.0, atol=1e-15)
        np.testing.assert_allclose(m.a_com, 0.0, atol=1e-15)


def test_body_motion_pure_drive_rotation(geometry, bodies):
    omega = 2.5
    state = JointState(JointAngles(geometry.home_thetas),
                       np.array([omega, 0.0, 0.0, 0.0]), np.zeros(4), 0.0)
    motion = body_motion(state, geometry, bodies)
    e1 = motion.axes["e1"]
    p1 = motion.bodies["proximal-1"]
    np.testing.assert_allclose(p1.omega, omega * e1, atol=1e-14)
    r = p1.r_com
    r_perp = r - (r @ e1) * e1
    assert np.linalg.norm(p1.a_com) == pytest.approx(omega ** 2 * np.linalg.norm(r_perp), rel=1e-12)


def test_body_motion_orientation_rate_oracle(geometry, bodies):
    # Finite differences of the chain-frame orientations reproduce the
    # reported angular velocities for all four links.
    states = circle_states(geometry, 45.0, 0.25, 401)
    dt = states[1].t - states[0].t
    for k in (57, 200, 331):
        motion = body_motion(states[k], geometry, bodies)
        th_p = states[k + 1].angles.theta
        th_m = states[k - 1].angles.theta
        frames = {}
        for sign, th in (("p", th_p), ("m", th_m)):
            f1, _ = chain_frames((th[0], th[2]), geometry, "leg-1")
            f2, _ = chain_frames((th[1], th[3]), geometry, "leg-2")
            frames[sign] = {"proximal-1": f1[1], "terminal": f1[2],
                            "proximal-2": f2[1], "distal": f2[2]}
        for name, m in motion.bodies.items():
            r_dot = (frames["p"][name] - frames["m"][name]) / (2.0 * dt)
            w_hat = r_dot @ m.R.T
            omega_fd = np.array([w_hat[2, 1], w_hat[0, 2], w_hat[1, 0]])
            np.testing.assert_allclose(omega_fd, m.omega, atol=5e-4)


def test_motion_matches_frame_differences_at_second_order(geometry, bodies):
    # The motion that the Newton-Euler assembly and virtual work share,
    # against central differences of its own frames and center-of-mass
    # velocities: skew(omega) = dR/dt R^T and a_com = dv_com/dt for all four
    # links.  Halving the step quarters both errors.
    table = _body_table(bodies)

    def errors(n):
        profile = circle_states(geometry, 45.0, 0.25, n)
        m = _motion(profile.rates, profile.accels, *_kinematics_at(profile.theta, geometry)[:3], table)
        dt = profile.t[1] - profile.t[0]
        w = (m.R[2:] - m.R[:-2]) / (2.0 * dt) @ np.swapaxes(m.R[1:-1], -1, -2)
        omega = np.stack([w[..., 2, 1], w[..., 0, 2], w[..., 1, 0]], axis=-1)
        a_com = (m.v_com[2:] - m.v_com[:-2]) / (2.0 * dt)
        # Per interior sample and link; rows 2k of the finer profile sit at
        # the times of rows k of the coarser one.
        return (np.linalg.norm(omega - m.omega[1:-1], axis=-1),
                np.linalg.norm(w + np.swapaxes(w, -1, -2), axis=(-2, -1)),
                np.linalg.norm(a_com - m.a_com[1:-1], axis=-1))

    coarse, fine = errors(201), errors(401)
    for name, e_coarse, e_fine in zip(("omega", "skew", "a_com"), coarse, fine):
        ratio = np.max(e_coarse) / np.max(e_fine[1::2])
        assert 3.8 < ratio < 4.2, (name, ratio)


def test_body_motion_closure_violation(geometry, bodies):
    theta = geometry.home_thetas.copy()
    theta[3] += 1e-3
    with pytest.raises(InconsistentStateError):
        body_motion(static_state(theta), geometry, bodies)


def test_body_motion_missing_body(geometry, bodies):
    with pytest.raises(InvalidInputError):
        body_motion(static_state(geometry.home_thetas), geometry, bodies[:3])


# --- assembly -----------------------------------------------------------------

def test_assembly_shape_and_rank(geometry, bodies):
    motion = body_motion(static_state(geometry.home_thetas), geometry, bodies)
    system = assemble_system(motion, bodies)
    assert system.matrix.shape == (N_EQUATIONS, N_UNKNOWNS) == (24, 25)
    assert np.linalg.matrix_rank(system.matrix, tol=1e-10) == 24


def test_assembly_zero_gravity_statics_rhs(geometry, bodies):
    motion = body_motion(static_state(geometry.home_thetas), geometry, bodies)
    system = assemble_system(motion, bodies, np.zeros(3), None)
    np.testing.assert_allclose(system.rhs, 0.0, atol=1e-15)


def test_assembly_load_doubling_affects_only_load_rows(geometry, bodies):
    v = ToolOrientation.normalized([0.3, 0.1, -0.9])
    state = static_state(inverse_kinematics(v, geometry).theta)
    motion = body_motion(state, geometry, bodies)
    b0 = assemble_system(motion, bodies, GRAVITY, CuttingLoad()).rhs
    b1 = assemble_system(motion, bodies, GRAVITY, CuttingLoad((10.0, 5.0, -3.0), 0.11)).rhs
    b2 = assemble_system(motion, bodies, GRAVITY, CuttingLoad((20.0, 10.0, -6.0), 0.11)).rhs
    np.testing.assert_allclose(b2 - b1, b1 - b0, atol=1e-12)
    np.testing.assert_allclose(b1[6:], b0[6:], atol=1e-15)  # only terminal rows change


# --- solve -------------------------------------------------------------------

def test_statics_zero_gravity_all_zero(geometry, bodies):
    motion = body_motion(static_state(geometry.home_thetas), geometry, bodies)
    sol = solve_wrenches(assemble_system(motion, bodies, np.zeros(3), None))
    np.testing.assert_allclose(sol.tau, 0.0, atol=1e-12)
    for value in sol.reactions.values():
        np.testing.assert_allclose(np.atleast_1d(value), 0.0, atol=1e-12)


def _gravity_potential(geometry, bodies, th1, th2, ref):
    # Independent static oracle: potential energy over the two actuated
    # coordinates, with the tool axis reconstructed from the elbow axes.
    _, ax1 = chain_frames((th1, 0.0), geometry, "leg-1")
    _, ax2 = chain_frames((th2, 0.0), geometry, "leg-2")
    v = np.cross(ax1[1], ax2[1])
    v /= np.linalg.norm(v)
    if v @ ref < 0.0:
        v = -v
    theta = inverse_kinematics(ToolOrientation(v), geometry).theta
    motion = body_motion(static_state(theta), geometry, bodies)
    total = 0.0
    for name, m in motion.bodies.items():
        p = next(b for b in bodies if b.name == name)
        total -= p.mass * float(GRAVITY @ m.r_com)
    return total


@pytest.mark.parametrize("direction", [
    (0.3, -0.2, -0.9),
    (0.1, 0.5, -0.8),
    (-0.4, -0.3, -0.85),
])
def test_static_torque_matches_potential_gradient(geometry, bodies, direction):
    v = ToolOrientation.normalized(direction)
    theta = inverse_kinematics(v, geometry).theta
    _, sol = solve_state(static_state(theta), geometry, bodies)
    h = 1e-5
    tau_fd = np.array([
        (_gravity_potential(geometry, bodies, theta[0] + h, theta[1], v.v)
         - _gravity_potential(geometry, bodies, theta[0] - h, theta[1], v.v)) / (2 * h),
        (_gravity_potential(geometry, bodies, theta[0], theta[1] + h, v.v)
         - _gravity_potential(geometry, bodies, theta[0], theta[1] - h, v.v)) / (2 * h),
    ])
    np.testing.assert_allclose(sol.tau, tau_fd, atol=1e-9)


def test_load_linearity_three_point(geometry, bodies):
    states = circle_states(geometry, 45.0, 0.15, 51)
    state = states[17]
    taus = []
    for fc in (0.0, 60.0, 120.0):
        _, sol = solve_state(state, geometry, bodies, GRAVITY, CuttingLoad((fc, fc, fc), 0.11))
        taus.append(sol.tau)
    mid = 0.5 * (taus[0] + taus[2])
    scale = max(1.0, float(np.max(np.abs(taus[2]))))
    assert np.max(np.abs(taus[1] - mid)) / scale < 1e-10


def test_residual_gate_trips_at_exact_singularity(geometry, bodies):
    # The vertical-plane semicircle crosses a true wrist singularity at its
    # midpoint (tool horizontal, both passive axes vertical); no ideal-joint
    # torque set can realize the prescribed motion there.
    spec = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001)
    samples = generate(spec)
    states = trajectory_joint_profiles([s.orientation for s in samples],
                                       samples[1].t - samples[0].t, geometry)
    with pytest.raises(ModelInconsistencyError):
        solve_state(states[500], geometry, bodies)
    # Immediate neighbors solve cleanly.
    for k in (499, 501):
        _, sol = solve_state(states[k], geometry, bodies)
        assert sol.residual < 1e-8


def reachable_state(geometry, t1, t3, drive_rates=(0.0, 0.0), drive_accels=(0.0, 0.0)):
    # The direction reached by a leg-1 joint pair is reachable by
    # construction; the passive rates and accelerations follow from closure.
    theta = _joint_angles(forward_kinematics(t1, t3, geometry).v, geometry)
    return JointState(JointAngles(theta), *closure_row(theta, drive_rates, drive_accels, geometry), 0.0)


def test_solve_matches_lstsq(geometry, bodies, monkeypatch):
    # The closed-form minimum-norm solve (solve_state) against the SVD
    # least-squares solve of the assembled systems: solve_state refuses a
    # state as type-II singular exactly where lstsq finds A of rank below
    # 24, and accepts the others, whose lstsq residual passes the gate, with
    # the same torques and reactions to 1e-10 of their largest magnitude.
    rng = np.random.default_rng(7)
    cases = []
    for k in range(120):
        t1, t3 = rng.uniform(-math.pi, math.pi, 2)
        state = reachable_state(geometry, t1, t3, rng.uniform(-20.0, 20.0, 2), rng.uniform(-500.0, 500.0, 2))
        load = CuttingLoad(rng.uniform(-200.0, 200.0, 3), rng.uniform(0.0, 0.3)) if k % 2 else None
        cases.append((state, load))
    semicircle = semicircle_states(geometry, 0.25, 1001)
    cases += [(semicircle[i], None) for i in (499, 500, 501)]
    # Singular, and the loads do no work on the self-motion, so lstsq's residual passes the gate: refused.
    cases.append((reachable_state(geometry, 0.0, 1.0), None))

    accepted = []
    for state, load in cases:
        system = assemble_system(body_motion(state, geometry, bodies), bodies, GRAVITY, load)
        x, _, rank, _ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
        residual = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(system.rhs)
        try:
            _, solution = solve_state(state, geometry, bodies, GRAVITY, load)
        except ModelInconsistencyError as exc:
            assert rank < N_EQUATIONS and str(exc) == TYPE_II_MESSAGE
            accepted.append(False)
            continue
        assert rank == N_EQUATIONS and residual < RESIDUAL_GATE
        accepted.append(True)
        tau = x[[UNKNOWN_SLICES["tau1"].start, UNKNOWN_SLICES["tau2"].start]]
        assert np.max(np.abs(solution.tau - tau)) <= 1e-10 * np.max(np.abs(tau))
        for key, columns in UNKNOWN_SLICES.items():
            error = np.max(np.abs(np.atleast_1d(solution.reactions[key]) - x[columns]))
            assert error <= 1e-10 * np.max(np.abs(x)), key
    assert accepted == [True] * 120 + [True, False, True, False]

    # The block path takes no least squares, on the singular states either.
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    for state, _ in cases[120:]:
        try:
            solve_state(standalone(state), geometry, bodies)
        except ModelInconsistencyError:
            pass
    assert len(calls) == 0


def ne_form(bases, drives, e4):
    """(n, 24, 25) matrices in the form ``_assemble`` writes, from the
    entries it fills from the state: each joint moment's basis (n, 5, 3, 2)
    in ``_JOINT_MOMENTS`` order, the drive axes (n, 2, 3) and the planar
    normal e4 (n, 3).  The joint forces act at the wrist center and enter
    the force balances as +-I; e4 enters the distal and proximal-2 force
    balances as +-e4."""
    rows, s = dynamics._ROWS, UNKNOWN_SLICES
    A = np.zeros((len(e4), N_EQUATIONS, N_UNKNOWNS))
    for force, ends in dynamics._JOINT_FORCES:
        for body, sign in ends:
            A[:, rows[body][0], s[force]] = sign * np.eye(3)
    for j, (moment, ends) in enumerate(dynamics._JOINT_MOMENTS):
        for body, sign in ends:
            A[:, rows[body][1], s[moment]] = sign * bases[:, j]
    A[:, rows["proximal-1"][1], s["tau1"].start] = drives[:, 0]
    A[:, rows["proximal-2"][1], s["tau2"].start] = drives[:, 1]
    A[:, rows["distal"][0], s["planar_force"].start] = e4
    A[:, rows["proximal-2"][0], s["planar_force"].start] = -e4
    return A


def dense_residual(A, b, x):
    """|A x - b| / |b| per row of stacked systems A (n, 24, 25), b (n, 24), x (n, 25)."""
    return np.linalg.norm((A @ x[..., None])[..., 0] - b, axis=1) / np.linalg.norm(b, axis=1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1), picks=st.tuples(st.integers(0, 69), st.integers(0, 69)))
@example(n=40, seed=38008, picks=(0, 0))  # row 19: cond(A) 2.1e3, the solves 7.8e-14 apart
def test_raw_solve_matches_lstsq_minimum_norm(n, seed, picks):
    # Random stacks in the Newton-Euler form (``ne_form``), the domain of the
    # closed form: it gives lstsq's minimum-norm solution over all 25
    # unknowns to 1e-12 of its largest entry, or cond(A) eps where that is
    # larger (both solves are backward stable, so each is off the exact
    # solution by up to about cond(A) eps), and a relative residual below
    # the same bound.  Each proximal frame (its base moments' basis and drive
    # axis) is orthonormal, as the assembly writes it; everything else is
    # random.  One row repeats a moment balance, so its type-II determinant
    # det K is 0: it is not solved and stays NaN, as a row left out of
    # ``rows`` does, and no row takes lstsq.
    rng = np.random.default_rng(seed)
    bases = rng.standard_normal((n, 5, 3, 2))
    frames = np.linalg.qr(rng.standard_normal((n, 2, 3, 3)))[0]
    bases[:, 2:4] = frames[..., :2]
    deficient, left_out = picks[0] % n, picks[1] % n
    # The terminal's first two moment balances made equal: the same two rows
    # in its two moment bases.
    bases[deficient, :2, 1] = bases[deficient, :2, 0]
    # Axes e1..e6: the drive axes, then random ones; the solve reads only e4 of those.
    axes = np.concatenate([frames[..., 2], rng.standard_normal((n, 4, 3))], axis=1)
    A = ne_form(bases, axes[:, :2], axes[:, 3])
    first = dynamics._ROWS["terminal"][1].start
    np.testing.assert_array_equal(A[deficient, first + 1], A[deficient, first])
    b = rng.standard_normal((n, N_EQUATIONS))
    f = dynamics._Assembly(bases, axes, b)
    np.testing.assert_array_equal(dynamics._matrix(f), A)
    rows = np.ones(n, dtype=bool)
    if left_out != deficient:
        rows[left_out] = False
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        x, solved = dynamics._closed_form(f, rows)
    residual = dynamics._residual(f, x)
    assert lstsq.call_count == 0
    expected_solved = rows.copy()
    expected_solved[deficient] = False
    np.testing.assert_array_equal(solved, expected_solved)
    for i in range(n):
        if not solved[i]:
            assert np.isnan(x[i]).all() and np.isnan(residual[i])
            continue
        expected, *_ = np.linalg.lstsq(A[i], b[i], rcond=None)
        bound = max(1e-12, np.linalg.cond(A[i]) * np.finfo(float).eps)
        assert np.max(np.abs(x[i] - expected)) <= bound * np.max(np.abs(expected)), i
        assert residual[i] < bound, i


def test_assembly_writes_the_force_block_the_solve_reduces(geometry, bodies):
    # The closed form splits A into its force and moment blocks on the
    # assumption that every matrix has the form of ``ne_form``, with e4 the
    # planar normal and every joint force at the wrist center, and
    # back-substitutes each proximal link's unknowns through the transpose
    # of their frame: _matrix's A of the assembly's factors, and each
    # assemble_system matrix, is ``ne_form`` of those factors, and each
    # joint moment's basis is orthonormal and normal to its joint axis to
    # 1e-15 (``assert_orthonormal_frames``).  Both semicircles, the 12 grid
    # circles and random reachable states, each with and without a load.
    table = _body_table(bodies)
    profiles, states = assembly_cases(geometry)
    for load in (None, CuttingLoad((150.0, -80.0, 40.0), 0.11)):
        for profile in profiles:
            f = assembly(profile, geometry, table, load)
            np.testing.assert_array_equal(dynamics._matrix(f), ne_form(f.bases, f.axes[:, :2], f.axes[:, 3]))
            assert_orthonormal_frames(f)
        f = assembly(stacked_profile(states), geometry, table, load)
        A = np.array([assemble_system(body_motion(state, geometry, bodies), bodies, GRAVITY, load).matrix
                      for state in states])
        np.testing.assert_array_equal(A, ne_form(f.bases, f.axes[:, :2], f.axes[:, 3]))
        assert_orthonormal_frames(f)


def assembly_cases(geometry):
    """Both semicircles, the 12 grid circles and 40 random reachable states."""
    profiles = [semicircle_states(geometry, radius, 1001) for radius in (0.25, 0.1)]
    profiles += [circle_states(geometry, gamma, radius, 1001) for gamma in (30.0, 45.0, 60.0)
                 for radius in (0.25, 0.15, 0.1, 0.05)]
    rng = np.random.default_rng(3)
    states = [reachable_state(geometry, *rng.uniform(-math.pi, math.pi, 2), rng.uniform(-20.0, 20.0, 2),
                              rng.uniform(-500.0, 500.0, 2)) for _ in range(40)]
    return profiles, states


def stacked_profile(states):
    """The joint states as the rows of one profile."""
    return JointProfile(np.zeros(len(states)), [s.angles.theta for s in states], [s.rates for s in states],
                        [s.accels for s in states])


def assembly(rows, geometry, table, load):
    """The factored systems (``dynamics._Assembly``) of a profile's rows."""
    motion = _motion(rows.rates, rows.accels, *kinematics._frames_at(rows.theta, geometry), table)
    return dynamics._assemble(motion, table, GRAVITY, load)


def block_pass(rows, geometry, table, load):
    """The solutions x and gate residuals of the block path on a profile's rows."""
    _, x, residual, *_ = dynamics._solve_rows(rows.theta, rows.rates, rows.accels, geometry, table, GRAVITY, load)
    return x, residual


def test_structured_residual_matches_the_dense_one(geometry, bodies):
    # The gate's residual on the block path, the structured product of the
    # factors, against |A x - b| / |b| of their matrix A, on the cases of
    # test_assembly_writes_the_force_block_the_solve_reduces: within 1e-15,
    # or within eps |A| |x| / |b| where that is larger.  Both residuals are
    # rounding of that size off the exact one, and next to the semicircles'
    # singular midpoint it exceeds 1e-15: beside it, under the load, the
    # dense residual is itself 1.2e-15 off the exact one (longdouble).  The
    # one row the closed form does not solve, each semicircle's midpoint, has
    # a NaN residual on both.
    table = _body_table(bodies)
    profiles, states = assembly_cases(geometry)
    for load in (None, CuttingLoad((150.0, -80.0, 40.0), 0.11)):
        for k, profile in enumerate([*profiles, stacked_profile(states)]):
            f = assembly(profile, geometry, table, load)
            A = dynamics._matrix(f)
            x, solved = dynamics._closed_form(f, np.ones(len(profile), dtype=bool))
            assert np.flatnonzero(~solved).tolist() == ([500] if k < 2 else []), k
            dense = dense_residual(A, f.rhs, x)
            residual = dynamics._residual(f, x)
            assert residual.tobytes() == block_pass(profile, geometry, table, load)[1].tobytes()
            assert np.array_equal(np.isnan(residual), ~solved) and np.array_equal(np.isnan(dense), ~solved)
            scale = np.linalg.norm((np.abs(A) @ np.abs(x)[..., None])[..., 0], axis=1) / np.linalg.norm(f.rhs, axis=1)
            assert np.all((np.abs(residual - dense) <= np.maximum(1e-15, np.finfo(float).eps * scale))[solved])


# Each joint moment's axis among e1..e6, in _JOINT_MOMENTS order.
_MOMENT_AXIS = (2, 4, 0, 1, 3)


def assert_orthonormal_frames(f):
    """Each joint moment's basis in the factored systems f with its joint
    axis as a third column, [t_a, t_b, e] (n, 3, 3): |F^T F - I| <= 1e-15,
    so the basis is orthonormal and normal to its axis.  For a base joint
    that is the proximal link's frame in its moment balance."""
    for j, k in enumerate(_MOMENT_AXIS):
        frame = np.concatenate([f.bases[:, j], f.axes[:, k, :, None]], axis=2)
        assert np.max(np.abs(frame.transpose(0, 2, 1) @ frame - np.eye(3))) <= 1e-15, dynamics._JOINT_MOMENTS[j][0]


def solution_x(solution):
    """The 25 unknowns of a ``DynamicsSolution``, in column order."""
    return np.concatenate([np.atleast_1d(value) for value in solution.reactions.values()])


@pytest.mark.parametrize("load", [None, CuttingLoad((150.0, -80.0, 40.0), 0.11)])
def test_dense_solve_holds_the_block_solve(geometry, bodies, load):
    # solve_wrenches, SVD least squares on the assembled matrix, against
    # solve_state's closed form, on every row of the R 0.25 m semicircle,
    # the random states of ``assembly_cases`` and the type-II singular state
    # at rest (theta1 = 0, theta3 = 1 rad), where the loads do no work on
    # the self-motion and the torques are not determined: the same refusals
    # with the same text (the midpoint and the state at rest, as type-II
    # singular), and elsewhere x to 1e-12 of its largest entry.
    _, states = assembly_cases(geometry)
    cases = [*semicircle_states(geometry, 0.25, 1001), *states, reachable_state(geometry, 0.0, 1.0)]
    failed = []
    for i, state in enumerate(cases):
        system = assemble_system(body_motion(standalone(state), geometry, bodies), bodies, GRAVITY, load)
        try:
            _, solution = solve_state(state, geometry, bodies, GRAVITY, load)
        except ModelInconsistencyError as exc:
            assert str(exc) == TYPE_II_MESSAGE
            with pytest.raises(ModelInconsistencyError, match=f"^{re.escape(TYPE_II_MESSAGE)}$"):
                solve_wrenches(system)
            failed.append(i)
            continue
        x, dense = solution_x(solution), solution_x(solve_wrenches(system))
        assert np.max(np.abs(dense - x)) <= 1e-12 * np.max(np.abs(x)), i
    assert failed == [500, len(cases) - 1]


def test_every_entry_refuses_the_singular_state_at_rest(geometry, bodies):
    # At rest with theta1 = 0, theta3 = 1 rad the tool is horizontal and the
    # passive axes align (type II).  Gravity does no work on the
    # self-motion, so the balances are consistent (lstsq's residual passes
    # the gate), but the torques are not determined: solve_state,
    # verify_profile, solve_trajectory (naming the sample) and
    # solve_wrenches each refuse it as model-inconsistency with virtual
    # work's text, and virtual work refuses it too.
    state = reachable_state(geometry, 0.0, 1.0)
    system = assemble_system(body_motion(state, geometry, bodies), bodies)
    x, _, rank, _ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
    assert rank == N_EQUATIONS - 1
    assert np.linalg.norm(system.matrix @ x - system.rhs) < RESIDUAL_GATE * np.linalg.norm(system.rhs)
    message = f"^{re.escape(TYPE_II_MESSAGE)}$"
    with pytest.raises(ModelInconsistencyError, match=message):
        solve_state(state, geometry, bodies)
    with pytest.raises(ModelInconsistencyError, match=message):
        solve_wrenches(system)
    profile = stacked_profile([state] * 3)
    check = verify_profile(profile, geometry, bodies)
    assert check.errors == ((ModelInconsistencyError, TYPE_II_MESSAGE),) * 3
    assert np.isnan(check.residual).all() and np.isnan(check.balance).all()
    v = forward_kinematics(0.0, 1.0, geometry).v
    label = re.escape(f"sample 0 (t = 0 s, v = ({v[0]:.6g}, {v[1]:.6g}, {v[2]:.6g})): ")
    for states in ([state], profile):
        with pytest.raises(ModelInconsistencyError, match=f"^{label}{re.escape(TYPE_II_MESSAGE)}$"):
            solve_trajectory(states, geometry, bodies)
    with pytest.raises(ModelInconsistencyError, match=f"{re.escape(TYPE_II_MESSAGE)}$"):
        virtual_work_torques(profile, geometry, bodies)


def test_solve_wrenches_refuses_by_the_block_solves_rule(geometry, bodies):
    # At rest at pan 1 rad, tilting toward the horizon: solve_wrenches
    # refuses exactly the states that solve_state refuses, on the det K
    # ratio of the moment bases its matrix holds, and elsewhere returns the
    # same torques.  At tilt -1e-13 lstsq's own rank cutoff still solves the
    # matrix (rank 24), which gave (0.00156, -0.22529) N m against the
    # determined (0.0023, -0.2219) N m of the tilts that are solved.
    refused = []
    for tilt in (-1e-5, -1e-7, -1e-9, -1e-11, -1e-13):
        state = static_state(_joint_angles(kinematics.vector_from_pan_tilt(1.0, tilt).v, geometry))
        system = assemble_system(body_motion(state, geometry, bodies), bodies)
        try:
            _, solution = solve_state(state, geometry, bodies)
        except ModelInconsistencyError as exc:
            assert str(exc) == TYPE_II_MESSAGE
            with pytest.raises(ModelInconsistencyError, match=f"^{re.escape(TYPE_II_MESSAGE)}$"):
                solve_wrenches(system)
            refused.append(tilt)
            continue
        # Both solves round at the conditioning 1/|tilt| of the moment block.
        np.testing.assert_allclose(solve_wrenches(system).tau, solution.tau, rtol=0.0, atol=1e-14 / abs(tilt))
        np.testing.assert_allclose(solution.tau, (0.0023, -0.2219), atol=1e-4)
    assert refused == [-1e-7, -1e-9, -1e-11, -1e-13]
    assert np.linalg.matrix_rank(system.matrix) == N_EQUATIONS


def test_every_torque_path_refuses_the_same_states_near_the_horizon(geometry, bodies):
    # Moving states near the horizon, where the passive axes align: solve_state,
    # solve_wrenches on the assembled system and the passive closure's singular
    # mask refuse the same states, each on its own measure (det K from the
    # Newton-Euler bases, D from the closure's columns), with one threshold.
    rng = np.random.default_rng(39)
    refused = []
    for _ in range(400):
        tilt = -(10.0 ** rng.uniform(-13.0, -4.0))
        theta = _joint_angles(kinematics.vector_from_pan_tilt(rng.uniform(-math.pi, math.pi), tilt).v, geometry)
        rates, accels = closure_row(theta, rng.uniform(-5.0, 5.0, 2), rng.uniform(-50.0, 50.0, 2), geometry)
        state = JointState(JointAngles(theta), rates, accels, 0.0)
        verdicts = []
        for solve in (lambda: solve_state(state, geometry, bodies),
                      lambda: solve_wrenches(assemble_system(body_motion(state, geometry, bodies), bodies))):
            try:
                solve()
                verdicts.append(False)
            except ModelInconsistencyError as exc:
                assert str(exc) == TYPE_II_MESSAGE, tilt
                verdicts.append(True)
        singular = bool(_kinematics_at(theta[None], geometry).passive.singular[0])
        assert verdicts == [singular, singular], tilt
        refused.append(singular)
    # The draws reach both sides of the threshold.
    assert 0 < sum(refused) < len(refused)


def test_solve_takes_a_matrix_of_another_form(geometry, bodies):
    # solve_wrenches solves the matrix it is given, whatever its form: a
    # force block or a proximal frame scaled by 2 is solved as lstsq solves
    # it, to 1e-12 of the largest entry, and passes the gate.
    state = reachable_state(geometry, 0.4, -1.1, (3.0, -2.0), (40.0, 25.0))
    system = assemble_system(body_motion(state, geometry, bodies), bodies)
    assert solve_wrenches(system).residual < 1e-12
    for rows, columns in ((slice(0, 3), UNKNOWN_SLICES["tool_revolute_force"]),
                          (dynamics._ROWS["proximal-1"][1], UNKNOWN_SLICES["tau1"])):
        matrix = system.matrix.copy()
        matrix[rows, columns] *= 2.0
        x, *_ = np.linalg.lstsq(matrix, system.rhs, rcond=None)
        assert np.linalg.norm(matrix @ x - system.rhs) < 1e-12 * np.linalg.norm(system.rhs)
        solution = solve_wrenches(replace(system, matrix=matrix))
        assert solution.residual < 1e-12
        assert np.max(np.abs(solution_x(solution) - x)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("alpha3", [0.0, math.pi])
def test_elbow_twist_that_aligns_the_leg_is_refused(bodies, alpha3):
    # With alpha3 in {0, pi} the terminal revolute's axis e3 and the tool
    # axis e5 are one line, and the loop is type-II singular at every state.
    # The frame bases stay orthonormal, so the assembly builds; a closed-loop
    # state at rest under gravity is then refused as type-II singular
    # (model-inconsistency) in solve_state, verify_profile and solve_wrenches
    # alike.
    geometry = WristGeometry(alpha=[math.pi / 2, math.pi / 2, math.pi / 2, alpha3, math.pi / 2])
    v = forward_kinematics(0.3, -0.7, geometry).v
    f0, cos, sin = geometry._legs
    theta2, theta4, _ = kinematics._leg_angles(v @ f0[1], cos[1], sin[1], -1.0, "distal")
    theta = np.array([0.3, theta2, -0.7, theta4])
    state = static_state(theta)
    motion = body_motion(state, geometry, bodies)
    assert motion.closure[0] <= 1e-12
    assert_orthonormal_frames(dynamics._assemble(motion, _body_table(bodies), GRAVITY, None))
    message = f"^{re.escape(TYPE_II_MESSAGE)}$"
    with pytest.raises(ModelInconsistencyError, match=message):
        solve_state(state, geometry, bodies)
    with pytest.raises(ModelInconsistencyError, match=message):
        solve_wrenches(assemble_system(motion, bodies))
    profile = JointProfile(np.arange(3.0), [theta] * 3, np.zeros((3, 4)), np.zeros((3, 4)))
    errors = verify_profile(profile, geometry, bodies).errors
    assert [(error, re.match(message, text) is not None) for error, text in errors] == [
        (ModelInconsistencyError, True)] * 3


def test_raw_solve_gate_parity_on_the_semicircle(geometry, bodies):
    # Every row of the R = 0.25 m semicircle in one stack: the closed form
    # and lstsq refuse the same rows, only the singular midpoint.  The closed
    # form does not solve it, and lstsq finds A of rank 23 there (and a
    # residual over the gate); every other row passes the gate on both.
    profile = semicircle_states(geometry, 0.25, 1001)
    f = assembly(profile, geometry, _body_table(bodies), None)
    A, b = dynamics._matrix(f), f.rhs
    x, solved = dynamics._closed_form(f, np.ones(len(b), dtype=bool))
    assert np.flatnonzero(~solved).tolist() == [500]
    assert np.all(dense_residual(A, b, x)[solved] < RESIDUAL_GATE)
    dense = [np.linalg.lstsq(a, r, rcond=None) for a, r in zip(A, b)]
    assert np.flatnonzero([rank < N_EQUATIONS for _, _, rank, _ in dense]).tolist() == [500]
    residual = dense_residual(A, b, np.array([x for x, *_ in dense]))
    assert np.flatnonzero(residual >= RESIDUAL_GATE).tolist() == [500]


def core_qr_ratio(A):
    """Per row of A (n, 24, 25) in the form ``ne_form`` writes, the smallest
    over the largest |diagonal entry| of the raw-QR R of the 7 x 6
    transposed core: the terminal and distal moment balances over their two
    revolute moment pairs, the planar moments and the planar force p, whose
    column is theirs once the joint forces are eliminated.  p = 1 with the
    joint forces s e4 (terminal revolute -e4, tool revolute e4, base 1 -e4,
    base 2 e4) leaves every force balance at 0, so that column is A's
    moment balances times that vector."""
    s, rows = UNKNOWN_SLICES, dynamics._ROWS
    e4 = A[:, rows["distal"][0], s["planar_force"].start]
    unit_p = np.zeros((len(A), N_UNKNOWNS))
    unit_p[:, s["planar_force"]] = 1.0
    for force, sign in (("terminal_revolute_force", -1.0), ("tool_revolute_force", 1.0), ("base1_force", -1.0),
                        ("base2_force", 1.0)):
        unit_p[:, s[force]] = sign * e4
    balances = [rows["terminal"][1], rows["distal"][1]]
    force_rows = [rows[body][0] for body in rows]
    np.testing.assert_allclose(np.concatenate([A[:, r] for r in force_rows], axis=1) @ unit_p[..., None], 0.0,
                               atol=1e-15)
    columns = [s["terminal_revolute_moment"], s["tool_revolute_moment"], s["planar_moment"]]
    core = np.concatenate([np.concatenate([A[:, r, c] for c in columns], axis=2) for r in balances], axis=1)
    p_column = np.concatenate([A[:, r] for r in balances], axis=1) @ unit_p[..., None]
    R = np.linalg.qr(np.concatenate([core, p_column], axis=2).transpose(0, 2, 1), mode="r")
    diagonal = np.abs(np.diagonal(R, axis1=1, axis2=2))
    return diagonal.min(axis=1) / diagonal.max(axis=1)


def test_rank_decision_matches_the_core_qr(geometry, bodies):
    # The closed form refuses a row on its type-II determinant; the raw QR
    # of the core that it replaced singled out exactly the rows whose R has
    # a diagonal ratio of at most 1e-8.  On the R 0.25 m semicircles of odd
    # and even sample counts and the 12 grid circles both pick the same
    # rows: the midpoint of each odd semicircle, and no other.  The block
    # pass refuses those rows as type-II singular, and neither it nor the
    # closed form takes lstsq or forms a dense matrix.
    table = _body_table(bodies)
    cases = [(f"semicircle {n}", semicircle_states(geometry, 0.25, n)) for n in (999, 1000, 1001, 2000, 2001)]
    cases += [(f"circle {gamma} {radius}", circle_states(geometry, gamma, radius, 1001))
              for gamma in (30.0, 45.0, 60.0) for radius in (0.25, 0.15, 0.1, 0.05)]
    for name, profile in cases:
        f = assembly(profile, geometry, table, None)
        A = dynamics._matrix(f)
        with (mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq,
              mock.patch.object(dynamics, "_matrix", wraps=dynamics._matrix) as matrix):
            _, solved = dynamics._closed_form(f, np.ones(len(profile), dtype=bool))
            *_, errors, _, _ = dynamics._solve_rows(profile.theta, profile.rates, profile.accels, geometry, table,
                                                    GRAVITY, None)
        assert lstsq.call_count == 0 and matrix.call_count == 0, name
        refused = np.flatnonzero(~solved).tolist()
        assert refused == np.flatnonzero(core_qr_ratio(A) <= 1e-8).tolist(), name
        middle = [len(profile) // 2] if len(profile) % 2 and name.startswith("semicircle") else []
        assert refused == middle, name
        assert [i for i, error in enumerate(errors) if error is not None] == middle, name
        assert {error for error in errors if error is not None} <= {(ModelInconsistencyError, TYPE_II_MESSAGE)}, name


def balance_passes(monkeypatch):
    """The row counts of the balance passes made from here on."""
    calls = []
    original = dynamics._power_balance_rows
    monkeypatch.setattr(dynamics, "_power_balance_rows", lambda m, *a: calls.append(len(m.R)) or original(m, *a))
    return calls


def own_copy(motion):
    """The same motion in arrays of its own, which no kept block holds."""
    return WristMotion(*(a.copy() for a in motion[:-1]), motion.state)


@pytest.mark.parametrize("load", [None, CuttingLoad((100.0, 100.0, 100.0), 0.11)])
def test_balance_read_from_the_block(geometry, bodies, monkeypatch, load):
    # A motion that solve_state returned reads its balance terms from the
    # kept block, bit for bit the n = 1 pass on the same motion; verify_profile
    # gives every row's residual, balance and error as the row calls do.
    profile = semicircle_states(geometry, 0.25, 1001)
    check = verify_profile(profile, geometry, bodies, GRAVITY, load)
    assert not hasattr(profile, "_ne_block")
    assert [i for i, error in enumerate(check.errors) if error is not None] == [500]
    calls = balance_passes(monkeypatch)
    residual, kept, alone = [], [], []
    for state in profile:
        try:
            motion, solution = solve_state(state, geometry, bodies, GRAVITY, load)
        except WristError as exc:
            assert check.errors[state.row[1]] == (type(exc), str(exc))
            residual.append(check.residual[state.row[1]])
            kept.append(math.nan)
            alone.append(math.nan)
            continue
        residual.append(solution.residual)
        kept.append(power_balance_residual(state, solution, motion, bodies, GRAVITY, load))
        alone.append(power_balance_residual(state, solution, own_copy(motion), bodies, GRAVITY, load))
    # One pass per block, and one n = 1 pass per copied motion.
    assert [c for c in calls if c > 1] == [min(NE_BLOCK, 1001 - s) for s in range(0, 1001, NE_BLOCK)]
    assert calls.count(1) == 1000
    np.testing.assert_array_equal(kept, alone)
    np.testing.assert_array_equal(check.balance, kept)
    np.testing.assert_array_equal(check.residual, residual)
    assert np.nanmax(kept) < 1e-6


def test_balance_falls_back_to_one_row(geometry, bodies, monkeypatch):
    # Another gravity, load or bodies than the kept block's, a motion that
    # is not a view of it, or a block no longer kept: the n = 1 pass.  The
    # actuator power always comes from the solution passed.
    profile = semicircle_states(geometry, 0.25, 1001)
    state = profile[100]
    motion, solution = solve_state(state, geometry, bodies)
    calls = balance_passes(monkeypatch)
    value = power_balance_residual(state, solution, motion, bodies)
    assert calls == [] and value < 1e-12
    assert power_balance_residual(state, replace(solution, tau=1.01 * solution.tau), motion, bodies) > 1e-3
    assert calls == []
    heavier = [replace(b, mass=2.0 * b.mass) if b.name == "distal" else b for b in bodies]
    for kept_bodies, gravity, load in [(bodies, GRAVITY, CuttingLoad((100.0, 100.0, 100.0), 0.11)),
                                       (heavier, GRAVITY, None), (bodies, (0.0, 0.0, -9.0), None)]:
        calls.clear()
        other = power_balance_residual(state, solution, motion, kept_bodies, gravity, load)
        assert calls == [1] and other > 1e-6
        assert other == power_balance_residual(state, solution, own_copy(motion), kept_bodies, gravity, load)
    calls.clear()
    assert power_balance_residual(state, solution, body_motion(state, geometry, bodies), bodies) \
        == pytest.approx(value, abs=1e-15)
    assert calls == [1]
    solve_state(profile[300], geometry, bodies)
    calls.clear()
    assert power_balance_residual(state, solution, motion, bodies) == value
    assert calls == [1]


@pytest.mark.parametrize("field", WristMotion._fields[:-1])
def test_balance_checks_every_motion_array(geometry, bodies, monkeypatch, field):
    # A motion that solve_state returned, with only this one array copied,
    # is not the kept row's: it gets its own one-row pass, the value of a
    # motion copied whole.
    profile = semicircle_states(geometry, 0.25, 1001)
    state = profile[100]
    motion, solution = solve_state(state, geometry, bodies)
    changed = motion._replace(**{field: getattr(motion, field).copy()})
    calls = balance_passes(monkeypatch)
    value = power_balance_residual(state, solution, changed, bodies)
    assert calls == [1]
    assert value == power_balance_residual(state, solution, own_copy(motion), bodies)
    calls.clear()
    assert power_balance_residual(state, solution, motion, bodies) == value and calls == []


def test_reflected_motor_torque_cases(motor):
    assert reflected_motor_torque(3.0, 100.0, replace(motor, rotor_inertia=0.0)) == 3.0
    assert reflected_motor_torque(0.0, 100.0, replace(motor, rotor_inertia=0.00262, reduction_ratio=1.0)) \
        == pytest.approx(0.262)
    assert reflected_motor_torque(5.0, 0.0, motor) == 5.0


def test_power_balance_statics_zero(geometry, bodies):
    state = static_state(geometry.home_thetas)
    motion, sol = solve_state(state, geometry, bodies)
    assert power_balance_residual(state, sol, motion, bodies) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("load", [None, CuttingLoad((100.0, 100.0, 100.0), 0.11)])
def test_power_balance_along_circle(geometry, bodies, load):
    states = circle_states(geometry, 45.0, 0.25, 301)
    motions, sols = solve_trajectory(states, geometry, bodies, GRAVITY, load)
    worst = max(power_balance_residual(st, so, mo, bodies, GRAVITY, load)
                for st, so, mo in zip(states, sols, motions))
    assert worst < 1e-6


def test_frame_invariance_about_vertical(geometry, bodies):
    # Rotating the mounting and the trajectory together about the world
    # vertical leaves the torque history unchanged.
    chi = 0.3
    geom2 = replace(geometry, mount_yaw=geometry.mount_yaw + chi)
    c, s = math.cos(chi), math.sin(chi)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=math.radians(45.0), sample_count=101)
    samples = generate(spec)
    dt = samples[1].t - samples[0].t
    states1 = trajectory_joint_profiles([s_.orientation for s_ in samples], dt, geometry)
    rotated = [ToolOrientation(rz @ s_.orientation.v) for s_ in samples]
    states2 = trajectory_joint_profiles(rotated, dt, geom2)

    _, sols1 = solve_trajectory(states1, geometry, bodies)
    _, sols2 = solve_trajectory(states2, geom2, bodies)
    tau1 = np.array([s.tau for s in sols1])
    tau2 = np.array([s.tau for s in sols2])
    np.testing.assert_allclose(tau1, tau2, atol=1e-9)


def test_residuals_along_circle(geometry, bodies):
    states = circle_states(geometry, 60.0, 0.05, 301)
    _, sols = solve_trajectory(states, geometry, bodies)
    assert max(s.residual for s in sols) < 1e-8


# --- virtual-work torques against the Newton-Euler oracle -------------------
# Power balance is the rate-weighted sum of the virtual-work equations, so it
# cannot check them; the Newton-Euler solve can.

def semicircle_states(geometry, radius, n):
    samples = generate(TrajectorySpec(kind=KIND_SEMICIRCLE, radius=radius, sample_count=n))
    return trajectory_joint_profiles([s.orientation for s in samples], samples[1].t - samples[0].t, geometry)


def profile_rows(profile, rows):
    return JointProfile(profile.t[rows], profile.theta[rows], profile.rates[rows], profile.accels[rows])


def column_rel(a, b):
    """Largest difference in each torque column, against that column's largest magnitude."""
    return np.max(np.abs(a - b), axis=0) / np.max(np.abs(b), axis=0)


def virtual_work_rejections(profile, geometry, bodies):
    """Virtual-work torques on the samples it accepts, those samples, and the
    ones it rejects; each call names the lowest rejected sample, which is
    dropped before the next."""
    keep = np.arange(len(profile))
    rejected = []
    while True:
        try:
            return virtual_work_torques(profile_rows(profile, keep), geometry, bodies), keep, rejected
        except ModelInconsistencyError as exc:
            i = int(keep[int(str(exc).split()[1])])
            rejected.append(i)
            keep = keep[keep != i]


@pytest.mark.parametrize("trajectory, load", [
    (("circle", 45.0, 0.15), None),
    (("circle", 45.0, 0.15), CuttingLoad((100.0, 100.0, 100.0), 0.11)),
    (("circle", 30.0, 0.05), None),
    (("semicircle", None, 0.25), None),
])
def test_virtual_work_matches_newton_euler(geometry, bodies, trajectory, load):
    kind, gamma, radius = trajectory
    if kind == "circle":
        profile = circle_states(geometry, gamma, radius, 301)
    else:
        # Sample 500 is the singular midpoint, where neither path has torques.
        profile = semicircle_states(geometry, radius, 1001)
        profile = profile_rows(profile, np.arange(len(profile)) != 500)
    _, sols = solve_trajectory(profile, geometry, bodies, GRAVITY, load)
    tau_ne = np.array([s.tau for s in sols])
    tau_vw = virtual_work_torques(profile, geometry, bodies, GRAVITY, load)
    assert tau_vw.shape == (len(profile), 2)
    assert np.all(column_rel(tau_vw, tau_ne) < 1e-10)


def loaded_virtual_work_reference(profile, geometry, bodies, gravity, load):
    """Virtual-work torques with the cutting moment inside the terminal's
    moment, one full pass per load: the form the affine split replaced."""
    params = {b.name: b for b in bodies}
    th, dth, ddth = profile.theta, profile.rates, profile.accels
    frames1, axes1 = chain_frames(th[:, [0, 2]], geometry, "leg-1")
    frames2, axes2 = chain_frames(th[:, [1, 3]], geometry, "leg-2")
    e1, e3, e5 = axes1
    e2, e4, e6 = axes2
    axes = np.stack([e1, e2, e3, e4, e5, e6], axis=1)
    d1, d2, d3, d4 = (dth[:, k:k + 1] for k in range(4))
    a1, a2, a3, a4 = (ddth[:, k:k + 1] for k in range(4))
    motion = {
        "proximal-1": (frames1[1], d1 * e1, a1 * e1),
        "terminal": (frames1[2], d1 * e1 + d3 * e3, a1 * e1 + a3 * e3 + d1 * d3 * np.cross(e1, e3)),
        "proximal-2": (frames2[1], d2 * e2, a2 * e2),
        "distal": (frames2[2], d2 * e2 + d4 * e4, a2 * e2 + a4 * e4 + d2 * d4 * np.cross(e2, e4)),
    }
    moment = {}
    for name, (R, omega, omega_dot) in motion.items():
        p = params[name]
        c = p.com_offset
        inertia_o = p.inertia + p.mass * (np.dot(c, c) * np.eye(3) - np.outer(c, c))
        world = R @ inertia_o @ np.transpose(R, (0, 2, 1))
        moment[name] = (np.einsum("nij,nj->ni", world, omega_dot)
                        + np.cross(omega, np.einsum("nij,nj->ni", world, omega))
                        - np.cross(R @ c, p.mass * gravity))
    f = load.f_c[0] * e3 + load.f_c[1] * e5 + load.f_c[2] * np.cross(e3, e5)
    moment["terminal"] = moment["terminal"] - np.cross(load.lever * e5, f)
    q_passive = np.column_stack([np.sum(e3 * moment["terminal"], axis=1), np.sum(e4 * moment["distal"], axis=1)])
    tau = np.column_stack([np.sum(e1 * (moment["proximal-1"] + moment["terminal"]), axis=1),
                           np.sum(e2 * (moment["proximal-2"] + moment["distal"]), axis=1)])
    # The passive rates per unit rate of each actuator, from the closure e3 x e5 x3 - e4 x e5 x4 = r by
    # stacked pseudo-inverses, r = -e1 x e5 for actuator 1 and e2 x e5 for actuator 2.
    closure = np.linalg.pinv(np.stack([np.cross(e3, e5), -np.cross(e4, e5)], axis=2))
    for k, r in enumerate((-np.cross(e1, e5), np.cross(e2, e5))):
        tau[:, k] += np.sum((closure @ r[..., None])[..., 0] * q_passive, axis=1)
    return tau


def test_cutting_load_is_one_affine_term(geometry, bodies):
    profile = circle_states(geometry, 45.0, 0.15, 301)
    load_free = _load_free_torques(profile, _kinematics_at(profile.theta, geometry), bodies, GRAVITY)
    # A force along the tool does no work: g_k . e5 is 0 up to rounding.
    along_tool = np.einsum("nkj,nj->nk", load_free.g, load_free.axes[:, 4])
    assert np.all(np.abs(along_tool) <= 4.0 * np.finfo(float).eps * np.linalg.norm(load_free.g, axis=2))
    np.testing.assert_array_equal(load_free.static(CuttingLoad()), load_free.rest)
    for fc, lc in ((50.0, 0.11), (150.0, 0.06), (-20.0, 0.3)):
        load = CuttingLoad((fc, fc, fc), lc)
        tau = load_free.inertial + load_free.static(load)
        np.testing.assert_array_equal(tau, virtual_work_torques(profile, geometry, bodies, GRAVITY, load))
        reference = loaded_virtual_work_reference(profile, geometry, bodies, GRAVITY, load)
        assert np.all(column_rel(tau, reference) < 1e-10)
        _, sols = solve_trajectory(profile, geometry, bodies, GRAVITY, load)
        assert np.all(column_rel(tau, np.array([s.tau for s in sols])) < 1e-10)


RIGHT = math.pi / 2


@pytest.mark.parametrize("twists", [
    (1.3, RIGHT, RIGHT, RIGHT), (RIGHT, RIGHT, 1.3, RIGHT), (RIGHT, RIGHT, RIGHT, 1.3), (RIGHT, RIGHT, 1.3, 1.8),
    (1.3, 1.3, RIGHT, RIGHT), (1.8, 1.8, RIGHT, RIGHT), (1.3, 1.7, RIGHT, RIGHT), (-RIGHT, RIGHT, RIGHT, RIGHT),
    (2.0, 1.2, RIGHT, RIGHT), (1.8, 1.3, 1.2, 2.0)])
def test_virtual_work_matches_the_full_moment_forms_on_other_twists(config, twists):
    # The load-free pass takes each proximal link's inertial moment as J_k theta_k'' e_k, with
    # J_k = a_k . I_O a_k and a_k = (0, sin a, cos a) from the leg's first twist.  On the default
    # twists a_k is (0, 1, ~0); here it is not, or an elbow twist (a3, a4) is not pi/2, the mount
    # is turned, and every body has a full inertia tensor and an off-axis center of mass.  Every
    # Newton-Euler joint force acts at the wrist center, on every joint axis, so the joints stay
    # workless on any twists: the solve gives the virtual-work torques, and its power balance holds.
    geometry = WristGeometry(alpha=[math.pi / 2, *twists], mount_yaw=0.3)
    rng = np.random.default_rng(34)
    bodies = []
    for body in config.bodies:
        spread = rng.normal(size=(3, 3)) * 0.01
        bodies.append(replace(body, inertia=spread @ spread.T + np.diag(rng.uniform(0.002, 0.01, 3)),
                              com_offset=rng.uniform(-0.05, 0.05, 3)))
    assert all(np.all(np.abs(b.inertia[[0, 0, 1], [1, 2, 2]]) > 1e-6) for b in bodies)
    # A loop of leg-1 joint pairs, reachable by construction, and its profile.
    s = np.linspace(0.0, 2.0 * math.pi, 101)
    directions = [forward_kinematics(t1, t3, geometry) for t1, t3 in zip(-1.2 + 0.2 * np.sin(s), 1.9 + 0.2 * np.cos(s))]
    profile = trajectory_joint_profiles(directions, 0.01, geometry)
    load = CuttingLoad((30.0, -20.0, 10.0), 0.11)
    tau = virtual_work_torques(profile, geometry, bodies, GRAVITY, load)
    assert np.all(column_rel(tau, loaded_virtual_work_reference(profile, geometry, bodies, GRAVITY, load)) <= 1e-13)
    _, sols = solve_trajectory(profile, geometry, bodies, GRAVITY, load)
    assert np.all(column_rel(tau, np.array([sol.tau for sol in sols])) <= 1e-10)
    check = verify_profile(profile, geometry, bodies, GRAVITY, load)
    assert check.errors == (None,) * len(profile) and np.max(check.balance) <= 1e-12


@pytest.mark.parametrize("n", [101, 999, 1000, 1001, 2001])
def test_virtual_work_rejects_what_the_gate_rejects(geometry, bodies, n):
    profile = semicircle_states(geometry, 0.25, n)
    tau_ne = np.full((n, 2), np.nan)
    gate = []
    for i, state in enumerate(profile):
        try:
            tau_ne[i] = solve_state(state, geometry, bodies)[1].tau
        except ModelInconsistencyError:
            gate.append(i)
    tau_vw, kept, rejected = virtual_work_rejections(profile, geometry, bodies)
    assert rejected == gate
    assert gate == ([] if n % 2 == 0 else [n // 2])
    assert np.all(column_rel(tau_vw, tau_ne[kept]) < 1e-10)


def test_virtual_work_names_the_failing_sample(geometry, bodies):
    # The error names the sample's index, time and tool direction (leg 1's
    # tool axis e5), which is the path's direction there.
    profile = semicircle_states(geometry, 0.25, 1001)
    with pytest.raises(ModelInconsistencyError) as info:
        virtual_work_torques(profile, geometry, bodies)
    message = re.match(r"sample 500 \(t = 0\.261799 s, v = \((\S+), (\S+), (\S+)\)\): ", str(info.value))
    path = generate(TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001))
    assert message and np.max(np.abs(np.array(message.groups(), dtype=float) - path.v[500])) <= 1e-6
    # Legs that do not close the loop are named as such, as in body_motion.
    theta = profile.theta.copy()
    theta[300:, 3] += 1e-3
    broken = JointProfile(profile.t, theta, profile.rates, profile.accels)
    with pytest.raises(InconsistentStateError, match=r"^sample 300 \(t = "):
        virtual_work_torques(broken, geometry, bodies)


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(st.tuples(*[st.floats(-math.pi, math.pi)] * 2, *[st.floats(-20.0, 20.0)] * 2,
                               *[st.floats(-500.0, 500.0)] * 2), min_size=1, max_size=6),
    f_c=st.tuples(*[st.floats(-200.0, 200.0)] * 3),
    lever=st.floats(0.0, 0.3),
)
# A singular sample at rest, which the gate accepts, next to a sample 1e-5 rad
# from it, where a normal-equation closure solve lost six digits.
@example(samples=[(0.0, 1.0, 0.0, 0.0, 0.0, 0.0), (1e-5, 1.0, 0.0, 0.0, 0.0, 0.0)], f_c=(0.0, 0.0, 0.0), lever=0.0)
@example(samples=[(1e-6, 1.0, 0.7, -1.3, 3.0, 2.0)], f_c=(50.0, -20.0, 10.0), lever=0.11)
def test_virtual_work_matches_solve_state(samples, f_c, lever):
    # Directions reached by leg-1 joint pairs are reachable by construction;
    # random actuated rates and accelerations, completed by loop closure.
    # A pair with the terminal angle at 0 or pi puts the tool on the first
    # drive axis, where the inverse kinematics cannot resolve the drive
    # angle: that sample is no joint state and is left out, not the whole
    # example (hypothesis draws 0 and pi often, and rejecting every list that
    # held one tripped its filter health check).
    config = default_config()
    geometry, bodies = config.geometry, config.bodies
    theta, rates, accels = [], [], []
    for t1, t3, r1, r2, a1, a2 in samples:
        try:
            angles = _joint_angles(forward_kinematics(t1, t3, geometry).v, geometry)
        except WristError:
            continue
        rate, accel = closure_row(angles, (r1, r2), (a1, a2), geometry)
        theta.append(angles)
        rates.append(rate)
        accels.append(accel)
    if not theta:
        return
    theta = np.array(theta)
    profile = JointProfile(0.01 * np.arange(len(theta)), theta, rates, accels)
    load = CuttingLoad(f_c, lever)
    singular = _passive_closure(_axis_stack(*leg_frames(theta, geometry))).singular

    tau_ne, accepted = [], []
    for i, state in enumerate(profile):
        try:
            tau_ne.append(solve_state(state, geometry, bodies, config.gravity, load)[1].tau)
            accepted.append(i)
        except ModelInconsistencyError:
            assert singular[i]
    # The gate also accepts a singular sample whose loads do no work on the
    # self-motion (at rest with the tool horizontal, gravity has no moment
    # about the vertical); virtual work rejects every singular sample.
    if singular.any():
        with pytest.raises(ModelInconsistencyError, match=rf"^sample {int(np.argmax(singular))} "):
            virtual_work_torques(profile, geometry, bodies, config.gravity, load)
    # The torques agree on the regular samples, where there are any.
    kept = [i for i in accepted if not singular[i]]
    if kept:
        tau_vw = virtual_work_torques(profile_rows(profile, kept), geometry, bodies, config.gravity, load)
        tau_ne = np.array([tau for i, tau in zip(accepted, tau_ne) if not singular[i]])
        scale = np.max(np.abs(tau_ne), axis=1, keepdims=True)
        assert np.all(np.abs(tau_vw - tau_ne) <= 1e-9 * scale)


# --- profile rows: solved in blocks, kept on the profile ---------------------

def standalone(state):
    """An equal JointState that does not come from a profile."""
    return JointState(JointAngles(state.angles.theta.copy()), state.rates.copy(), state.accels.copy(), state.t)


def solve_fields(geometry, bodies, state, gravity=GRAVITY, load=None):
    """Every output of solve_state (torques, residual, powers, each reaction
    and each motion field), flattened, or the error's type and message."""
    try:
        motion, solution = solve_state(state, geometry, bodies, gravity, load)
    except WristError as exc:
        return type(exc), str(exc)
    return [np.ravel(f) for f in (solution.tau, solution.residual, solution.power, *solution.reactions.values(),
                                  *motion[:-1])]


def field_check(expected):
    """A check that outputs equal ``expected``, each field to 1e-12 of its
    largest magnitude, or that they are the same error."""
    if isinstance(expected, tuple):
        return lambda actual: actual == expected
    values = np.concatenate(expected)
    tolerance = 1e-12 * np.concatenate([np.full(f.size, np.max(np.abs(f))) for f in expected])
    return lambda actual: bool(np.all(np.abs(np.concatenate(actual) - values) <= tolerance))


@pytest.mark.parametrize("load", [None, CuttingLoad((100.0, 100.0, 100.0), 0.11)])
def test_profile_rows_match_standalone_states(geometry, bodies, load):
    profile = semicircle_states(geometry, 0.25, 1001)
    expected = [solve_fields(geometry, bodies, standalone(state), GRAVITY, load) for state in profile]
    assert [i for i, e in enumerate(expected) if isinstance(e, tuple)] == [500]
    assert expected[500][0] is ModelInconsistencyError
    checks = [field_check(e) for e in expected]
    orders = (range(1001), range(1000, -1, -1), np.random.default_rng(11).permutation(1001))
    for order in orders:
        for i in order:
            assert checks[i](solve_fields(geometry, bodies, profile[i], GRAVITY, load)), i
    # The profile keeps one block: the one holding the last row asked for.
    assert profile._ne_block[0][0] == order[-1] - order[-1] % NE_BLOCK


def test_block_pass_memory(geometry, bodies):
    # One 256-row block pass on the R 0.25 m semicircle, traced: 1,204 kB
    # (numpy 2, Linux x86-64).  The block path forms no dense (n, 24, 25)
    # matrix: one would add 1.2 MB at this size.
    profile = semicircle_states(geometry, 0.25, 1001)
    rows = slice(0, 256)
    args = profile.theta[rows], profile.rates[rows], profile.accels[rows], geometry, _body_table(bodies), GRAVITY, None
    dynamics._solve_rows(*args)
    tracemalloc.start()
    try:
        dynamics._solve_rows(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6


def test_load_free_pass_memory(geometry, bodies):
    # One 1001-row load-free pass on a grid circle, traced: 561 kB (numpy 2, Linux x86-64), against
    # 848 kB when each proximal link took its full moment (two body-frame tensor products and a
    # gyroscopic cross product) and every link's motion was stacked in (n, 4, ...) arrays.
    profile, kinematics = own_rate_profile(TrajectorySpec(kind=KIND_CIRCLE, radius=0.15, gamma=math.radians(45.0),
                                                          sample_count=1001), geometry)
    _load_free_torques(profile, kinematics, bodies, GRAVITY)
    tracemalloc.start()
    try:
        _load_free_torques(profile, kinematics, bodies, GRAVITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7e6


@pytest.mark.parametrize("load", [None, CuttingLoad((100.0, 100.0, 100.0), 0.11)])
def test_block_size_leaves_the_bits(geometry, bodies, monkeypatch, load):
    # NE_BLOCK is a time and memory choice only: verify_profile's residual,
    # balance and errors, and every row's solve_state torques and reactions,
    # have the same bits for one row per block, for the whole profile in one
    # block and for sizes between.
    outputs = []
    for size in (1, 64, 128, 256, 1001):
        monkeypatch.setattr(dynamics, "NE_BLOCK", size)
        profile = semicircle_states(geometry, 0.25, 1001)
        check = verify_profile(profile, geometry, bodies, GRAVITY, load)
        rows = []
        for state in profile:
            try:
                _, solution = solve_state(state, geometry, bodies, GRAVITY, load)
            except WristError as exc:
                rows.append((type(exc), str(exc)))
                continue
            rows.append(np.concatenate([solution.tau, *map(np.atleast_1d, solution.reactions.values())]).tobytes())
        outputs.append((check.residual.tobytes(), check.balance.tobytes(), check.errors, rows))
    assert [i for i, error in enumerate(check.errors) if error is not None] == [500]
    assert all(output == outputs[0] for output in outputs[1:])


def test_reactions_are_read_only_views_of_the_solve(geometry, bodies):
    # The vector reactions of a row are views of one solved array, which
    # cannot be written and is shared by the other rows of the block, and
    # hold the bits of a copy of its row; the scalar ones are floats.
    profile = semicircle_states(geometry, 0.25, 1001)
    for i in (3, 499, 501, 1000):
        motion, solution = solve_state(profile[i], geometry, bodies)
        bases = {id(value.base): value.base for value in solution.reactions.values() if not isinstance(value, float)}
        assert len(bases) == 1
        (x,) = bases.values()
        assert not x.flags.writeable
        neighbour = solve_state(profile[i - 2], geometry, bodies)[1]
        assert all(value.base is x for value in neighbour.reactions.values() if not isinstance(value, float))
        row = x[i % NE_BLOCK]
        copied = {key: row[sl].copy() if sl.stop - sl.start > 1 else float(row[sl.start])
                  for key, sl in UNKNOWN_SLICES.items()}
        alone = solve_wrenches(assemble_system(body_motion(standalone(profile[i]), geometry, bodies), bodies))
        assert list(solution.reactions) == list(copied) == list(alone.reactions)
        for key, value in solution.reactions.items():
            assert type(value) is type(copied[key]) is type(alone.reactions[key])
            if isinstance(value, float):
                assert value.hex() == copied[key].hex()
                continue
            assert value.tobytes() == copied[key].tobytes()
            assert value.base is x and not value.flags.writeable and not alone.reactions[key].flags.writeable
            with pytest.raises(ValueError):
                value[0] = 0.0
        assert solution.tau.tobytes() == np.array([copied["tau1"], copied["tau2"]]).tobytes()
        assert solution.power.tobytes() == (solution.tau * profile.rates[i, :2]).tobytes()


def test_gravity_is_checked_on_every_call(geometry, bodies):
    # Gravity's values are checked on every call: NaN or inf written in
    # place is caught, with the message of any other bad gravity, for every
    # shape and dtype the conversion accepts.
    profile = semicircle_states(geometry, 0.25, 65)
    state = profile[3]
    gravity = GRAVITY.copy()
    motion, solution = solve_state(state, geometry, bodies, gravity)
    balance = power_balance_residual(state, solution, motion, bodies, gravity)
    for bad in (math.nan, math.inf, -math.inf):
        gravity[1] = bad
        for call in (lambda: solve_state(state, geometry, bodies, gravity),
                     lambda: power_balance_residual(state, solution, motion, bodies, gravity),
                     lambda: verify_profile(profile, geometry, bodies, gravity)):
            with pytest.raises(InvalidInputError, match="^gravity must be finite$"):
                call()
    strided = np.zeros(6)
    strided[::2] = GRAVITY
    strided[2] = math.nan
    with pytest.raises(InvalidInputError, match="^gravity must be finite$"):
        solve_state(state, geometry, bodies, strided[::2])
    for shape in ((2,), (4,), (2, 3), ()):
        with pytest.raises(InvalidInputError, match="^gravity must be a 3-vector$"):
            solve_state(state, geometry, bodies, np.zeros(shape))
    for bad in (np.array([0.0, math.nan, -9.81], dtype=object), np.array([0.0, 0.0, -np.inf], dtype=">f8"),
                np.array([0.0, 0.0, np.inf], dtype=np.float32)):
        with pytest.raises(InvalidInputError, match="^gravity must be finite$"):
            solve_state(state, geometry, bodies, bad)
    for same in (np.array([0, 0, -9.81], dtype=object), np.array([0.0, 0.0, -9.81], dtype=">f8"),
                 GRAVITY.reshape(1, 3), [0.0, 0.0, -9.81]):
        motion, solution = solve_state(state, geometry, bodies, same)
        assert power_balance_residual(state, solution, motion, bodies, same) == balance


def row_outputs(geometry, bodies, state, gravity):
    """The bytes of every output of solve_state and of power_balance_residual
    at one state, or the error's type and message."""
    try:
        motion, solution = solve_state(state, geometry, bodies, gravity)
        balance = power_balance_residual(state, solution, motion, bodies, gravity)
    except WristError as exc:
        return type(exc), str(exc)
    return [np.asarray(f).tobytes() for f in (solution.tau, solution.residual, solution.power,
                                              *solution.reactions.values(), *motion[:-1], balance)]


def test_gravity_is_checked_once_per_kept_block(geometry, bodies, monkeypatch):
    # A float64 (3,) gravity with the bytes of the kept block passed the
    # check when the block was solved, and is not checked again.  Every other
    # gravity gets what it gets on a fresh profile: the same error, or the
    # same bits as its float64 values.
    profile = semicircle_states(geometry, 0.25, 65)
    state, fresh = profile[5], semicircle_states(geometry, 0.25, 65)[5]
    checks, solves = [], []
    frozen_vector, solve_rows = dynamics.frozen_vector, dynamics._solve_rows
    monkeypatch.setattr(dynamics, "frozen_vector", lambda *a: checks.append(a[0]) or frozen_vector(*a))
    monkeypatch.setattr(dynamics, "_solve_rows", lambda *a: solves.append(len(a[0])) or solve_rows(*a))
    motion, solution = solve_state(profile[3], geometry, bodies, GRAVITY)
    assert checks == ["gravity"] and solves == [65]
    checks.clear()
    kept = row_outputs(geometry, bodies, state, GRAVITY)
    assert checks == [] and solves == [65]
    assert kept == row_outputs(geometry, bodies, fresh, GRAVITY.copy())
    for bad in ([0.0, math.nan, -9.81], [0.0, 0.0, math.inf], [0.0, -9.81]):
        with pytest.raises(InvalidInputError) as expected:
            solve_state(semicircle_states(geometry, 0.25, 65)[5], geometry, bodies, np.array(bad))
        for call in (lambda: solve_state(state, geometry, bodies, np.array(bad)),
                     lambda: power_balance_residual(state, solution, motion, bodies, np.array(bad))):
            with pytest.raises(InvalidInputError) as info:
                call()
            assert str(info.value) == str(expected.value)
    single = np.array([0.0, 0.0, -9.81], dtype=np.float32)
    for same, values in (([0, 0, -9.81], GRAVITY), (np.array([0.0, 0.0, -9.81], dtype=">f8"), GRAVITY),
                         (single, single.astype(float))):
        solve_state(profile[3], geometry, bodies, GRAVITY)
        checks.clear()
        kept = row_outputs(geometry, bodies, state, same)
        assert checks == ["gravity"] * 2
        assert kept == row_outputs(geometry, bodies, semicircle_states(geometry, 0.25, 65)[5], values.copy())
    # A writable array changed in place after its block was solved: the
    # block is solved again, as a fresh call with the new values.
    gravity = GRAVITY.copy()
    solve_state(profile[3], geometry, bodies, gravity)
    gravity[:] = (0.5, -1.0, -9.0)
    solves.clear()
    assert row_outputs(geometry, bodies, state, gravity) == row_outputs(
        geometry, bodies, semicircle_states(geometry, 0.25, 65)[5], np.array([0.5, -1.0, -9.0]))
    assert solves == [65, 65]


def test_kept_block_is_let_go_before_the_next_pass(geometry, bodies, monkeypatch):
    # While the next block is solved the profile holds none, so that two
    # blocks' rows are never held at once.  A row of the old block then has
    # its block solved again, with the same bits.
    profile = semicircle_states(geometry, 0.25, 1001)
    before = row_outputs(geometry, bodies, profile[3], GRAVITY)
    held = []
    solve_rows = dynamics._solve_rows
    monkeypatch.setattr(dynamics, "_solve_rows", lambda *a: held.append(profile._ne_block) or solve_rows(*a))
    solve_state(profile[NE_BLOCK + 72], geometry, bodies)
    assert held == [dynamics._NO_BLOCK] and profile._ne_block[0][0] == NE_BLOCK
    assert row_outputs(geometry, bodies, profile[3], GRAVITY) == before
    assert len(held) == 2 and profile._ne_block[0][0] == 0


def test_row_solutions_are_independent(geometry, bodies):
    # Each call returns torques, powers and a reactions dict of its own:
    # changing one solution leaves the next call on the same row as it was.
    # The vector reactions stay read-only views of the block's solve.
    profile = semicircle_states(geometry, 0.25, 65)
    state = profile[5]
    first = solve_state(state, geometry, bodies)[1]
    tau, power, reactions = first.tau.copy(), first.power.copy(), dict(first.reactions)
    first.tau[:] = 0.0
    first.power[:] *= 2.0
    del first.reactions["tau1"]
    first.reactions["extra"] = 1.0
    second = solve_state(state, geometry, bodies)[1]
    assert second.tau.tobytes() == tau.tobytes() and second.power.tobytes() == power.tobytes()
    assert list(second.reactions) == list(UNKNOWN_SLICES)
    for key, value in second.reactions.items():
        assert value is reactions[key]
        if not isinstance(value, float):
            assert not value.flags.writeable and value.base is not None
            with pytest.raises(ValueError):
                value[0] = 0.0


def test_row_balance_equals_the_array_form():
    # Power balance on one row runs on floats: the same operations as the
    # array form, with a NaN kept where np.maximum keeps it.
    values = [0.0, -0.0, 0.5, 1.0, -1.0, 2.5, -3e300, 1.7e308, 5e-324, math.inf, -math.inf, math.nan]
    for p_act, ke_rate, p_ext in itertools.product(values, repeat=3):
        row = dynamics._row_balance(p_act, ke_rate, p_ext)
        with np.errstate(all="ignore"):
            array = dynamics._balance(np.array([p_act]), np.array([ke_rate]), np.array([p_ext]))
        assert type(row) is float
        assert (math.isnan(row) and math.isnan(array[0])) or row.hex() == float(array[0]).hex(), \
            (p_act, ke_rate, p_ext)


def test_power_balance_keeps_nan(geometry, bodies):
    profile = semicircle_states(geometry, 0.25, 65)
    state = profile[3]
    motion, solution = solve_state(state, geometry, bodies)
    assert math.isnan(power_balance_residual(state, replace(solution, tau=np.array([math.nan, 1.0])), motion, bodies))
    assert power_balance_residual(state, replace(solution, tau=np.array([1.0, math.inf])), motion, bodies) == math.inf


def test_solve_trajectory_names_the_failing_sample(geometry, bodies):
    # As the virtual-work error does: index, time and leg 1's tool axis,
    # read from the profile's kept axes for a profile row and from the
    # state's own frames for a standalone state; the category is kept.
    profile = semicircle_states(geometry, 0.25, 1001)
    with pytest.raises(ModelInconsistencyError) as info:
        solve_trajectory(profile, geometry, bodies)
    with pytest.raises(ModelInconsistencyError) as virtual_work:
        virtual_work_torques(profile, geometry, bodies)
    prefix = re.match(r"sample 500 \(t = 0\.261799 s, v = \((\S+), (\S+), (\S+)\)\): ", str(info.value))
    assert prefix and str(virtual_work.value).startswith(prefix.group())
    assert str(info.value) == f"{prefix.group()}{_gate_message_of(profile[500], geometry, bodies)}"
    path = generate(TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001))
    assert np.max(np.abs(np.array(prefix.groups(), dtype=float) - path.v[500])) <= 1e-6
    states = [standalone(s) for s in list(profile)[490:510]]
    with pytest.raises(ModelInconsistencyError) as alone:
        solve_trajectory(states, geometry, bodies)
    message = re.match(r"sample 10 \(t = 0\.261799 s, v = \((\S+), (\S+), (\S+)\)\): ", str(alone.value))
    assert message and np.max(np.abs(np.array(message.groups(), dtype=float) - path.v[500])) <= 1e-6
    theta = profile.theta.copy()
    theta[300:, 3] += 1e-3
    broken = JointProfile(profile.t, theta, profile.rates, profile.accels)
    with pytest.raises(InconsistentStateError, match=r"^sample 300 \(t = \S+ s, v = \(\S+, \S+, \S+\)\): legs "):
        solve_trajectory(broken, geometry, bodies)


def _gate_message_of(state, geometry, bodies):
    with pytest.raises(ModelInconsistencyError) as info:
        solve_state(state, geometry, bodies)
    return str(info.value)


def test_profile_block_follows_its_inputs(geometry, bodies):
    profile = semicircle_states(geometry, 0.25, 1001)
    row = profile[37]
    heavier = [replace(b, mass=2.0 * b.mass) if b.name == "distal" else b for b in bodies]
    load = CuttingLoad((50.0, -20.0, 10.0), 0.11)
    gravity = GRAVITY.copy()
    cases = [(bodies, gravity, None), (heavier, gravity, None), (bodies, gravity, load),
             (bodies, gravity, CuttingLoad((50.0, -20.0, 10.0), 0.2)), (bodies, gravity.copy(), None)]
    for kept_bodies, kept_gravity, kept_load in cases:
        expected = solve_fields(geometry, kept_bodies, standalone(row), kept_gravity, kept_load)
        assert field_check(expected)(solve_fields(geometry, kept_bodies, row, kept_gravity, kept_load))
    # The same gravity array, changed in place between two rows of one block.
    solve_state(row, geometry, bodies, gravity)
    gravity[:] = (1.0, -2.0, -9.0)
    for state in (row, profile[38]):
        expected = solve_fields(geometry, bodies, standalone(state), gravity)
        assert field_check(expected)(solve_fields(geometry, bodies, state, gravity))
    assert not field_check(expected)(solve_fields(geometry, bodies, profile[38]))


def test_body_table_follows_its_bodies(geometry, bodies):
    # _body_table keeps the last table it built, keyed by its BodyParams
    # objects; bodies that alternate between calls each get their own table.
    profile = circle_states(geometry, 45.0, 0.1, 41)
    state = standalone(profile[7])
    heavier = tuple(replace(b, mass=2.0 * b.mass) if b.name == "distal" else b for b in bodies)

    def outputs(kept_bodies):
        motion, solution = solve_state(state, geometry, kept_bodies)
        return (virtual_work_torques(profile, geometry, kept_bodies), solution.tau, solution.residual,
                *solution.reactions.values(), power_balance_residual(state, solution, motion, kept_bodies))

    expected = {}
    for name, kept_bodies in (("default", bodies), ("heavier", heavier)):
        dynamics._table_of.cache_clear()
        expected[name] = outputs(kept_bodies)
    assert not np.array_equal(expected["default"][0], expected["heavier"][0])
    sequence = [("default", bodies), ("heavier", heavier), ("default", bodies), ("heavier", list(heavier)),
                ("heavier", heavier), ("default", list(bodies))]
    for name, kept_bodies in sequence:
        assert all(np.array_equal(a, b) for a, b in zip(outputs(kept_bodies), expected[name], strict=True)), name
    assert _body_table(list(bodies)) is _body_table(tuple(bodies)) is _body_table(bodies)
    assert _body_table(heavier) is not _body_table(bodies)


def test_array_dataclasses_compare_by_identity(geometry, bodies, motor):
    # Frozen dataclasses that hold arrays compare and hash by identity: an
    # equal-valued copy is a different object, and == never reaches numpy's
    # elementwise comparison.
    path = generate(TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=math.radians(45.0), sample_count=5))
    profile = trajectory_joint_profiles(path.v, path.t[1] - path.t[0], geometry)
    motion, solution = solve_state(profile[1], geometry, bodies)
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=math.radians(45.0), sample_count=11)
    objects = [geometry, CuttingLoad(np.ones(3), 0.1), ToolOrientation(path.v[0]), JointAngles(profile.theta[0]),
               profile[1], profile, path, solution, assemble_system(motion, bodies),
               sweep_peaks([spec], geometry, bodies, motor)[0], default_config()]
    for obj in objects:
        twin = replace(obj)
        assert obj == obj and not obj != obj and hash(obj) == hash(obj), type(obj)
        assert twin != obj and not twin == obj and len({obj, twin}) == 2, type(obj)


def count_calls(monkeypatch, *names):
    """The calls made from here on to the named sphwrist functions, by name,
    through every module that binds them."""
    calls = []
    for module in (rotation, kinematics, dynamics):
        for name in names:
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    return calls


def test_one_closure_solve_per_pass(geometry, bodies, motor, monkeypatch):
    # The profile stage builds the leg frames once and forms the passive
    # closure terms (type-II determinant, unit rates) once, without the
    # one-leg chain_frames, and so does
    # virtual_work_torques on its own.  A study's pass over one path makes
    # each call once, and so does the own-rate route it replaced (a profile
    # stage and a load-free pass at the spec's rate): their load-free
    # torques read the profile stage's terms.
    calls = count_calls(monkeypatch, "leg_frames", "_passive_closure", "chain_frames")
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=math.radians(45.0), sample_count=101)
    path = generate(spec)
    profile = trajectory_joint_profiles(path.v, path.t[1] - path.t[0], geometry)
    assert calls == ["leg_frames", "_passive_closure"]
    calls.clear()
    load = CuttingLoad(np.full(3, 50.0), 0.11)
    virtual_work_torques(profile, geometry, bodies, GRAVITY, load)
    assert calls == ["leg_frames", "_passive_closure"]
    calls.clear()
    analysis.path_pass(spec, geometry, bodies, motor).series(spec.rate, load)
    assert calls == ["leg_frames", "_passive_closure"]
    calls.clear()
    load_free = dynamics._load_free_torques(*own_rate_profile(spec, geometry), bodies)
    load_free.static(load)
    assert calls == ["leg_frames", "_passive_closure"]


def test_one_kinematic_pass_per_profile(geometry, bodies, monkeypatch, tmp_path):
    # Each study builds the leg frames once per profile: the 12-point grid
    # once per cone angle, a force sweep once.  verify_profile builds them
    # from the angles of each block it solves.
    calls = count_calls(monkeypatch, "leg_frames")
    assert cli.main(["sweep", "--gamma", "30,45,60", "--radius", "0.25,0.15,0.1,0.05", "--samples", "101",
                     "--out", str(tmp_path / "peaks.csv")]) == 0
    assert calls == ["leg_frames"] * 3
    calls.clear()
    assert cli.main(["force-sweep", "--gamma", "45", "--radius", "0.15", "--fc", "0,25,50,75,100,125,150",
                     "--samples", "101", "--out", str(tmp_path / "force.csv")]) == 0
    assert calls == ["leg_frames"]
    calls.clear()
    profile = semicircle_states(geometry, 0.25, 1001)
    calls.clear()
    check = verify_profile(profile, geometry, bodies)
    assert calls == ["leg_frames"] * len(range(0, 1001, NE_BLOCK))
    assert [i for i, error in enumerate(check.errors) if error is not None] == [500]


@pytest.mark.parametrize("load", [None, CuttingLoad((100.0, 100.0, 100.0), 0.11)])
def test_kept_kinematics_give_the_same_bits(geometry, bodies, load):
    # The kinematic terms that the profile stage keeps from its pass and
    # hands to the load-free torques, as a study does, give the torques of
    # terms built again from a bare copy's angles, bit for bit.  The profile
    # and the bare copy give the same torques, rows, residuals and balances,
    # bit for bit, and the same errors.
    def load_free(profile, kinematics):
        try:
            torques = _load_free_torques(profile, kinematics, bodies, GRAVITY)
            return [torques.inertial, torques.static(load)]
        except WristError as exc:
            return [type(exc), str(exc)]

    def outputs(profile):
        try:
            tau = [virtual_work_torques(profile, geometry, bodies, GRAVITY, load)]
        except WristError as exc:
            tau = [type(exc), str(exc)]
        rows = [solve_fields(geometry, bodies, state, GRAVITY, load) for state in profile]
        return tau, rows, verify_profile(profile, geometry, bodies, GRAVITY, load)

    for spec in (TrajectorySpec(kind=KIND_CIRCLE, radius=0.05, gamma=math.radians(60.0), sample_count=301),
                 TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001)):
        kept, kinematics = own_rate_profile(spec, geometry)
        bare = profile_rows(kept, slice(None))
        handed, built = (load_free(*args) for args in ((kept, kinematics),
                                                        (bare, _kinematics_at(bare.theta, geometry))))
        assert all(a is b or np.array_equal(a, b) for a, b in zip(handed, built, strict=True))
        (tau, rows, check), (bare_tau, bare_rows, bare_check) = outputs(kept), outputs(bare)
        assert all(a is b or np.array_equal(a, b) for a, b in zip(tau, bare_tau, strict=True))
        for row, bare_row in zip(rows, bare_rows, strict=True):
            assert all(a is b or np.array_equal(a, b) for a, b in zip(row, bare_row, strict=True))
        np.testing.assert_array_equal(check.residual, bare_check.residual)
        np.testing.assert_array_equal(check.balance, bare_check.balance)
        assert check.errors == bare_check.errors


def test_kept_kinematics_follow_the_geometry_object(geometry, bodies, monkeypatch):
    # The terms the profile stage keeps are those of the geometry it was
    # given; the torques on its profile build their own from the geometry of
    # each call, one leg_frames call each, and an equal-valued copy gives the
    # same bits.  Two blocks and one row of a third, whatever the block size.
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=math.radians(45.0), sample_count=2 * NE_BLOCK + 1)
    profile, kept = own_rate_profile(spec, geometry)
    for built in (_kinematics_at(profile.theta, geometry), _kinematics_at(profile.theta, replace(geometry))):
        for a, b in zip((*kept[:3], *kept.passive), (*built[:3], *built.passive), strict=True):
            assert np.array_equal(a, b)
    calls = count_calls(monkeypatch, "leg_frames")
    tau = virtual_work_torques(profile, geometry, bodies)
    assert calls == ["leg_frames"]
    np.testing.assert_array_equal(virtual_work_torques(profile, replace(geometry), bodies), tau)
    assert calls == ["leg_frames"] * 2
    # Motions of two rows of one block read views of that block's axes, and
    # a row of another block reads arrays of its own; the balance of a row
    # whose block is no longer kept makes its own pass.
    first, solution = solve_state(profile[0], geometry, bodies)
    assert solve_state(profile[1], geometry, bodies)[0].joint_axes.base is first.joint_axes.base
    second, _ = solve_state(profile[NE_BLOCK], geometry, bodies)
    assert second.joint_axes.base is not first.joint_axes.base
    passes = balance_passes(monkeypatch)
    assert power_balance_residual(profile[0], solution, first, bodies) < 1e-12
    assert passes == [1]


def test_kinematics_of_row_slices_are_slices_of_the_pass(geometry):
    # The dynamics build the kinematic terms of the rows they solve (one
    # row, a block of NE_BLOCK rows, the ragged last block); each is the same
    # slice of the profile stage's pass over all rows, bit for bit (rows are
    # the first axis of every term but the unit rates, whose second they are).
    for n, profile_of in ((1001, lambda n: semicircle_states(geometry, 0.25, n)),
                          (2 * NE_BLOCK + 45, lambda n: circle_states(geometry, 57.0, 0.05, n))):
        profile = profile_of(n)
        whole = _kinematics_at(profile.theta, geometry)
        spans = [slice(i, i + 1) for i in (0, 1, NE_BLOCK - 1, NE_BLOCK, n // 2, n - 1)]
        spans += [slice(start, start + NE_BLOCK) for start in range(0, n, NE_BLOCK)]
        assert spans[-1].stop > n
        for span in spans:
            part = _kinematics_at(profile.theta[span], geometry)
            for a, b in zip((*part[:3], *part.passive), (*whole[:3], *whole.passive), strict=True):
                assert np.array_equal(a, b[:, span] if b is whole.passive.unit_rates else b[span]), span


def test_body_table_from_threads(geometry, bodies):
    # Threads that alternate two bodies tuples each get the table and the
    # torques of the bodies they pass, while they replace the kept table.
    state = standalone(circle_states(geometry, 45.0, 0.1, 41)[7])
    heavier = tuple(replace(b, mass=2.0 * b.mass) if b.name == "distal" else b for b in bodies)
    cases = [(kept, solve_state(state, geometry, kept)[1].tau) for kept in (bodies, heavier)]
    wrong = []

    def run(first):
        for k in range(300):
            kept, tau = cases[(first + k) % 2]
            table = _body_table(kept)
            if table.params[1] is not kept[1] or table.mass[1] != kept[1].mass:
                wrong.append("table")
            if not np.array_equal(solve_state(state, geometry, kept)[1].tau, tau):
                wrong.append("tau")

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_profile_rows_from_threads(geometry, bodies):
    # Threads that share one profile, and so its kept block, each get the
    # torques of the rows they ask for.
    profile = semicircle_states(geometry, 0.25, 1001)
    rows = [i for i in range(0, 1001, 4) if i != 500]
    expected = {i: solve_state(standalone(profile[i]), geometry, bodies)[1].tau for i in rows}
    wrong = []

    def solve_rows(order):
        for i in order:
            if not np.array_equal(solve_state(profile[i], geometry, bodies)[1].tau, expected[i]):
                wrong.append(i)

    threads = [threading.Thread(target=solve_rows, args=(np.random.default_rng(k).permutation(rows),))
               for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
