import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sphwrist import (
    GRAVITY,
    BodyParams,
    CuttingLoad,
    JointAngles,
    JointProfile,
    JointState,
    ToolOrientation,
    TrajectorySpec,
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
    virtual_work_torques,
)
from sphwrist import dynamics, kinematics
from sphwrist.dynamics import (N_EQUATIONS, N_UNKNOWNS, NE_BLOCK, RESIDUAL_GATE, UNKNOWN_SLICES, _body_table,
                               _load_free_torques, _motion)
from sphwrist.errors import InconsistentStateError, InvalidInputError, ModelInconsistencyError, WristError
from sphwrist.kinematics import (_axis_stack, _closure_rates_from_axes, _joint_angles, _passive_closure,
                                 closure_accels, closure_rates)
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


def test_gravity_default_is_read_only():
    # GRAVITY is the default gravity of the public functions; a write to it
    # would change every later call that takes the default.
    with pytest.raises(ValueError):
        GRAVITY[2] = 0.0
    with pytest.raises(ValueError):
        np.add(GRAVITY, 1.0, out=GRAVITY)
    assert GRAVITY.tolist() == [0.0, 0.0, -9.81]


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
        m = _motion(profile.theta, profile.rates, profile.accels, geometry, table)
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
    angles = JointAngles(_joint_angles(forward_kinematics(t1, t3, geometry).v, geometry))
    rates = closure_rates(angles, *drive_rates, geometry)
    return JointState(angles, rates, closure_accels(angles, rates, *drive_accels, geometry), 0.0)


def test_solve_matches_lstsq(geometry, bodies, monkeypatch):
    # The QR minimum-norm solve against the SVD least-squares solve on the
    # same systems: the same gate decision, and the same torques and
    # reactions to 1e-10 of their largest magnitude.
    rng = np.random.default_rng(7)
    cases = []
    for k in range(120):
        t1, t3 = rng.uniform(-math.pi, math.pi, 2)
        state = reachable_state(geometry, t1, t3, rng.uniform(-20.0, 20.0, 2), rng.uniform(-500.0, 500.0, 2))
        load = CuttingLoad(rng.uniform(-200.0, 200.0, 3), rng.uniform(0.0, 0.3)) if k % 2 else None
        cases.append((state, load))
    semicircle = semicircle_states(geometry, 0.25, 1001)
    cases += [(semicircle[i], None) for i in (499, 500, 501)]
    # Singular, but the loads do no work on the self-motion: the gate accepts.
    cases.append((reachable_state(geometry, 0.0, 1.0), None))

    accepted = []
    for state, load in cases:
        system = assemble_system(body_motion(state, geometry, bodies), bodies, GRAVITY, load)
        x, *_ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
        residual = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(system.rhs)
        try:
            solution = solve_wrenches(system)
        except ModelInconsistencyError:
            assert residual >= RESIDUAL_GATE
            accepted.append(False)
            continue
        assert residual < RESIDUAL_GATE
        accepted.append(True)
        tau = x[[UNKNOWN_SLICES["tau1"].start, UNKNOWN_SLICES["tau2"].start]]
        assert np.max(np.abs(solution.tau - tau)) <= 1e-10 * np.max(np.abs(tau))
        for key, columns in UNKNOWN_SLICES.items():
            error = np.max(np.abs(np.atleast_1d(solution.reactions[key]) - x[columns]))
            assert error <= 1e-10 * np.max(np.abs(x)), key
    assert accepted == [True] * 120 + [True, False, True, True]
    np.testing.assert_allclose(solution.tau, (0.0598, 0.0901), atol=5e-5)

    # Only the singular sample falls back to lstsq.
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    for state, _ in cases[120:123]:
        try:
            solve_state(state, geometry, bodies)
        except ModelInconsistencyError:
            pass
    assert len(calls) == 1


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
    for k, drive in enumerate(np.eye(2)):
        passive = _closure_rates_from_axes(axes, _passive_closure(axes), np.tile(drive, (len(th), 1)))[:, 2:]
        tau[:, k] += np.sum(passive * q_passive, axis=1)
    return tau


def test_cutting_load_is_one_affine_term(geometry, bodies):
    profile = circle_states(geometry, 45.0, 0.15, 301)
    load_free = _load_free_torques(profile, geometry, bodies, GRAVITY)
    # A force along the tool does no work: g_k . e5 is 0 up to rounding.
    along_tool = np.einsum("nkj,nj->nk", load_free.g, load_free.e5)
    assert np.all(np.abs(along_tool) <= 4.0 * np.finfo(float).eps * np.linalg.norm(load_free.g, axis=2))
    np.testing.assert_array_equal(load_free.with_load(CuttingLoad()), load_free.tau0)
    for fc, lc in ((50.0, 0.11), (150.0, 0.06), (-20.0, 0.3)):
        load = CuttingLoad((fc, fc, fc), lc)
        tau = load_free.with_load(load)
        np.testing.assert_array_equal(tau, virtual_work_torques(profile, geometry, bodies, GRAVITY, load))
        reference = loaded_virtual_work_reference(profile, geometry, bodies, GRAVITY, load)
        assert np.all(column_rel(tau, reference) < 1e-10)
        _, sols = solve_trajectory(profile, geometry, bodies, GRAVITY, load)
        assert np.all(column_rel(tau, np.array([s.tau for s in sols])) < 1e-10)


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
    profile = semicircle_states(geometry, 0.25, 1001)
    with pytest.raises(ModelInconsistencyError, match=r"^sample 500 \(t = 0\.261799 s\): "):
        virtual_work_torques(profile, geometry, bodies)
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
    config = default_config()
    geometry, bodies = config.geometry, config.bodies
    v = np.array([forward_kinematics(t1, t3, geometry).v for t1, t3, *_ in samples])
    try:
        theta = _joint_angles(v, geometry)
    except WristError:
        assume(False)
    rates, accels = [], []
    for th, (_, _, r1, r2, a1, a2) in zip(theta, samples):
        rates.append(closure_rates(JointAngles(th), r1, r2, geometry))
        accels.append(closure_accels(JointAngles(th), rates[-1], a1, a2, geometry))
    profile = JointProfile(0.01 * np.arange(len(samples)), theta, rates, accels)
    load = CuttingLoad(f_c, lever)
    _, _, singular = _passive_closure(_axis_stack(*leg_frames(theta, geometry)))

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
    kept = [i for i in accepted if not singular[i]]
    assume(kept)
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


def test_one_closure_solve_per_pass(geometry, bodies, monkeypatch):
    # The profile stage and the load-free torque pass each build the leg
    # frames once and test the passive Gram determinant once; neither goes
    # through the one-leg chain_frames.
    calls = []
    for module in (kinematics, dynamics):
        for name in ("leg_frames", "_passive_closure", "chain_frames"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=math.radians(45.0), sample_count=101)
    path = generate(spec)
    profile = trajectory_joint_profiles(path.v, path.t[1] - path.t[0], geometry)
    assert calls == ["leg_frames", "_passive_closure"]
    calls.clear()
    virtual_work_torques(profile, geometry, bodies, GRAVITY, CuttingLoad(np.full(3, 50.0), 0.11))
    assert calls == ["leg_frames", "_passive_closure"]


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
