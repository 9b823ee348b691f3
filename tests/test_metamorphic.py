"""Metamorphic relations over the whole pipeline: path, profile and torques.

Each relation compares the pipeline with itself under a change of its input
(the path run backwards, gravity scaled, the tool speed changed, lengths
restated in millimetres), so it needs no reference values and holds whatever
the torque formulation is.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import closure_row
from sphwrist import (CuttingLoad, JointAngles, JointProfile, JointState, TrajectorySpec, default_config,
                      forward_kinematics, generate, solve_state, trajectory_joint_profiles, virtual_work_torques)
from sphwrist.dynamics import TYPE_II_MESSAGE
from sphwrist.errors import BranchJumpError, ModelInconsistencyError
from sphwrist.kinematics import _joint_angles
from sphwrist.trajectory import KIND_CIRCLE, KIND_SEMICIRCLE

CONFIG = default_config()

# Cone angles 25-65 deg, radii 0.05-0.25 m, tool speeds 0.05-5 m/s, 3-3000 samples.
_CIRCLES = st.builds(lambda gamma, radius, speed, n: TrajectorySpec(KIND_CIRCLE, radius, speed, math.radians(gamma), n),
                     st.floats(25.0, 65.0), st.floats(0.05, 0.25), st.floats(0.05, 5.0), st.integers(3, 3000))
_SEMICIRCLES = st.builds(lambda radius, speed, n: TrajectorySpec(KIND_SEMICIRCLE, radius, speed, sample_count=n),
                         st.floats(0.05, 0.25), st.floats(0.05, 5.0), st.integers(3, 3000))
_GRAVITY = st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3).map(np.array)


def _profile(v, t):
    return trajectory_joint_profiles(v, t[1] - t[0], CONFIG.geometry)


def _circle_profile(path):
    # A path of few samples may step across a branch; no torques to compare then.
    try:
        return _profile(path.v, path.t)
    except BranchJumpError:
        reject()


def _torques(profile, gravity):
    return virtual_work_torques(profile, CONFIG.geometry, CONFIG.bodies, gravity)


@settings(max_examples=50, deadline=None)
@given(spec=_CIRCLES | _SEMICIRCLES, gravity=_GRAVITY)
def test_reversed_path_reverses_the_profile_and_torques(spec, gravity):
    path = generate(spec)
    try:
        forward = _profile(path.v, path.t)
    except BranchJumpError:
        # A path of few samples that steps across a branch does so backwards too.
        with pytest.raises(BranchJumpError):
            _profile(path.v[::-1], path.t)
        return
    backward = _profile(path.v[::-1], path.t)
    if spec.kind == KIND_CIRCLE:
        assert np.array_equal(backward.theta[::-1], forward.theta)
        assert np.array_equal(backward.rates[::-1], -forward.rates)
        assert np.array_equal(backward.accels[::-1], forward.accels)
        assert np.array_equal(_torques(backward, gravity)[::-1], _torques(forward, gravity))
        return
    # The semicircle's theta1 and theta2 cross +-pi, so the reversed profile
    # unwraps a whole turn away from the forward one, and its differenced
    # values round differently.  Its torques are not compared: with an odd
    # sample count one sample sits on the type-II singular midpoint.
    turns = (backward.theta[::-1] - forward.theta) / (2.0 * math.pi)
    assert np.array_equal(np.round(turns), np.round(turns[:1]).repeat(len(turns), axis=0))
    assert np.abs(backward.theta[::-1] - forward.theta - 2.0 * math.pi * np.round(turns)).max() <= 1e-14
    peak = np.abs(forward.rates).max(axis=0)
    assert np.all(np.abs(backward.rates[::-1] + forward.rates) <= 1e-8 * peak)


@settings(max_examples=50, deadline=None)
@given(spec=_CIRCLES, gravity=_GRAVITY)
def test_torques_are_affine_in_gravity(spec, gravity):
    profile = _circle_profile(generate(spec))
    tau0, tau1, tau2 = (_torques(profile, k * gravity) for k in (0.0, 1.0, 2.0))
    peak = max(np.abs(tau).max() for tau in (tau0, tau1, tau2))
    assert np.abs((tau2 - tau1) - (tau1 - tau0)).max() <= 1e-14 * peak


@settings(max_examples=50, deadline=None)
@given(spec=_CIRCLES, gravity=_GRAVITY)
def test_torques_split_into_a_static_part_and_one_quadratic_in_speed(spec, gravity):
    # tau(s) = c + s^2 (tau(1) - c), with c the torques of the same angles at
    # rest: the rates scale with the tool speed s and the accelerations with s^2.
    path = generate(spec)
    unit_speed = generate(TrajectorySpec(kind=spec.kind, radius=spec.radius, gamma=spec.gamma,
                                         sample_count=spec.sample_count))
    assert np.array_equal(unit_speed.v, path.v)
    profile, unit = _circle_profile(path), _profile(unit_speed.v, unit_speed.t)
    rest = JointProfile(profile.t, profile.theta, np.zeros_like(profile.rates), np.zeros_like(profile.accels))
    static = _torques(rest, gravity)
    tau = _torques(profile, gravity)
    peak = max(np.abs(tau).max(), np.abs(static).max())
    s = spec.tool_speed
    assert np.abs(tau - (static + s * s * (_torques(unit, gravity) - static))).max() <= 1e-12 * peak


def test_reactions_scale_with_the_unit_of_length():
    # The same wrist with every length in millimetres: centers of mass x 1e3,
    # inertias x 1e6, gravity x 1e3, the cutting force and its lever x 1e3.
    # Angles, rates and accelerations do not change, so every joint force
    # and p scale by 1e3 and every joint moment and torque by 1e6, on a
    # regular loaded row of a circle.  The type-II singular state at rest
    # (theta1 = 0, theta3 = 1 rad), where the torques are not determined, is
    # refused in either unit.
    geometry = CONFIG.geometry
    bodies_mm = tuple(replace(body, com_offset=body.com_offset * 1e3, inertia=body.inertia * 1e6)
                      for body in CONFIG.bodies)
    load = CuttingLoad((150.0, -80.0, 40.0), 0.11)
    load_mm = CuttingLoad(load.f_c * 1e3, load.lever * 1e3)
    circle = generate(TrajectorySpec(KIND_CIRCLE, 0.15, gamma=math.radians(45.0), sample_count=301))
    theta = _joint_angles(forward_kinematics(0.0, 1.0, geometry).v, geometry)
    at_rest = JointState(JointAngles(theta), *closure_row(theta, (0.0, 0.0), (0.0, 0.0), geometry), 0.0)
    state = _profile(circle.v, circle.t)[37]
    _, metres = solve_state(state, geometry, CONFIG.bodies, CONFIG.gravity, load)
    _, millimetres = solve_state(state, geometry, bodies_mm, CONFIG.gravity * 1e3, load_mm)
    for forces, scale in ((True, 1e3), (False, 1e6)):
        names = [name for name in metres.reactions if name.endswith("force") == forces]
        m, mm = (np.concatenate([np.atleast_1d(solution.reactions[name]) for name in names])
                 for solution in (metres, millimetres))
        assert np.max(np.abs(mm / scale - m)) <= 1e-12 * np.max(np.abs(m)), names
    assert np.max(np.abs(millimetres.tau / 1e6 - metres.tau)) <= 1e-12 * np.max(np.abs(metres.tau))
    for bodies, gravity in ((CONFIG.bodies, CONFIG.gravity), (bodies_mm, CONFIG.gravity * 1e3)):
        with pytest.raises(ModelInconsistencyError, match=f"^{re.escape(TYPE_II_MESSAGE)}$"):
            solve_state(at_rest, geometry, bodies, gravity)
