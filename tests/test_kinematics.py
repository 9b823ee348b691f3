import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BAD_VALUES, closure_row, is_complex_array, random_unit_vector, symmetric_rel
from sphwrist import (
    JointAngles,
    JointProfile,
    JointState,
    OrientationPath,
    ToolOrientation,
    TrajectorySpec,
    WristGeometry,
    central_difference,
    chain_frames,
    default_config,
    dh_rotation,
    force_sweep,
    forward_kinematics,
    inverse_kinematics,
    leg2_tool_axis,
    pan_tilt_from_vector,
    reflected_motor_torque,
    sweep_peaks,
    trajectory_joint_profiles,
    unwrap_angles,
    vector_from_pan_tilt,
    wrap_angle,
)
from sphwrist.errors import (
    BranchJumpError,
    InvalidInputError,
    OutOfRangeError,
    SingularConfigurationError,
    SingularOrientationError,
    UnreachableOrientationError,
    WristError,
    frozen_rows,
)
from sphwrist.kinematics import _joint_angles, _unit_directions
from sphwrist.trajectory import KIND_CIRCLE


def test_pan_tilt_to_vector_trivials():
    np.testing.assert_allclose(vector_from_pan_tilt(0.0, 0.0).v, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(vector_from_pan_tilt(math.pi / 2, 0.0).v, [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(vector_from_pan_tilt(0.0, math.pi / 2).v, [0, 0, 1], atol=1e-15)


def test_vector_to_pan_tilt_trivials():
    assert pan_tilt_from_vector(ToolOrientation([0.0, 1.0, 0.0])) == pytest.approx((math.pi / 2, 0.0))
    v = ToolOrientation([math.sqrt(0.5), 0.0, -math.sqrt(0.5)])
    assert pan_tilt_from_vector(v) == pytest.approx((0.0, -math.pi / 4))


def test_pan_tilt_singular_at_vertical():
    with pytest.raises(SingularOrientationError):
        pan_tilt_from_vector(ToolOrientation([0.0, 0.0, 1.0]))
    with pytest.raises(SingularOrientationError):
        pan_tilt_from_vector(ToolOrientation([0.0, 0.0, -1.0]))


def test_tilt_out_of_range():
    with pytest.raises(OutOfRangeError):
        vector_from_pan_tilt(0.0, 2.0)


def test_pan_tilt_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = random_unit_vector(rng, max_tilt=math.radians(89.0))
        pan, tilt = pan_tilt_from_vector(ToolOrientation(v))
        np.testing.assert_allclose(vector_from_pan_tilt(pan, tilt).v, v, atol=1e-12)


def test_tool_orientation_validation():
    with pytest.raises(InvalidInputError):
        ToolOrientation([1.0, 1.0, 0.0])
    v = ToolOrientation.normalized([2.0, 0.0, 0.0])
    np.testing.assert_allclose(v.v, [1, 0, 0], atol=1e-15)
    with pytest.raises(InvalidInputError):
        ToolOrientation.normalized([0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError, match="^cannot normalize a near-zero vector$"):
        ToolOrientation.normalized([1e-13, 0.0, 0.0])
    with pytest.raises(InvalidInputError, match="^tool orientation must be finite$"):
        ToolOrientation.normalized([math.nan, 0.0, 1.0])
    # The plain norm of this vector overflows to inf; scaled by its largest
    # component first, it does not.
    np.testing.assert_allclose(ToolOrientation.normalized([1e308, 1e308, 0.0]).v,
                               [math.sqrt(0.5), math.sqrt(0.5), 0.0], atol=1e-15)


# Two directions within rounding of the unit-length bound.  A norm taken two
# ways (np.linalg.norm for one direction, a row sum for a stack) once gave
# each of them opposite verdicts in the two forms.
_NEAR_BOUND = ((-0.5368823976141649, 0.24446021714428567, 0.807462998141608),
               (0.7768565446877871, 0.6267582445149783, 0.060564114046645606))


def test_one_unit_length_rule_for_a_direction_and_a_stack(geometry):
    rejected, accepted = _NEAR_BOUND
    with pytest.raises(InvalidInputError, match="^tool orientation must be unit length$"):
        ToolOrientation(rejected)
    with pytest.raises(InvalidInputError, match="^sample 0: tool orientation must be unit length$"):
        trajectory_joint_profiles(np.tile(rejected, (3, 1)), 0.1, geometry)
    stacked = trajectory_joint_profiles(np.tile(accepted, (3, 1)), 0.1, geometry)
    listed = trajectory_joint_profiles([ToolOrientation(accepted)] * 3, 0.1, geometry)
    assert np.array_equal(stacked.theta, listed.theta)
    assert np.array_equal(stacked.theta, trajectory_joint_profiles([list(accepted)] * 3, 0.1, geometry).theta)


@settings(max_examples=300, deadline=None)
@given(u=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda u: np.linalg.norm(u) > 0.1),
       bound=st.sampled_from([1.0 - 1e-12, 1.0 + 1e-12]), offset=st.floats(-1e-15, 1e-15))
@example(u=_NEAR_BOUND[0], bound=1.0, offset=0.0)
@example(u=_NEAR_BOUND[1], bound=1.0, offset=0.0)
def test_unit_length_verdict_is_the_same_in_both_forms(u, bound, offset):
    v = np.array(u) / np.linalg.norm(u) * (bound + offset)
    verdicts = []
    for build in (ToolOrientation, lambda v: _unit_directions(v[None])):
        try:
            build(v)
            verdicts.append(True)
        except InvalidInputError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1]


_STATE = (JointAngles(np.zeros(4)), np.zeros(4), np.zeros(4))
_ROWS = np.zeros((3, 4))
_DOWN = np.tile([0.0, 0.0, -1.0], (3, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: WristGeometry(alpha=np.zeros(4)), "alpha must be a 5-vector"),
    (lambda: WristGeometry(home_thetas=np.zeros(5)), "home_thetas must be a 4-vector"),
    (lambda: WristGeometry(alpha=[math.inf] * 5), "alpha must be finite"),
    (lambda: JointAngles([0.0, 1.0]), "joint angles must be a 4-vector"),
    (lambda: JointState(JointAngles(np.zeros(4)), np.zeros(3), np.zeros(4), 0.0), "rates must be a 4-vector"),
    (lambda: JointState(JointAngles(np.zeros(4)), np.zeros(4), np.zeros(5), 0.0), "accels must be a 4-vector"),
    (lambda: JointState(JointAngles(np.zeros(4)), [0.0, math.nan, 0.0, 0.0], np.zeros(4), 0.0), "rates must be finite"),
    (lambda: JointState(JointAngles(np.zeros(4)), np.zeros(4), [math.inf, 0.0, 0.0, 0.0], 0.0),
     "accels must be finite"),
    (lambda: JointState(JointAngles(np.zeros(4)), np.zeros(4), np.zeros(4), math.nan), "t must be finite"),
    (lambda: vector_from_pan_tilt(None, 0.0), "pan/tilt must be finite"),
    (lambda: forward_kinematics("a", 0.0, WristGeometry()), "thetas must be finite"),
    (lambda: trajectory_joint_profiles(np.tile([0.0, 0.0, -1.0], (3, 1)), "a", WristGeometry()), "dt must be positive"),
    (lambda: trajectory_joint_profiles([[0.0, 0.0, -1.0]] * 2 + [[0.0, 0.0, -2.0]], 0.1, WristGeometry()),
     "sample 2: tool orientation must be unit length"),
    # The rows below give the CLI's line, category first; a bare message is an invalid-input one.
    *((lambda value=value: TrajectorySpec(KIND_CIRCLE, value, gamma=0.7),
       "error[invalid-spec]: radius must be positive") for value in (None, "a", 1j)),
    *((lambda value=value: TrajectorySpec(KIND_CIRCLE, 0.1, value, 0.7),
       "error[invalid-spec]: tool_speed must be positive") for value in (None, "a", 1j)),
    (lambda: TrajectorySpec(KIND_CIRCLE, 0.1, gamma="x"), "error[invalid-spec]: gamma must be finite, got x"),
    (lambda: TrajectorySpec(np.array([1.0, 2.0]), 0.1), "error[invalid-spec]: unknown trajectory kind array([1., 2.])"),
    (lambda: TrajectorySpec(KIND_CIRCLE, 0.1, gamma=True), "error[invalid-spec]: gamma must be finite, got True"),
    (lambda: WristGeometry(tool_length=None), "error[invalid-input]: tool_length must be positive"),
    (lambda: WristGeometry(mount_yaw="a"), "error[invalid-input]: mount_yaw must be finite"),
    (lambda: JointState(*_STATE, t="a"), "error[invalid-input]: t must be finite"),
    (lambda: JointProfile(["a", "b", "c"], _ROWS, _ROWS, _ROWS),
     "error[invalid-input]: profile t must hold finite values"),
    (lambda: JointProfile([[0.0, 1.0], [2.0]], _ROWS, _ROWS, _ROWS),
     "error[invalid-input]: profile t must hold finite values"),
    (lambda: JointProfile(np.arange(3.0), _ROWS, _ROWS + 1j, _ROWS),
     "error[invalid-input]: profile rates must hold finite values"),
    (lambda: OrientationPath(["a", "b", "c"], _DOWN), "error[invalid-input]: path times must hold finite values"),
    (lambda: OrientationPath(np.arange(3.0), _DOWN + 1j),
     "error[invalid-input]: tool orientations must hold real numbers"),
    (lambda: OrientationPath(np.arange(3.0), [["a", "b", "c"]] * 3),
     "error[invalid-input]: tool orientations must hold real numbers"),
    (lambda: dh_rotation(0.0, None), "error[invalid-input]: alpha must be finite"),
    (lambda: dh_rotation("a", 0.0), "error[invalid-input]: theta must be finite"),
    (lambda: chain_frames(("a", 0.0), WristGeometry(), 1), "error[invalid-input]: thetas must be finite"),
    (lambda: central_difference(np.zeros(5), None), "error[invalid-input]: dt must be positive"),
    (lambda: central_difference(["a"] * 3, 0.1), "error[invalid-input]: values must be finite"),
    # A direction of size 1e200 overflows in its unit-length test, silently, and fails it.
    (lambda: ToolOrientation([1e200, 0.0, 0.0]), "error[invalid-input]: tool orientation must be unit length"),
])
# No call warns: an overflow or a complex value dropping its imaginary part (ComplexWarning is a RuntimeWarning).
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_value_type_intake_names_the_field(build, message):
    with pytest.raises(WristError) as info:
        build()
    assert f"error[{info.value.category}]: {info.value}" == (
        message if message.startswith("error[") else f"error[invalid-input]: {message}")


@settings(max_examples=200, deadline=None)
@given(entry=st.sampled_from([vector_from_pan_tilt, forward_kinematics, trajectory_joint_profiles]), data=st.data())
def test_kinematics_entries_reject_bad_values_with_a_wrist_error(entry, data, geometry):
    # Any argument of the kinematics entries, drawn from bad values (for the
    # directions also rows of them): the call returns or raises a WristError
    # (the CLI's one error line), never a raw TypeError, ValueError or
    # AttributeError.  A bool is not a number, and a complex array is not
    # cut to its real part.
    directions = [[0.0, 0.6, -0.8], [0.0, 0.61, -math.sqrt(1.0 - 0.61**2)], [0.0, 0.62, -math.sqrt(1.0 - 0.62**2)]]
    good = {vector_from_pan_tilt: (0.3, -0.2), forward_kinematics: (0.4, -1.1),
            trajectory_joint_profiles: (directions, 0.01)}[entry]
    bad = BAD_VALUES | st.lists(st.lists(BAD_VALUES | st.floats(), min_size=3, max_size=3), min_size=3, max_size=4)
    args = [data.draw(st.just(value) | bad, label=f"argument {k}") for k, value in enumerate(good)]
    try:
        entry(*args, *([] if entry is vector_from_pan_tilt else [geometry]))
    except WristError:
        return
    assert not any(map(is_complex_array, args))
    assert entry is trajectory_joint_profiles or not any(isinstance(a, bool) for a in args)


def _public_entries(config):
    """Per public entry not covered by the properties above: the call, its
    good arguments, and the indices of those that are scalars (a bool among
    them is refused)."""
    geometry, bodies, motors = config.geometry, config.bodies, config.motors
    spec = TrajectorySpec(KIND_CIRCLE, 0.15, gamma=0.7, sample_count=5)
    return {
        "TrajectorySpec": (lambda radius, speed, gamma: TrajectorySpec(KIND_CIRCLE, radius, speed, gamma, 5),
                           (0.15, 1.0, 0.7), (0, 1, 2)),
        "WristGeometry": (lambda length, yaw: WristGeometry(tool_length=length, mount_yaw=yaw), (0.11, 0.5), (0, 1)),
        "JointState": (lambda t: JointState(*_STATE, t), (0.0,), (0,)),
        "JointProfile": (JointProfile, (np.arange(3.0), _ROWS, _ROWS, _ROWS), ()),
        "OrientationPath": (OrientationPath, (np.arange(3.0), _DOWN), ()),
        "dh_rotation": (dh_rotation, (0.3, 0.5), (1,)),
        "chain_frames": (lambda thetas: chain_frames(thetas, geometry, 1), ((0.1, 0.2),), ()),
        "central_difference": (central_difference, (np.arange(4.0), 0.1), (1,)),
        "force_sweep": (lambda forces, lc: force_sweep(spec, forces, lc, geometry, bodies, motors), ([0.0, 10.0], 0.11),
                        (1,)),
        "sweep_peaks": (lambda pair: sweep_peaks([spec], geometry, bodies, pair), (motors,), ()),
        "reflected_motor_torque": (lambda tau, accel: reflected_motor_torque(tau, accel, motors[0]), (1.0, 2.0), ()),
        "wrap_angle": (wrap_angle, (0.5,), ()),
        "unwrap_angles": (unwrap_angles, (np.arange(3.0),), ()),
    }


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(_public_entries(default_config()))), data=st.data())
def test_public_entries_reject_bad_values_with_a_wrist_error(name, data, config):
    # Any numeric argument of the public constructors and entries, drawn
    # from bad values: the call returns or raises a WristError, never a raw
    # TypeError or ValueError; a complex array is refused, and so is a bool
    # where a scalar is taken.  Object arguments (geometry, bodies, specs)
    # are not drawn: they stay duck-typed.
    call, good, scalars = _public_entries(config)[name]
    args = [data.draw(st.just(value) | BAD_VALUES, label=f"argument {k}") for k, value in enumerate(good)]
    try:
        call(*args)
    except WristError:
        return
    assert not any(map(is_complex_array, args))
    assert not any(isinstance(args[k], bool) for k in scalars)


def test_joint_angles_validation_and_wrap():
    with pytest.raises(InvalidInputError):
        JointAngles([0.0, 1.0])
    angles = JointAngles([3.0 * math.pi, 0.0, -3.0 * math.pi / 2.0, 0.5])
    np.testing.assert_allclose(angles.wrapped().theta, [math.pi, 0.0, math.pi / 2.0, 0.5])


def test_home_round_trip_exact(geometry):
    home = geometry.home_thetas
    v_home = forward_kinematics(home[0], home[2], geometry)
    np.testing.assert_allclose(v_home.v, [0.0, 0.0, -1.0], atol=1e-15)
    recovered = inverse_kinematics(v_home, geometry).wrapped().theta
    np.testing.assert_allclose(recovered, home, atol=1e-12)


def test_forward_kinematics_unit_and_periodic(geometry):
    rng = np.random.default_rng(4)
    for _ in range(50):
        t1, t3 = rng.uniform(-math.pi, math.pi, size=2)
        v = forward_kinematics(t1, t3, geometry)
        assert abs(np.linalg.norm(v.v) - 1.0) < 1e-12
        v2 = forward_kinematics(t1 + 2.0 * math.pi, t3, geometry)
        np.testing.assert_allclose(v2.v, v.v, atol=1e-12)


def test_circle_sample_round_trip(geometry):
    # gamma = 45 deg, path angle 0 on the horizontal-circle trajectory.
    v = ToolOrientation([math.sqrt(0.5), 0.0, -math.sqrt(0.5)])
    theta = inverse_kinematics(v, geometry).theta
    err = np.linalg.norm(forward_kinematics(theta[0], theta[2], geometry).v - v.v)
    assert err < 1e-9


def test_randomized_round_trips_both_legs(geometry):
    rng = np.random.default_rng(0)
    worst_fk = 0.0
    worst_leg2 = 0.0
    for _ in range(2000):
        v = random_unit_vector(rng)
        theta = inverse_kinematics(ToolOrientation(v), geometry).theta
        worst_fk = max(worst_fk, np.linalg.norm(forward_kinematics(theta[0], theta[2], geometry).v - v))
        worst_leg2 = max(worst_leg2, np.linalg.norm(leg2_tool_axis(theta[1], theta[3], geometry) - v))
    assert worst_fk < 1e-9
    assert worst_leg2 < 1e-9


# Twists other than the default pi/2: a reduced first twist, then a terminal
# twist below and above pi/2.
REDUCED_TWISTS = [
    (math.pi / 2, math.pi / 3, math.pi / 2, math.pi / 2, math.pi / 2),
    (math.pi / 2, math.pi / 2, math.pi / 2, 1.3, math.pi / 2),
    (math.pi / 2, math.pi / 2, math.pi / 2, 1.8, math.pi / 2),
]


@pytest.mark.parametrize("alpha", REDUCED_TWISTS)
def test_round_trip_non_default_geometry(alpha):
    # Directions reached by random leg-1 pairs are reachable by construction;
    # the inverse must close both legs on them whatever the twists.
    geom = WristGeometry(alpha=alpha)
    rng = np.random.default_rng(5)
    worst_fk = 0.0
    worst_leg2 = 0.0
    for t1, t3 in rng.uniform(-math.pi, math.pi, size=(2000, 2)):
        v = forward_kinematics(t1, t3, geom).v
        theta = inverse_kinematics(ToolOrientation(v), geom).theta
        worst_fk = max(worst_fk, np.linalg.norm(forward_kinematics(theta[0], theta[2], geom).v - v))
        worst_leg2 = max(worst_leg2, np.linalg.norm(leg2_tool_axis(theta[1], theta[3], geom) - v))
    assert worst_fk < 1e-9
    assert worst_leg2 < 1e-9


_UNIT_DIRECTIONS = (st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-6)
                    .map(lambda v: np.array(v) / math.hypot(*v)))


@settings(max_examples=300, deadline=None)
@given(alpha=st.sampled_from([None, *REDUCED_TWISTS]), directions=st.lists(_UNIT_DIRECTIONS, min_size=1, max_size=8))
@example(alpha=None, directions=[np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)])  # on the leg-1 drive axis
@example(alpha=REDUCED_TWISTS[0], directions=[np.array([0.0, 0.0, -1.0]), np.array([1.0, 1.0, 0.1]) / math.sqrt(2.01)])
def test_ik_fk_round_trip_or_categorised_error(alpha, directions):
    # Any unit direction either closes both legs to 1e-9 with finite angles
    # or is refused as unreachable or singular; the stacked inverse names the
    # lowest failing sample with the error its single call raises.
    geometry = WristGeometry() if alpha is None else WristGeometry(alpha=alpha)
    expected, failure = [], None
    for i, v in enumerate(directions):
        try:
            theta = inverse_kinematics(ToolOrientation(v), geometry).theta
        except (UnreachableOrientationError, SingularConfigurationError) as exc:
            failure = failure or (i, exc)
            continue
        assert np.all(np.isfinite(theta))
        assert np.linalg.norm(forward_kinematics(theta[0], theta[2], geometry).v - v) < 1e-9
        assert np.linalg.norm(leg2_tool_axis(theta[1], theta[3], geometry) - v) < 1e-9
        expected.append(theta)
    if failure is None:
        np.testing.assert_allclose(_joint_angles(np.array(directions), geometry), expected, rtol=0.0, atol=1e-12)
    else:
        i, exc = failure
        with pytest.raises(type(exc)) as stacked:
            _joint_angles(np.array(directions), geometry)
        assert stacked.type is type(exc) and str(stacked.value) == f"sample {i}: {exc}"


# A twist of either sign, bounded away from 0 and pi.
_SIGNED_TWISTS = st.one_of(st.floats(0.3, math.pi - 0.3), st.floats(-math.pi + 0.3, -0.3))
_ANGLES = st.floats(-math.pi, math.pi)


@settings(max_examples=300, deadline=None)
@given(alpha=st.tuples(*[_SIGNED_TWISTS] * 5), mount_yaw=_ANGLES,
       pairs=st.lists(st.tuples(_ANGLES, _ANGLES), min_size=1, max_size=4))
@example(alpha=(math.pi / 2,) * 4 + (-math.pi / 2,), mount_yaw=math.pi / 4, pairs=[(-1.2, 0.9), (0.3, -2.0)])
@example(alpha=(1.0, 2.0, 1.0, -1.0, 1.0), mount_yaw=1.0, pairs=[(0.0, 0.0)])  # leg 1's double root at 0
def test_ik_closes_both_legs_for_twists_of_either_sign(alpha, mount_yaw, pairs):
    # On any geometry, a direction reached by a leg-1 pair is either refused
    # with one categorised error or solved so that both legs reproduce it.
    # With a negative distal twist, a leg-2 solve that ignores the twist's
    # sign lands on -v.
    geometry = WristGeometry(alpha=alpha, mount_yaw=mount_yaw)
    for t1, t3 in pairs:
        v = forward_kinematics(t1, t3, geometry).v
        try:
            theta = _joint_angles(v, geometry)
        except (UnreachableOrientationError, SingularConfigurationError):
            continue
        assert np.linalg.norm(forward_kinematics(theta[0], theta[2], geometry).v - v) < 1e-12
        assert np.linalg.norm(leg2_tool_axis(theta[1], theta[3], geometry) - v) < 1e-12


@settings(max_examples=300, deadline=None)
@given(twists=st.tuples(_SIGNED_TWISTS, _SIGNED_TWISTS), mount_yaw=_ANGLES, theta3=st.sampled_from([0.0, math.pi]))
def test_ik_solves_the_double_root_at_pi(twists, mount_yaw, theta3):
    # A drive at pi with the elbow straight or folded is the cone condition's
    # double root at T = tan(theta/2) = infinity: a and b vanish up to
    # rounding.  That direction is reachable, not outside the cone.  Leg 2 is
    # a copy of leg 1 (same base frame and twists), so that both legs meet it.
    a1, a3 = twists
    geometry = WristGeometry(alpha=(0.0, a1, a1, a3, a3), mount_yaw=mount_yaw)
    v = forward_kinematics(math.pi, theta3, geometry).v
    # Twists of equal size put the folded tool on the drive axis, where the
    # angle is indeterminate.
    assume(np.linalg.norm(np.cross(v, geometry.base_axes[:, 2])) > 1e-6)
    theta = _joint_angles(v, geometry)
    assert np.linalg.norm(forward_kinematics(theta[0], theta[2], geometry).v - v) < 1e-9
    assert np.linalg.norm(leg2_tool_axis(theta[1], theta[3], geometry) - v) < 1e-9


def test_unreachable_orientation():
    # With the first twist reduced to 60 degrees, directions closer than 30
    # degrees to the drive axis have no elbow-axis solution (the solution
    # cone cannot reach a perpendicular of v).
    geom = WristGeometry(alpha=[math.pi / 2, math.pi / 3, math.pi / 2, math.pi / 2, math.pi / 2])
    e1 = geom.base_axes[:, 2]
    z = np.array([0.0, 0.0, 1.0])

    def tilted_from_axis(angle):
        t = e1 * math.cos(angle) + z * math.sin(angle)
        return ToolOrientation(t / np.linalg.norm(t))

    with pytest.raises(UnreachableOrientationError):
        inverse_kinematics(tilted_from_axis(math.radians(20.0)), geom)
    # Same geometry, 45 degrees away: reachable.
    inverse_kinematics(tilted_from_axis(math.radians(45.0)), geom)


def test_singular_on_drive_axis(geometry):
    v = ToolOrientation(geometry.base_axes[:, 2])
    with pytest.raises(SingularConfigurationError):
        inverse_kinematics(v, geometry)


def test_profiles_constant_orientation(geometry):
    v = ToolOrientation.normalized([0.2, -0.3, -0.9])
    states = trajectory_joint_profiles([v] * 9, 0.01, geometry)
    assert len(states) == 9
    for s in states:
        np.testing.assert_allclose(s.rates, 0.0, atol=1e-10)
        np.testing.assert_allclose(s.accels, 0.0, atol=1e-8)


def test_profiles_input_validation(geometry):
    v = ToolOrientation([0.0, 0.0, -1.0])
    with pytest.raises(InvalidInputError):
        trajectory_joint_profiles([v, v], 0.01, geometry)
    with pytest.raises(InvalidInputError):
        trajectory_joint_profiles([v] * 5, 0.0, geometry)


def test_profiles_error_names_sample_index(geometry):
    good = ToolOrientation.normalized([0.2, -0.3, -0.9])
    bad = ToolOrientation(geometry.base_axes[:, 2])
    with pytest.raises(SingularConfigurationError, match="sample 1"):
        trajectory_joint_profiles([good, bad, good], 0.01, geometry)


def test_profiles_branch_jump(geometry):
    # Stepping past the leg-1 drive axis (pan 45 deg) at shallow tilt flips
    # the working branch between samples.
    orients = [vector_from_pan_tilt(math.radians(p), math.radians(3.0)) for p in (25.0, 35.0, 55.0)]
    with pytest.raises(BranchJumpError) as info:
        trajectory_joint_profiles(orients, 0.01, geometry)
    # Both samples are named by index, time and tool direction.
    assert str(info.value) == ("joint 1 jumps 2.555 rad between"
                               " sample 1 (t = 0.01 s, v = (0.818029, 0.57279, 0.052336))"
                               " and sample 2 (t = 0.02 s, v = (0.57279, 0.818029, 0.052336));"
                               " the path crosses a singularity or is sampled too coarsely")


def _circle_states(geometry, gamma, radius, n):
    from sphwrist.trajectory import KIND_CIRCLE, TrajectorySpec, generate
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=radius, gamma=gamma, sample_count=n)
    samples = generate(spec)
    dt = samples[1].t - samples[0].t
    return trajectory_joint_profiles([s.orientation for s in samples], dt, geometry), dt


def test_profiles_peak_rate_reference_value(geometry):
    # gamma=45 deg, R=0.25 m: reference max first-joint rate 3.99 rad/s.
    states, _ = _circle_states(geometry, math.radians(45.0), 0.25, 1001)
    rates = np.array([s.rates for s in states])
    assert symmetric_rel(np.max(np.abs(rates[:, 0])), 3.99) < 0.02


def test_profiles_peak_accel_reference_value(geometry):
    # gamma=30 deg, R=0.05 m: reference max elbow acceleration 230.30 rad/s^2.
    states, _ = _circle_states(geometry, math.radians(30.0), 0.05, 1001)
    accels = np.array([s.accels for s in states])
    assert symmetric_rel(np.max(np.abs(accels[:, 2])), 230.30) < 0.02


def test_profiles_pairwise_peak_symmetry(geometry):
    states, _ = _circle_states(geometry, math.radians(45.0), 0.25, 1001)
    rates = np.array([s.rates for s in states])
    accels = np.array([s.accels for s in states])
    for arr in (rates, accels):
        peaks = np.max(np.abs(arr), axis=0)
        assert symmetric_rel(peaks[0], peaks[1]) < 0.02
        assert symmetric_rel(peaks[2], peaks[3]) < 0.02


def test_profiles_radius_scaling(geometry):
    peaks = {}
    for radius in (0.25, 0.05):
        states, _ = _circle_states(geometry, math.radians(45.0), radius, 501)
        rates = np.array([s.rates for s in states])
        accels = np.array([s.accels for s in states])
        peaks[radius] = (np.max(np.abs(rates), axis=0) * radius,
                         np.max(np.abs(accels), axis=0) * radius ** 2)
    np.testing.assert_allclose(peaks[0.25][0], peaks[0.05][0], rtol=0.01)
    np.testing.assert_allclose(peaks[0.25][1], peaks[0.05][1], rtol=0.01)


def test_profiles_angles_are_unwrapped(geometry):
    # The vertical-plane semicircle drives the first joint through the
    # principal-value boundary; the profile series must stay continuous.
    from sphwrist.trajectory import KIND_SEMICIRCLE, TrajectorySpec, generate
    spec = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=501)
    samples = generate(spec)
    states = trajectory_joint_profiles([s.orientation for s in samples],
                                       samples[1].t - samples[0].t, geometry)
    theta = np.array([s.angles.theta for s in states])
    assert np.max(np.abs(np.diff(theta, axis=0))) < 0.1


def test_closure_rates_match_ik_differentiation(geometry):
    gamma = math.radians(45.0)

    def theta_of(delta):
        v = np.array([math.sin(gamma) * math.cos(delta),
                      math.sin(gamma) * math.sin(delta),
                      -math.cos(gamma)])
        return inverse_kinematics(ToolOrientation(v), geometry).theta

    delta0, h, rate = 0.9, 1e-4, 4.0
    th = theta_of(delta0)
    thp, thm = theta_of(delta0 + h), theta_of(delta0 - h)
    th2p, th2m = theta_of(delta0 + 2 * h), theta_of(delta0 - 2 * h)
    rate_ref = rate * (-th2p + 8 * thp - 8 * thm + th2m) / (12 * h)
    accel_ref = rate * rate * (-th2p + 16 * thp - 30 * th + 16 * thm - th2m) / (12 * h * h)

    rates, accels = closure_row(th, rate_ref[:2], accel_ref[:2], geometry)
    np.testing.assert_allclose(rates, rate_ref, atol=1e-8)
    np.testing.assert_allclose(accels, accel_ref, atol=1e-4)


def test_rate_convergence_against_finer_reference(geometry):
    gamma = math.radians(45.0)

    def rates_at(n):
        states, _ = _circle_states(geometry, gamma, 0.25, n)
        return np.array([s.rates for s in states])

    ref = rates_at(2001)
    coarse = rates_at(101)
    fine = rates_at(201)
    e_coarse = np.max(np.abs(coarse - ref[::20]))
    e_fine = np.max(np.abs(fine - ref[::10]))
    assert 3.2 < e_coarse / e_fine < 4.8


def _profile(geometry, spec):
    from sphwrist.trajectory import generate
    samples = generate(spec)
    return samples, trajectory_joint_profiles([s.orientation for s in samples],
                                              samples[1].t - samples[0].t, geometry)


@pytest.mark.parametrize("kind", ["circle", "semicircle"])
def test_profile_rows_match_single_sample_calls(geometry, monkeypatch, kind):
    # The profile runs IK and loop closure over all samples at once; each row
    # must equal the one-sample IK, and the closure kernels on that row alone
    # bit for bit.  The semicircle's midpoint (sample 500) is a closure
    # singularity, where both closure solves take the min-norm fallback.
    from sphwrist.trajectory import KIND_CIRCLE, KIND_SEMICIRCLE, TrajectorySpec
    if kind == "circle":
        spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=math.radians(45.0), sample_count=1001)
    else:
        spec = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=1001)
    fallbacks = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: fallbacks.append(a) or lstsq(*a, **k))
    samples, profile = _profile(geometry, spec)
    assert len(fallbacks) == (2 if kind == "semicircle" else 0)

    assert len(profile) == 1001 and profile.theta.shape == (1001, 4)
    np.testing.assert_allclose(profile.t, [s.t for s in samples], rtol=1e-12, atol=0.0)
    for i, sample in enumerate(samples):
        theta = inverse_kinematics(sample.orientation, geometry).theta
        np.testing.assert_allclose(wrap_angle(profile.theta[i] - theta), 0.0, atol=1e-12)
        rates, accels = closure_row(profile.theta[i], profile.rates[i, :2], profile.accels[i, :2], geometry)
        np.testing.assert_array_equal(rates, profile.rates[i])
        np.testing.assert_array_equal(accels, profile.accels[i])
    assert len(fallbacks) == (4 if kind == "semicircle" else 0)

    state = profile[500]
    assert isinstance(state, JointState)
    assert state.t == profile.t[500]
    np.testing.assert_array_equal(state.angles.theta, profile.theta[500])
    assert [s.t for s in profile] == list(profile.t)


def test_profile_rows_are_read_only_views(geometry):
    # A row is built without checking again what the profile checked once;
    # it equals the checked constructor's state and cannot be written.
    from sphwrist.trajectory import KIND_CIRCLE, TrajectorySpec
    _, profile = _profile(geometry, TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=0.6, sample_count=11))
    for i, j in ((0, 0), (7, 7), (-1, 10), (-11, 0)):
        row = profile[i]
        checked = JointState(JointAngles(profile.theta[j]), profile.rates[j], profile.accels[j], float(profile.t[j]))
        assert type(row) is JointState and type(row.angles) is JointAngles
        assert type(row.t) is float and row.t == checked.t
        assert row.row[0] is profile and row.row[1] == j and checked.row is None
        for name in ("rates", "accels"):
            assert np.array_equal(getattr(row, name), getattr(checked, name))
        assert np.array_equal(row.angles.theta, checked.angles.theta)
        for values in (row.angles.theta, row.rates, row.accels):
            with pytest.raises(ValueError):
                values[0] = 1.0
    for i in (11, -12):
        with pytest.raises(IndexError):
            profile[i]
    with pytest.raises(TypeError):
        profile[0:1]
    assert np.array_equal([s.rates for s in profile], profile.rates)


def test_profile_iteration_equals_indexing(geometry):
    # Iteration builds each row from the arrays' row views, as indexing does:
    # the same bits, the same (profile, index) row, views that cannot be
    # written; negative indices and out-of-range ones behave as before.
    from sphwrist.trajectory import KIND_CIRCLE, TrajectorySpec
    _, profile = _profile(geometry, TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=0.6, sample_count=11))
    rows = list(profile)
    assert len(rows) == len(profile) == 11
    for i, row in enumerate(rows):
        for indexed in (profile[i], profile[i - 11]):
            assert type(row) is type(indexed) is JointState and type(row.angles) is type(indexed.angles)
            assert type(row.t) is float and row.t.hex() == indexed.t.hex() == float(profile.t[i]).hex()
            assert row.row[0] is indexed.row[0] is profile and row.row[1] == indexed.row[1] == i
            for a, b, whole in ((row.angles.theta, indexed.angles.theta, profile.theta),
                                (row.rates, indexed.rates, profile.rates), (row.accels, indexed.accels, profile.accels)):
                assert a.tobytes() == b.tobytes() == whole[i].tobytes()
                assert a.base is whole and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
    for i in (11, -12):
        with pytest.raises(IndexError):
            profile[i]
    assert [s.row[1] for s in profile] == list(range(11))
    assert list(JointProfile(np.zeros(0), np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 4)))) == []


def test_profile_error_names_lowest_failing_sample(geometry):
    # Sample 3 lies outside the reachable cone, sample 1 on the leg-2 drive
    # axis; the lower index is reported with its own category, its time and
    # its tool direction.
    geom = WristGeometry(alpha=[math.pi / 2, math.pi / 3, math.pi / 2, math.pi / 2, math.pi / 2])
    good = ToolOrientation.normalized([0.2, -0.3, -0.9])
    on_axis = ToolOrientation(geom.base_axes[:, 0])
    t = geom.base_axes[:, 2] * math.cos(math.radians(20.0)) + np.array([0.0, 0.0, math.sin(math.radians(20.0))])
    unreachable = ToolOrientation.normalized(t)
    with pytest.raises(UnreachableOrientationError) as info:
        trajectory_joint_profiles([good, good, good, unreachable, on_axis], 0.01, geom)
    assert str(info.value) == ("sample 3 (t = 0.03 s, v = (0.664463, 0.664463, 0.34202)): "
                               "orientation lies outside the reachable cone")
    with pytest.raises(SingularConfigurationError) as info:
        trajectory_joint_profiles([good, on_axis, good, unreachable, good], 0.01, geom)
    assert str(info.value) == ("sample 1 (t = 0.01 s, v = (-0.707107, 0.707107, 0)): "
                               "orientation is on a joint axis; the angle is indeterminate")
    with pytest.raises(UnreachableOrientationError, match="^orientation lies outside"):
        inverse_kinematics(unreachable, geom)


def test_joint_profile_validation():
    with pytest.raises(InvalidInputError, match=r"^profile rates must have shape \(3, 4\), got \(2, 4\)$"):
        JointProfile(np.zeros(3), np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 4)))
    # A scalar time is a shape error, as it is for OrientationPath.
    with pytest.raises(InvalidInputError, match=r"^profile t must have shape \(1,\), got \(\)$"):
        JointProfile(1.0, np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 4)))
    with pytest.raises(InvalidInputError, match="^sample 0: profile theta must hold finite values$"):
        JointProfile(np.zeros(3), np.full((3, 4), np.nan), np.zeros((3, 4)), np.zeros((3, 4)))
    # The lowest failing sample is named, whichever joint column it is in.
    accels = np.zeros((6, 4))
    accels[4, 0] = np.inf
    accels[2, 3] = -np.inf
    with pytest.raises(InvalidInputError, match="^sample 2: profile accels must hold finite values$"):
        JointProfile(np.zeros(6), np.zeros((6, 4)), np.zeros((6, 4)), accels)


def test_frozen_rows_copies_checks_and_names_the_lowest_row():
    # The row-array intake of JointProfile and OrientationPath: a read-only
    # float copy of the given shape, which a later write to the caller's
    # array does not reach; a non-finite value is named at its lowest row.
    value = np.arange(12.0).reshape(4, 3)
    rows = frozen_rows("rows", value, (4, 3), str)
    value[0, 0] = 99.0
    assert rows.dtype == float and rows[0, 0] == 0.0 and not np.shares_memory(rows, value)
    with pytest.raises(ValueError):
        rows[1, 1] = 1.0
    assert frozen_rows("times", [0, 1, 2], (3,), str).dtype == float
    with pytest.raises(InvalidInputError, match=r"^rows must have shape \(4, 3\), got \(3, 4\)$"):
        frozen_rows("rows", value.T, (4, 3), str)
    bad = np.zeros((5, 2))
    bad[3, 0] = np.nan
    bad[1, 1] = -np.inf
    with pytest.raises(InvalidInputError, match="^row 1: rows must hold finite values$"):
        frozen_rows("rows", bad, (5, 2), lambda i: f"row {i}")
    with pytest.raises(InvalidInputError, match="^at 2: times must hold finite values$"):
        frozen_rows("times", [0.0, 1.0, np.nan], (3,), lambda i: f"at {i}")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)), min_size=1, max_size=40))
def test_batched_ik_matches_single_calls(pairs):
    # Directions reached by leg-1 joint pairs are reachable by construction.
    geometry = WristGeometry()
    v = np.array([forward_kinematics(t1, t3, geometry).v for t1, t3 in pairs])
    try:
        batch = _joint_angles(v, geometry)
    except WristError as exc:
        i = int(str(exc).split(":")[0].removeprefix("sample "))
        with pytest.raises(type(exc)):
            inverse_kinematics(ToolOrientation(v[i]), geometry)
        return
    assert batch.shape == (len(pairs), 4)
    for row, direction in zip(batch, v):
        np.testing.assert_allclose(row, inverse_kinematics(ToolOrientation(direction), geometry).theta,
                                   rtol=0.0, atol=1e-12)
