import math

import numpy as np
import pytest

from sphwrist import (OrientationPath, TimedOrientation, ToolOrientation, TrajectorySpec, generate, traj_circle,
                      traj_semicircle, trajectory_joint_profiles)
from sphwrist.errors import InvalidInputError, InvalidSpecError
from sphwrist.trajectory import KIND_CIRCLE, KIND_SEMICIRCLE, MAX_SAMPLE_COUNT


def test_semicircle_midpoint_and_first_sample():
    spec = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, sample_count=5)
    samples = traj_semicircle(spec)
    np.testing.assert_allclose(samples[0].orientation.v, [0.0, -0.5, -math.sqrt(3) / 2], atol=1e-15)
    np.testing.assert_allclose(samples[2].orientation.v, [0.0, -1.0, 0.0], atol=1e-15)


def test_semicircle_duration():
    spec = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.25, tool_speed=1.0, sample_count=101)
    samples = traj_semicircle(spec)
    assert samples[0].t == 0.0
    assert samples[-1].t == pytest.approx((2.0 * math.pi / 3.0) * 0.25, rel=1e-12)


def test_circle_first_sample_and_duration():
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=math.radians(45.0), sample_count=101)
    samples = traj_circle(spec)
    np.testing.assert_allclose(samples[0].orientation.v,
                               [math.sqrt(0.5), 0.0, -math.sqrt(0.5)], atol=1e-15)
    assert samples[-1].t == pytest.approx(2.0 * math.pi * 0.25, rel=1e-12)
    # path-angle rate is tool_speed / radius = 4 rad/s
    assert samples[1].t - samples[0].t == pytest.approx((2.0 * math.pi / 100.0) / 4.0, rel=1e-12)


def test_circle_constant_z_component():
    gamma = math.radians(30.0)
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=gamma, sample_count=51)
    for s in traj_circle(spec):
        assert s.orientation.v[2] == -math.cos(gamma)


def test_generated_orientations_unit_and_times_monotone():
    for spec in (TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.15, sample_count=200),
                 TrajectorySpec(kind=KIND_CIRCLE, radius=0.15, gamma=1.0, sample_count=200)):
        samples = generate(spec)
        assert len(samples) == 200
        times = np.array([s.t for s in samples])
        assert np.all(np.diff(times) > 0.0)
        spacing = np.diff(times)
        np.testing.assert_allclose(spacing, spacing[0], rtol=1e-12)
        for s in samples:
            assert abs(np.linalg.norm(s.orientation.v) - 1.0) < 1e-12


def test_duration_times_speed_equals_span_times_radius():
    for spec, span in (
        (TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.2, tool_speed=2.5, sample_count=31), 2.0 * math.pi / 3.0),
        (TrajectorySpec(kind=KIND_CIRCLE, radius=0.07, gamma=0.6, tool_speed=0.5, sample_count=31), 2.0 * math.pi),
    ):
        samples = generate(spec)
        assert samples[-1].t * spec.tool_speed == pytest.approx(span * spec.radius, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(kind="bogus", radius=0.1),
    dict(kind=KIND_CIRCLE, radius=0.0, gamma=0.5),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=0.5, tool_speed=0.0),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=0.5, sample_count=2),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=0.5, sample_count=5.5),
    dict(kind=KIND_SEMICIRCLE, radius=0.1, sample_count=math.nan),
    dict(kind=KIND_SEMICIRCLE, radius=0.1, sample_count=MAX_SAMPLE_COUNT + 1),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=0.5, sample_count=10**12),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=0.0),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=math.pi / 2.0),
    dict(kind=KIND_CIRCLE, radius=0.1),
])
def test_invalid_specs(kwargs):
    with pytest.raises(InvalidSpecError):
        TrajectorySpec(**kwargs)


def test_largest_sample_count_is_a_valid_spec():
    # Only the spec is built: nothing of that size is allocated.
    assert TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.1, sample_count=MAX_SAMPLE_COUNT).sample_count \
        == MAX_SAMPLE_COUNT


@pytest.mark.parametrize("kind", [KIND_CIRCLE, KIND_SEMICIRCLE])
@pytest.mark.parametrize("tool_speed, radius, rate", [
    (1e300, 1e-300, "inf"),        # overflows: every sample time would be 0
    (1e-300, 1e300, "0"),          # underflows: the duration would be inf
    (1e-10, 1.7e298, "5.88235e-309"),  # subnormal: the duration still overflows
])
def test_path_rate_out_of_range_is_named(kind, tool_speed, radius, rate):
    with pytest.raises(InvalidSpecError, match=rf"^path rate tool_speed / radius = {rate} rad/s "):
        TrajectorySpec(kind=kind, radius=radius, tool_speed=tool_speed, gamma=0.5)
    # Extreme values whose ratio stays in range still make a path.
    spec = TrajectorySpec(kind=kind, radius=radius, tool_speed=radius, gamma=0.5, sample_count=5)
    assert spec.rate == 1.0 and generate(spec).t[-1] > 0.0


def test_kind_mismatch_rejected():
    circle = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=0.5)
    semizirc = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.1)
    with pytest.raises(InvalidSpecError):
        traj_semicircle(circle)
    with pytest.raises(InvalidSpecError):
        traj_circle(semizirc)


def test_nan_gamma_is_named_apart_from_a_missing_one():
    with pytest.raises(InvalidSpecError, match="requires a cone angle gamma"):
        TrajectorySpec(kind=KIND_CIRCLE, radius=0.1)
    for gamma in (math.nan, math.inf):
        with pytest.raises(InvalidSpecError, match="gamma must be finite"):
            TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=gamma)


# --- the array path -----------------------------------------------------------

def reference_path(spec):
    """The two paths sample by sample with math.sin/math.cos."""
    rate = spec.tool_speed / spec.radius
    if spec.kind == KIND_CIRCLE:
        delta = np.linspace(0.0, 2.0 * math.pi, spec.sample_count)
        sg, cg = math.sin(spec.gamma), math.cos(spec.gamma)
        return ([float(d / rate) for d in delta],
                [[sg * math.cos(d), sg * math.sin(d), -cg] for d in delta])
    delta = np.linspace(math.pi / 6.0, 5.0 * math.pi / 6.0, spec.sample_count)
    return ([float((d - delta[0]) / rate) for d in delta],
            [[0.0, -math.sin(d), -math.cos(d)] for d in delta])


@pytest.mark.parametrize("n", [101, 1001])
@pytest.mark.parametrize("kind", [KIND_CIRCLE, KIND_SEMICIRCLE])
def test_path_equals_sample_by_sample_reference_bit_for_bit(kind, n):
    spec = TrajectorySpec(kind=kind, radius=0.15, tool_speed=0.7, gamma=0.8 if kind == KIND_CIRCLE else None,
                          sample_count=n)
    path = generate(spec)
    t, v = reference_path(spec)
    assert path.t.tolist() == t
    assert path.v.tolist() == v
    assert np.signbit(path.v).tolist() == np.signbit(v).tolist()


def test_path_items_index_and_iterate():
    spec = TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=0.6, sample_count=7)
    path = generate(spec)
    assert isinstance(path, OrientationPath) and len(path) == 7
    items = list(path)
    assert len(items) == 7
    for i, item in enumerate(items):
        assert isinstance(item, TimedOrientation) and isinstance(item.orientation, ToolOrientation)
        assert type(item.t) is float and item.t == path.t[i]
        assert np.array_equal(item.orientation.v, path.v[i])
    for i, j in ((-1, 6), (-7, 0)):
        assert path[i].t == items[j].t
        assert np.array_equal(path[i].orientation.v, items[j].orientation.v)
    for i in (7, -8):
        with pytest.raises(IndexError):
            path[i]
    assert not path.t.flags.writeable and not path.v.flags.writeable


def test_path_rows_are_read_only_views():
    path = generate(TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.1, sample_count=5))
    for i, j in ((1, 1), (-1, 4)):
        orientation = path[i].orientation
        assert np.array_equal(orientation.v, ToolOrientation(path.v[j]).v)
        with pytest.raises(ValueError):
            orientation.v[0] = 1.0
    assert path.v[4, 0] == 0.0
    with pytest.raises(TypeError):
        path[0:1]


def test_path_iteration_equals_indexing():
    # Iteration builds each item from the direction array's row views, as
    # indexing does: the same bits and views that cannot be written.
    path = generate(TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=0.6, sample_count=9))
    items = list(path)
    assert len(items) == len(path) == 9
    for i, item in enumerate(items):
        for indexed in (path[i], path[i - 9]):
            assert type(item) is type(indexed) is TimedOrientation
            assert type(item.orientation) is type(indexed.orientation) is ToolOrientation
            assert type(item.t) is float and item.t.hex() == indexed.t.hex() == float(path.t[i]).hex()
            assert item.orientation.v.tobytes() == indexed.orientation.v.tobytes() == path.v[i].tobytes()
            assert item.orientation.v.base is path.v and not item.orientation.v.flags.writeable
            assert item == TimedOrientation(indexed.t, item.orientation)
    for i in (9, -10):
        with pytest.raises(IndexError):
            path[i]


def test_path_does_not_alias_its_inputs():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([[0.0, 0.0, 1.0]] * 3)
    path = OrientationPath(t, v)
    t[0] = 5.0
    v[0] = [1.0, 0.0, 0.0]
    assert path.t[0] == 0.0 and path.v[0].tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("row, message", [
    ([0.0, 0.6, 0.6], "sample 2: tool orientation must be unit length"),
    ([0.0, math.nan, 1.0], "sample 2: tool orientation must be finite"),
    ([math.inf, 0.0, 0.0], "sample 2: tool orientation must be finite"),
])
def test_path_rejects_the_lowest_bad_row(row, message):
    v = np.array([[0.0, 0.0, -1.0]] * 6)
    v[2] = row
    v[4] = [0.0, 0.0, 2.0]
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        OrientationPath(np.arange(6.0), v)


def test_path_rejects_wrong_shapes_and_times():
    v = np.array([[0.0, 0.0, -1.0]] * 4)
    for bad in (v[:, :2], v.reshape(-1), v[None]):
        with pytest.raises(InvalidInputError, match=r"must be an \(N, 3\) array"):
            OrientationPath(np.arange(len(bad), dtype=float), bad)
    with pytest.raises(InvalidInputError, match=r"times must have shape \(4,\)"):
        OrientationPath(np.arange(5.0), v)
    with pytest.raises(InvalidInputError, match="^sample 1: path times must hold finite values$"):
        OrientationPath([0.0, math.inf, 2.0, math.nan], v)


@pytest.mark.parametrize("kind", [KIND_CIRCLE, KIND_SEMICIRCLE])
def test_profiles_from_the_path_array_equal_the_object_call(geometry, kind):
    spec = TrajectorySpec(kind=kind, radius=0.25, gamma=0.7 if kind == KIND_CIRCLE else None, sample_count=1001)
    path = generate(spec)
    dt = path.t[1] - path.t[0]
    assert dt == path[1].t - path[0].t
    a = trajectory_joint_profiles(path.v, dt, geometry)
    b = trajectory_joint_profiles([s.orientation for s in path], path[1].t - path[0].t, geometry)
    for name in ("t", "theta", "rates", "accels"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_profiles_check_the_direction_array(geometry):
    v = np.array(generate(TrajectorySpec(kind=KIND_CIRCLE, radius=0.25, gamma=0.7, sample_count=9)).v)
    v[5] = [0.0, 0.0, 1.1]
    v[3, 1] = math.nan
    with pytest.raises(InvalidInputError, match="^sample 3: tool orientation must be finite$"):
        trajectory_joint_profiles(v, 0.01, geometry)
    v[3, 1] = 0.5
    with pytest.raises(InvalidInputError, match="^sample 3: tool orientation must be unit length$"):
        trajectory_joint_profiles(v, 0.01, geometry)
    with pytest.raises(InvalidInputError, match=r"must be an \(N, 3\) array"):
        trajectory_joint_profiles(v[:, :2], 0.01, geometry)
    with pytest.raises(InvalidInputError, match="at least 3 samples"):
        trajectory_joint_profiles(v[:2], 0.01, geometry)
