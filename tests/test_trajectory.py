import math

import numpy as np
import pytest

from sphwrist import TrajectorySpec, generate, traj_circle, traj_semicircle
from sphwrist.errors import InvalidSpecError
from sphwrist.trajectory import KIND_CIRCLE, KIND_SEMICIRCLE


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
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=0.0),
    dict(kind=KIND_CIRCLE, radius=0.1, gamma=math.pi / 2.0),
    dict(kind=KIND_CIRCLE, radius=0.1),
])
def test_invalid_specs(kwargs):
    with pytest.raises(InvalidSpecError):
        TrajectorySpec(**kwargs)


def test_kind_mismatch_rejected():
    circle = TrajectorySpec(kind=KIND_CIRCLE, radius=0.1, gamma=0.5)
    semizirc = TrajectorySpec(kind=KIND_SEMICIRCLE, radius=0.1)
    with pytest.raises(InvalidSpecError):
        traj_semicircle(circle)
    with pytest.raises(InvalidSpecError):
        traj_circle(semizirc)
