import math

import numpy as np
import pytest

from sphwrist import WristGeometry, central_difference, chain_frames, dh_rotation, unwrap_angles, wrap_angle
from sphwrist.errors import InvalidInputError
from sphwrist.rotation import cross_rows, is_rotation


def test_rotations_are_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta, alpha = rng.uniform(-10, 10, size=2)
        for R in (dh_rotation(theta, 0.0), dh_rotation(0.0, alpha), dh_rotation(theta, alpha)):
            assert is_rotation(R, tol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_is_rotation_refuses_what_is_not_real_numbers():
    # A complex matrix is not cut to its real part (ComplexWarning is a RuntimeWarning), and a string is no
    # matrix: both are no rotation, with no raw ValueError.
    assert not is_rotation(np.eye(3) * (1 + 1j))
    assert not is_rotation("abc")
    assert is_rotation(np.eye(3).astype(object))


def test_dh_identity():
    np.testing.assert_allclose(dh_rotation(0.0, 0.0), np.eye(3), atol=1e-15)


def test_dh_pure_twist():
    # A quarter turn about X: y -> z, z -> -y.
    expected = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, -1.0],
                         [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(dh_rotation(0.0, math.pi / 2.0), expected, atol=1e-15)


def test_dh_broadcasts_over_theta():
    thetas = np.linspace(-3.0, 3.0, 7).reshape(7, 1) + np.zeros((7, 2))
    R = dh_rotation(thetas, 0.4)
    assert R.shape == (7, 2, 3, 3)
    for index in np.ndindex(7, 2):
        np.testing.assert_allclose(R[index], dh_rotation(thetas[index], 0.4), rtol=0.0, atol=1e-15)


def test_dh_quarter_quarter_matches_hand_product():
    # Rz(90) @ Rx(90) multiplied out by hand.
    expected = np.array([[0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])
    R = dh_rotation(math.pi / 2.0, math.pi / 2.0)
    np.testing.assert_allclose(R, expected, atol=1e-15)
    np.testing.assert_allclose(R[:, 2], expected[:, 2], atol=1e-15)


def test_chain_frames_home_axes_orthogonal(geometry):
    home = geometry.home_thetas
    _, axes1 = chain_frames((home[0], home[2]), geometry, "leg-1")
    e1, e3, e5 = axes1
    assert abs(e1 @ e3) < 1e-12
    assert abs(e3 @ e5) < 1e-12
    _, axes2 = chain_frames((home[1], home[3]), geometry, "leg-2")
    e2, e4, _ = axes2
    assert abs(e2 @ e4) < 1e-12


def test_chain_frames_zero_thetas_cumulative_product(geometry):
    frames, axes = chain_frames((0.0, 0.0), geometry, 1)
    step = dh_rotation(0.0, math.pi / 2.0)
    base = geometry.base_axes
    np.testing.assert_allclose(frames[0], base, atol=1e-15)
    np.testing.assert_allclose(frames[1], base @ step, atol=1e-15)
    np.testing.assert_allclose(frames[2], base @ step @ step, atol=1e-15)


def test_chain_frames_outputs_valid(geometry):
    rng = np.random.default_rng(3)
    for _ in range(50):
        thetas = rng.uniform(-math.pi, math.pi, size=2)
        leg = rng.choice(["leg-1", "leg-2"])
        frames, axes = chain_frames(thetas, geometry, leg)
        for R, e in zip(frames, axes):
            assert is_rotation(R, tol=1e-12)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-12
            np.testing.assert_allclose(e, R[:, 2], atol=1e-15)


def test_chain_frames_batch_rows_match_single_calls(geometry):
    thetas = np.random.default_rng(9).uniform(-math.pi, math.pi, size=(40, 2))
    for leg in ("leg-1", "leg-2"):
        frames, axes = chain_frames(thetas, geometry, leg)
        assert [f.shape for f in frames] == [(40, 3, 3)] * 3
        assert [e.shape for e in axes] == [(40, 3)] * 3
        for i, row in enumerate(thetas):
            frames_i, axes_i = chain_frames(row, geometry, leg)
            for batch, single in zip(frames + axes, frames_i + axes_i):
                np.testing.assert_allclose(batch[i], single, rtol=0.0, atol=1e-15)


def test_chain_frames_bad_inputs(geometry):
    with pytest.raises(InvalidInputError):
        chain_frames((0.0, 0.0, 0.0), geometry, 1)
    with pytest.raises(InvalidInputError):
        chain_frames((0.0, 0.0), geometry, 3)
    with pytest.raises(InvalidInputError):
        chain_frames(np.zeros((4, 3)), geometry, 1)
    with pytest.raises(InvalidInputError, match="finite"):
        chain_frames([[0.0, 0.0], [math.nan, 0.0]], geometry, 1)


def test_geometry_defaults_and_validation():
    geom = WristGeometry()
    np.testing.assert_allclose(geom.alpha, np.full(5, math.pi / 2.0))
    np.testing.assert_allclose(geom.home_thetas,
                               [-math.pi / 2, math.pi / 2, math.pi / 2, -math.pi / 2])
    assert geom.tool_length > 0.0
    assert is_rotation(geom.base_axes, tol=1e-12)
    with pytest.raises(InvalidInputError):
        WristGeometry(alpha=np.ones(4))
    with pytest.raises(InvalidInputError):
        WristGeometry(tool_length=-1.0)


def test_central_difference_constant_and_linear():
    t = np.arange(11) * 0.1
    np.testing.assert_allclose(central_difference(np.ones_like(t), 0.1), 0.0, atol=1e-14)
    np.testing.assert_allclose(central_difference(5.0 * t, 0.1), 5.0, atol=1e-12)


def test_central_difference_exact_on_quadratic():
    # Second-order stencils (interior and one-sided) differentiate a
    # quadratic exactly, ends included.
    t = np.arange(9) * 0.25
    np.testing.assert_allclose(central_difference(3.0 * t * t - 2.0 * t + 1.0, 0.25), 6.0 * t - 2.0, atol=1e-12)


def test_central_difference_sine_convergence():
    def max_err(dt):
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        d = central_difference(np.sin(t), dt)
        return np.max(np.abs(d - np.cos(t)))

    e1, e2 = max_err(1e-3), max_err(5e-4)
    assert e1 < 1.0 * ((1e-3) ** 2)
    assert 3.2 < e1 / e2 < 4.8


def test_central_difference_vector_series():
    t = np.arange(5) * 0.5
    values = np.column_stack([t, t ** 2])
    d = central_difference(values, 0.5)
    assert d.shape == values.shape
    np.testing.assert_allclose(d[:, 0], 1.0, atol=1e-12)


def test_series_validation():
    with pytest.raises(InvalidInputError):
        central_difference(np.zeros(5), 0.0)
    with pytest.raises(InvalidInputError):
        central_difference(np.zeros(2), 0.1)
    with pytest.raises(InvalidInputError):
        central_difference(np.array([1.0, np.inf, 2.0]), 0.1)


def test_wrap_angle_principal_interval():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    values = wrap_angle(np.linspace(-20.0, 20.0, 1001))
    assert np.all(values > -math.pi - 1e-15)
    assert np.all(values <= math.pi + 1e-15)


def test_unwrap_never_jumps_more_than_pi():
    rng = np.random.default_rng(11)
    smooth = np.cumsum(rng.uniform(-0.3, 0.3, size=500))
    wrapped = wrap_angle(smooth)
    unwrapped = unwrap_angles(wrapped)
    assert np.max(np.abs(np.diff(unwrapped))) <= math.pi
    np.testing.assert_allclose(np.diff(unwrapped), np.diff(smooth), atol=1e-12)


@pytest.mark.parametrize("call, value, message", [
    (wrap_angle, "a", "theta must be finite"),
    (wrap_angle, 1j, "theta must be finite"),
    (wrap_angle, None, "theta must be finite"),
    (wrap_angle, [0.5, None], "theta must be finite"),
    (wrap_angle, math.inf, "theta must be finite"),
    (unwrap_angles, "a", "angles must be finite"),
    (unwrap_angles, [[1.0, 2.0], [3.0]], "angles must be finite"),
    (unwrap_angles, [0.5, math.nan], "angles must be finite"),
    (unwrap_angles, 0.5, "angles must be an array, not a scalar"),
])
def test_wrap_and_unwrap_refuse_what_is_not_real_numbers(call, value, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call(value)


def test_cross_rows_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-5, 5, (50, 1)), rng.normal(size=(50, 3))
    assert np.array_equal(cross_rows(a, b), np.cross(a, b))
    assert np.array_equal(cross_rows(a, b[0]), np.cross(a, b[0]))
    assert np.array_equal(cross_rows(a[0], b), np.cross(a[0], b))
    # Stacks of any depth, along the last axis.
    stack_a, stack_b = a[:48].reshape(12, 4, 3), b[:48].reshape(12, 4, 3)
    assert np.array_equal(cross_rows(stack_a, stack_b), np.cross(stack_a, stack_b))
