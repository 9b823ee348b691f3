"""Rotation matrices, frame chains for the wrist legs, and series differentiation.

All operations are pure functions over immutable values; everything is safe to
call concurrently.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, finite_array, finite_scalar, float_array, frozen_vector

ROTATION_TOL = 1e-12


def _rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s],
                     [0.0, 1.0, 0.0],
                     [-s, 0.0, c]])


def dh_rotation(theta, alpha: float) -> np.ndarray:
    """Frame step for a zero-offset joint: rotate about Z by theta, then about
    the new X by alpha.  Broadcasts over ``theta``: shape (...) gives (..., 3, 3)."""
    theta, alpha = finite_array("theta", theta), finite_scalar("alpha", alpha)
    return _dh(theta, math.cos(alpha), math.sin(alpha))


def _dh(theta, ca, sa):
    # dh_rotation from the twist's cosine and sine, which broadcast with theta.
    c, s = np.cos(theta), np.sin(theta)
    c_ca = c * ca
    R = np.empty(c_ca.shape + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 0, 2] = c, -s * ca, s * sa
    R[..., 1, 0], R[..., 1, 1], R[..., 1, 2] = s, c_ca, -c * sa
    R[..., 2, 0], R[..., 2, 1], R[..., 2, 2] = 0.0, sa, ca
    return R


def cross_rows(a, b) -> np.ndarray:
    """Cross product along the last axis of two (..., 3) stacks, either of which
    may be one 3-vector: np.cross's arithmetic without most of its overhead."""
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    first = a1 * b2 - a2 * b1
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def dot_rows(a, b) -> np.ndarray:
    """Dot products along the last axis of two (..., k) stacks of short
    vectors: ``np.sum(a * b, axis=-1)`` in its order and bits, one pass over
    all rows per component instead of one short loop per row.  np.sum seeds
    with +0.0, so a row of -0.0 products gives +0."""
    total = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        total += a[..., k] * b[..., k]
    total += 0.0
    return total


def is_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """Check orthonormality and det(R) = +1 entrywise within ``tol``; a value
    that is not a 3x3 array of real numbers is no rotation."""
    R = float_array(R)
    if R.shape != (3, 3):
        return False
    if not np.all(np.abs(R.T @ R - np.eye(3)) <= tol):
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol


def wrap_angle(theta):
    """Reduce angle(s) to the principal interval (-pi, pi]."""
    wrapped = _wrap(finite_array("theta", theta))
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def _wrap(theta):
    # wrap_angle on a finite float array, unchecked.
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


def unwrap_angles(angles, axis: int = 0) -> np.ndarray:
    """Remove 2*pi jumps so consecutive samples differ by at most pi."""
    angles = finite_array("angles", angles)
    if angles.ndim == 0:
        raise InvalidInputError("angles must be an array, not a scalar")
    return np.unwrap(angles, axis=axis)


def _default_alpha():
    return np.full(5, math.pi / 2.0)


def _default_home():
    return np.array([-math.pi / 2.0, math.pi / 2.0, math.pi / 2.0, -math.pi / 2.0])


@dataclass(frozen=True, eq=False)
class WristGeometry:
    """Joint-axis twists, home configuration, and base mounting of the wrist.

    ``alpha`` holds the five twists: a0 between the two drive axes, (a1, a3)
    leg 1's first and second joint steps, (a2, a4) leg 2's; a twist of
    either sign is valid.  ``mount_yaw`` is the azimuth of the leg-1 drive
    axis in the world frame; both drive axes are horizontal, orthogonal at
    the default a0, and the tool points straight down (-Z) in the home
    configuration.
    """

    alpha: np.ndarray = field(default_factory=_default_alpha)
    home_thetas: np.ndarray = field(default_factory=_default_home)
    tool_length: float = 0.11
    mount_yaw: float = math.pi / 4.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", frozen_vector("alpha", self.alpha, 5))
        object.__setattr__(self, "home_thetas", frozen_vector("home_thetas", self.home_thetas, 4))
        object.__setattr__(self, "mount_yaw", finite_scalar("mount_yaw", self.mount_yaw))
        object.__setattr__(self, "tool_length", finite_scalar("tool_length", self.tool_length, 0.0, closed=False))

    @property
    def base_axes(self) -> np.ndarray:
        """Columns are the leg-1 base frame axes expressed in the world frame."""
        c, s = math.cos(self.mount_yaw), math.sin(self.mount_yaw)
        return np.array([[-s, 0.0, c],
                         [c, 0.0, s],
                         [0.0, 1.0, 0.0]])

    @cached_property
    def _legs(self):
        """Both legs' fixed base frames (2, 3, 3), and the cosines and sines
        (2, 2) of their twists, per leg the first then the second joint step;
        read-only."""
        base = self.base_axes
        a0, a1, a2, a3, a4 = self.alpha.tolist()
        twists = ((a1, a3), (a2, a4))
        legs = (np.array([base, base @ _rot_y(a0)]), np.array([[math.cos(a) for a in pair] for pair in twists]),
                np.array([[math.sin(a) for a in pair] for pair in twists]))
        for array in legs:
            array.setflags(write=False)
        return legs


def chain_frames(thetas, geometry: WristGeometry, leg):
    """Frame orientations and joint axes along one leg, in the world frame.

    ``thetas`` holds one joint pair, shape (2,), or one per sample, (N, 2).
    Returns ``(frames, axes)``: three orientation matrices (fixed base frame
    of the leg, then one per joint step), each (..., 3, 3), and their third
    columns, each (..., 3).  Leg 1 carries the joint pair (theta1, theta3);
    leg 2 carries (theta2, theta4).
    """
    thetas = finite_array("thetas", thetas)
    if thetas.ndim == 0 or thetas.shape[-1] != 2:
        raise InvalidInputError("each leg carries exactly 2 joint angles")
    k = {"1": 0, "2": 1}.get(str(leg).removeprefix("leg-"))
    if k is None:
        raise InvalidInputError(f"unknown leg {leg!r}")
    f0, cos, sin = (array[k] for array in geometry._legs)
    f1 = f0 @ _dh(thetas[..., 0], cos[0], sin[0])
    f2 = f1 @ _dh(thetas[..., 1], cos[1], sin[1])
    frames = (f0 if f1.ndim == 2 else np.broadcast_to(f0, f1.shape), f1, f2)
    return frames, tuple(f[..., 2] for f in frames)


def leg_frames(theta, geometry: WristGeometry):
    """Both legs' frames at N joint states ``theta`` (N, 4), as ``chain_frames``
    gives them per leg, legs stacked on axis 1: the base frames (2, 3, 3),
    then (N, 2, 3, 3) after the first and after the second joint step."""
    theta = finite_array("theta", theta)
    f0, cos, sin = geometry._legs
    f1 = f0 @ _dh(theta[:, :2], cos[:, 0], sin[:, 0])
    return f0, f1, f1 @ _dh(theta[:, 2:], cos[:, 1], sin[:, 1])


def central_difference(values, dt: float) -> np.ndarray:
    """Second-order time derivative estimate of a uniformly sampled series.

    ``values`` has samples along its first axis.  Central stencils on
    interior points, one-sided second-order stencils at the two ends; output
    shape equals input shape.
    """
    dt, v = finite_scalar("dt", dt, 0.0, closed=False), finite_array("values", values)
    if v.ndim == 0 or v.shape[0] < 3:
        raise InvalidInputError("need at least 3 samples")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out
