"""Exception types with stable machine-parsable categories for the CLI, and
the intake checks of the value types' stored vectors and row arrays."""

import math

import numpy as np


class WristError(Exception):
    """Base error; ``category`` is the one-word class printed by the CLI."""

    category = "error"


class InvalidInputError(WristError):
    category = "invalid-input"


def frozen_vector(name, value, length) -> np.ndarray:
    """``value`` as a read-only float copy of shape (length,), checked to be
    finite: how every value type stores a vector it is given, so that no
    later write to the caller's array reaches it."""
    v = np.array(value, dtype=float).ravel()
    if v.shape != (length,):
        raise InvalidInputError(f"{name} must be a {length}-vector")
    if not all(map(math.isfinite, v.tolist())):
        raise InvalidInputError(f"{name} must be finite")
    v.setflags(write=False)
    return v


def frozen_rows(name, value, shape, label) -> np.ndarray:
    """``value`` as a read-only float copy of ``shape``, checked to be finite:
    the row-array twin of ``frozen_vector``.  A non-finite value is reported
    at its lowest row, named by ``label(i)``."""
    v = np.array(value, dtype=float)
    if v.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {v.shape}")
    finite = np.isfinite(v)
    if not finite.all():
        raise InvalidInputError(f"{label(int(np.argwhere(~finite)[0][0]))}: {name} must hold finite values")
    v.setflags(write=False)
    return v


class OutOfRangeError(WristError):
    category = "out-of-range"


class SingularOrientationError(WristError):
    category = "singular-orientation"


class UnreachableOrientationError(WristError):
    category = "unreachable-orientation"


class SingularConfigurationError(WristError):
    category = "singular-configuration"


class BranchJumpError(WristError):
    category = "branch-jump"


class InconsistentStateError(WristError):
    category = "inconsistent-state"


class ModelInconsistencyError(WristError):
    category = "model-inconsistency"


class InvalidSpecError(WristError):
    category = "invalid-spec"


class ConfigError(WristError):
    category = "config-error"


class FileIOError(WristError):
    category = "io-error"
