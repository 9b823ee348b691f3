"""Exception types with stable machine-parsable categories for the CLI, and
the intake checks of the value types' stored scalars, vectors and row arrays."""

import math
import numbers
import sys

import numpy as np


class WristError(Exception):
    """Base error; ``category`` is the one-word class printed by the CLI."""

    category = "error"


class InvalidInputError(WristError):
    category = "invalid-input"


def finite_scalar(name, value, low=None, closed=True) -> float:
    """``value`` as a float, checked to be a finite real number, not a bool,
    and, with ``low``, at least ``low`` (``closed``) or above it: how the
    value types take a scalar.  A value of any other kind fails the same way."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
            and (low is None or value > low or closed and value == low)):
        bound = "finite" if low is None else ("non-negative" if closed else "positive") if low == 0 else (
            f"{'at least' if closed else 'above'} {low:g}")
        raise InvalidInputError(f"{name} must be {bound}")
    return float(value)


def frozen_vector(name, value, length) -> np.ndarray:
    """``value`` as a read-only float copy of shape (length,), checked to be
    finite: how every value type stores a vector it is given, so that no
    later write to the caller's array reaches it."""
    try:
        v = np.array(value, dtype=float).ravel()
    except (TypeError, ValueError, OverflowError):  # strings, complex numbers, ragged or huge values
        v = np.empty(0)
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
