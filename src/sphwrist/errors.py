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


def finite_scalar(name, value, low=None, closed=True, error=InvalidInputError) -> float:
    """``value`` as a float, checked to be a finite real number, not a bool,
    and, with ``low``, at least ``low`` (``closed``) or above it: how the
    library takes a scalar.  A value of any other kind fails the same way,
    with ``error`` (the boundary's error class, or any callable that makes
    the exception from the message)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
            and (low is None or value > low or closed and value == low)):
        bound = "finite" if low is None else ("non-negative" if closed else "positive") if low == 0 else (
            f"{'at least' if closed else 'above'} {low:g}")
        raise error(f"{name} must be {bound}")
    return float(value)


def float_array(value, message=None) -> np.ndarray:
    """``value`` as a new float array: how the library takes an array.  A
    value that holds anything but real numbers (strings, None, complex
    values, ragged or huge ones) raises ``InvalidInputError(message)``, or,
    without a message, converts to an empty (0,) array, which fails the
    caller's shape check.  An object array of real numbers converts; a
    complex array is refused, not cut to its real part."""
    try:
        v = np.asarray(value)
        if v.dtype.kind not in "cUS" and (v.dtype != object or all(isinstance(x, numbers.Real) for x in v.flat)):
            return v.astype(float)
    except (TypeError, ValueError, OverflowError):
        pass
    if message is None:
        return np.empty(0)
    raise InvalidInputError(message)


def finite_array(name, value) -> np.ndarray:
    """``float_array`` of ``value``, checked to be finite; a value that is
    not an array of real numbers fails the same way."""
    v = float_array(value, f"{name} must be finite")
    if not np.isfinite(v).all():
        raise InvalidInputError(f"{name} must be finite")
    return v


def frozen_vector(name, value, length) -> np.ndarray:
    """``value`` as a read-only float copy of shape (length,), checked to be
    finite: how every value type stores a vector it is given (a row or a
    column of values, not two axes longer than 1), so that no later write
    to the caller's array reaches it."""
    v = float_array(value)
    if v.size != length or length not in v.shape:
        raise InvalidInputError(f"{name} must be a {length}-vector")
    v = v.reshape(length)
    if not all(map(math.isfinite, v.tolist())):
        raise InvalidInputError(f"{name} must be finite")
    v.setflags(write=False)
    return v


def frozen_rows(name, value, shape, label) -> np.ndarray:
    """``value`` as a read-only float copy of ``shape``, checked to be finite:
    the row-array twin of ``frozen_vector``.  A non-finite value is reported
    at its lowest row, named by ``label(i)``."""
    v = float_array(value, f"{name} must hold finite values")
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
