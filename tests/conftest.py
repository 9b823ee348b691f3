import math

import numpy as np
import pytest
from hypothesis import strategies as st

from sphwrist import default_config
from sphwrist.kinematics import _closure_accels_from_axes, _closure_rates_from_axes, _kinematics_at, _profile_pass
from sphwrist.trajectory import generate


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def geometry(config):
    return config.geometry


@pytest.fixture(scope="session")
def bodies(config):
    return config.bodies


@pytest.fixture(scope="session")
def motor(config):
    return config.motors[0]


# Complex arrays whose real parts are values the library takes (a force,
# gravity, an inertia, profile rows, tool directions): a float conversion
# that dropped the imaginary part would accept them.
COMPLEX_ARRAYS = (np.array([1 + 2j, 0, 0]), np.array([0, 0, -9.81 + 5j]), np.eye(3) * (1e-3 + 1j),
                  np.full((3, 4), 1j), np.tile([0, 0, -1 + 1j], (3, 1)))

# Values that no numeric field of the library takes: how the intake tests
# draw them (None, strings, bools, complex numbers and arrays, NaN, +-inf,
# an int too large for a float, any float, and lists of such items).
BAD_VALUES = st.one_of(st.none(), st.text(max_size=3), st.booleans(), st.complex_numbers(),
                       st.sampled_from(COMPLEX_ARRAYS),
                       st.sampled_from([math.nan, math.inf, -math.inf, 10**400]), st.floats(),
                       st.lists(st.one_of(st.floats(), st.booleans(), st.complex_numbers(), st.text(max_size=2)),
                                max_size=4))


def is_complex_array(value):
    return isinstance(value, np.ndarray) and value.dtype.kind == "c"


def symmetric_rel(a, b):
    """Relative difference measured against the larger magnitude."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


# Reference peak table (regression targets) for the horizontal-circle
# trajectory at 1 m/s tool
# speed: (gamma_deg, radius_m) -> 4 max rates [rad/s] + 4 max accels [rad/s^2].
PEAK_TABLE = {
    (30, 0.250): (2.31, 2.31, 2.00, 2.00, 7.29, 7.29, 9.21, 9.21),
    (30, 0.150): (3.84, 3.84, 3.33, 3.33, 20.24, 20.24, 25.59, 25.59),
    (30, 0.100): (5.77, 5.77, 5.00, 5.00, 45.54, 45.54, 57.58, 57.59),
    (30, 0.050): (11.53, 11.53, 10.00, 10.00, 182.15, 182.15, 230.30, 230.35),
    (45, 0.250): (3.99, 3.99, 2.83, 2.83, 13.96, 13.96, 15.92, 15.92),
    (45, 0.150): (6.65, 6.65, 4.71, 4.71, 38.78, 38.78, 44.22, 44.22),
    (45, 0.100): (9.98, 9.98, 7.07, 7.07, 87.26, 87.26, 99.48, 99.48),
    (45, 0.050): (19.96, 19.96, 14.14, 14.14, 349.03, 349.03, 397.94, 397.94),
    (60, 0.250): (6.90, 6.90, 3.46, 3.46, 34.05, 34.05, 27.36, 27.36),
    (60, 0.150): (11.49, 11.49, 5.77, 5.77, 94.59, 94.59, 75.99, 75.99),
    (60, 0.100): (17.24, 17.24, 8.66, 8.66, 212.82, 212.82, 170.98, 170.98),
    (60, 0.050): (34.48, 34.48, 17.32, 17.32, 851.30, 851.30, 683.92, 683.92),
}

# Worst no-load torque pair of the reference table (gamma=60 deg, R=0.05 m).
REFERENCE_WORST_TORQUES = (12.94, 13.84)


def random_unit_vector(rng, max_tilt=math.radians(80.0)):
    pan = rng.uniform(-math.pi, math.pi)
    tilt = rng.uniform(-max_tilt, max_tilt)
    c = math.cos(tilt)
    return np.array([math.cos(pan) * c, math.sin(pan) * c, math.sin(tilt)])


def own_rate_profile(spec, geometry):
    """The profile stage on the spec's generated path at its own rate: the
    joint profile and the kinematic terms of its pass."""
    path = generate(spec)
    return _profile_pass(path.v, path.t[1] - path.t[0], geometry)


def closure_row(theta, drive_rates, drive_accels, geometry):
    """All four joint rates and accelerations of one joint state (4,) from
    its two actuated ones, by the profile stage's loop-closure kernels on
    one row."""
    _, _, axes, passive, _ = _kinematics_at(np.reshape(theta, (1, 4)), geometry)
    rates = _closure_rates_from_axes(axes, passive, np.array([drive_rates], dtype=float))
    accels = _closure_accels_from_axes(axes, passive, rates, np.array([drive_accels], dtype=float))
    return rates[0], accels[0]
