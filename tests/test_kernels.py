"""The per-component kernels against the numpy forms they replaced, bit for bit.

Each kernel runs one pass over all rows per vector component instead of one
short loop per row; these properties show that it still gives the same
values, the same signed zeros and NaN in the same places.  A NaN's own sign
bit is left out: it is not a value any output reads.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sphwrist.analysis import _column_peaks
from sphwrist.dynamics import _body_tensor_product, _matvec_rows
from sphwrist.rotation import dot_rows

ROWS = st.integers(1, 40)
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# Finite values, with signed zeros drawn often; the einsum kernels get no
# overflow, whose inf - inf NaN would carry no sign to compare.
FINITE = st.floats(-1e3, 1e3) | SIGNED_ZEROS
ANY = st.floats(allow_nan=True, allow_infinity=True) | SIGNED_ZEROS


def assert_same_bits(new, old):
    assert new.shape == old.shape
    assert np.array_equal(new, old, equal_nan=True)
    values = ~np.isnan(old)
    assert np.array_equal(np.signbit(new[values]), np.signbit(old[values]))


@settings(max_examples=200, deadline=None)
@given(st.data(), ROWS, st.sampled_from([2, 3]))
def test_dot_rows_is_np_sum_of_products(data, n, k):
    a, b = (data.draw(hnp.arrays(np.float64, (n, k), elements=ANY)) for _ in range(2))
    with np.errstate(all="ignore"):
        assert_same_bits(dot_rows(a, b), np.sum(a * b, axis=-1))
        # Rows whose products are all -0.0 sum to +0, as np.sum's do.
        zeros = np.full((n, k), -0.0)
        assert_same_bits(dot_rows(zeros, np.abs(b)), np.sum(zeros * np.abs(b), axis=-1))
        # Strided rows: 3-vectors read out of a wider stack.
        stack = data.draw(hnp.arrays(np.float64, (n, 4, 3), elements=ANY))
        assert_same_bits(dot_rows(stack[:, 1], stack[:, 3]), np.sum(stack[:, 1] * stack[:, 3], axis=-1))


@settings(max_examples=200, deadline=None)
@given(st.data(), ROWS)
def test_body_tensor_product_is_the_einsum_form(data, n):
    frames = data.draw(hnp.arrays(np.float64, (n, 4, 3, 3), elements=FINITE))
    vectors = data.draw(hnp.arrays(np.float64, (n, 4, 3), elements=FINITE))
    tensor = data.draw(hnp.arrays(np.float64, (3, 3), elements=FINITE))
    tensor = tensor + tensor.T
    body = data.draw(st.integers(0, 3))
    # Strided (n, 3, 3) views of the frame stack, as the torque pass reads
    # them, and contiguous copies.
    for R, v in ((frames[:, body], vectors[:, body]),
                 (np.ascontiguousarray(frames[:, body]), np.ascontiguousarray(vectors[:, body]))):
        old = np.einsum("nij,nj->ni", R, np.einsum("nji,nj->ni", R, v) @ tensor)
        assert_same_bits(_body_tensor_product(R, tensor, v), old)


@settings(max_examples=200, deadline=None)
@given(st.data(), ROWS, st.integers(1, 4))
def test_matvec_rows_is_the_einsum_form(data, n, k):
    # The load term of the torques: g (n, 2, 3) against the tip force (n, 3).
    M = data.draw(hnp.arrays(np.float64, (n, k, 3), elements=FINITE))
    v = data.draw(hnp.arrays(np.float64, (n, 3), elements=FINITE))
    assert_same_bits(_matvec_rows(M, v), np.einsum("nkj,nj->nk", M, v))


@settings(max_examples=200, deadline=None)
@given(st.data(), ROWS, st.integers(1, 4))
def test_column_peaks_are_max_abs_per_column(data, n, k):
    x = data.draw(hnp.arrays(np.float64, (n, k), elements=ANY))
    assert_same_bits(_column_peaks(x), np.max(np.abs(x), axis=0))
    # A column of a wider array, as the shaft powers read the rates.
    assert_same_bits(_column_peaks(x[:, :1]), np.max(np.abs(x[:, :1]), axis=0))
