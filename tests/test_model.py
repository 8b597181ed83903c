"""Data containers, basis expansions, and function parameters.

B-spline values are checked against the defining invariants (partition of
unity, nonnegativity, local support) rather than against another library,
so the tests stay meaningful if the evaluation backend changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsinf import (AffineBasis, CubicBSpline, Dataset, PairedScores,
                      TensorBSpline, design_matrix)
from gibbsinf.errors import DomainError, PreconditionError, ShapeError


# ---------------------------------------------------------------------------
# datasets


def test_regression_dataset_basic():
    data = Dataset.regression(np.array([[1.0, 0.5], [1.0, -0.2]]),
                              np.array([0.3, 1.1]))
    assert data.kind == "reg"
    assert data.n == 2
    assert data.n_terms == 2


def test_classification_dataset_labels_checked():
    x = np.array([[1.0, 0.2]])
    Dataset.classification(x, np.array([1]))
    Dataset.classification(x, np.array([-1]))
    with pytest.raises(ShapeError):
        Dataset.classification(x, np.array([2]))


def test_classification_rejects_non_integer_labels():
    # the int cast would otherwise turn [1.5, -0.7] into the valid labels [1, 0]
    with pytest.raises(ShapeError, match="class labels must be integers"):
        Dataset.classification([0.1, 0.2], [1.5, -0.7])
    data = Dataset.classification([0.1, 0.2], [1.0, -1.0])
    assert data.y.tolist() == [1, -1]


def test_two_sample_term_count_is_pair_count():
    data = Dataset.two_sample(np.array([0.1, 0.7, 0.3]), np.array([0.5, 0.9]))
    assert data.n == 2
    assert data.n_terms == 6


def test_two_sample_rejects_nonfinite_scores():
    with pytest.raises(ShapeError):
        Dataset.two_sample(np.array([np.nan]), np.array([1.0]))


@pytest.mark.parametrize("build", [
    lambda: Dataset.regression([0.1, 0.2, np.nan], [1.0, 0.0, 2.0]),
    lambda: Dataset.regression([0.1, 0.2, 0.3], [1.0, np.nan, 2.0]),
    lambda: Dataset.regression([0.1, 0.2, 0.3], [1.0, np.inf, 2.0]),
    lambda: Dataset.classification([0.1, np.nan], [1, -1], [[0.5], [1.0]]),
    lambda: Dataset.classification([0.1, 0.2], np.array([1.0, np.nan])),
    lambda: Dataset.classification([0.1, 0.2], [1, -1], [[0.5], [-np.inf]]),
    lambda: Dataset.classification([[0.1, np.inf]], [1]),
], ids=["reg-x-nan", "reg-y-nan", "reg-y-inf", "class-x-nan", "class-y-nan",
        "class-z-inf", "class-x-inf"])
def test_reg_and_class_datasets_reject_nonfinite_values(build):
    with pytest.raises(ShapeError, match="finite"):
        build()


def test_dataset_rejects_empty():
    with pytest.raises((PreconditionError, ShapeError)):
        Dataset.regression(np.empty((0, 2)), np.empty(0))


def test_paired_scores_validation():
    PairedScores(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    with pytest.raises((PreconditionError, ShapeError)):
        PairedScores(np.array([0.1]), np.array([0.3, 0.4]))


# ---------------------------------------------------------------------------
# cubic B-splines


def test_bspline_partition_of_unity_dense_grid():
    basis = CubicBSpline((0.0, 1.0), 6)
    xs = np.linspace(0.0, 1.0, 10_000)
    rows = basis.design(xs)
    assert np.all(rows >= -1e-15)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12


def test_bspline_local_support_at_most_four():
    basis = CubicBSpline((0.0, 3.0), 9)
    xs = np.linspace(0.0, 3.0, 10_000)
    rows = basis.design(xs)
    assert np.max((rows > 1e-14).sum(axis=1)) <= 4


def test_bspline_interpolates_endpoint_coefficients():
    # clamped bases collapse to a single active function at each endpoint
    basis = CubicBSpline((0.0, 3.0), 6)
    left = design_matrix(basis, [0.0])[0]
    right = design_matrix(basis, [3.0])[0]
    assert left[0] == pytest.approx(1.0, abs=1e-12)
    assert right[-1] == pytest.approx(1.0, abs=1e-12)


def test_bspline_reproduces_cubic_polynomial():
    # cubics live inside the span for any interior knots; coefficients via
    # the polar form of t^3 - 3 t^2 + 5 on the clamped knot sequence
    basis = CubicBSpline((0.0, 3.0), 6)
    coef = np.array([5.0, 5.0, 3.0, 0.0, 2.0, 5.0])
    xs = np.linspace(0.0, 3.0, 501)
    fitted = basis.design(xs) @ coef
    exact = xs ** 3 - 3 * xs ** 2 + 5
    assert np.max(np.abs(fitted - exact)) < 1e-10


def test_bspline_domain_clamp_tolerance():
    basis = CubicBSpline((0.0, 1.0), 5)
    design_matrix(basis, [1.0 + 1e-13])  # inside the documented 1e-12 slack
    with pytest.raises(DomainError):
        design_matrix(basis, [1.1])
    with pytest.raises(DomainError):
        design_matrix(basis, [0.5, np.nan])


def test_bspline_minimum_size_enforced():
    with pytest.raises(PreconditionError):
        CubicBSpline((0.0, 1.0), 3)
    with pytest.raises(PreconditionError, match="distinct knots"):
        CubicBSpline((1.0, np.nextafter(1.0, 2.0)), 6)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       st.integers(min_value=4, max_value=12))
def test_bspline_rows_are_probability_vectors(x, num_basis):
    basis = CubicBSpline((0.0, 3.0), num_basis)
    row = design_matrix(basis, [x])[0]
    assert row.shape == (num_basis,)
    assert np.all(row >= -1e-15)
    assert abs(row.sum() - 1.0) < 1e-12


def test_tensor_bspline_partition_of_unity():
    factor = CubicBSpline((0.0, 3.0), 4)
    basis = TensorBSpline(factor, factor)
    pts = np.column_stack([np.linspace(0, 3, 300), np.linspace(3, 0, 300)])
    rows = basis.design(pts)
    assert rows.shape == (300, 16)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12


def test_tensor_bspline_is_outer_product_of_factors():
    f1 = CubicBSpline((0.0, 1.0), 4)
    f2 = CubicBSpline((0.0, 2.0), 5)
    basis = TensorBSpline(f1, f2)
    point = np.array([[0.37, 1.21]])
    row = basis.design(point)[0]
    outer = np.outer(design_matrix(f1, [0.37])[0],
                     design_matrix(f2, [1.21])[0]).ravel()
    np.testing.assert_allclose(row, outer, atol=1e-14)


# ---------------------------------------------------------------------------
# the affine basis


def test_affine_basis_is_intercept_and_slope():
    basis = AffineBasis()
    rows = design_matrix(basis, [2.5, -1, 0.0])
    assert rows.dtype == float
    np.testing.assert_array_equal(rows, [[1.0, 2.5], [1.0, -1.0], [1.0, 0.0]])
    assert basis.num_basis == 2


@pytest.mark.parametrize("xs", [2.5, [[0.5], [1.5]]], ids=["scalar", "column"])
def test_affine_basis_rejects_points_that_are_not_a_vector(xs):
    with pytest.raises(ShapeError, match="1-D array"):
        AffineBasis().design(xs)
