"""Loss families and empirical risks.

The ranking-loss point estimate is checked against a direct pair-count
(the normalized rank-sum statistic computed the slow way), and the
least-squares minimizer against a projected-gradient descent oracle, so
each fast path has an independent witness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsinf import (AffineBasis, AUCLoss, CappedSquaredLoss, CheckLoss,
                      CubicBSpline, Dataset, MCIDLoss, PairedScores,
                      SquaredLoss, ZeroOneLinearLoss, auc_point_estimate,
                      design_matrix, empirical_risk, least_squares_coefficients,
                      pointwise_losses, sign_neg)
from gibbsinf.errors import ConditioningError, PreconditionError, ShapeError


# ---------------------------------------------------------------------------
# pointwise formulas


def test_check_loss_hand_values():
    loss = CheckLoss(0.25, features=None)
    # residual r = y - theta'f(x); value r*(tau - 1{r<0})
    assert pointwise_losses(loss, np.array([0.0]),
                            Dataset.regression([[1.0]], [2.0]))[0] \
        == pytest.approx(2.0 * 0.25)
    assert pointwise_losses(loss, np.array([0.0]),
                            Dataset.regression([[1.0]], [-2.0]))[0] \
        == pytest.approx(2.0 * 0.75)


def test_check_loss_tau_validated():
    with pytest.raises(PreconditionError):
        CheckLoss(0.0, features=None)
    with pytest.raises(PreconditionError):
        CheckLoss(1.0, features=None)


def test_squared_loss_is_squared_residual():
    loss = SquaredLoss(features=None)
    assert pointwise_losses(loss, np.array([1.5]),
                            Dataset.regression([[1.0]], [2.0]))[0] \
        == pytest.approx(0.25)


def test_capped_squared_dominance_exact():
    rng = np.random.default_rng(7)
    residuals = rng.standard_t(df=3, size=100_000) * 3.0
    cap = 4.0
    capped = np.minimum(residuals ** 2, cap)
    assert np.all(capped <= residuals ** 2)
    small = residuals ** 2 <= cap
    assert np.array_equal(capped[small], residuals[small] ** 2)


def test_capped_squared_loss_value_capped():
    loss = CappedSquaredLoss(features=None, cap=1.0)
    big = pointwise_losses(loss, np.array([0.0]),
                           Dataset.regression([[1.0]], [5.0]))[0]
    assert big == pytest.approx(1.0)


def test_zero_one_linear_values():
    loss = ZeroOneLinearLoss()
    theta = np.array([1.0, -1.0])
    hit = Dataset.classification([[2.0, 1.0]], [1])     # x'theta = 1 > 0
    miss = Dataset.classification([[0.0, 1.0]], [1])    # x'theta = -1 <= 0
    assert pointwise_losses(loss, theta, hit)[0] == 0.0
    assert pointwise_losses(loss, theta, miss)[0] == 1.0


def test_mcid_loss_indicator_values():
    basis = CubicBSpline((0.0, 1.0), 4)
    loss = MCIDLoss(basis)
    theta = np.zeros(4)  # threshold function identically 0
    agree = Dataset.classification([1.0], [1], [0.5])      # sign(1-0)=+1 matches y=+1
    disagree = Dataset.classification([-1.0], [1], [0.5])  # sign(-1-0)=-1 misses y=+1
    assert pointwise_losses(loss, theta, agree)[0] == 0.0
    assert pointwise_losses(loss, theta, disagree)[0] == 1.0


def test_sign_neg_convention_at_zero():
    assert sign_neg(0.0) == -1.0
    assert sign_neg(1e-300) == 1.0
    np.testing.assert_array_equal(sign_neg(np.array([-2.0, 0.0, 3.0])),
                                  [-1.0, -1.0, 1.0])


def test_bounded_losses_stay_in_unit_interval():
    rng = np.random.default_rng(3)
    loss = AUCLoss()
    for _ in range(100):
        t = rng.random()
        pair = PairedScores([rng.normal()], [rng.normal()])
        assert 0.0 <= pointwise_losses(loss, t, pair)[0] <= 1.0


# ---------------------------------------------------------------------------
# empirical risks


def test_empirical_risk_averages_pointwise():
    feats = AffineBasis()
    loss = CheckLoss(0.5, feats)
    data = Dataset.regression(np.array([0.0, 1.0, 2.0]),
                              np.array([0.5, 0.0, 3.0]))
    theta = np.array([0.1, 0.7])
    risk = empirical_risk(loss, theta, data)
    per = [pointwise_losses(loss, theta,
                            Dataset.regression(data.x[i:i + 1], data.y[i:i + 1]))[0]
           for i in range(data.n)]
    assert data.n_terms == 3
    assert risk == pytest.approx(np.mean(per), abs=1e-14)


def test_pointwise_losses_match_empirical_risk():
    feats = AffineBasis()
    rng = np.random.default_rng(11)
    data = Dataset.regression(rng.normal(size=20), rng.normal(size=20))
    for loss in (CheckLoss(0.3, feats), SquaredLoss(feats),
                 CappedSquaredLoss(feats, cap=0.8)):
        theta = rng.normal(size=2)
        vals = pointwise_losses(loss, theta, data)
        risk = empirical_risk(loss, theta, data)
        assert vals.shape == (20,)
        assert np.mean(vals) == pytest.approx(risk, abs=1e-12)


# Reference risk closures, one hand-written formula per loss family; the
# prepare/pointwise kernels must reproduce them bit for bit.

def _reference_risk(loss, data):
    if isinstance(loss, (CheckLoss, SquaredLoss, CappedSquaredLoss)):
        if loss.features is None:
            F = data.x[:, None] if data.x.ndim == 1 else data.x
        else:
            F = design_matrix(loss.features, data.x)
        y = data.y
    if isinstance(loss, CheckLoss):
        tau = loss.tau

        def risk(beta):
            r = y - F @ beta
            return float(np.mean(r * (tau - (r < 0.0))))
    elif isinstance(loss, CappedSquaredLoss):
        cap = loss.cap

        def risk(beta):
            r = y - F @ beta
            return float(np.mean(np.minimum(r * r, cap)))
    elif isinstance(loss, SquaredLoss):
        def risk(beta):
            r = y - F @ beta
            return float(np.mean(r * r))
    elif isinstance(loss, ZeroOneLinearLoss):
        X = np.atleast_2d(data.x)
        yc = data.y.astype(int)

        def risk(theta):
            pred = (X @ theta > 0.0).astype(int)
            return float(np.mean(pred != yc))
    else:
        Fz = design_matrix(loss.basis, data.z)
        x = data.x.astype(float)
        yc = data.y.astype(int)

        def risk(beta):
            pred = sign_neg(x - Fz @ beta)
            return float(np.mean(pred != yc))
    return risk


def test_kernels_reproduce_reference_risks_exactly():
    rng = np.random.default_rng(17)
    feats, spline = AffineBasis(), CubicBSpline((0.0, 3.0), 6)
    reg = Dataset.regression(rng.uniform(0, 1, 200), rng.normal(size=200))
    reg2 = Dataset.regression(rng.uniform(-1, 1, (150, 3)), rng.normal(size=150))
    lin = Dataset.classification(rng.uniform(-1, 1, (120, 4)),
                                 rng.integers(0, 2, 120))
    z = rng.uniform(0, 3, 300)
    thr = Dataset.classification(z ** 3 - 3 * z ** 2 + 5 + rng.normal(size=300),
                                 rng.choice([-1, 1], 300), z)
    cases = [(CheckLoss(0.3, feats), reg, 2), (CheckLoss(0.7, None), reg2, 3),
             (SquaredLoss(feats), reg, 2), (SquaredLoss(None), reg2, 3),
             (CappedSquaredLoss(feats, cap=0.5), reg, 2),
             (CappedSquaredLoss(None, cap=2.0), reg2, 3),
             (ZeroOneLinearLoss(), lin, 4), (MCIDLoss(spline), thr, 6)]
    for loss, data, dim in cases:
        ref = _reference_risk(loss, data)
        for _ in range(200):
            beta = rng.normal(scale=3.0, size=dim)
            assert empirical_risk(loss, beta, data) == ref(beta)


def test_pointwise_losses_match_risk_for_zero_one_losses():
    rng = np.random.default_rng(19)
    lin = Dataset.classification(rng.uniform(-1, 1, (90, 3)),
                                 rng.integers(0, 2, 90))
    z = rng.uniform(0, 1, 80)
    thr = Dataset.classification(rng.normal(size=80), rng.choice([-1, 1], 80), z)
    for loss, data, dim in ((ZeroOneLinearLoss(), lin, 3),
                            (MCIDLoss(CubicBSpline((0.0, 1.0), 5)), thr, 5)):
        for _ in range(50):
            theta = rng.normal(size=dim)
            vals = pointwise_losses(loss, theta, data)
            assert vals.dtype == float
            assert vals.mean() == empirical_risk(loss, theta, data)


def test_classification_risks_lie_in_unit_interval():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3))
    y = rng.choice([0, 1], size=50)
    data = Dataset.classification(x, y)
    loss = ZeroOneLinearLoss()
    for _ in range(10):
        r = empirical_risk(loss, rng.normal(size=3), data)
        assert 0.0 <= r <= 1.0


# ---------------------------------------------------------------------------
# ranking loss (two-sample)


def test_auc_point_estimate_worked_example():
    assert auc_point_estimate([0.1, 0.7], [0.5, 0.9]) == pytest.approx(0.75)


def test_auc_quadratic_identity():
    rng = np.random.default_rng(2)
    s0, s1 = rng.normal(size=8), rng.normal(size=5) + 0.5
    that = auc_point_estimate(s0, s1)
    data = Dataset.two_sample(s0, s1)
    for _ in range(20):
        t = rng.random()
        lhs = (empirical_risk(AUCLoss(), t, data)
               - empirical_risk(AUCLoss(), that, data))
        assert abs(lhs - (t - that) ** 2) < 1e-12


def test_auc_ties_count_as_discordant():
    # equal scores across groups contribute 1(u1 > u0) = 0
    assert auc_point_estimate([1.0], [1.0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12))
def test_auc_point_estimate_equals_pair_count(s0, s1):
    a0, a1 = np.array(s0, float), np.array(s1, float)
    direct = np.mean([1.0 if u1 > u0 else 0.0 for u0 in a0 for u1 in a1])
    assert auc_point_estimate(a0, a1) == direct


def test_auc_pointwise_losses_on_paired_scores():
    pairs = PairedScores(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    vals = pointwise_losses(AUCLoss(), 0.8, pairs)
    np.testing.assert_allclose(vals, [(0.8 - 1.0) ** 2, (0.8 - 0.0) ** 2])


# ---------------------------------------------------------------------------
# least squares


def _projected_gradient_lstsq(F, y, iters=20_000, lr=None):
    """Gradient descent on ||y - F b||^2; independent of the SVD route."""
    b = np.zeros(F.shape[1])
    if lr is None:
        lr = 0.9 / np.linalg.norm(F, 2) ** 2
    for _ in range(iters):
        b -= lr * (F.T @ (F @ b - y))
    return b


def test_least_squares_coefficients_match_gradient_descent():
    rng = np.random.default_rng(13)
    basis = CubicBSpline((0.0, 1.0), 5)
    xs = rng.random(40)
    beta = rng.normal(size=5)
    ys = basis.design(xs) @ beta + 0.05 * rng.normal(size=40)
    fast = least_squares_coefficients(design_matrix(basis, xs), ys)
    slow = _projected_gradient_lstsq(basis.design(xs), ys)
    np.testing.assert_allclose(fast, slow, atol=1e-6)


def test_least_squares_conditioning_guard():
    F = np.column_stack([np.ones(10), np.ones(10)])  # exactly collinear
    with pytest.raises(ConditioningError):
        least_squares_coefficients(F, np.arange(10.0))


def test_loss_observation_mismatch_raises():
    with pytest.raises(ShapeError):
        pointwise_losses(AUCLoss(), 0.5, Dataset.regression([[1.0]], [0.0]))
    with pytest.raises(ShapeError):
        pointwise_losses(SquaredLoss(AffineBasis()),
                         np.zeros(2),
                         Dataset.two_sample([0.1], [0.2]))
