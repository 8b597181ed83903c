"""Loss families and empirical risks.

The ranking-loss point estimate is checked against a direct pair-count
(the normalized rank-sum statistic computed the slow way), and the
least-squares minimizer against a projected-gradient descent oracle, so
each fast path has an independent witness.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsinf import (AbsScalarDistance, AffineBasis, AUCLoss, CappedSquaredLoss,
                      CheckLoss, CubicBSpline, Dataset, MCIDLoss, PairedScores,
                      RiskDiffSqrt, SquaredLoss, ZeroOneLinearLoss,
                      auc_point_estimate, design_matrix, empirical_risk,
                      least_squares_coefficients, mgf_condition_check,
                      pointwise_losses, sign_neg)
from gibbsinf.errors import ConditioningError, PreconditionError, ShapeError
from gibbsinf.harness.generators import MCID1, MCID2, SparseClassSim


# ---------------------------------------------------------------------------
# pointwise formulas


def test_check_loss_hand_values():
    loss = CheckLoss(0.25, basis=None)
    # residual r = y - theta'f(x); value r*(tau - 1{r<0})
    assert pointwise_losses(loss, np.array([0.0]),
                            Dataset.regression([[1.0]], [2.0]))[0] \
        == pytest.approx(2.0 * 0.25)
    assert pointwise_losses(loss, np.array([0.0]),
                            Dataset.regression([[1.0]], [-2.0]))[0] \
        == pytest.approx(2.0 * 0.75)


_PLANTED = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(tau=st.one_of(st.sampled_from([0.5, float(np.nextafter(0.5, 0.0)), 0.25, 0.75]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       R=st.integers(1, 4), n=st.integers(1, 63).filter(lambda k: k % 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_check_kernel_keeps_the_bits_of_the_mask_form(tau, R, n, seed):
    """The kernel's max form against r * (tau - (r < 0)), bit for bit.

    The one allowed difference: where r < 0 and both r * (tau - 1) and
    r * tau underflow to zero (r = -5e-324 at tau = 0.5), the loss is -0.0
    where the mask form gives +0.0.  Every check loss is >= 0, so a row's
    sum can differ only in the sign of a zero, when all its losses are zero.
    """
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(R, n, 2))
    y = rng.normal(scale=rng.choice([1e-300, 1.0, 1e300]), size=(R, n))
    B = rng.normal(size=(R, 2)) * rng.integers(0, 2, size=(R, 1))
    planted = rng.random((R, n)) < rng.random()
    F[planted] = 0.0                          # so r = y - (±0) there
    y[planted] = rng.choice(_PLANTED, size=planted.sum())
    loss = CheckLoss(tau, None)
    sums = loss.kernel((F, y))[0]
    row_sums, _, row_values = loss.kernel((F[0], y[0]))

    r = y - np.matmul(F, B[..., None], out=np.empty((R, n, 1)))[..., 0]
    old = r * (tau - (r < 0))
    flipped = (r < 0) & (r * (tau - 1.0) == 0.0) & (r * tau == 0.0)
    assert np.all(_bits(old[flipped]) == _bits(0.0))
    expected = old.copy()
    expected[flipped] = -0.0
    assert np.array_equal(_bits(row_values(B[0])), _bits(expected[0]))

    new_sums, old_sums = np.array(sums(B)), np.add.reduce(old, -1)
    zero = np.all(old == 0.0, axis=-1)
    assert np.array_equal(_bits(new_sums[~zero]), _bits(old_sums[~zero]))
    assert np.all(new_sums[zero] == 0.0)
    assert zero[0] or _bits(row_sums(B[0])) == _bits(old_sums[0])


def test_check_loss_of_a_negative_subnormal_residual_is_minus_zero():
    # r = -5e-324 at tau = 0.5: r * (tau - 1) and r * tau both underflow, and
    # the max form gives -0.0 where r * (tau - 1{r < 0}) gives +0.0
    r = np.array([-5e-324])
    assert _bits(r * (0.5 - (r < 0))) == _bits(0.0)
    loss = pointwise_losses(CheckLoss(0.5, None), np.array([1.0]),
                            Dataset.regression([[0.0]], r))
    assert _bits(loss) == _bits(-0.0)


def test_check_loss_tau_validated():
    with pytest.raises(PreconditionError):
        CheckLoss(0.0, basis=None)
    with pytest.raises(PreconditionError):
        CheckLoss(1.0, basis=None)


def test_squared_loss_is_squared_residual():
    loss = SquaredLoss(basis=None)
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
    loss = CappedSquaredLoss(basis=None, cap=1.0)
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
    # a 1-D x is n observations of one feature, as for the regression
    # losses, not one observation of n features
    data = Dataset.classification([0.5, -0.2, 0.3], [1, 0, 0])
    assert empirical_risk(loss, np.array([1.0]), data) == pytest.approx(1 / 3)
    assert pointwise_losses(loss, np.array([1.0]), data).tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        empirical_risk(loss, np.ones(3), data)


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
        if loss.basis is None:
            F = data.x[:, None] if data.x.ndim == 1 else data.x
        else:
            F = design_matrix(loss.basis, data.x)
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
    # The 0-1 references keep the row layout, X @ theta and Fz @ beta, as a
    # path independent of the kernels' (J, n) product b @ Ft.  The two
    # linear predictors may differ in their last bits, and the risks are
    # still equal exactly: a mismatch count moves only where x (or 0) ties
    # the predictor within rounding, which these continuous draws do not.
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


def test_auc_prepare_takes_a_two_sample_dataset_or_paired_scores():
    # a two-sample dataset gives the closed form (that, that (1 - that)) as
    # two 0-d arrays, matched pairs their indicators 1{u1 > u0}
    rng = np.random.default_rng(5)
    s0, s1 = rng.normal(size=7), rng.normal(size=4) + 0.5
    that, const = AUCLoss().prepare(Dataset.two_sample(s0, s1))
    assert that.shape == const.shape == ()
    assert float(that) == auc_point_estimate(s0, s1)
    assert float(const) == float(that) * (1.0 - float(that))
    pairs = PairedScores(np.array([0.0, 1.0, 0.5]), np.array([0.5, 0.5, 0.5]))
    np.testing.assert_array_equal(AUCLoss().prepare(pairs), [1.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        AUCLoss().prepare(Dataset.regression([0.0, 1.0], [1.0, 2.0]))


def test_auc_values_on_a_two_sample_dataset_are_a_shape_error():
    # the closed form has no per-observation values: each caller that asks
    # for them gets a ShapeError, not a TypeError from a missing function
    def two_sample(rng, n):
        return Dataset.two_sample(rng.normal(size=n), rng.normal(size=n))

    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError, match="PairedScores"):
        pointwise_losses(AUCLoss(), 0.5, two_sample(rng, 5))
    div = RiskDiffSqrt(AUCLoss(), two_sample, n_draws=5)
    with pytest.raises(ShapeError, match="PairedScores"):
        div.between(0.3, 0.5, rng)
    with pytest.raises(ShapeError, match="PairedScores"):
        div.estimate(0.3, 0.5, rng)
    with pytest.raises(ShapeError, match="PairedScores"):
        mgf_condition_check(AUCLoss(), [0.3], 0.5, omega=1.0,
                            div=AbsScalarDistance(), r=2.0, generator=two_sample,
                            n_draws=5, rng=rng)


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


# ---------------------------------------------------------------------------
# risk bits
#
# Chain-draw digests see a last-bit change in a risk only when it flips an
# accept decision, so the kernels' own outputs are pinned here: a sha256 of
# the float64 bytes of `sums(B)` on a stacked state of R datasets, per loss
# family, of the (R, n) loss buffer those sums reduce (a sum can absorb a
# one-ulp change of one loss), and of one row's `values` vector.  n = 30 and
# 203 are not multiples of 4, so the matmul's remainder rows are covered.

_PIN_LOSSES = {
    "check": lambda: CheckLoss(0.3, AffineBasis()),
    "check_median": lambda: CheckLoss(0.5, AffineBasis()),
    "squared": lambda: SquaredLoss(CubicBSpline((0.0, 1.0), 6)),
    "cappedsquared": lambda: CappedSquaredLoss(CubicBSpline((0.0, 1.0), 6), cap=1.5),
    "mcid": lambda: MCIDLoss(CubicBSpline((0.0, 3.0), 6)),
    "zeroone": lambda: ZeroOneLinearLoss(),
}


def _pin_data(name, n, seed):
    rng = np.random.default_rng([seed, n])
    if name.startswith("check"):
        x = rng.uniform(0.0, 1.0, n)
        return Dataset.regression(x, 1.0 + 2.0 * x + rng.standard_t(3, n)), 2
    if name in ("squared", "cappedsquared"):
        x = rng.uniform(0.0, 1.0, n)
        return Dataset.regression(x, np.sin(6.0 * x) + rng.normal(size=n)), 6
    if name == "mcid":
        z = rng.uniform(0.0, 3.0, n)
        return Dataset.classification(z ** 3 - 3 * z ** 2 + 5 + rng.normal(size=n),
                                      rng.choice([-1, 1], n), z), 6
    return Dataset.classification(rng.normal(size=(n, 4)), rng.integers(0, 2, n)), 4


def _pin_block(name, R, n):
    """The stacked kernel of R datasets, as (sums, values), and an (R, J)
    block of coefficients."""
    loss = _PIN_LOSSES[name]()
    data, dim = zip(*(_pin_data(name, n, seed) for seed in range(R)))
    state = tuple(np.stack(parts) for parts in zip(*(loss.prepare(d) for d in data)))
    B = np.random.default_rng([99, R, n]).normal(scale=1.5, size=(R, dim[0]))
    sums, _, values = loss.kernel(state)
    return sums, values, B


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


# recorded with the check kernel's mask form, r * (tau - 1{r < 0})
_SUMS_PINS = {
    ("check", 1, 30):
        "3d16f7710fb7558ea1dadc99840dd0a2f4d9e581cfe91d20e7fd0a73333bc870",
    ("check", 1, 203):
        "0a519ae5bf6ce1947e2677277496a69413aed91a24a857ade1cdcecf008eba8f",
    ("check", 1, 3200):
        "4113c1d2a36cbe02cedb84752fe221ca105106f7a7ad6d724663588073a5ab88",
    ("check", 4, 30):
        "8600cfb26febc80e878e3f62d8cdb5a68425f2477cb542af8b6499fa745573b4",
    ("check", 4, 203):
        "c98f95ef3d499fbb93fc2a87816b820294a458113081c6512a476996d1437ec8",
    ("check", 4, 3200):
        "d2536095123bc04fb82e0c59390cc8e4ea708410271ddd805c1825b1b8c9d0ad",
    ("check_median", 1, 30):
        "b32c76ef3d05da9f17441e852556ca69f586924275ba0572365bb528d65ed2e1",
    ("check_median", 1, 203):
        "7e0e2eb416ecccf3865eeedc9d7cd12d6fdb055955d559222524862d6fe3887b",
    ("check_median", 1, 3200):
        "78957bc3d35cab44d7dfb43203e218a7642d52a5fb47f63c02a4ff7363228ef0",
    ("check_median", 4, 30):
        "df59e980294cb4e2b48874a5c3e87e1e8d19966ee361de056d6a777b3f2d4848",
    ("check_median", 4, 203):
        "6e3486edd77716d94360c7b52dc8a324e44f836eca73da70fa698abbef7f4db3",
    ("check_median", 4, 3200):
        "939cf18311ee59e538f2461e1d94986db898c9bd55271675182e419688f9d98d",
    ("squared", 1, 30):
        "a36715d073ee4593a28ff0721c342e3fb368c6aff7c98487a4d6fe9a41e5e2f5",
    ("squared", 1, 203):
        "9b9ad4b008da5a597f3525d21b552a593674a78a81480ba6a17a269cfdeaaa3e",
    ("squared", 1, 3200):
        "fb18763e0ba20ce7438c0a4d17b768949bcd27411173110920d0fc6af9b56f70",
    ("squared", 4, 30):
        "5d25e7b693e511a99548e33692de3c4b26e481be9f075daad2161b1f0f9eb0e3",
    ("squared", 4, 203):
        "6c7decf799cebfcb75529af931c371e2f42a602829c9b647333f697343a6eed7",
    ("squared", 4, 3200):
        "80f729e2ae6e0f34ff124d8eba74fa935db9c9659838b33b3fd4cd5e81fa0a34",
    ("cappedsquared", 1, 30):
        "bf31f95d97edead36cc99616a06decb0351308d5c35b93969b2614663ed15ab8",
    ("cappedsquared", 1, 203):
        "0e040ddd4929a5cef14351bb916280f69bb6607b65a52737d9c83cf917aedf3f",
    ("cappedsquared", 1, 3200):
        "9c86947c9bf96816bfad21a6490d37cc73ea3c0827ba35b21b933fb0e5712685",
    ("cappedsquared", 4, 30):
        "7e8b30d1f6d151b32b0f463c6ab92499be7904c03066e3bbb1de887e1df56267",
    ("cappedsquared", 4, 203):
        "11d22fbe1d477469c55f7e3723c9875d62c358eaa1a737b6335ccfad81da8db3",
    ("cappedsquared", 4, 3200):
        "3a0707b8cc32203f62d0f4efecb6b048569a58e3eaf66babea466182d60a266a",
    ("mcid", 1, 30):
        "e229bd91c5f0ee30d08a5ac584d5add2e3451554c84c3a4e706975af8d54ef60",
    ("mcid", 1, 203):
        "1e82d955bac1484c77509839cb3c01e4cf072d3737b94131fade136764bf34bb",
    ("mcid", 1, 3200):
        "d54e2151af8338cf540802ef4b49e8eda426ad9594138caa5451e9b4e9f39347",
    ("mcid", 4, 30):
        "e749b1496a12ffa2efb974335e5d1c58a5fd8c1ce2387d5abfe08cbdbd9269b2",
    ("mcid", 4, 203):
        "f686a1977c78e0cf420fe59002b44d094705cb58ba82d58e4891c57de0a58ba2",
    ("mcid", 4, 3200):
        "0fd82cbb244ba205c6909df31d636b975a2b33e6e567fc6f9d63512cd51ebde4",
}


_BUFFER_PINS = {
    ("check", 1, 30):
        "3daefdba23fcb90f1095674f74090929def1963d151aee00bd2f648a45bdb263",
    ("check", 1, 203):
        "4cf6467c14fa79e4d6e5bd80ea60488941c18c8050363771456986e5b63d47ed",
    ("check", 1, 3200):
        "31af91c990dee92f9bd4a86e967604c68651b74296dffdd048edcea2e04aac32",
    ("check", 4, 30):
        "0bba355fbbd381e8e9dd0e665e21c213ca0e7a8e10d9e9e0da0fb02bd1198f49",
    ("check", 4, 203):
        "1825c1f761beff043a97746b66fdfbeb5b59be0c304b4edcc3a64668ed4b109a",
    ("check", 4, 3200):
        "465c0e5dfab7cae3cc1db57135edd0559de62705544ac0a51d1df064163dd4b8",
    ("check_median", 1, 30):
        "911b3ab80d3405ebe12b16d1cd5be069552c6bbec83241cb027ecedd8f75a632",
    ("check_median", 1, 203):
        "35312cc87f4ba10483dad3e785d3ed687fc78fd53bc1f166140f013fd2155ae5",
    ("check_median", 1, 3200):
        "1c823c44b9d303267ae5fd9a858f78429326c7ecfe05c43c3b3abdf9d2051f97",
    ("check_median", 4, 30):
        "4f5a6bc70a018c939b087d1f9e9b13d1532a92442d90ae383f99ebe9a2a0df12",
    ("check_median", 4, 203):
        "363851783901ed375021125a8c1058a84be35a66173dfbc2d5452b52ba98571c",
    ("check_median", 4, 3200):
        "68582fc4a3fe391344d1a04cacf863410a58bc2d3ae02149fd30409f90accba1",
    ("squared", 1, 30):
        "1342ea4758267fb11bcd36c00fba46476b6bab781c3acf1d4de2f98b7debd06b",
    ("squared", 1, 203):
        "638b9bbc56ef332aeaa78b4ca359271084bb9c0f7a8315d02934928cc31ea385",
    ("squared", 1, 3200):
        "690f3913320811d7d4a4186e042edfaaa59350d35b4ba3ace53452d484f325ed",
    ("squared", 4, 30):
        "1fd39bb48979dff709a61e6bd4fbdabf47b21a8963ec5f8d5d81694df2dc5aaf",
    ("squared", 4, 203):
        "2abbc76c544e0d22d4c3f5b089160bed8bd6c073e77d4df4160af224041c4642",
    ("squared", 4, 3200):
        "2281e945218be8f84df88e1bf3961dbcb31f9b07dbf8155c104c163efc49c12c",
    ("cappedsquared", 1, 30):
        "df9fa52e9962eaef1b2b354de3f921b237068b51131f531838cc6c31b0deb940",
    ("cappedsquared", 1, 203):
        "c6788bbb450c2b8f757f51e078667db3be6f67ed634184885f1c7732841bde15",
    ("cappedsquared", 1, 3200):
        "36350d2f604766831656327962cb8f84be5e0e1e5c77dcfb4c0eef122fb81125",
    ("cappedsquared", 4, 30):
        "09051763a8a568f06ba58f2ce009365651cc7b9a9dfd917682888d6d1a33b8ef",
    ("cappedsquared", 4, 203):
        "62e7b965ccec94d45d167c6fa5b2ec66c085d2eea098be56b0559597634c30cb",
    ("cappedsquared", 4, 3200):
        "7c10be291ce97e8f0e34eba3ad7a5b35bd3d6c92bda2138b0230d5729d892e26",
    ("mcid", 1, 30):
        "0bd07d1d575d86b6932806797378b111cbf9c9288b9170757cf3b09b9c022f5b",
    ("mcid", 1, 203):
        "b2bdfefecc90da9efd252a28dacab18a4852edbc77c887de8c5ea595626e898b",
    ("mcid", 1, 3200):
        "fbe2e59feadb58cbb2e9b382d3128a30b1c0a96d757957528c844f5bc46f0258",
    ("mcid", 4, 30):
        "bac118fdd85207db676fad732948cb2d46945730f80c4d5092e774d5e27536bd",
    ("mcid", 4, 203):
        "bfbc753258a39ce29ae98b0f7d9dd34f3fb1251900b934a73a4e995e6b67d3df",
    ("mcid", 4, 3200):
        "77452a3c5107346dad2a05748ccbfe0e27f2f593f367153642ef58495a89c04d",
}

_ZEROONE_ROW_PINS = {
    30: "e8b7c5c6268e8186e95bac454f21e999dc486a30fa722a627df57d5753f413fd",
    203: "8f79a24f17bb0b7d45a33890390da947d3bc4c1b0d0e004b50dfa39714b3322e",
    3200: "f076c8bc78411a947fde35a86feb86f416c7123929e82da63e0d553df94a6da3",
}

_VALUES_PINS = {
    "check":
        "0bfa170414c4f3f7861a8cc490de8c950e9063b6d959e3abeaac801414a6add8",
    "check_median":
        "f0d3e75882acfde6a5f1381654312a9c4b7a107249c23f2c6f60e3642e28ce72",
    "squared":
        "6e1266aaa2b8f5559b16a28d39fe62b2efcc58b2f181f8082bb2628140a51396",
    "cappedsquared":
        "286d3db90acd88439e813171e5f410ff00f005e85d7d8518ea6fc013a907086d",
    "mcid":
        "9a41df5678d6818023424f9d13212f5e1fba76d213bdaaf2a98f3dc4b6799475",
    "zeroone":
        "2041c0993551a61e93dce782abc0c0afff188a8022430a6d863cdffe40aeccbb",
}


@pytest.mark.parametrize("name", [k for k in _PIN_LOSSES if k != "zeroone"])
@pytest.mark.parametrize("R", [1, 4])
@pytest.mark.parametrize("n", [30, 203, 3200])
def test_block_risk_sums_keep_their_bits(name, R, n):
    sums, values, B = _pin_block(name, R, n)
    assert _sha(sums(B)) == _SUMS_PINS[name, R, n]
    assert _sha(values(B)) == _BUFFER_PINS[name, R, n]


@pytest.mark.parametrize("n", [30, 203, 3200])
def test_zero_one_one_row_sums_keep_their_bits(n):
    # the spike-slab sampler's path: the kernel on the 2-D prepared arrays
    loss = ZeroOneLinearLoss()
    data, dim = _pin_data("zeroone", n, 0)
    sums = loss.kernel(loss.prepare(data))[0]
    thetas = np.random.default_rng([98, n]).normal(size=(5, dim))
    assert _sha([sums(t) for t in thetas]) == _ZEROONE_ROW_PINS[n]


@pytest.mark.parametrize("name", list(_PIN_LOSSES))
def test_one_row_values_keep_their_bits(name):
    data, dim = _pin_data(name, 203, 0)
    theta = np.random.default_rng([97]).normal(scale=1.5, size=dim)
    assert _sha(pointwise_losses(_PIN_LOSSES[name](), theta, data)) == \
        _VALUES_PINS[name]


# ---------------------------------------------------------------------------
# the 0-1 losses' (J, n) design


def _mask_protocol(name):
    """A bundled 0-1 protocol's generator and loss: mcid1 (6 splines), mcid2
    (a 4x4 tensor spline) and sparseclass (q = 50)."""
    if name == "mcid1":
        gen = MCID1()
        return gen, MCIDLoss(gen.default_basis(6))
    if name == "mcid2":
        gen = MCID2()
        return gen, MCIDLoss(gen.default_basis(4))
    return SparseClassSim(50, (0, 1), [2.0, -1.5], flip_rho=0.1), ZeroOneLinearLoss()


def _row_layout_mask(loss, data, b):
    """The mismatch mask of coefficient row b by the row-layout product
    F @ b, the reference the (J, n) kernels must match."""
    if isinstance(loss, MCIDLoss):
        return (data.x > design_matrix(loss.basis, data.z) @ b) != (data.y > 0)
    return (data.x @ b > 0.0) != (data.y > 0)


@pytest.mark.parametrize("name, n", [("mcid1", 100), ("mcid2", 1000),
                                     ("sparseclass", 200), ("sparseclass", 800)])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1), scale=st.floats(1e-3, 3.0))
def test_transposed_design_keeps_the_row_layout_masks(name, n, seed, scale):
    # rows around a fit of the data, so that many observations lie near the
    # decision boundary, on the three paths of the (J, n) kernel: one row
    # (a chain's start), a stacked R = 4 block and the 2-D arrays of the
    # spike-slab chain
    gen, loss = _mask_protocol(name)
    rng = np.random.default_rng(seed)
    data = [gen.sample(n, rng) for _ in range(4)]
    if isinstance(loss, MCIDLoss):
        center = least_squares_coefficients(
            design_matrix(loss.basis, data[0].z), data[0].x)
    else:
        center = gen.theta_star
    B = center + scale * rng.standard_normal((4, center.size))
    masks = np.array([_row_layout_mask(loss, d, b) for d, b in zip(data, B)])
    counts = masks.sum(axis=1).tolist()

    sums, _, values = loss.kernel(tuple(a[None] for a in loss.prepare(data[0])))
    assert np.array_equal(values(B[:1]), masks[:1])
    assert sums(B[:1]) == counts[:1]

    state = tuple(np.stack(parts) for parts in zip(*(loss.prepare(d) for d in data)))
    sums, _, values = loss.kernel(state)
    assert np.array_equal(values(B), masks)
    assert sums(B) == counts

    sums, _, values = loss.kernel(loss.prepare(data[0]))
    for b in B:
        mask = _row_layout_mask(loss, data[0], b)
        assert np.array_equal(values(b), mask)
        assert sums(b) == np.count_nonzero(mask)


def test_mask_losses_prepare_one_c_contiguous_transposed_design():
    # the (J, n) design, each column negated where its label's sign folds
    # in, and one threshold per observation
    rng = np.random.default_rng(23)
    spline = CubicBSpline((0.0, 1.0), 5)
    cls = Dataset.classification(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
    thr = Dataset.classification(rng.normal(size=40), rng.choice([-1, 1], 40),
                                 rng.uniform(0, 1, 40))
    reg = Dataset.regression(rng.uniform(0, 1, 40), rng.normal(size=40))
    for loss, data, dim, F, negate in (
            (ZeroOneLinearLoss(), cls, 3, cls.x, cls.y > 0),
            (MCIDLoss(spline), thr, 5, design_matrix(spline, thr.z), thr.y < 0)):
        Ft, c = loss.prepare(data)
        assert Ft.shape == (dim, 40) and Ft.flags.c_contiguous
        assert c.shape == (40,)
        assert np.array_equal(Ft, np.where(negate, -F.T, F.T))
    for loss in (CheckLoss(0.3, spline), SquaredLoss(spline),
                 CappedSquaredLoss(spline, cap=1.0)):
        assert loss.prepare(reg)[0].shape == (40, 5)


class _Ones:
    """A basis of one constant column, so that an MCID predictor is the
    coefficient itself."""

    def design(self, z):
        return np.ones((len(z), 1))


def _edge_predictors(x):
    """Predictors t at each edge of the comparison with x: x, its two
    neighbouring doubles, signed zeros and infinities."""
    with np.errstate(over="ignore"):
        near = [v for a in x
                for v in (a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf))]
    return near + [0.0, -0.0, np.inf, -np.inf]


_EDGE_X = [0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, np.finfo(float).max,
           -np.finfo(float).max]


@pytest.mark.parametrize("family", ["mcid", "zeroone"])
def test_folded_mask_is_the_label_comparison(family):
    # on a one-column design of ones the predictor of coefficient t is t
    # at every observation, so the kernel's mask, b @ (s f) > c, must equal
    # the label comparison's, compare(first, t) != positive, at each edge:
    # every x of _EDGE_X with each label, against t = x, x's neighbours,
    # +-0 and +-inf
    x = np.repeat(_EDGE_X, 2)
    if family == "mcid":
        y = np.tile([-1, 1], len(_EDGE_X))
        loss = MCIDLoss(_Ones())
        data = Dataset.classification(x, y, np.zeros(len(x)))

        def mismatch(t):
            return np.greater(x, t) != (y > 0)
    else:
        y = np.tile([0, 1], len(_EDGE_X))
        loss = ZeroOneLinearLoss()
        data = Dataset.classification(np.ones((len(x), 1)), y)

        def mismatch(t):
            return np.less(0.0, t) != (y > 0)
    values = loss.kernel(loss.prepare(data))[2]
    for t in _edge_predictors(_EDGE_X):
        assert np.array_equal(values(np.array([t])), mismatch(t)), t
    # a NaN predictor, which only an overflowing b'f gives, is the one
    # exception: it counts no mismatch, where the label comparison counts
    # one at the positive label
    with np.errstate(invalid="ignore"):
        assert not values(np.array([np.nan])).any()
        assert np.array_equal(mismatch(np.nan), y > 0)


def test_zero_one_margin_counts_a_change_as_the_sum_does():
    # planted standing predictors eta (edges, their neighbours, large values
    # and infinities) and finite changes p with eta + p exactly +-0 or
    # +-5e-324, or one double either side of -eta, under both labels: p >
    # margin must be the sum form fl(eta + p) > c at every observation
    loss = ZeroOneLinearLoss()
    tiny = 5e-324
    etas, changes = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for eta in _edge_predictors(_EDGE_X + [1.0, 0.1, -3e-300]):
            for p in (-eta, np.nextafter(-eta, -np.inf), np.nextafter(-eta, np.inf),
                      tiny - eta, -tiny - eta, 0.0, -0.0, tiny, -tiny, 1.0):
                if np.isfinite(p):
                    etas.append(eta)
                    changes.append(p)
    n = 2 * len(etas)
    y = np.repeat([0, 1], len(etas))
    prepared = loss.prepare(Dataset.classification(np.ones((n, 1)), y))
    Ft, c = prepared
    eta, change = np.tile(etas, 2), np.tile(changes, 2)

    by_sum, linear, sum_mask = loss.counter(prepared, (n,))
    with np.errstate(over="ignore"):
        np.add(eta, change, out=linear)
    want = by_sum()
    build, margin = loss.margin(prepared)
    assert build(eta) is margin
    below = c < 0
    with np.errstate(over="ignore"):
        assert margin[below].tobytes() == np.nextafter(-eta[below], -np.inf).tobytes()
    assert np.array_equal(margin[~below], -eta[~below])      # +0.0 == -0.0
    by_margin, moved, mask = loss.counter((Ft, margin), (n,))
    moved[:] = change
    assert by_margin() == want
    assert np.array_equal(mask, sum_mask)
    # built in place, as the chain rebuilds it, the margin keeps its bits
    again = margin.copy()
    margin[:] = eta
    assert build(margin).tobytes() == again.tobytes()
    # the plain difference c - eta rounds where c = -5e-324 (at eta = 1.5,
    # c - eta is -1.5, and p = -1.5 is no mismatch by it, where
    # fl(1.5 - 1.5) = 0 >= 0 is one), so these rows tell the two apart
    assert not np.array_equal(np.greater(change, np.subtract(c, eta)), sum_mask)


# flags /proc/cpuinfo lists for the instructions each OpenBLAS kernel needs
_CORETYPE_FLAGS = {"Prescott": {"pni"}, "Haswell": {"avx2", "fma"}}


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return {flag for line in fh if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def _mask_pin_misses() -> list:
    """The mcid sums and buffer pins, the zero-one row pins, the q50 sparse
    chain digests, the one-chain mcid2 lookahead digest (its 4-row calls
    are gemms) and the zero-one `RiskDiffSqrt.batch` digest whose
    recomputed hash differs from the recorded one."""
    import test_diagnostics
    import test_sampler
    misses = []
    for n, digest, _ in test_sampler._Q50_PINS:
        if _sha(test_sampler._q50_chain(n).draws) != digest:
            misses.append(f"q50 chain {n}")
    if _sha(test_sampler._mcid_lookahead_chain().draws) \
            != test_sampler._MCID_LOOKAHEAD_PIN[0]:
        misses.append("mcid2 lookahead chain")
    if test_diagnostics._risk_diff_batch_digest() \
            != test_diagnostics._RISK_DIFF_BATCH_PIN:
        misses.append("risk_diff_sqrt batch")
    for R in (1, 4):
        for n in (30, 203, 3200):
            sums, values, B = _pin_block("mcid", R, n)
            if _sha(sums(B)) != _SUMS_PINS["mcid", R, n]:
                misses.append(f"sums mcid {R} {n}")
            if _sha(values(B)) != _BUFFER_PINS["mcid", R, n]:
                misses.append(f"buffer mcid {R} {n}")
    loss = ZeroOneLinearLoss()
    for n in (30, 203, 3200):
        data, dim = _pin_data("zeroone", n, 0)
        sums = loss.kernel(loss.prepare(data))[0]
        thetas = np.random.default_rng([98, n]).normal(size=(5, dim))
        if _sha([sums(t) for t in thetas]) != _ZEROONE_ROW_PINS[n]:
            misses.append(f"zeroone row {n}")
    return misses


@pytest.mark.parametrize("coretype", list(_CORETYPE_FLAGS))
def test_mask_pins_hold_under_other_blas_kernels(coretype):
    # the (J, n) product's bits depend on the gemv kernel OpenBLAS picks for
    # the CPU; the masks, counts and pins of the 0-1 losses must not
    if not _CORETYPE_FLAGS[coretype] <= _cpu_flags():
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernel")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; import test_losses; "
            "print(json.dumps(test_losses._mask_pin_misses()))")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    out = subprocess.run([sys.executable, "-c", code, src, here], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == []
