"""Divergences (exact and Monte-Carlo), excess-loss moment estimates, the
annealed moment-bound check, and posterior concentration summaries.

Exact anchors: with constant features and squared error the pointwise loss
difference is deterministic, so the annealed transform has a closed form;
sharing one rng seed between estimators makes sample-level identities exact.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import ndtr

from gibbsinf import (AbsScalarDistance, AUCLoss, CubicBSpline, Dataset,
                      EmpiricalL2, EuclideanDistance, FunctionParam,
                      GibbsTarget, MCIDMeasure, MHConfig, RiskDiffSqrt,
                      SpikeSlab, SquaredLoss, ZeroOneLinearLoss,
                      concentration_slope, credible_interval, design_matrix,
                      divergence_value, mgf_condition_check,
                      posterior_mass_outside, posterior_mean, ss_mh_run,
                      structurally_equal)
from gibbsinf.errors import (OverflowGuardError, PreconditionError, ShapeError)
from gibbsinf.harness import AUCSim, MCID1, SparseClassSim
from gibbsinf.sampler import hash64, make_rng


@dataclass(frozen=True)
class _MVEstimate:
    """Monte-Carlo mean of the excess loss l_theta - l_theta* and its
    standard error."""

    m_hat: float
    m_se: float


def _mv_estimate(loss, theta, theta_star, generator, n_draws, rng) -> _MVEstimate:
    """The mean excess loss over fresh draws from generator(rng, n): the
    oracle of the RiskDiffSqrt and mgf checks."""
    prepared = loss.prepare(generator(rng, n_draws))
    diff = (loss.per_observation(prepared, theta)
            - loss.per_observation(prepared, theta_star))
    return _MVEstimate(m_hat=float(diff.mean()),
                       m_se=math.sqrt(float(diff.var(ddof=1)) / diff.size))


def _const_regression(n, rng=None, values=0.0):
    return Dataset.regression(np.ones((n, 1)), np.full(n, float(values)))


# ---------------------------------------------------------------------------
# exact divergences


def test_euclidean_between_and_batch():
    div = EuclideanDistance()
    assert div.between([1.0, 2.0], [4.0, 6.0]) == pytest.approx(5.0)
    mat = np.array([[1.0, 2.0], [4.0, 6.0], [4.0, 2.0]])
    assert np.allclose(div.batch(mat, [1.0, 2.0]), [0.0, 5.0, 3.0])
    with pytest.raises(ShapeError):
        div.between([1.0], [1.0, 2.0])


def test_abs_scalar_between_and_batch():
    div = AbsScalarDistance()
    assert div.between(0.3, 0.75) == pytest.approx(0.45)
    assert np.allclose(div.batch(np.array([[0.1], [0.9]]), 0.5), [0.4, 0.4])


def test_empirical_l2_matches_direct_computation():
    basis = CubicBSpline((0.0, 3.0), 6)
    xs = np.linspace(0.0, 3.0, 101)
    div = EmpiricalL2(basis, xs)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=6), rng.normal(size=6)
    F = design_matrix(basis, xs)
    want = math.sqrt(np.mean((F @ (a - b)) ** 2))
    assert div.between(a, b) == pytest.approx(want, abs=1e-12)
    # batch agrees with row-wise between
    mat = rng.normal(size=(5, 6))
    got = div.batch(mat, b)
    want_rows = [div.between(row, b) for row in mat]
    assert np.allclose(got, want_rows, atol=1e-12)


def test_empirical_l2_against_fixed_values():
    basis = CubicBSpline((0.0, 3.0), 6)
    xs = np.linspace(0.0, 3.0, 64)
    div = EmpiricalL2(basis, xs)
    rng = np.random.default_rng(9)
    a = rng.normal(size=6)
    values = design_matrix(basis, xs) @ a
    # against its own function values the distance is zero
    assert div.between_values(a, values) == pytest.approx(0.0, abs=1e-12)
    # shifting the reference by a constant c gives exactly c
    assert div.between_values(a, values + 0.7) == pytest.approx(0.7, abs=1e-12)
    mat = np.stack([a, a + np.array([0.3] * 6)])
    got = div.batch_values(mat, values)
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == pytest.approx(0.3, abs=1e-12)  # partition of unity
    with pytest.raises(ShapeError):
        div.between_values(a, values[:-1])


def test_function_param_accepted_by_empirical_l2():
    basis = CubicBSpline((0.0, 3.0), 6)
    xs = np.linspace(0.0, 3.0, 32)
    div = EmpiricalL2(basis, xs)
    a = np.arange(6.0)
    fp = FunctionParam(basis, a)
    assert div.between(fp, a) == pytest.approx(0.0, abs=1e-14)


def test_structurally_equal_semantics():
    assert structurally_equal([1.0, 2.0], np.array([1.0, 2.0]))
    assert not structurally_equal([1.0, 2.0], [1.0, 2.1])
    basis = CubicBSpline((0.0, 1.0), 4)
    fa = FunctionParam(basis, np.zeros(4))
    fb = FunctionParam(basis, np.zeros(4))
    assert structurally_equal(fa, fb)
    assert not structurally_equal(fa, np.zeros(4))
    assert not structurally_equal(lambda z: z, lambda z: z)


def test_divergence_value_dispatch():
    assert divergence_value(EuclideanDistance(), [0.0], [3.0]) == 3.0
    mc = RiskDiffSqrt(AUCLoss(), AUCSim(1.0).mc_sample, n_draws=256)
    with pytest.raises(PreconditionError):
        divergence_value(mc, 0.6, 0.7)  # MC divergence without an rng
    got = divergence_value(mc, 0.6, 0.7, make_rng(1))
    assert got >= 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo excess-risk estimates


def test_risk_diff_sqrt_short_circuits_on_equal_params():
    def explode(rng, n):
        raise AssertionError("sampler must not be called for equal params")

    mc = RiskDiffSqrt(AUCLoss(), explode, n_draws=128)
    out = mc.estimate(0.7, 0.7, make_rng(0))
    assert (out.value, out.se, out.n_draws) == (0.0, 0.0, 0)


def test_risk_diff_sqrt_squares_to_mean_excess():
    # same seed -> same fresh sample -> value^2 equals the mv mean exactly
    gen = AUCSim(1.0)
    theta_star = float(ndtr(1.0 / math.sqrt(2.0)))
    theta = 0.8
    seed = hash64(31, 1)
    mc = RiskDiffSqrt(AUCLoss(), gen.mc_sample, n_draws=4096)
    est = mc.estimate(theta, theta_star, make_rng(seed))
    mv = _mv_estimate(AUCLoss(), theta, theta_star, gen.mc_sample, 4096,
                     make_rng(seed))
    assert mv.m_hat > 0
    assert est.value ** 2 == pytest.approx(mv.m_hat, abs=1e-14)
    assert est.se == pytest.approx(mv.m_se / (2 * est.value), abs=1e-14)
    # and the mv mean is itself near the exact excess risk within 3 se
    exact = (theta - theta_star) ** 2  # exact quadratic excess for this loss
    assert abs(mv.m_hat - exact) < 3 * mv.m_se


def test_mcid_measure_constant_shift_oracle():
    # thresholds mu(z) and mu(z) + delta disagree exactly when
    # 0 < X - mu(Z) <= delta, and X - mu(Z) is standard normal:
    # the disagreement measure is Phi(delta) - 1/2
    gen = MCID1()
    delta = 0.8
    div = MCIDMeasure(gen.sample_zx, n_draws=200_000)
    est = div.estimate(gen.mean_x, lambda z: gen.mean_x(z) + delta,
                       make_rng(hash64(31, 2)))
    want = float(ndtr(delta)) - 0.5
    assert abs(est.value - want) < 4 * est.se
    assert abs(est.value - want) < 0.005


def test_mcid_measure_short_circuit_and_validation():
    gen = MCID1()
    div = MCIDMeasure(gen.sample_zx, n_draws=128)
    f = gen.mean_x
    out = div.estimate(f, f, make_rng(0))
    # the identical callable object is structural equality
    assert (out.value, out.n_draws) == (0.0, 0)
    # distinct callables are never assumed equal, even if pointwise identical
    out2 = div.estimate(gen.mean_x, gen.mean_x, make_rng(0))
    assert out2.n_draws == 128
    assert out2.value == 0.0
    with pytest.raises(PreconditionError):
        MCIDMeasure(gen.sample_zx, n_draws=1)


# ---------------------------------------------------------------------------
# annealed moment-bound check


def test_mgf_check_exact_for_deterministic_excess():
    # constant features, y = 0: pointwise loss is theta^2, so the excess is
    # the same number at every observation and the annealed transform must
    # return it exactly
    loss = SquaredLoss(None)
    theta_star = np.array([0.5])
    grid = [np.array([1.0]), np.array([2.0])]
    omega = 0.7
    out = mgf_condition_check(
        loss=loss, theta_grid=grid, theta_star=theta_star, omega=omega,
        div=AbsScalarDistance(), r=2.0,
        generator=lambda rng, n: _const_regression(n), n_draws=512,
        rng=make_rng(0))
    for point, theta in zip(out.points, grid):
        excess = float(theta[0] ** 2 - 0.25)
        d = abs(float(theta[0]) - 0.5)
        assert point.mean_exp == pytest.approx(
            math.exp(-omega * excess), rel=1e-12)
        assert point.annealed == pytest.approx(excess, rel=1e-12)
        assert point.d == pytest.approx(d, abs=1e-14)
        assert point.d_pow_r == pytest.approx(d ** 2, rel=1e-14)
        assert point.k_hat == pytest.approx(excess / d ** 2, rel=1e-12)
        assert point.mean_exp_se == pytest.approx(0.0, abs=1e-12)
    assert out.min_k_hat == pytest.approx(min(
        p.k_hat for p in out.points), abs=0.0)


def test_mgf_check_small_rate_limit_is_mean_excess():
    # as the rate tends to zero, -log E exp(-omega D) / omega -> E D, so
    # k_hat approaches the mv mean over the same sample divided by d^r
    gen = AUCSim(1.0)
    theta_star = float(ndtr(1.0 / math.sqrt(2.0)))
    theta = theta_star + 0.1
    seed = hash64(31, 3)
    omega = 1e-6
    out = mgf_condition_check(
        loss=AUCLoss(), theta_grid=[theta], theta_star=theta_star,
        omega=omega, div=AbsScalarDistance(), r=2.0,
        generator=gen.mc_sample, n_draws=10_000, rng=make_rng(seed))
    mv = _mv_estimate(AUCLoss(), theta, theta_star, gen.mc_sample, 10_000,
                     make_rng(seed))
    assert out.points[0].k_hat == pytest.approx(mv.m_hat / 0.1 ** 2,
                                                abs=1e-4)


def test_mgf_check_annealed_internal_identity():
    gen = AUCSim(1.0)
    theta_star = float(ndtr(1.0 / math.sqrt(2.0)))
    out = mgf_condition_check(
        loss=AUCLoss(), theta_grid=[theta_star + 0.15], theta_star=theta_star,
        omega=2.0, div=AbsScalarDistance(), r=2.0,
        generator=gen.mc_sample, n_draws=2_000, rng=make_rng(hash64(31, 4)))
    p = out.points[0]
    assert p.annealed == pytest.approx(-math.log(p.mean_exp) / 2.0, abs=1e-12)
    assert p.k_hat == pytest.approx(p.annealed / p.d_pow_r, abs=1e-12)
    assert out.min_k_hat_lower3 == pytest.approx(p.k_hat - 3 * p.k_hat_se,
                                                 abs=1e-12)
    js = out.to_json()
    assert js["min_k_hat"] == out.min_k_hat
    assert js["points"][0]["d"] == p.d


def test_mgf_check_guards():
    loss = SquaredLoss(None)
    gen = lambda rng, n: _const_regression(n)
    kw = dict(loss=loss, theta_star=np.array([0.5]), div=AbsScalarDistance(),
              r=2.0, generator=gen, n_draws=256, rng=make_rng(0))
    with pytest.raises(PreconditionError):
        mgf_condition_check(theta_grid=[np.array([1.0])], omega=0.0, **kw)
    with pytest.raises(PreconditionError):
        mgf_condition_check(theta_grid=[np.array([0.5])], omega=1.0, **kw)
    with pytest.raises(PreconditionError):
        mgf_condition_check(theta_grid=[], omega=1.0, **kw)
    # theta* far worse than the grid point: exp(omega * gap) overflows
    with pytest.raises(OverflowGuardError):
        mgf_condition_check(
            loss=loss, theta_grid=[np.array([0.0])],
            theta_star=np.array([1000.0]), omega=1.0,
            div=AbsScalarDistance(), r=2.0, generator=gen, n_draws=256,
            rng=make_rng(0))


# ---------------------------------------------------------------------------
# posterior concentration summaries


def test_posterior_mass_outside_counts_exceedances():
    draws = np.array([[0.0], [1.0], [2.0], [3.0]])
    frac = posterior_mass_outside(draws, AbsScalarDistance(), 0.0, 1.5)
    assert frac == pytest.approx(0.5)
    with pytest.raises(PreconditionError):
        posterior_mass_outside(draws, AbsScalarDistance(), 0.0, 0.0)


def test_sparse_chain_draws_are_dense_alpha_beta_rows():
    # a spike-slab draw is the (1+q) row (alpha, beta): the functionals see
    # the same coordinates as the truth theta* = (1, beta*), and coordinate 0
    # is alpha for the mean and the intervals alike
    gen = SparseClassSim(q=5, support=(0, 1), beta_values=(2.0, -1.5),
                         flip_rho=0.1)
    loss = ZeroOneLinearLoss()
    data = gen.sample(100, make_rng(hash64(41, 1)))
    target = GibbsTarget(loss, SpikeSlab(q=5, a=1.0, c=1.0), data, 1.0)
    chain = ss_mh_run(target, MHConfig(steps=2_000, burn_in=500, thin=5,
                                       seed=hash64(41, 2)))
    theta_star = gen.theta_star
    euclid = EuclideanDistance()
    values = euclid.batch(chain.draws, theta_star)
    r = float(np.median(values))
    assert posterior_mass_outside(chain, euclid, theta_star, r) == \
        np.mean(values > r)
    div = RiskDiffSqrt(loss, gen.mc_sample, n_draws=256)
    values = div.batch(chain.draws, theta_star, make_rng(hash64(41, 3)))
    r = float(np.median(values))
    assert posterior_mass_outside(chain, div, theta_star, r,
                                  make_rng(hash64(41, 3))) == np.mean(values > r)
    assert posterior_mean(chain)[0] == chain.draws[:, 0].mean()
    assert credible_interval(chain, 0) == credible_interval(chain.draws[:, 0])


def test_concentration_slope_recovers_exact_power_law():
    ns = [100, 400, 1600, 6400]
    pairs = [(n, 2.0 * n ** -0.5) for n in ns]
    fit = concentration_slope(pairs)
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-10)
    assert fit.predicted(900) == pytest.approx(2.0 / 30.0, rel=1e-10)
    assert fit.pairs == tuple((float(n), float(r)) for n, r in pairs)


def test_concentration_slope_validation():
    with pytest.raises(PreconditionError):
        concentration_slope([(100, 0.1), (100, 0.2), (200, 0.05)])
    with pytest.raises(PreconditionError):
        concentration_slope([(100, 0.1), (200, -0.2), (400, 0.05)])
