"""Divergences (exact and Monte-Carlo), excess-loss moment estimates, the
annealed moment-bound check, and posterior concentration summaries.

Exact anchors: with constant features and squared error the pointwise loss
difference is deterministic, so the annealed transform has a closed form;
sharing one rng seed between estimators makes sample-level identities exact.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import ndtr

from gibbsinf import (AbsScalarDistance, AUCLoss, CubicBSpline, Dataset,
                      EmpiricalL2, EuclideanDistance, GibbsTarget, MCIDMeasure,
                      MHConfig, RiskDiffSqrt, SpikeSlab, SquaredLoss,
                      ZeroOneLinearLoss, chain_summary, concentration_slope,
                      credible_interval, design_matrix, mgf_condition_check,
                      posterior_mass_outside, posterior_mean, ss_mh_run)
from gibbsinf.errors import (OverflowGuardError, PreconditionError, ShapeError)
from gibbsinf.harness import AUCSim, MCID1, SparseClassSim
from gibbsinf.harness.config import build_components, load_config
from gibbsinf.harness.runner import fit_cell
from gibbsinf.losses import _CHUNK_FLOATS
from gibbsinf.sampler import hash64, make_rng
from test_losses import _CORETYPE_FLAGS, _cpu_flags


@dataclass(frozen=True)
class _MVEstimate:
    """Monte-Carlo mean of the excess loss l_theta - l_theta* and its
    standard error."""

    m_hat: float
    m_se: float


def _mv_estimate(loss, theta, theta_star, generator, n_draws, rng) -> _MVEstimate:
    """The mean excess loss over fresh draws from generator(rng, n): the
    oracle of the RiskDiffSqrt and mgf checks."""
    values = loss.kernel(loss.prepare(generator(rng, n_draws)))[2]
    diff = values(theta) - values(theta_star)
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


def _euclid_between_digest() -> str:
    """sha256 of `EuclideanDistance.between` on 2000 pairs of 2-vectors and
    500 pairs of 16-vectors."""
    rng = np.random.default_rng([67, 1])
    div = EuclideanDistance()
    got = [div.between(a, b) for dim, count in ((2, 2000), (16, 500))
           for a, b in rng.normal(0.0, 3.0, size=(count, 2, dim))]
    return hashlib.sha256(np.array(got).tobytes()).hexdigest()


_EUCLID_BETWEEN_PIN = \
    "058fcfa3677603827f6172c4cf23383161774469b4d7f71613cdf56d9abf142c"


@pytest.mark.parametrize("coretype", ["SkylakeX", "Haswell", "Prescott"])
def test_euclidean_between_holds_its_bits_under_other_blas_kernels(coretype):
    # `between` is the one-row batch, a norm along axis 1, which calls no
    # BLAS; the norm of a 1-D vector is BLAS's dot, whose bits depend on the
    # kernel OpenBLAS picks for the CPU
    assert _euclid_between_digest() == _EUCLID_BETWEEN_PIN
    flags = {**_CORETYPE_FLAGS,
             "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq",
                          "avx512vl"}}[coretype]
    if not flags <= _cpu_flags():
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernel")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
            "import test_diagnostics; "
            "print(json.dumps(test_diagnostics._euclid_between_digest()))")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    out = subprocess.run([sys.executable, "-c", code, src, here], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == _EUCLID_BETWEEN_PIN


def test_abs_scalar_between_and_batch():
    div = AbsScalarDistance()
    assert div.between(0.3, 0.75) == pytest.approx(0.45)
    assert np.allclose(div.batch(np.array([[0.1], [0.9]]), 0.5), [0.4, 0.4])
    # three draws of a two-coordinate parameter are not six scalar draws
    with pytest.raises(ShapeError):
        div.batch(np.ones((3, 2)), 0.5)


def test_empirical_l2_matches_direct_computation():
    basis = CubicBSpline((0.0, 3.0), 6)
    xs = np.linspace(0.0, 3.0, 101)
    div = EmpiricalL2(basis, xs)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=6), rng.normal(size=6)
    F = design_matrix(basis, xs)
    want = math.sqrt(np.mean((F @ (a - b)) ** 2))
    assert div.between(a, F @ b) == pytest.approx(want, abs=1e-12)
    # batch agrees with row-wise between
    mat = rng.normal(size=(5, 6))
    got = div.batch(mat, F @ b)
    want_rows = [div.between(row, F @ b) for row in mat]
    assert np.allclose(got, want_rows, atol=1e-12)


def test_empirical_l2_against_fixed_values():
    basis = CubicBSpline((0.0, 3.0), 6)
    xs = np.linspace(0.0, 3.0, 64)
    div = EmpiricalL2(basis, xs)
    rng = np.random.default_rng(9)
    a = rng.normal(size=6)
    values = design_matrix(basis, xs) @ a
    # against its own function values the distance is zero
    assert div.between(a, values) == pytest.approx(0.0, abs=1e-12)
    # shifting the reference by a constant c gives exactly c
    assert div.between(a, values + 0.7) == pytest.approx(0.7, abs=1e-12)
    mat = np.stack([a, a + np.array([0.3] * 6)])
    got = div.batch(mat, values)
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == pytest.approx(0.3, abs=1e-12)  # partition of unity
    with pytest.raises(ShapeError):
        div.between(a, values[:-1])
    # a target of the wrong length, even one that would broadcast
    for wrong in (values[:-1], [0.5]):
        with pytest.raises(ShapeError, match="design points"):
            div.batch(mat, wrong)


def _mcid1_batch_case():
    """The mcid1 protocol's divergence (256 grid points, six spline
    coefficients), its reference values, and 8000 fixed draws: the size of
    one full-length mcid1 row."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid1.json"))
    parts = build_components(cfg, cfg["nGrid"][0])
    div = parts.divergence
    draws = make_rng(hash64(61, 1)).normal(0.0, 6.0, size=(8000, 6))
    return div, draws, parts.generator.truth_fn(div.xs)


def test_empirical_l2_batch_matches_recorded_digest():
    # a sha256 of the divergences, recorded before batch worked in place
    div, draws, reference = _mcid1_batch_case()
    values = div.batch(draws, reference)
    assert values.shape == (8000,)
    assert hashlib.sha256(values.tobytes()).hexdigest() == \
        "e0e6ec703c196d92d65b2c3a39befb0e60b8eeafe5e794b82fd3758dac2303a3"


def test_empirical_l2_batch_allocates_one_grid_by_draws_buffer():
    # one (G, D) buffer, where the differences, their squares and the matmul
    # once each took a fresh one (a peak of 3.0 x G*D*8 bytes)
    div, draws, reference = _mcid1_batch_case()
    tracemalloc.start()
    try:
        div.batch(draws, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * div.xs.size * draws.shape[0] * 8


def _mcid2_config(grid_size: int, **mh) -> dict:
    """The mcid2 protocol with its divergence on grid_size^2 points."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "mcid2.json"))
    return {**cfg, "mh": {**cfg["mh"], **mh},
            "divergence": {"name": "empirical_l2", "gridSize": grid_size}}


_L2_CHUNK_FLOATS = 2 ** 21


def test_mcid2_row_divergence_at_grid_size_256_holds_one_chunk():
    # gridSize 256 is a 65,536-point grid: a full-length 16,000-draw row's
    # one (G, D) buffer would take 8.4 GB.  The row's batch and between
    # hold one chunk buffer of at most 2^21 floats and the output: the 47
    # kept draws of this short chain make two chunks of 23 and 24 draws,
    # so two buffers alive at once, or the one-buffer batch (24.6 MB),
    # would exceed the bound
    fit = fit_cell(_mcid2_config(256, steps=470, burnIn=0, thin=10), 1000,
                   hash64(67, 2))
    div, truth = fit.parts.divergence, fit.parts.truth
    draws = fit.chain.draws
    assert (div.xs.shape[0], draws.shape[0]) == (65_536, 47)
    theta_bar = posterior_mean(fit.chain)
    rng = make_rng(hash64(67, 3))
    tracemalloc.start()
    try:
        values = div.batch(draws, truth, rng)
        div.between(theta_bar, truth, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (47,)
    assert peak <= 1.25 * _L2_CHUNK_FLOATS * 8 + values.nbytes


# the mcid2 divergence at gridSize 64 has G = 4096 grid points, so a chunk
# runs from 256 to 512 draws (at most 2^21 floats): one-chunk batches of
# 257 and 511 draws, and the first two- and three-chunk batches and one
# draw more than each
_SIZE = _L2_CHUNK_FLOATS // (2 * 64 * 64)


@pytest.mark.parametrize("count", [_SIZE + 1, 2 * _SIZE - 1, 2 * _SIZE,
                                   2 * _SIZE + 1, 3 * _SIZE, 3 * _SIZE + 1])
def test_empirical_l2_chunks_give_the_one_buffer_bits(count):
    parts = build_components(_mcid2_config(64), 1000)
    div, truth = parts.divergence, parts.truth
    draws = make_rng(hash64(67, 4, count)).normal(0.0, 6.0, size=(count, 16))
    # the one (G, D) buffer that batch made before it worked in chunks
    diff = design_matrix(parts.loss.basis, div.xs) @ draws.T
    np.subtract(diff, truth[:, None], out=diff)
    want = np.sqrt(np.mean(np.multiply(diff, diff, out=diff), axis=0))
    assert div.batch(draws, truth).tobytes() == want.tobytes()


def test_between_needs_an_rng_for_a_monte_carlo_divergence():
    assert EuclideanDistance().between([0.0], [3.0]) == 3.0
    mc = RiskDiffSqrt(AUCLoss(), AUCSim(1.0).mc_sample, n_draws=256)
    with pytest.raises(PreconditionError):
        mc.between(0.6, 0.7)  # MC divergence without an rng
    got = mc.between(0.6, 0.7, make_rng(1))
    assert got >= 0.0
    for call in (lambda: mc.between(0.6, 0.6), lambda: mc.batch([[0.6]], 0.7)):
        with pytest.raises(PreconditionError, match="needs an rng"):
            call()


_DRAWS = np.random.default_rng(12).normal(0.5, 0.3, size=(6, 4))


@pytest.mark.parametrize("div, draws, ref", [
    (EuclideanDistance(), _DRAWS, [0.4, 0.6, 0.5, 0.3]),
    (AbsScalarDistance(), _DRAWS[:, :1], 0.55),
    (EmpiricalL2(CubicBSpline((0.0, 1.0), 4), np.linspace(0.0, 1.0, 17)),
     _DRAWS, np.sin(np.linspace(0.0, 1.0, 17))),
    (RiskDiffSqrt(ZeroOneLinearLoss(),
                  SparseClassSim(q=3, support=(0,), beta_values=(1.0,),
                                 flip_rho=0.1).mc_sample, n_draws=256),
     _DRAWS, [1.0, 0.8, 0.1, 0.0]),
], ids=["euclid", "abs", "empirical_l2", "risk_diff_sqrt"])
def test_batch_agrees_row_by_row_with_between(div, draws, ref):
    # each call draws its Monte-Carlo sample from its own rng on one seed
    got = div.batch(draws, ref, make_rng(7))
    want = [div.between(row, ref, make_rng(7)) for row in draws]
    assert got.shape == (len(draws),)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("call", [
    lambda div, ref, rng: div.between(np.zeros(5), ref, rng),
    lambda div, ref, rng: div.estimate(np.zeros(5), ref, rng),
    lambda div, ref, rng: div.batch(np.zeros((3, 5)), ref, rng),
    lambda div, ref, rng: div.batch(np.zeros(5), ref, rng),
], ids=["between", "estimate", "batch", "batch_one_row"])
def test_risk_diff_sqrt_rejects_a_draw_of_the_wrong_width(call):
    # the sparse_trend divergence compares (1+q) rows with q = 50; a draw of
    # another width is a ShapeError, as for every other divergence
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "sparse_trend.json"))
    parts = build_components(cfg, 200)
    ref = parts.generator.theta_star
    assert ref.shape == (51,)
    with pytest.raises(ShapeError, match="dimension"):
        call(parts.divergence, ref, make_rng(3))


# ---------------------------------------------------------------------------
# Monte-Carlo excess-risk estimates


def test_risk_diff_sqrt_short_circuits_on_equal_params():
    def explode(rng, n):
        raise AssertionError("sampler must not be called for equal params")

    mc = RiskDiffSqrt(AUCLoss(), explode, n_draws=128)
    out = mc.estimate(0.7, 0.7, make_rng(0))
    assert (out.value, out.se, out.n_draws) == (0.0, 0.0, 0)
    # coefficient vectors compare by value, whatever holds them
    out = mc.estimate([1.0, 2.0], np.array([1.0, 2.0]), make_rng(0))
    assert (out.value, out.se, out.n_draws) == (0.0, 0.0, 0)
    with pytest.raises(AssertionError, match="must not be called"):
        mc.estimate([1.0, 2.0], [1.0, 2.1], make_rng(0))


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


_SPARSE = SparseClassSim(50, (0, 1), [2.0, -1.5], flip_rho=0.1)
_ROWS = max(1, _CHUNK_FLOATS // 2048)   # draws per gemm at nDraws 2048


def _sparse_draws(count, seed):
    """`count` sparse_trend rows near theta*: some with alpha flipped, every
    tenth from the sixth on equal to theta*."""
    rng = np.random.default_rng([59, seed])
    draws = np.repeat(_SPARSE.theta_star[None], count, axis=0)
    draws[:, 1:] += rng.laplace(0.0, 0.5, (count, 50)) \
        * (rng.random((count, 50)) < 0.1)
    draws[::7, 0] = -1.0
    draws[5::10] = _SPARSE.theta_star
    draws[3::10, 1:3] *= 1.01
    return draws


def _risk_diff_batch_digest() -> str:
    """sha256 of the sparse_trend divergence (nDraws 2048) of 100 draws,
    recorded with the per-draw `values` batch; `test_losses._mask_pin_misses`
    reruns it under other BLAS kernels."""
    div = RiskDiffSqrt(ZeroOneLinearLoss(), _SPARSE.mc_sample, n_draws=2048)
    got = div.batch(_sparse_draws(100, 1), _SPARSE.theta_star,
                    make_rng(hash64(59, 2)))
    return hashlib.sha256(got.tobytes()).hexdigest()


_RISK_DIFF_BATCH_PIN = \
    "3cf8769d8201c1e30a10c96aaf961eb66ba2e927ecb806e26caf2751d781053b"


def test_risk_diff_sqrt_batch_matches_recorded_digest():
    assert _risk_diff_batch_digest() == _RISK_DIFF_BATCH_PIN


@pytest.mark.parametrize("count", sorted({1, _ROWS - 1, _ROWS, _ROWS + 1, 100}
                                         - {0}))
def test_zero_one_batch_is_the_per_draw_mean_bit_for_bit(count):
    # the chunked gemm's count differences over n against the mean of each
    # draw's 0/±1 loss differences on the same sample, clipped at zero; the
    # draws include theta* itself once there are six
    div = RiskDiffSqrt(ZeroOneLinearLoss(), _SPARSE.mc_sample, n_draws=2048)
    draws, ref = _sparse_draws(count, 2), _SPARSE.theta_star
    got = div.batch(draws, ref, make_rng(hash64(59, 3)))
    loss = ZeroOneLinearLoss()
    sample = _SPARSE.mc_sample(make_rng(hash64(59, 3)), 2048)
    values = loss.kernel(loss.prepare(sample))[2]
    excess = [float(np.mean(values(row) - values(ref))) for row in draws]
    want = np.array([math.sqrt(d) if d > 0 else 0.0 for d in excess])
    assert got.tobytes() == want.tobytes()
    assert div.between(draws[-1], ref, make_rng(hash64(59, 3))) == want[-1]
    if count > 5:
        assert got[5] == 0.0


def test_zero_one_batch_holds_one_chunk_of_the_product():
    # 1000 draws at nDraws 2048: the whole (1000, 2048) product would take
    # 16 MB, where the sample and its transposed design take about 1.7 MB
    div = RiskDiffSqrt(ZeroOneLinearLoss(), _SPARSE.mc_sample, n_draws=2048)
    draws = _sparse_draws(1000, 4)
    tracemalloc.start()
    try:
        div.batch(draws, _SPARSE.theta_star, make_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 1000 * 2048 * 8


def test_zero_one_batch_needs_an_rng():
    div = RiskDiffSqrt(ZeroOneLinearLoss(), _SPARSE.mc_sample, n_draws=64)
    for call in (lambda: div.batch(_sparse_draws(3, 5), _SPARSE.theta_star),
                 lambda: div.between(_SPARSE.theta_star, _SPARSE.theta_star)):
        with pytest.raises(PreconditionError, match="needs an rng"):
            call()


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


@pytest.mark.parametrize("omega, r", [
    (math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf),
    (1.0, 0.0), (1.0, -2.0)])
def test_mgf_check_rejects_a_nonpositive_or_nonfinite_omega_or_r(omega, r):
    # a NaN omega gave a report of NaN K-hats, and r went unchecked
    gen = lambda rng, n: _const_regression(n)
    with pytest.raises(PreconditionError, match="omega and r"):
        mgf_condition_check(
            loss=SquaredLoss(None), theta_grid=[np.array([1.0])],
            theta_star=np.array([0.5]), omega=omega, div=AbsScalarDistance(),
            r=r, generator=gen, n_draws=256, rng=make_rng(0))


def test_mgf_check_names_a_grid_point_whose_moment_underflows():
    # a grid point far worse than theta*: exp(-omega * excess) is 0 on every
    # draw, and its K-hat, the log of that mean, used to raise "math domain
    # error" from math.log(0)
    gen = lambda rng, n: _const_regression(n)
    with pytest.raises(OverflowGuardError, match=r"underflows.*\[1000\.0\]"):
        mgf_condition_check(
            loss=SquaredLoss(None), theta_grid=[np.array([1000.0])],
            theta_star=np.array([0.5]), omega=1.0, div=AbsScalarDistance(),
            r=2.0, generator=gen, n_draws=256, rng=make_rng(0))


# ---------------------------------------------------------------------------
# posterior concentration summaries


def test_posterior_mass_outside_counts_exceedances():
    draws = np.array([[0.0], [1.0], [2.0], [3.0]])
    frac = posterior_mass_outside(draws, AbsScalarDistance(), 0.0, 1.5)
    assert frac == pytest.approx(0.5)
    with pytest.raises(PreconditionError):
        posterior_mass_outside(draws, AbsScalarDistance(), 0.0, 0.0)


def test_posterior_mass_outside_rejects_a_nan_radius():
    # every distance fails `> nan`, which counted no draw outside the ball
    draws = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(PreconditionError, match="radius"):
        posterior_mass_outside(draws, AbsScalarDistance(), 0.0, math.nan)


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
    assert posterior_mass_outside(chain.draws, euclid, theta_star, r) == \
        np.mean(values > r)
    div = RiskDiffSqrt(loss, gen.mc_sample, n_draws=256)
    values = div.batch(chain.draws, theta_star, make_rng(hash64(41, 3)))
    r = float(np.median(values))
    assert posterior_mass_outside(chain.draws, div, theta_star, r,
                                  make_rng(hash64(41, 3))) == np.mean(values > r)
    assert posterior_mean(chain)[0] == chain.draws[:, 0].mean()
    assert chain_summary(chain)["intervals"][0] == \
        list(credible_interval(chain.draws[:, 0]))


def test_concentration_slope_recovers_exact_power_law():
    ns = [100, 400, 1600, 6400]
    pairs = [(n, 2.0 * n ** -0.5) for n in ns]
    fit = concentration_slope(pairs)
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-10)
    assert fit.pairs == tuple((float(n), float(r)) for n, r in pairs)


def test_concentration_slope_validation():
    with pytest.raises(PreconditionError):
        concentration_slope([(100, 0.1), (100, 0.2), (200, 0.05)])
    with pytest.raises(PreconditionError):
        concentration_slope([(100, 0.1), (200, -0.2), (400, 0.05)])
    # a non-positive or non-finite n, or a non-finite radius
    for bad in ((0, 0.2), (-5, 0.2), (math.nan, 0.2), (math.inf, 0.2),
                (200, math.nan), (200, math.inf)):
        with pytest.raises(PreconditionError, match="positive and finite"):
            concentration_slope([(100, 0.1), bad, (400, 0.05)])
    # a zero radius is skipped, and the sizes left must still number 3
    pairs = [(100, 0.1), (200, 0.0), (400, 0.05), (800, 0.03)]
    assert concentration_slope(pairs) == concentration_slope(
        [p for p in pairs if p[1] > 0])
    with pytest.raises(PreconditionError, match="3 distinct"):
        concentration_slope(pairs[:3])
