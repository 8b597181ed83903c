"""End-to-end acceptance battery.

Each check runs one pre-registered protocol at a fixed base seed and prints
a single line with the measured value and its target band before asserting.
Run with `pytest tests/test_acceptance.py -v -s` to see all sixteen lines.

The battery is slower than the unit suite (a few minutes single-core): the
replication checks run full Metropolis chains per replication.  Checks 1, 2
and 6 run on `default_workers()` processes: a row is a pure function of
(config, rowSeed), so the worker count changes no value.  Check 11 compares
serial with parallel output.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from gibbsinf import (AbsScalarDistance, AffineBasis, AUCLoss,
                      CappedSquaredLoss, CheckLoss, CubicBSpline, Dataset,
                      EuclideanDistance, GaussianIID, GibbsTarget,
                      MHConfig, RiskDiffSqrt, SpikeSlab, SquaredLoss,
                      ZeroOneLinearLoss, auc_point_estimate, credible_interval,
                      mgf_condition_check, mh_run, mh_run_block, mh_start,
                      pointwise_losses, ss_mh_run)
from gibbsinf.harness import (AUCSim, QuantileRegSim, SparseClassSim,
                              holdout_misclassification, row_seed,
                              run_experiment, write_outputs)
from gibbsinf.harness.runner import _fit_cells
from gibbsinf.rates import AUCDataDriven, HeavyTailRate, auc_covariances
from gibbsinf.sampler import (effective_sample_size, hash64, make_rng,
                              posterior_mean)

BASE_SEED = 1


def _report(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"\n[{index:2d}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# 1-2: threshold-function replication studies


def _threshold_config(generator, num_basis, mh, n, replications):
    return {
        "schema": 1,
        "generator": {"name": generator},
        "loss": {"name": "mcid", "numBasis": num_basis},
        "prior": {"name": "gaussian", "mean": 0.0, "sd": 6.0},
        "rate": {"name": "fixed", "omega": 1.0},
        "mh": mh,
        "divergence": {"name": "empirical_l2"},
        "nGrid": [n],
        "replications": replications,
        "baseSeed": BASE_SEED,
    }


def _a01_config():
    return _threshold_config(
        "mcid1", 6,
        {"steps": 50_000, "burnIn": 10_000, "thin": 5, "proposalScale": 0.3},
        n=100, replications=50)


def test_a01_threshold_misclassification_small_n(capsys):
    """Known failure: the estimate reads 0.1936 against the 0.19 bound.

    The cause is holdout noise, not mixing.  Chains 5x longer move the value
    only to 0.1950.  Each replication scores its plug-in on 100 holdout
    points, which adds about 0.0055 of noise to the 50-replication mean, and
    0.1936 sits about 1.2 of those above the population value: on a fixed
    200,000-point holdout the same 50 plug-ins misclassify 0.1878 on
    average (SE 0.0039 over replications), inside the band, and the true
    threshold reads 0.1317 against the Bayes rate 0.1304
    (`test_a01_population_misclassification_on_a_large_holdout`).  The
    protocol, band and seed stay as registered.
    """
    res = run_experiment(_a01_config(), workers=None)
    est = res.summary["misclassEstMean"]
    tru = res.summary["misclassTruthMean"]
    ok = 0.13 <= est <= 0.19 and 0.10 <= tru <= 0.16
    _report(capsys, 1, ok,
            f"estimate-rate {est:.4f} in [0.13,0.19]; "
            f"truth-rate {tru:.4f} in [0.10,0.16]")
    assert res.summary["errorCount"] == 0
    assert 0.13 <= est <= 0.19
    assert 0.10 <= tru <= 0.16


def test_a01_population_misclassification_on_a_large_holdout():
    # a01's 50 chains, fitted as one block, and their posterior-mean
    # plug-ins scored on one 200,000-point holdout instead of 100 points each
    cfg = _a01_config()
    seeds = [row_seed(BASE_SEED, 0, j) for j in range(50)]
    fits, _ = _fit_cells(cfg, 100, seeds)
    assert not any(isinstance(f, Exception) for f in fits)
    generator = fits[0].parts.generator
    holdout = generator.sample(
        200_000, make_rng(hash64(BASE_SEED, 1, 200_000)))
    # one design, shared by all 50 plug-ins
    design = fits[0].parts.loss.basis.design(holdout.z)
    rates = [holdout_misclassification(
        lambda z, b=posterior_mean(f.chain): design @ b, holdout) for f in fits]
    est = float(np.mean(rates))
    assert 0.13 <= est <= 0.19
    truth = holdout_misclassification(generator.truth_fn, holdout)
    assert abs(truth - generator.bayes_rate()) <= 0.005


def test_a02_threshold_misclassification_tensor(capsys):
    cfg = _threshold_config(
        "mcid2", 4,
        {"steps": 100_000, "burnIn": 20_000, "thin": 5,
         "proposalScale": 0.05, "init": "pilot"},
        n=1000, replications=20)
    res = run_experiment(cfg, workers=None)
    est = res.summary["misclassEstMean"]
    tru = res.summary["misclassTruthMean"]
    ok = 0.21 <= est <= 0.27 and 0.20 <= tru <= 0.26
    _report(capsys, 2, ok,
            f"estimate-rate {est:.4f} in [0.21,0.27]; "
            f"truth-rate {tru:.4f} in [0.20,0.26]")
    assert res.summary["errorCount"] == 0
    assert 0.21 <= est <= 0.27
    assert 0.20 <= tru <= 0.26


# ---------------------------------------------------------------------------
# 3: conjugate closed form


def test_a03_conjugate_gaussian_chain(capsys):
    # rate 1/2 makes the risk exponent -(1/2) sum (y - theta)^2, the N(theta,1)
    # log-likelihood, so with a N(0, 100) prior the posterior is exactly
    # N(sum y / (n + 0.01), 1 / (n + 0.01))
    rng = make_rng(hash64(BASE_SEED, 3))
    y = 1.0 + rng.standard_normal(50)
    data = Dataset.regression(np.ones((50, 1)), y)
    target = GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 10.0, 1),
                         data, 0.5)
    precision = 50 + 0.01
    mean_star = y.sum() / precision
    sd_star = precision ** -0.5
    chain = mh_run(target, MHConfig(steps=110_000, burn_in=10_000, thin=5,
                                    proposal_scale=0.3,
                                    seed=hash64(BASE_SEED, 3, 1)))
    x = chain.draws[:, 0]
    assert x.shape == (20_000,)
    ess = effective_sample_size(x)
    mean_err = abs(x.mean() - mean_star)
    mean_tol = 3 * sd_star / math.sqrt(ess)
    sd_err = abs(x.std(ddof=1) - sd_star)
    sd_tol = 3 * sd_star / math.sqrt(2 * ess)
    ok = mean_err < mean_tol and sd_err < sd_tol
    _report(capsys, 3, ok,
            f"mean err {mean_err:.2e} < {mean_tol:.2e}; "
            f"sd err {sd_err:.2e} < {sd_tol:.2e} (ess {ess:.0f})")
    assert mean_err < mean_tol
    assert sd_err < sd_tol


# ---------------------------------------------------------------------------
# 4: concordance estimate is the rank statistic


def test_a04_concordance_estimate_matches_rank_statistic(capsys):
    rng = make_rng(hash64(BASE_SEED, 4))
    exact = 0
    trials = 1000
    for _ in range(trials):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        s0 = rng.standard_normal(m)
        s1 = rng.standard_normal(n) + rng.normal()
        cov = auc_covariances(s0, s1)
        u = float(stats.mannwhitneyu(s1, s0).statistic)
        exact += (cov.theta_hat == u / (m * n))
    ok = exact == trials
    _report(capsys, 4, ok, f"exact equality on {exact}/{trials} datasets")
    assert exact == trials


# ---------------------------------------------------------------------------
# 5: interval coverage for the concordance parameter


def test_a05_ranking_interval_coverage(capsys):
    gen = AUCSim(1.0)
    theta_star = float(ndtr(1.0 / math.sqrt(2.0)))
    sched = AUCDataDriven(1.0)  # constant multiplier 1
    reps = 200
    # one loss and one prior object for every replication, so the 200 chains
    # run as one lockstep block, each bit-identical to its own mh_run
    loss, prior = AUCLoss(), GaussianIID(0.5, 10.0, 1)
    starts = []
    for rep in range(reps):
        rs = hash64(BASE_SEED, 0, rep)
        data = gen.sample(200, make_rng(hash64(rs, 1)))  # m = n = 200
        omega = sched.resolve(data.scores0, data.scores1)
        target = GibbsTarget(loss, prior, data, omega)
        starts.append(mh_start(target, MHConfig(20_000, 5_000, 5,
                                                proposal_scale=0.05,
                                                seed=hash64(rs, 2))))
    covered = 0
    for chain in mh_run_block(starts):
        lo, hi = credible_interval(chain.draws[:, 0], level=0.95)
        covered += (lo <= theta_star <= hi)
    coverage = covered / reps
    ok = 0.88 <= coverage <= 0.99
    _report(capsys, 5, ok,
            f"coverage {coverage:.3f} ({covered}/{reps}) in [0.88,0.99]")
    assert 0.88 <= coverage <= 0.99


# ---------------------------------------------------------------------------
# 6: root-n contraction slope


def test_a06_root_n_contraction_slope(capsys):
    cfg = {
        "schema": 1,
        "generator": {"name": "quantilereg", "tau": 0.5,
                      "betaStar": [1.0, 2.0], "noiseSd": 1.0},
        "loss": {"name": "check", "tau": 0.5},
        "prior": {"name": "gaussian", "mean": 0.0, "sd": 10.0},
        "rate": {"name": "fixed", "omega": 1.0},
        "mh": {"steps": 30_000, "burnIn": 5_000, "thin": 5,
               "proposalScale": {"c": 2.0, "gamma": 0.5}},
        "divergence": {"name": "euclid"},
        "nGrid": [200, 800, 3200],
        "replications": 20,
        "baseSeed": BASE_SEED,
    }
    res = run_experiment(cfg, workers=None)
    slope = res.summary["rateFit"]["slope"]
    ok = -0.65 <= slope <= -0.35
    _report(capsys, 6, ok, f"log-log radius slope {slope:.4f} in [-0.65,-0.35]")
    assert res.summary["errorCount"] == 0
    assert -0.65 <= slope <= -0.35


# ---------------------------------------------------------------------------
# 7: tail-adaptive schedule identities and capped-loss dominance


def test_a07_tail_schedule_identities(capsys):
    sched = HeavyTailRate(s=4.0)
    worst = 0.0
    for n in (100, 1_000, 10_000):
        cap = sched.cap_at(n)
        rate = sched.rate_at(n)
        eps = sched.epsilon_at(n)
        worst = max(
            worst,
            abs(cap / float(n) - 1.0),
            abs(rate / n ** -0.5 - 1.0),
            abs(eps / (math.sqrt(math.log(n)) * n ** -0.25) - 1.0),
            abs(n * rate * eps ** 2 / math.log(n) - 1.0),
        )
    rng = make_rng(hash64(BASE_SEED, 7))
    resid = 3.0 * rng.standard_t(3, 100_000)
    data = Dataset.regression(np.ones((100_000, 1)), resid)
    theta = np.array([0.0])
    cap = 2.0
    capped = pointwise_losses(CappedSquaredLoss(None, cap), theta, data)
    plain = pointwise_losses(SquaredLoss(None), theta, data)
    dominated = bool(np.all(capped <= plain))
    small = plain <= cap
    agrees = bool(np.array_equal(capped[small], plain[small])
                  and np.all(capped[~small] == cap))
    ok = worst < 1e-10 and dominated and agrees
    _report(capsys, 7, ok,
            f"schedule identity rel err {worst:.2e} < 1e-10; capped<=plain "
            f"{dominated}; equality iff below cap {agrees} "
            f"({int(small.sum())}/{small.size} below)")
    assert worst < 1e-10
    assert dominated and agrees


# ---------------------------------------------------------------------------
# 8: sparse configuration prior masses


def test_a08_sparse_prior_masses_and_frequencies(capsys):
    worst_sum = 0.0
    for q in range(1, 13):
        prior = SpikeSlab(q=q, a=1.0, c=1.0)
        total = sum(math.exp(prior.log_config_mass(S))
                    for s in range(q + 1)
                    for S in combinations(range(q), s))
        worst_sum = max(worst_sum, abs(total - 1.0))

    prior2 = SpikeSlab(q=2, a=1.0, c=1.0)
    want = {(): 4 / 7, (0,): 1 / 7, (1,): 1 / 7, (0, 1): 1 / 7}
    worst_mass = max(abs(math.exp(prior2.log_config_mass(S)) - v)
                     for S, v in want.items())

    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(40, 3)),
                                  (rng.random(40) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), prior2, data, 0.0)
    chain = ss_mh_run(target, MHConfig(steps=120_000, burn_in=10_000, thin=2,
                                       seed=hash64(BASE_SEED, 8)))
    supports = [tuple(np.flatnonzero(r[1:]).tolist()) for r in chain.draws]
    freq_ok = True
    freq_detail = []
    for S, p in want.items():
        ind = np.array([s == S for s in supports], dtype=float)
        ess = effective_sample_size(ind)
        se = math.sqrt(p * (1 - p) / ess)
        freq_ok &= abs(ind.mean() - p) < 3 * se
        freq_detail.append(f"{ind.mean():.3f}~{p:.3f}")
    ok = worst_sum < 1e-10 and worst_mass < 1e-12 and freq_ok
    _report(capsys, 8, ok,
            f"mass-sum err {worst_sum:.1e} < 1e-10; worked-value err "
            f"{worst_mass:.1e} < 1e-12; chain freqs ({', '.join(freq_detail)}) "
            f"within 3 se {freq_ok}")
    assert worst_sum < 1e-10
    assert worst_mass < 1e-12
    assert freq_ok


# ---------------------------------------------------------------------------
# 9: sparse-classification contraction trend


def test_a09_sparse_risk_contraction_trend(capsys):
    gen = SparseClassSim(q=50, support=(0, 1), beta_values=(2.0, -1.5),
                         flip_rho=0.1)
    loss = ZeroOneLinearLoss()
    prior = SpikeSlab(q=50, a=1.0, c=1.0)
    theta_star = gen.theta_star
    wins = 0
    for rep in range(10):
        med = {}
        for ni, n in enumerate((200, 800)):
            rs = hash64(BASE_SEED, ni, rep)
            data = gen.sample(n, make_rng(hash64(rs, 1)))
            target = GibbsTarget(loss, prior, data, 1.0)
            cfg = MHConfig(steps=30_000, burn_in=6_000, thin=24,
                           seed=hash64(rs, 2))
            chain = ss_mh_run(target, cfg)
            div = RiskDiffSqrt(loss, gen.mc_sample, n_draws=2048)
            vals = div.batch(chain.draws, theta_star, make_rng(hash64(rs, 4)))
            med[n] = float(np.median(vals))
        wins += med[800] < med[200]
    ok = wins >= 8
    _report(capsys, 9, ok,
            f"median divergence shrank from n=200 to n=800 in {wins}/10 "
            f"paired replications (need >= 8)")
    assert wins >= 8


# ---------------------------------------------------------------------------
# 10: annealed moment-bound constant


def test_a10_annealed_bound_constant_positive(capsys):
    gen = AUCSim(1.0)
    theta_star = float(ndtr(1.0 / math.sqrt(2.0)))
    report = mgf_condition_check(
        loss=AUCLoss(),
        theta_grid=[theta_star + d for d in (0.1, 0.2, 0.3)],
        theta_star=theta_star, omega=1.0, div=AbsScalarDistance(), r=2.0,
        generator=gen.mc_sample, n_draws=100_000,
        rng=make_rng(hash64(BASE_SEED, 10)))
    lower = report.min_k_hat_lower3
    ok = lower > 0.0
    _report(capsys, 10, ok,
            f"min K-hat {report.min_k_hat:.4f}, minus 3 se {lower:.4f} > 0")
    assert lower > 0.0


# ---------------------------------------------------------------------------
# 11: byte-identical reruns


def test_a11_byte_identical_reruns(capsys, tmp_path):
    cfg = {
        "schema": 1,
        "generator": {"name": "quantilereg", "tau": 0.5,
                      "betaStar": [1.0, 2.0], "noiseSd": 1.0},
        "loss": {"name": "check", "tau": 0.5},
        "prior": {"name": "gaussian", "mean": 0.0, "sd": 10.0},
        "rate": {"name": "fixed", "omega": 1.0},
        "mh": {"steps": 2_000, "burnIn": 500, "thin": 5,
               "proposalScale": 0.3},
        "divergence": {"name": "euclid"},
        "nGrid": [100, 200],
        "replications": 2,
        "baseSeed": BASE_SEED,
    }
    paths = [write_outputs(run_experiment(cfg, workers=w), tmp_path / tag)
             for tag, w in (("a", 1), ("b", 1), ("c", 2))]
    identical = all(
        open(paths[0][key], "rb").read() == open(p[key], "rb").read()
        for p in paths[1:] for key in ("results", "radii", "summary"))
    ok = identical
    _report(capsys, 11, ok,
            "rerun and 2-worker outputs byte-identical to first run: "
            f"{identical}")
    assert identical


# ---------------------------------------------------------------------------
# 12: basis partition of unity and local support


def test_a12_basis_partition_and_support(capsys):
    grid = np.linspace(0.0, 3.0, 10_000)
    worst_pou = 0.0
    support_ok = True
    for j_basis in (4, 6, 8, 12):
        basis = CubicBSpline((0.0, 3.0), j_basis)
        design = basis.design(grid)
        worst_pou = max(worst_pou,
                        float(np.abs(design.sum(axis=1) - 1.0).max()))
        support_ok &= int((design > 0).sum(axis=1).max()) <= 4
        for col in range(j_basis):
            nz = np.nonzero(design[:, col])[0]
            support_ok &= nz.size > 0 and bool(
                np.all(np.diff(nz) == 1))  # one contiguous window
    ok = worst_pou < 1e-12 and support_ok
    _report(capsys, 12, ok,
            f"partition-of-unity err {worst_pou:.1e} < 1e-12 on 1e4 grid; "
            f"local support (<= 4 active, contiguous) {support_ok}")
    assert worst_pou < 1e-12
    assert support_ok


# ---------------------------------------------------------------------------
# 13: ranking-loss chains against their exact Gaussian posterior


def test_a13_ranking_chains_match_the_exact_gaussian(capsys):
    # the ranking risk is (theta - that)^2 + that (1 - that), so under
    # auc_coverage's N(0.5, 10^2) prior the Gibbs posterior
    # exp{-omega N R(theta)} pi(theta), N = m n pairs, is exactly Gaussian:
    # precision 2 omega N + 1/100, mean (2 omega N that + 0.5/100) / precision.
    # Each chain of an R = 4 block, on its own n = 200 data, must match its
    # mean, sd and 5 %/95 % quantiles within 4 Monte Carlo standard errors
    # from the chain's ESS; the sample quantile's is sqrt(p (1 - p) / ESS)
    # over the density there
    gen, loss, prior = AUCSim(1.0), AUCLoss(), GaussianIID(0.5, 10.0, 1)
    rate = AUCDataDriven(1.0)
    starts, exact = [], []
    for r in range(4):
        data = gen.sample(200, make_rng(hash64(BASE_SEED, 13, r)))
        omega = rate.resolve(data.scores0, data.scores1)
        pull = 2.0 * omega * data.n_terms
        precision = pull + 1.0 / 100
        that = auc_point_estimate(data.scores0, data.scores1)
        exact.append(((pull * that + 0.5 / 100) / precision, precision ** -0.5))
        starts.append(mh_start(GibbsTarget(loss, prior, data, omega), MHConfig(
            steps=20_000, burn_in=5_000, thin=5, proposal_scale=0.05,
            seed=hash64(BASE_SEED, 13, r, 1))))
    worst, lines = 0.0, []
    for chain, (mean, sd) in zip(mh_run_block(starts), exact):
        x = chain.draws[:, 0]
        ess = effective_sample_size(x)
        checks = [(x.mean(), mean, sd / math.sqrt(ess)),
                  (x.std(ddof=1), sd, sd / math.sqrt(2 * ess))]
        for p in (0.05, 0.95):
            z = float(stats.norm.ppf(p))
            checks.append((float(np.quantile(x, p)), mean + sd * z,
                           sd * math.sqrt(p * (1 - p) / ess) / stats.norm.pdf(z)))
        ratios = [abs(got - want) / se for got, want, se in checks]
        worst = max(worst, *ratios)
        lines.append(f"ess {ess:.0f} " + " ".join(f"{q:.2f}" for q in ratios))
    ok = worst < 4.0
    _report(capsys, 13, ok,
            f"worst |chain - exact| {worst:.2f} < 4 MC se over 4 chains x "
            f"(mean, sd, q05, q95): " + "; ".join(lines))
    assert worst < 4.0


# ---------------------------------------------------------------------------
# 14: check-loss chains against the posterior by quadrature


def _check_loss_posterior(data, tau, omega, prior_sd, lo, hi, points):
    """Means, sds and 5 %/95 % marginal quantiles (coordinate-major), and
    the marginal densities at those quantiles, of the Gibbs posterior
    exp{-omega n R_n(b)} N(0, prior_sd^2 I)(b) of the check loss on the
    basis {1, x}, by a sum over a points x points tensor grid on the box
    [lo, hi].  For each slope, n R_n is piecewise linear in the intercept
    with kinks at the residuals y - slope x, so it is written exactly from
    their sorted cumulative sums."""
    b0, b1 = np.linspace(lo[0], hi[0], points), np.linspace(lo[1], hi[1], points)
    x, y, n = data.x, data.y, data.n
    energy = np.empty((points, points))
    for j, slope in enumerate(b1):
        r = np.sort(y - slope * x)
        below = np.concatenate(([0.0], np.cumsum(r)))    # sums of the k smallest
        k = np.searchsorted(r, b0)                        # residuals below b0
        energy[:, j] = (tau * (below[-1] - below[k] - (n - k) * b0)
                        + (1.0 - tau) * (k * b0 - below[k]))
    logp = (-omega * energy - (b0[:, None] ** 2 + b1[None, :] ** 2)
            / (2.0 * prior_sd ** 2))
    w = np.exp(logp - logp.max())
    values, densities = [], []
    for grid, marginal in ((b0, w.sum(axis=1)), (b1, w.sum(axis=0))):
        h = grid[1] - grid[0]
        density = marginal / (marginal.sum() * h)
        mean = float((grid * density).sum() * h)
        sd = math.sqrt(float(((grid - mean) ** 2 * density).sum() * h))
        cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) * h / 2)))
        quantiles = [float(np.interp(p, cdf, grid)) for p in (0.05, 0.95)]
        values += [mean, sd, *quantiles]
        densities += [float(np.interp(q, grid, density)) for q in quantiles]
    return np.array(values), densities


def test_a14_check_loss_chains_match_the_quadrature_posterior(capsys):
    # quantile regression (tau = 0.5, quantilereg data, n = 200) on the
    # basis {1, x}, J = 2, under quantile_rootn's N(0, 10^2) prior and
    # omega = 1.  The exact posterior's means, sds and 5 %/95 % marginal
    # quantiles come by quadrature on a grid over +-8 posterior sd (from a
    # first pass over the least-squares fit +- 2), its spacing halved until
    # every value moves by less than 1e-4.  Each chain of an R = 2 block,
    # which looks ahead up to two steps per chain, on its own data, must
    # match them within 4 Monte Carlo standard errors from the chain's ESS
    # per coordinate; a sample quantile's is sqrt(p (1 - p) / ESS) over the
    # marginal density there
    tau, omega, n = 0.5, 1.0, 200
    gen, loss = QuantileRegSim(tau), CheckLoss(tau, AffineBasis())
    prior = GaussianIID(0.0, 10.0, 2)
    starts, exact = [], []
    for r in range(2):
        data = gen.sample(n, make_rng(hash64(BASE_SEED, 14, r)))
        fit = np.linalg.lstsq(AffineBasis().design(data.x), data.y, rcond=None)[0]
        values = _check_loss_posterior(data, tau, omega, 10.0, fit - 2.0,
                                       fit + 2.0, 101)[0]
        mean, sd = values[[0, 4]], values[[1, 5]]
        points, (values, densities) = 101, _check_loss_posterior(
            data, tau, omega, 10.0, mean - 8 * sd, mean + 8 * sd, 101)
        while True:
            points = 2 * points - 1
            finer, densities = _check_loss_posterior(
                data, tau, omega, 10.0, mean - 8 * sd, mean + 8 * sd, points)
            moved, values = float(np.abs(finer - values).max()), finer
            if moved < 1e-4 or points > 3000:
                break
        assert moved < 1e-4, f"quadrature moved {moved:.2e} at {points} points"
        exact.append((values, densities, points))
        starts.append(mh_start(GibbsTarget(loss, prior, data, omega), MHConfig(
            steps=40_000, burn_in=5_000, thin=5, proposal_scale=2.0 / math.sqrt(n),
            seed=hash64(BASE_SEED, 14, r, 1))))
    worst, lines = 0.0, []
    for chain, (values, densities, points) in zip(mh_run_block(starts), exact):
        ratios = []
        for j in range(2):
            x = chain.draws[:, j]
            ess = effective_sample_size(x)
            mean, sd, q05, q95 = values[4 * j:4 * j + 4]
            checks = [(x.mean(), mean, sd / math.sqrt(ess)),
                      (x.std(ddof=1), sd, sd / math.sqrt(2 * ess))]
            for p, q, f in zip((0.05, 0.95), (q05, q95), densities[2 * j:2 * j + 2]):
                checks.append((float(np.quantile(x, p)), q,
                               math.sqrt(p * (1 - p) / ess) / f))
            ratios += [abs(got - want) / se for got, want, se in checks]
            lines.append(f"b{j} ess {ess:.0f} " + " ".join(f"{q:.2f}" for q in ratios[-4:]))
        worst = max(worst, *ratios)
        lines[-1] += f" ({points} points)"
    ok = worst < 4.0
    _report(capsys, 14, ok,
            f"worst |chain - quadrature| {worst:.2f} < 4 MC se over 2 chains x "
            f"2 coordinates x (mean, sd, q05, q95): " + "; ".join(lines))
    assert worst < 4.0


# ---------------------------------------------------------------------------
# 15-16: annealed moment-bound constant on the quantile and sparse examples


def test_a15_check_loss_bound_constant_positive(capsys):
    # quantilereg (tau = 0.5) and the check loss on {1, x}; grid points at
    # Euclidean distances 0.25, 0.5 and 1 from theta* along (0.6, 0.8),
    # omega = 1, r = 2, 100,000 draws
    gen = QuantileRegSim(0.5)
    theta_star = gen.theta_star
    report = mgf_condition_check(
        loss=CheckLoss(0.5, AffineBasis()),
        theta_grid=[theta_star + d * np.array([0.6, 0.8]) for d in (0.25, 0.5, 1.0)],
        theta_star=theta_star, omega=1.0, div=EuclideanDistance(), r=2.0,
        generator=gen.mc_sample, n_draws=100_000,
        rng=make_rng(hash64(BASE_SEED, 15)))
    lower = report.min_k_hat_lower3
    ok = lower > 0.0
    _report(capsys, 15, ok,
            f"K-hat {' '.join(f'{p.k_hat:.4f}' for p in report.points)}, "
            f"min minus 3 se {lower:.4f} > 0")
    assert lower > 0.0


def test_a16_zero_one_bound_constant_positive(capsys):
    # sparse_trend's sparseclass generator (q = 50) and the zero-one loss on
    # points of width 1 + q; grid points at Euclidean distances 0.25, 0.5
    # and 1 from theta* along an inactive coordinate (beta_2), omega = 1,
    # r = 1 (the margin condition: excess risk linear in the disagreement),
    # 20,000 draws
    gen = SparseClassSim(q=50, support=(0, 1), beta_values=(2.0, -1.5),
                         flip_rho=0.1)
    theta_star = gen.theta_star
    report = mgf_condition_check(
        loss=ZeroOneLinearLoss(),
        theta_grid=[theta_star + d * np.eye(51)[3] for d in (0.25, 0.5, 1.0)],
        theta_star=theta_star, omega=1.0, div=EuclideanDistance(), r=1.0,
        generator=gen.mc_sample, n_draws=20_000,
        rng=make_rng(hash64(BASE_SEED, 16)))
    lower = report.min_k_hat_lower3
    ok = lower > 0.0
    _report(capsys, 16, ok,
            f"K-hat {' '.join(f'{p.k_hat:.4f}' for p in report.points)}, "
            f"min minus 3 se {lower:.4f} > 0")
    assert lower > 0.0
