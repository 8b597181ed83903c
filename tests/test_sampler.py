"""Random-walk Metropolis machinery: seeding, chain bookkeeping, exactness
against closed-form targets, and the sparse-configuration sampler.

Closed-form anchors: with rate 0 the target is the prior itself (here a
standard normal); with constant features and squared error the posterior is
Gaussian with precision 2*omega*n + 1/sd^2, so chain moments can be compared
to exact values.  Statistical assertions use effective-sample-size based
standard errors at fixed seeds.
"""

import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gibbsinf import (AUCLoss, CappedSquaredLoss, CheckLoss, CubicBSpline,
                      Dataset, GaussianIID, GibbsTarget, LaplaceIID, MCIDLoss,
                      MHConfig, SpikeSlab, SquaredLoss, ZeroOneLinearLoss,
                      chain_summary, credible_interval, mh_run, mh_run_block,
                      mh_start, posterior_mean, ss_mh_run, write_chain_csv)
from gibbsinf.errors import InitializationError, PreconditionError, ShapeError
from gibbsinf.harness.generators import SparseClassSim, affine_features
from gibbsinf.sampler import (_CHUNK, Chain, default_proposal_scale,
                              effective_sample_size, hash64, make_rng)


def _prior_only_target(sd: float = 1.0) -> GibbsTarget:
    """Rate-zero target whose law is exactly the N(0, sd^2) prior."""
    data = Dataset.regression(np.ones((4, 1)), np.zeros(4))
    return GibbsTarget(SquaredLoss(None), GaussianIID(0.0, sd, 1), data, 0.0)


# ---------------------------------------------------------------------------
# seeding


def test_hash64_deterministic_and_sensitive():
    assert hash64(1, 2, 3) == hash64(1, 2, 3)
    assert hash64(1, 2, 3) != hash64(1, 2, 4)
    assert hash64(1, 2, 3) != hash64(1, 3, 2)
    assert hash64(0) != hash64(1)
    assert 0 <= hash64(123, 456) < 2 ** 64


def test_make_rng_reproducible_streams():
    a = make_rng(99).random(5)
    b = make_rng(99).random(5)
    c = make_rng(100).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# configuration and target validation


def test_mhconfig_validation():
    MHConfig(steps=1000, burn_in=0, thin=1)  # fine
    with pytest.raises(PreconditionError):
        MHConfig(steps=100, burn_in=100, thin=1)
    with pytest.raises(PreconditionError):
        MHConfig(steps=100, burn_in=-1, thin=1)
    with pytest.raises(PreconditionError):
        MHConfig(steps=103, burn_in=3, thin=7)  # 100 not divisible by 7
    with pytest.raises(PreconditionError):
        MHConfig(steps=100, burn_in=0, thin=1, proposal_scale=0.0)
    with pytest.raises(PreconditionError):
        MHConfig(steps=100, burn_in=0, thin=1, alpha_flip_prob=1.0)


@pytest.mark.parametrize("scale", [math.nan, math.inf, [0.1, math.nan],
                                   [math.inf, 0.2]])
def test_mhconfig_rejects_non_finite_proposal_scales(scale):
    # NaN proposals are never accepted, so a NaN scale gave a chain that
    # sat at its start with an acceptance rate of 0
    with pytest.raises(PreconditionError, match="finite"):
        MHConfig(steps=100, burn_in=0, thin=1, proposal_scale=scale)


@given(st.integers(0, 400), st.integers(1, 13), st.integers(1, 300))
def test_kept_count_formula(burn_in, thin, kept):
    cfg = MHConfig(steps=burn_in + thin * kept, burn_in=burn_in, thin=thin)
    assert cfg.n_kept == kept


def test_gibbs_target_validation():
    data = Dataset.regression(np.ones((4, 1)), np.zeros(4))
    with pytest.raises(PreconditionError):
        GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 1.0, 1), data, -0.1)


def test_rate_zero_target_is_the_prior_density():
    target = _prior_only_target(sd=2.0)
    for v in (-1.0, 0.0, 1.7):
        theta = np.array([v])
        assert target.log_unnormalized(theta) == pytest.approx(
            target.prior.log_density(theta), abs=1e-14)


def test_two_sample_target_counts_pairs():
    from gibbsinf import AUCLoss
    data = Dataset.two_sample(np.array([0.1, 0.7, 0.4]), np.array([0.5, 0.9]))
    target = GibbsTarget(AUCLoss(), GaussianIID(0.5, 10.0, 1), data, 1.0)
    assert target.n_terms == 6


def test_mh_run_rejects_zero_density_start():
    target = _prior_only_target()
    cfg = MHConfig(steps=100, burn_in=0, thin=1, proposal_scale=1.0,
                   init=np.array([np.inf]))
    with pytest.raises(InitializationError):
        mh_run(target, cfg)


def test_mh_run_needs_init_or_self_initializing_target():
    class Opaque:
        def log_unnormalized(self, theta):
            return 0.0

    with pytest.raises(InitializationError):
        mh_run(Opaque(), MHConfig(steps=100, burn_in=0, thin=1,
                                  proposal_scale=1.0))


def test_mh_run_rejects_nan_start_density():
    # a NaN start would otherwise give a chain that never accepts
    class NaNTarget:
        def log_unnormalized(self, theta):
            return math.nan

    with pytest.raises(InitializationError, match="NaN"):
        mh_run(NaNTarget(), MHConfig(steps=100, burn_in=0, thin=1,
                                     proposal_scale=1.0, init=np.zeros(2)))


# ---------------------------------------------------------------------------
# chain blocks: R chains in lockstep, each bit-identical to its own run


def _block_case(kind: str, R: int = 3):
    """R targets sharing one loss and one prior, each on its own data of one
    size and with its own rate, for one loss x prior pair."""
    rng = make_rng(hash64(41, len(kind)))
    if kind == "mcid/gaussian":
        loss, prior = MCIDLoss(CubicBSpline((0.0, 3.0), 4)), GaussianIID(0.0, 6.0, 4)

        def data():
            return Dataset.classification(rng.normal(size=40),
                                          np.where(rng.random(40) < 0.5, 1, -1),
                                          3.0 * rng.random(40))
    elif kind == "check/gaussian":
        loss, prior = CheckLoss(0.3, affine_features()), GaussianIID(0.0, 10.0, 2)

        def data():
            x = rng.random(30)
            return Dataset.regression(x, 1.0 + 2.0 * x + rng.normal(size=30))
    elif kind == "squared/laplace":
        loss, prior = SquaredLoss(CubicBSpline((0.0, 1.0), 5)), LaplaceIID(1.0, 5)

        def data():
            x = rng.random(30)
            return Dataset.regression(x, np.sin(6.0 * x) + rng.normal(size=30))
    elif kind == "cappedsquared/gaussian":
        loss, prior = CappedSquaredLoss(None, cap=4.0), GaussianIID(0.0, 3.0, 3)

        def data():
            x = rng.normal(size=(30, 3))
            return Dataset.regression(x, x @ [1.0, -1.0, 0.5] + rng.standard_t(3, 30))
    else:
        loss, prior = AUCLoss(), GaussianIID(0.5, 10.0, 1)

        def data():
            return Dataset.two_sample(rng.normal(size=6), 1.0 + rng.normal(size=5))
    return [GibbsTarget(loss, prior, data(), 0.5 + r) for r in range(R)]


def _assert_same_chains(block, singles):
    for got, want in zip(block, singles, strict=True):
        assert got.draws.tobytes() == want.draws.tobytes()
        assert got.draws.shape == want.draws.shape
        assert got.accepted == want.accepted
        assert got.meta == want.meta
        assert got.seed == want.seed


@pytest.mark.parametrize("kind", ["mcid/gaussian", "check/gaussian",
                                  "squared/laplace", "cappedsquared/gaussian",
                                  "auc/gaussian"])
def test_block_equals_single_chain_runs(kind, monkeypatch):
    targets = _block_case(kind)
    configs = [MHConfig(steps=2_600, burn_in=100, thin=5, seed=hash64(42, r))
               for r in range(len(targets))]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    starts = [mh_start(t, c) for t, c in zip(targets, configs)]
    # the block evaluates its densities with the vectorized kernels, not
    # one log_unnormalized call per chain and step
    calls = []
    original = GibbsTarget.log_unnormalized
    monkeypatch.setattr(GibbsTarget, "log_unnormalized",
                        lambda self, theta: calls.append(1) or original(self, theta))
    block = mh_run_block(starts)
    assert not calls
    _assert_same_chains(block, singles)
    assert len({c.accepted for c in block}) > 1     # the chains do differ


def test_block_from_given_starts_equals_single_chain_runs():
    targets = _block_case("mcid/gaussian")
    configs = [MHConfig(steps=1_500, burn_in=0, thin=3, seed=hash64(43, r),
                        proposal_scale=[0.2, 0.4, 0.3, 0.5][r:] + [0.1] * r,
                        init=np.full(4, float(r)))
               for r in range(len(targets))]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    block = mh_run_block([mh_start(t, c) for t, c in zip(targets, configs)])
    _assert_same_chains(block, singles)


def test_block_rejects_chains_of_different_lengths():
    targets = _block_case("check/gaussian", R=2)
    starts = [mh_start(targets[0], MHConfig(steps=100, burn_in=0, thin=1)),
              mh_start(targets[1], MHConfig(steps=200, burn_in=0, thin=1))]
    with pytest.raises(PreconditionError, match="share"):
        mh_run_block(starts)


# per kind, proposal scales that give acceptance near 0.05, 0.25 and 0.7
# over a four-chain block, with the band each must fall in
_LOOKAHEAD_SCALES = {"mcid/gaussian": (10.0, 2.0, 0.15),
                     "check/gaussian": (3.0, 1.0, 0.2),
                     "squared/laplace": (1.0, 0.4, 0.1),
                     "cappedsquared/gaussian": (0.6, 0.2, 0.05),
                     "auc/gaussian": (3.0, 0.6, 0.1)}
_ACCEPT_BANDS = ((0.0, 0.1), (0.15, 0.4), (0.55, 0.9))


@pytest.mark.parametrize("regime", range(3), ids=["accept05", "accept25", "accept70"])
@pytest.mark.parametrize("kind", sorted(_LOOKAHEAD_SCALES))
def test_lookahead_chains_equal_lockstep_chains(kind, regime):
    # blocks of four chains evaluate one step per call; blocks of one and
    # two evaluate several steps per call while no chain accepts.  Seven
    # full chunks and a short one, so K changes and buffers get cut.
    targets = _block_case(kind, R=4)
    configs = [MHConfig(steps=7 * _CHUNK + 8, burn_in=100, thin=4,
                        seed=hash64(45, r),
                        proposal_scale=_LOOKAHEAD_SCALES[kind][regime])
               for r in range(4)]
    block = mh_run_block([mh_start(t, c) for t, c in zip(targets, configs)])
    lo, hi = _ACCEPT_BANDS[regime]
    assert lo <= np.mean([c.accept_rate for c in block]) <= hi
    for R in (1, 2, 3):
        alone = mh_run_block([mh_start(t, c) for t, c in zip(targets[:R], configs[:R])])
        _assert_same_chains(alone, block[:R])


def test_lookahead_evaluates_several_steps_per_call(monkeypatch):
    targets = _block_case("mcid/gaussian", R=8)
    steps = 10 * _CHUNK

    def starts(R):
        return [mh_start(t, MHConfig(steps=steps, burn_in=0, thin=1,
                                     proposal_scale=25.0, seed=hash64(46, r)))
                for r, t in enumerate(targets[:R])]

    one, eight = starts(1), starts(8)
    rows = []                         # the rows of every risk call
    original = MCIDLoss.risk
    monkeypatch.setattr(MCIDLoss, "risk", lambda self, state, B:
                        rows.append(len(B)) or original(self, state, B))
    chain = mh_run_block(one)[0]
    assert chain.accept_rate < 0.1
    assert len(rows) <= 0.6 * steps
    assert sum(rows) <= 1.5 * steps
    # a block of eight chains never looks ahead: one call, one row per chain
    rows.clear()
    mh_run_block(eight)
    assert rows == [8] * steps


def test_short_chains_match_recorded_values():
    # draws and accept counts of three short chains, recorded before chains
    # ran in blocks; any change to the variate order, the kernels or the
    # accept rule shows here
    rng = make_rng(hash64(31, 1))
    z = 3.0 * rng.random(40)
    x = rng.normal(size=40)
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    mcid = GibbsTarget(MCIDLoss(CubicBSpline((0.0, 3.0), 4)),
                       GaussianIID(0.0, 6.0, 4),
                       Dataset.classification(x, y, z), 1.0)
    xr = rng.random(30)
    yr = 1.0 + 2.0 * xr + rng.normal(size=30)
    check = GibbsTarget(CheckLoss(0.5, affine_features()), LaplaceIID(1.0, 2),
                        Dataset.regression(xr, yr), 2.0)
    auc = GibbsTarget(AUCLoss(), GaussianIID(0.5, 10.0, 1),
                      Dataset.two_sample(rng.normal(size=7),
                                         1.0 + rng.normal(size=5)), 0.5)
    got = [mh_run(mcid, MHConfig(steps=60, burn_in=20, thin=10,
                                 proposal_scale=0.5, seed=hash64(31, 2))),
           mh_run(check, MHConfig(steps=40, burn_in=0, thin=10,
                                  proposal_scale=0.3, seed=hash64(31, 3),
                                  init=np.array([1.0, 2.0]))),
           mh_run(auc, MHConfig(steps=30, burn_in=0, thin=10,
                                proposal_scale=0.2, seed=hash64(31, 4)))]
    assert [c.accepted for c in got] == [45, 16, 15]
    assert got[0].draws.tolist() == [
        [2.2982299915139177, -12.718598479868405, 3.3400289177181905, 8.418361019795995],
        [0.5476950116189178, -12.74311310836871, 4.634214034443209, 10.710307221933773],
        [-1.1642602934276034, -11.93366027693017, 2.828189796609433, 10.64778631197584],
        [0.4463061768048586, -11.250147806753217, 2.7888733285877043, 9.817132948269625]]
    assert got[1].draws.tolist() == [
        [0.3468681132463931, 2.6687041202777713], [0.6199492438802178, 2.692195168732626],
        [0.30060885455094166, 3.1054758819330437], [0.4591467762228662, 2.743527581528859]]
    assert got[2].draws.tolist() == [
        [-5.729629592913657], [-4.582580832692851], [-4.197567979890199]]


def test_block_memory_is_bounded():
    # variates are drawn chunk by chunk, so the peak stays near the kept
    # draws instead of growing with steps x chains x dim.  The block's
    # memory does not depend on the target; a flat one keeps the traced run
    # short, as tracemalloc slows every allocation.
    class Flat:
        def log_unnormalized(self, theta):
            return 0.0

    R, steps, thin, dim = 4, 100_000, 10, 2
    configs = [MHConfig(steps=steps, burn_in=0, thin=thin, proposal_scale=0.3,
                        seed=hash64(44, r), init=np.zeros(dim)) for r in range(R)]
    tracemalloc.start()
    try:
        chains = mh_run_block([mh_start(Flat(), c) for c in configs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chains[0].draws.shape == (steps // thin, dim)
    kept = R * (steps // thin) * dim * 8
    variates = R * _CHUNK * (2 * dim + 1) * 8
    bound = kept + variates + 256_000
    assert peak < bound
    # drawing one chain's variates at once would already take 2.4 MB
    assert steps * (dim + 1) * 8 > 2 * bound


# ---------------------------------------------------------------------------
# exactness against closed-form targets


def test_standard_normal_chain_moments():
    target = _prior_only_target(sd=1.0)
    cfg = MHConfig(steps=50_000, burn_in=10_000, thin=5,
                   proposal_scale=2.4, seed=hash64(77, 1))
    chain = mh_run(target, cfg)
    x = chain.draws[:, 0]
    assert x.shape == (8_000,)
    ess = effective_sample_size(x)
    assert abs(x.mean()) < 3.0 / math.sqrt(ess)
    assert abs(x.var() - 1.0) < 0.10
    assert 0.2 < chain.accept_rate < 0.7


def test_conjugate_gaussian_posterior_moments():
    # constant features + squared error: exponent -omega * sum (y - theta)^2,
    # so with a N(0, 100) prior the posterior is exactly Gaussian with
    # precision 2*omega*n + 1/100
    rng = np.random.default_rng(42)
    y = rng.normal(1.3, 1.0, size=50)
    data = Dataset.regression(np.ones((50, 1)), y)
    omega = 1.0
    target = GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 10.0, 1),
                         data, omega)
    precision = 2 * omega * 50 + 1 / 100.0
    mean_star = 2 * omega * y.sum() / precision
    sd_star = precision ** -0.5
    cfg = MHConfig(steps=60_000, burn_in=10_000, thin=5,
                   proposal_scale=0.25, seed=hash64(77, 2))
    chain = mh_run(target, cfg)
    x = chain.draws[:, 0]
    ess = effective_sample_size(x)
    assert abs(x.mean() - mean_star) < 4 * sd_star / math.sqrt(ess)
    assert abs(x.std() / sd_star - 1.0) < 0.10


def test_rate_scales_posterior_precision():
    # same data, rates 1 and 4: posterior sd should shrink by about 2
    rng = np.random.default_rng(7)
    y = rng.normal(0.5, 1.0, size=50)
    data = Dataset.regression(np.ones((50, 1)), y)
    sds = []
    for omega in (1.0, 4.0):
        target = GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 10.0, 1),
                             data, omega)
        cfg = MHConfig(steps=40_000, burn_in=5_000, thin=5,
                       proposal_scale=0.2 / math.sqrt(omega),
                       seed=hash64(77, 6))
        sds.append(mh_run(target, cfg).draws[:, 0].std())
    want = math.sqrt((2 * 4.0 * 50 + 0.01) / (2 * 1.0 * 50 + 0.01))
    assert sds[0] / sds[1] == pytest.approx(want, rel=0.10)


def test_invariance_on_piecewise_constant_density():
    # five flat bins on [0,5) with known masses; kept frequencies must match
    # within 3 ESS-adjusted standard errors, and transition fluxes between
    # every bin pair must balance as reversibility demands
    weights = np.array([1.0, 2.0, 4.0, 2.0, 1.0])

    class BinTarget:
        def log_unnormalized(self, theta):
            x = float(theta[0])
            if x < 0.0 or x >= 5.0:
                return -np.inf
            return float(np.log(weights[int(x)]))

    cfg = MHConfig(steps=200_000, burn_in=20_000, thin=1,
                   proposal_scale=1.2, seed=hash64(77, 3),
                   init=np.array([2.5]))
    chain = mh_run(BinTarget(), cfg)
    bins = chain.draws[:, 0].astype(int)
    p = weights / weights.sum()
    for i in range(5):
        ind = (bins == i).astype(float)
        ess = effective_sample_size(ind)
        se = math.sqrt(p[i] * (1 - p[i]) / ess)
        assert abs(ind.mean() - p[i]) < 3 * se, f"bin {i}"
    counts = np.zeros((5, 5), dtype=int)
    np.add.at(counts, (bins[:-1], bins[1:]), 1)
    for i in range(5):
        for j in range(i + 1, 5):
            total = counts[i, j] + counts[j, i]
            if total:
                assert abs(int(counts[i, j]) - int(counts[j, i])) <= \
                    4.0 * math.sqrt(total), (i, j)


# ---------------------------------------------------------------------------
# sparse-configuration sampler


def test_sparse_sampler_reproduces_prior_masses_at_rate_zero():
    # with rate 0 the kept configurations must follow the configuration
    # prior exactly; expected size masses come from enumerating log masses
    q = 3
    prior = SpikeSlab(q=q, a=1.0, c=1.0)
    want = np.zeros(q + 1)
    for s in range(q + 1):
        for S in combinations(range(q), s):
            want[s] += math.exp(prior.log_config_mass(S))
    assert want.sum() == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(40, 4)),
                                  (rng.random(40) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), prior, data, 0.0)
    cfg = MHConfig(steps=120_000, burn_in=10_000, thin=2, seed=hash64(77, 4))
    chain = ss_mh_run(target, cfg)
    supports = [tuple(np.flatnonzero(r[1:]).tolist()) for r in chain.draws]
    sizes = np.array([len(S) for S in supports])
    for s in range(q + 1):
        ind = (sizes == s).astype(float)
        ess = effective_sample_size(ind)
        se = math.sqrt(want[s] * (1 - want[s]) / ess)
        assert abs(ind.mean() - want[s]) < 3 * se, f"size {s}"
    # the sign coordinate is symmetric under the prior
    alphas = chain.draws[:, 0]
    ess_a = effective_sample_size((alphas > 0).astype(float))
    assert abs((alphas > 0).mean() - 0.5) < 3 * math.sqrt(0.25 / ess_a)


def test_sparse_sampler_finds_separating_coordinate():
    # labels depend on coefficient coordinate 0 alone; at a decisive rate
    # the posterior should put nearly all mass on supports containing it
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, (60, 4))
    y = (x[:, 1] > 0).astype(float)
    data = Dataset.classification(x, y)
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         data, 5.0)
    cfg = MHConfig(steps=60_000, burn_in=10_000, thin=5, seed=hash64(77, 5))
    chain = ss_mh_run(target, cfg)
    supports = [tuple(np.flatnonzero(r[1:]).tolist()) for r in chain.draws]
    has_key = np.array([0 in S for S in supports])
    assert has_key.mean() > 0.9
    risks = np.array([target.risk(r) for r in chain.draws])
    assert risks.mean() < 0.1


def test_sparse_chain_matrix_layout():
    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(30, 4)),
                                  (rng.random(30) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         data, 1.0)
    chain = ss_mh_run(target, MHConfig(steps=2_000, burn_in=500, thin=3,
                                       seed=hash64(77, 7)))
    assert chain.draws.shape == (500, 4)
    assert set(chain.draws[:, 0].tolist()) <= {-1.0, 1.0}


def test_sparse_chains_match_recorded_values():
    # kept (alpha, beta) rows and accept counts of two short spike-slab
    # chains, recorded when the sampler kept (alpha, S, beta_S) states; any
    # change to the variate order, the moves or the accept rule shows here.
    # A row's nonzero pattern is its support S.
    rng = make_rng(hash64(31, 5))
    x = rng.normal(size=(40, 4))
    y = (x[:, 1] - 0.5 * x[:, 3] + 0.3 * rng.normal(size=40) > 0).astype(float)
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         Dataset.classification(x, y), 2.0)
    got = [ss_mh_run(target, MHConfig(steps=300, burn_in=100, thin=25,
                                      alpha_flip_prob=0.2, seed=hash64(31, 6))),
           ss_mh_run(target, MHConfig(steps=200, burn_in=0, thin=40,
                                      seed=hash64(31, 7),
                                      init=[-1.0, 0.5, 0.0, -0.3]))]
    assert [c.accepted for c in got] == [28, 17]
    assert got[0].draws.tolist() == [
        [-1.0, 2.960719293871807, 0.2686375101810728, -2.0020016721059295],
        [-1.0, 2.960719293871807, 0.2686375101810728, -2.0020016721059295],
        [1.0, 2.960719293871807, -0.28151059407485274, -2.0020016721059295],
        [1.0, 3.024833776639183, -0.7052421468943886, -1.974961987890784],
        [-1.0, 3.024833776639183, 0.24413731420021967, -1.974961987890784],
        [1.0, 2.809105667103831, 0.0, -2.2730123607164985],
        [1.0, 2.809105667103831, -0.32395299967422886, -2.2730123607164985],
        [1.0, 2.2609761933189634, -0.6858535777081189, -1.4592590174879168]]
    assert got[1].draws.tolist() == [
        [-1.0, 0.5, 0.0, 0.0],
        [-1.0, 0.5, -0.0016894336478378783, 0.0],
        [-1.0, 0.831906165889354, 0.34884419256966703, -0.9237970197326825],
        [-1.0, 0.831906165889354, 0.0, -0.9237970197326825],
        [-1.0, 0.831906165889354, 0.0, -0.9237970197326825]]


@pytest.mark.parametrize("n, digest, accepted", [
    (200, "5e15a486631475c85599da1662ee1117bf65cbff994f2892562729bdba4453f4", 144),
    (800, "ba9440b3bea3764d62f2185c60fc627d115466b78a5c3e9a71b2651c598a7e6c", 70)])
def test_q50_sparse_chains_match_recorded_digests(n, digest, accepted):
    # every state of two 3000-step chains on the sparse_trend protocol
    # (q = 50), recorded as a sha256 of the draws' bytes with the package
    # that kept the support as a mask.  About 1700 adds and removes per
    # chain pick among up to 50 coordinates; 30 and 6 are accepted.
    gen = SparseClassSim(50, (0, 1), [2.0, -1.5], flip_rho=0.1)
    data = gen.sample(n, make_rng(hash64(53, n)))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=50, a=1.0, c=1.0),
                         data, 1.0)
    chain = ss_mh_run(target, MHConfig(steps=3000, burn_in=0, thin=1,
                                       seed=hash64(53, n, 1)))
    assert chain.accepted == accepted
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 200, 800])
def test_one_row_zero_one_kernel_equals_the_block_risk(n):
    # the 0-1 risk of one (alpha, beta) row as a mismatch count on the
    # target's 2-D arrays, against the stacked (1, n, J) block kernel, bit
    # for bit: empty supports with either sign of alpha, signed zeros,
    # sparse rows and dense rows
    q = 50
    gen = SparseClassSim(q, (0, 1), [2.0, -1.5], flip_rho=0.1)
    data = gen.sample(n, make_rng(hash64(57, n)))
    loss = ZeroOneLinearLoss()
    state = loss.risk_state(data)
    prepared = tuple(a[0] for a in state)

    def kernel(theta):
        return np.count_nonzero(loss.pointwise(prepared, theta)) / n

    rng = make_rng(hash64(57, n, 1))
    rows = []
    for alpha in (-1.0, 1.0):
        empty = np.zeros(1 + q)
        empty[0] = alpha
        signed = empty.copy()
        signed[1:] = -0.0
        one_negzero = empty.copy()
        one_negzero[[2, 7]] = [1.25, -0.0]
        rows += [empty, signed, one_negzero]
        for _ in range(100):
            dense = rng.laplace(0.0, 1.0, size=1 + q)
            dense[0] = alpha
            sparse = np.zeros(1 + q)
            sparse[0] = alpha
            at = 1 + rng.choice(q, size=int(rng.integers(1, 8)), replace=False)
            sparse[at] = rng.laplace(0.0, 1.0, size=at.size)
            rows += [dense, sparse]
    for theta in rows:
        want = float(loss.risk(state, theta[None])[0])
        assert float(kernel(theta)).hex() == want.hex()


def test_sparse_chain_meta_counts_moves():
    gen = SparseClassSim(20, (0, 1), [2.0, -1.5], flip_rho=0.1)
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=20, a=1.0, c=1.0),
                         gen.sample(100, make_rng(hash64(54, 1))), 0.2)
    chain = ss_mh_run(target, MHConfig(steps=2_000, burn_in=400, thin=4,
                                       seed=hash64(54, 2)))
    moves = chain.meta["moves"]
    assert sorted(moves) == ["add", "flip", "remove", "walk"]
    for m in moves.values():
        assert 0 < m["accepted"] <= m["proposed"]
    assert sum(moves[m]["accepted"] for m in ("add", "remove", "walk")) \
        == chain.accepted
    assert sum(moves[m]["proposed"] for m in ("add", "remove", "walk")) \
        <= chain.steps
    sizes = np.count_nonzero(chain.draws[:, 1:], axis=1)
    assert chain.meta["mean_support_size"] == float(np.mean(sizes))
    again = ss_mh_run(target, MHConfig(steps=2_000, burn_in=400, thin=4,
                                       seed=hash64(54, 2)))
    assert again.meta == chain.meta


@pytest.mark.parametrize("init", [
    [1.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.5, 2.0], [0.0, 0.5, 0.0, 0.0],
    [2.0, 0.5, 0.0, 0.0], [float("nan"), 0.5, 0.0, 0.0]],
    ids=["short", "long", "alpha0", "alpha2", "alphanan"])
def test_sparse_init_row_of_wrong_shape_or_sign_is_a_shape_error(init):
    # a sparse init is the (1+q) row (alpha, beta) with alpha -1 or +1
    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(20, 4)),
                                  (rng.random(20) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         data, 1.0)
    with pytest.raises(ShapeError, match=r"\(4,\) row"):
        ss_mh_run(target, MHConfig(steps=20, burn_in=0, thin=1, init=init))


# ---------------------------------------------------------------------------
# determinism and bookkeeping


def test_chain_is_pure_function_of_seed():
    target = _prior_only_target()
    cfg = MHConfig(steps=5_000, burn_in=1_000, thin=2,
                   proposal_scale=1.0, seed=hash64(5, 5))
    a = mh_run(target, cfg)
    b = mh_run(target, cfg)
    assert np.array_equal(a.draws, b.draws)
    assert a.accepted == b.accepted
    c = mh_run(target, MHConfig(steps=5_000, burn_in=1_000, thin=2,
                                proposal_scale=1.0, seed=hash64(5, 6)))
    assert not np.array_equal(a.draws, c.draws)


def test_default_proposal_scale_formula():
    prior = GaussianIID(0.0, 6.0, 6)
    scale = default_proposal_scale(prior, 6)
    assert np.allclose(scale, 2.4 / math.sqrt(6) * 6.0, atol=1e-14)
    assert np.allclose(default_proposal_scale(None, 3),
                       2.4 / math.sqrt(3), atol=1e-14)


def test_credible_interval_type7_worked_example():
    lo, hi = credible_interval(np.array([1.0, 2.0, 3.0, 4.0]), level=0.5)
    assert (lo, hi) == (1.75, 3.25)


def test_credible_interval_modes_and_validation():
    target = _prior_only_target()
    chain = mh_run(target, MHConfig(steps=3_000, burn_in=1_000, thin=1,
                                    proposal_scale=1.0, seed=hash64(6, 1)))
    by_coord = credible_interval(chain, 0, level=0.9)
    by_default = credible_interval(chain, level=0.9)
    by_functional = credible_interval(chain, level=0.9,
                                      functional=lambda d: d[0])
    assert by_coord == by_default == by_functional
    assert by_coord[0] < by_coord[1]
    with pytest.raises(PreconditionError):
        credible_interval(chain, 0, level=1.5)
    with pytest.raises(PreconditionError):
        credible_interval(np.array([]), level=0.5)


def test_effective_sample_size_behaviour():
    rng = np.random.default_rng(3)
    iid = rng.normal(size=4_000)
    ess_iid = effective_sample_size(iid)
    assert 0.6 * 4_000 < ess_iid <= 4_000
    # AR(1) with autocorrelation 0.9 has integrated time (1+phi)/(1-phi) = 19
    phi = 0.9
    n = 8_000
    ar = np.empty(n)
    ar[0] = 0.0
    eps = rng.normal(size=n) * math.sqrt(1 - phi ** 2)
    for i in range(1, n):
        ar[i] = phi * ar[i - 1] + eps[i]
    ess_ar = effective_sample_size(ar)
    assert n / 60 < ess_ar < n / 8
    assert effective_sample_size([1.0, 2.0]) == 2.0


def test_posterior_mean_matches_column_means():
    target = _prior_only_target()
    chain = mh_run(target, MHConfig(steps=2_000, burn_in=0, thin=1,
                                    proposal_scale=1.0, seed=hash64(6, 2)))
    assert np.allclose(posterior_mean(chain), chain.draws.mean(axis=0))


def test_chain_summary_contents():
    target = _prior_only_target()
    chain = mh_run(target, MHConfig(steps=2_000, burn_in=500, thin=3,
                                    proposal_scale=1.0, seed=hash64(6, 3)))
    out = chain_summary(chain, level=0.9)
    assert out["kept"] == 500
    assert out["steps"] == 2_000
    assert len(out["mean"]) == 1
    assert out["interval_level"] == 0.9
    lo, hi = out["intervals"][0]
    assert lo < out["mean"][0] < hi
    assert out["accept_rate"] == pytest.approx(out["accepted"] / 2_000)
    assert out["meta"]["omega"] == 0.0


def test_write_chain_csv_round_trip(tmp_path):
    target = _prior_only_target()
    chain = mh_run(target, MHConfig(steps=300, burn_in=100, thin=2,
                                    proposal_scale=1.0, seed=hash64(6, 4)))
    path = tmp_path / "chain.csv"
    write_chain_csv(chain, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta0"
    assert len(lines) == 1 + 100
    back = np.loadtxt(path, skiprows=1).reshape(-1, 1)
    assert np.array_equal(back, chain.draws)  # repr round-trips exactly


def test_write_chain_csv_exact_text(tmp_path):
    # each value is written as the shortest text that reads back to it
    chain = Chain(draws=np.array([[-0.0, 1e-07], [1e+16, 0.1]]), accepted=1,
                  steps=2, seed=0)
    path = tmp_path / "chain.csv"
    write_chain_csv(chain, path)
    assert path.read_text() == "theta0,theta1\n-0.0,1e-07\n1e+16,0.1\n"


def test_write_sparse_chain_csv_headers(tmp_path):
    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(30, 4)),
                                  (rng.random(30) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         data, 1.0)
    chain = ss_mh_run(target, MHConfig(steps=1_000, burn_in=200, thin=4,
                                       seed=hash64(6, 5)))
    path = tmp_path / "sparse.csv"
    write_chain_csv(chain, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,beta0,beta1,beta2"
    assert len(lines) == 1 + 200
