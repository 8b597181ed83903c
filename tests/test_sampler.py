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

from gibbsinf import sampler
from gibbsinf import (AffineBasis, AUCLoss, CappedSquaredLoss, CheckLoss,
                      CubicBSpline, Dataset, GaussianIID, GibbsTarget, LaplaceIID, MCIDLoss,
                      MHConfig, PairedScores, SpikeSlab, SquaredLoss,
                      ZeroOneLinearLoss, chain_summary, credible_interval,
                      mh_run, mh_run_block, mh_start, posterior_mean,
                      ss_mh_run, write_chain_csv)
from gibbsinf.errors import InitializationError, PreconditionError, ShapeError
from gibbsinf.harness.generators import MCID2, SparseClassSim
from gibbsinf.rates import FixedRate, HeavyTailRate, PowerLawRate
from gibbsinf.sampler import (_CHUNK, Chain, default_proposal_scale,
                              effective_sample_size, hash64, make_rng)


def _prior_only_target(sd: float = 1.0) -> GibbsTarget:
    """Rate-zero target whose law is exactly the N(0, sd^2) prior."""
    data = Dataset.regression(np.ones((4, 1)), np.zeros(4))
    return GibbsTarget(SquaredLoss(None), GaussianIID(0.0, sd, 1), data, 0.0)


def _log_target(target: GibbsTarget, theta) -> float:
    """-omega * N * R_n(theta) + log prior(theta) by the reference path, the
    target's risk and the prior's log density, with the operation order of
    the samplers' fused kernels."""
    return (-target.omega * target.n_terms * target.risk(theta)
            + target.prior.log_density(theta))


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
    assert MHConfig(steps=np.int64(100), burn_in=np.int32(10), thin=np.int16(3)).n_kept == 30
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


@pytest.mark.parametrize("counts", [dict(steps=100.5, burn_in=0.5, thin=1),
                                    dict(steps=True, burn_in=False, thin=1),
                                    dict(steps=100.0, burn_in=0, thin=1),
                                    dict(steps=100, burn_in=0, thin=np.float64(2.0))])
def test_mhconfig_rejects_non_integer_counts(counts):
    # such configs used to construct, and the chain died with a TypeError
    # from its first slice
    with pytest.raises(PreconditionError, match="integers"):
        MHConfig(**counts)


@given(st.integers(0, 400), st.integers(1, 13), st.integers(1, 300))
def test_kept_count_formula(burn_in, thin, kept):
    cfg = MHConfig(steps=burn_in + thin * kept, burn_in=burn_in, thin=thin)
    assert cfg.n_kept == kept


def test_gibbs_target_validation():
    data = Dataset.regression(np.ones((4, 1)), np.zeros(4))
    with pytest.raises(PreconditionError):
        GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 1.0, 1), data, -0.1)


def _target_at(omega):
    data = Dataset.regression(np.ones((4, 1)), np.zeros(4))
    return GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 1.0, 1), data, omega)


_NON_FINITE = [
    (GaussianIID, (0.0, math.nan, 2)), (GaussianIID, (0.0, math.inf, 2)),
    (GaussianIID, (math.nan, 1.0, 2)), (LaplaceIID, (math.nan, 2)),
    (LaplaceIID, (math.inf, 2)), (SpikeSlab, (5, math.nan, 1.0)),
    (SpikeSlab, (5, 1.0, math.inf)), (SpikeSlab, (5, 1.0, 1.0, math.nan)),
    (SpikeSlab, (math.nan, 1.0, 1.0)), (FixedRate, (math.nan,)),
    (FixedRate, (math.inf,)), (HeavyTailRate, (math.nan,)),
    (HeavyTailRate, (math.inf,)), (PowerLawRate, (math.nan, 0.5)),
    (PowerLawRate, (math.inf, 0.5)), (PowerLawRate, (1.0, math.nan)),
    (_target_at, (math.nan,)), (_target_at, (math.inf,)),
]


@pytest.mark.parametrize("make,args", _NON_FINITE,
                         ids=[f"{m.__name__}{a}" for m, a in _NON_FINITE])
def test_constructors_reject_non_finite_numbers(make, args):
    # a NaN omega would give a spike-slab chain that accepts no move and a
    # random-walk chain with "no finite-density initial point"; a NaN
    # power-law c would surface only in rate_at
    with pytest.raises(PreconditionError):
        make(*args)


def test_rate_zero_target_is_the_prior_density():
    target = _prior_only_target(sd=2.0)
    for v in (-1.0, 0.0, 1.7):
        theta = np.array([v])
        start = mh_start(target, MHConfig(steps=100, burn_in=0, thin=1, init=theta))
        assert start.logp == pytest.approx(target.prior.log_density(theta), abs=1e-14)
        assert start.logp == _log_target(target, theta)


def test_random_walk_init_must_be_as_wide_as_the_prior():
    # the one-row density would fail in the kernel's matmul with a bare
    # NumPy error
    target = _block_case("check/gaussian", R=1)[0]
    for init in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
        with pytest.raises(ShapeError, match=r"init must be a \(2,\) row"):
            mh_start(target, MHConfig(steps=100, burn_in=0, thin=1, init=init))


def test_two_sample_target_counts_pairs():
    from gibbsinf import AUCLoss
    data = Dataset.two_sample(np.array([0.1, 0.7, 0.4]), np.array([0.5, 0.9]))
    target = GibbsTarget(AUCLoss(), GaussianIID(0.5, 10.0, 1), data, 1.0)
    assert target.n_terms == 6


def test_target_rejects_data_that_is_not_a_dataset():
    pairs = PairedScores(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    with pytest.raises(ShapeError, match="must be a Dataset"):
        GibbsTarget(AUCLoss(), GaussianIID(0.5, 10.0, 1), pairs, 1.0)


def test_mh_run_rejects_zero_density_start():
    target = _prior_only_target()
    cfg = MHConfig(steps=100, burn_in=0, thin=1, proposal_scale=1.0,
                   init=np.array([np.inf]))
    with pytest.raises(InitializationError):
        mh_run(target, cfg)
    # at rate 0 the start's density is NaN, as (-0.0) * inf is; at a
    # positive rate the infinite risk makes it zero
    target = GibbsTarget(target.loss, target.prior, target.data, 1.0)
    with pytest.raises(InitializationError, match="zero target density"):
        mh_run(target, cfg)


def test_random_walk_chain_takes_only_a_gibbs_target():
    # a duck-typed target used to run chain by chain through its own
    # log_unnormalized; with a prior and an init it ran, without either it
    # was an InitializationError
    class Opaque:
        prior = GaussianIID(0.0, 1.0, 1)

        def log_unnormalized(self, theta):
            return 0.0

    for init in (None, np.zeros(1)):
        config = MHConfig(steps=100, burn_in=0, thin=1, proposal_scale=1.0,
                          init=init)
        with pytest.raises(ShapeError, match="GibbsTarget, not Opaque"):
            mh_start(Opaque(), config)
        with pytest.raises(ShapeError, match="GibbsTarget"):
            mh_run(Opaque(), config)


def test_mh_run_rejects_nan_start_density():
    # a NaN start would otherwise give a chain that never accepts
    with pytest.raises(InitializationError, match="NaN"):
        mh_run(_prior_only_target(), MHConfig(steps=100, burn_in=0, thin=1,
                                              proposal_scale=1.0,
                                              init=np.array([math.nan])))


def _counted(monkeypatch, cls, name):
    """Count the calls of method `name` of `cls`, which still runs."""
    calls = []
    original = getattr(cls, name)
    monkeypatch.setattr(cls, name,
                        lambda self, *args: calls.append(1) or original(self, *args))
    return calls


def _counted_rows(monkeypatch):
    """The row counts of every call of the density functions the sampler
    builds with `_block_log_density`, which still run."""
    rows = []
    original = sampler._block_log_density

    def counting(targets):
        density = original(targets)

        def build(k):
            scores = density(k)
            return lambda B: rows.append(B[..., 0].size) or scores(B)
        return build
    monkeypatch.setattr(sampler, "_block_log_density", counting)
    return rows


def test_random_walk_start_is_scored_once(monkeypatch):
    # a prior-drawn start keeps the density its acceptance test computed,
    # and a given init is scored once
    rng = make_rng(hash64(59, 1))
    x = rng.random(200)
    prior = GaussianIID(0.0, 10.0, 2)
    target = GibbsTarget(CheckLoss(0.5, AffineBasis()), prior,
                         Dataset.regression(x, 1.0 + 2.0 * x + rng.normal(size=200)),
                         1.0)
    calls = _counted_rows(monkeypatch)
    config = MHConfig(steps=100, burn_in=0, thin=1, seed=hash64(59, 2))
    drawn = mh_start(target, config)
    assert calls == [1]
    assert drawn.theta.tobytes() == prior.sample(make_rng(config.seed)).tobytes()
    calls.clear()
    given = mh_start(target, MHConfig(steps=100, burn_in=0, thin=1,
                                      init=drawn.theta))
    assert calls == [1]
    assert given.logp == drawn.logp == _log_target(target, drawn.theta)


def test_random_walk_start_retries_prior_draws_of_nan_or_zero_density(monkeypatch):
    # the walled target is NaN where theta_0 > 0.5 and -inf where it is below
    # -0.5, so most N(0, 9) draws fail; each draw is scored once, and the
    # first of finite density is the start
    rng = make_rng(hash64(47, 1))
    data = Dataset.regression(rng.normal(size=(20, 2)), rng.normal(size=20))
    target = GibbsTarget(_WalledSquaredLoss(data), GaussianIID(0.0, 3.0, 2), data, 0.2)
    draws = _counted(monkeypatch, GaussianIID, "sample")
    calls = _counted_rows(monkeypatch)
    start = mh_start(target, MHConfig(steps=100, burn_in=0, thin=1,
                                      seed=hash64(59, 3)))
    assert abs(start.theta[0]) <= 0.5
    assert len(draws) > 2 and calls == [1] * len(draws)
    assert start.logp == _log_target(target, start.theta)


def test_random_walk_start_gives_up_after_1000_prior_draws():
    # the squared residual of y = 1e300 overflows, so every risk is +inf
    data = Dataset.regression(np.ones((4, 2)), np.full(4, 1e300))
    nowhere = GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 1.0, 2), data, 1.0)
    with np.errstate(over="ignore"), \
            pytest.raises(InitializationError,
                          match="no finite-density initial point in 1000 prior draws"):
        mh_start(nowhere, MHConfig(steps=100, burn_in=0, thin=1))


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
        loss, prior = CheckLoss(0.3, AffineBasis()), GaussianIID(0.0, 10.0, 2)

        def data():
            x = rng.random(30)
            return Dataset.regression(x, 1.0 + 2.0 * x + rng.normal(size=30))
    elif kind == "check/laplace":
        loss, prior = CheckLoss(0.7, AffineBasis()), LaplaceIID(0.5, 2)

        def data():
            x = rng.random(30)
            return Dataset.regression(x, 1.0 - x + rng.standard_t(4, 30))
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
    # the block evaluates its densities with the vectorized kernels, never
    # with the reference path of a risk and a log prior per chain and step
    risks = _counted(monkeypatch, GibbsTarget, "risk")
    priors = _counted(monkeypatch, type(targets[0].prior), "log_density")
    block = mh_run_block(starts)
    assert not risks and not priors
    _assert_same_chains(block, singles)
    assert len({c.accepted for c in block}) > 1     # the chains do differ


@pytest.mark.parametrize("kind", ["mcid/gaussian", "check/gaussian",
                                  "squared/laplace", "cappedsquared/gaussian",
                                  "auc/gaussian", "zeroone/gaussian"])
def test_target_keeps_prepare_and_a_one_chain_block_views_it(kind, monkeypatch):
    # the target keeps loss.prepare(data) with no chain axis; a one-chain
    # block scores against (1, ...) views of those arrays, with no copy
    if kind == "zeroone/gaussian":
        rng = make_rng(hash64(62, 1))
        data = Dataset.classification(rng.normal(size=(30, 3)), rng.integers(0, 2, 30))
        target = GibbsTarget(ZeroOneLinearLoss(), GaussianIID(0.0, 1.0, 3), data, 1.0)
    else:
        target = _block_case(kind, R=1)[0]
    loss, fresh = target.loss, target.loss.prepare(target.data)
    assert len(target.prepared) == len(fresh)
    for got, want in zip(target.prepared, fresh):
        assert got.shape == want.shape and np.array_equal(got, want)
    seen, kernel = [], loss.kernel
    monkeypatch.setattr(loss, "kernel",
                        lambda prepared, k=None: seen.append(prepared) or kernel(prepared, k))
    mh_start(target, MHConfig(steps=10, burn_in=0, thin=1, seed=hash64(62, 2)))
    for state, own in zip(seen[0], target.prepared, strict=True):
        assert state.shape == (1,) + own.shape
        assert np.shares_memory(state, own)


def test_block_from_given_starts_equals_single_chain_runs():
    targets = _block_case("mcid/gaussian")
    configs = [MHConfig(steps=1_500, burn_in=0, thin=3, seed=hash64(43, r),
                        proposal_scale=[0.2, 0.4, 0.3, 0.5][r:] + [0.1] * r,
                        init=np.full(4, float(r)))
               for r in range(len(targets))]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    block = mh_run_block([mh_start(t, c) for t, c in zip(targets, configs)])
    _assert_same_chains(block, singles)


def test_block_rejects_no_chains():
    with pytest.raises(PreconditionError, match="at least one chain"):
        mh_run_block([])


@pytest.mark.parametrize("R", [1, 5], ids=["lookahead", "tree"])
def test_a_start_gives_the_same_chain_on_every_run(R):
    # a start's streams are set back to their states when it was made, so
    # running it again, alone or in a block, is the same chain
    targets = _block_case("mcid/gaussian", R=R)
    configs = [MHConfig(steps=_CHUNK + 31, burn_in=11, thin=4, seed=hash64(52, r))
               for r in range(R)]
    starts = [mh_start(t, c) for t, c in zip(targets, configs)]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    _assert_same_chains(mh_run_block(starts), singles)
    _assert_same_chains(mh_run_block(starts), singles)
    _assert_same_chains(mh_run_block(starts[:1]), singles[:1])


def test_block_rejects_chains_of_different_lengths():
    targets = _block_case("check/gaussian", R=2)
    starts = [mh_start(targets[0], MHConfig(steps=100, burn_in=0, thin=1)),
              mh_start(targets[1], MHConfig(steps=200, burn_in=0, thin=1))]
    with pytest.raises(PreconditionError, match="share"):
        mh_run_block(starts)


def test_block_rejects_chains_without_one_loss_one_prior_and_stacking_data():
    # such blocks used to run chain by chain through log_unnormalized, with
    # no lookahead: an equal but distinct loss or prior object made a block
    # several times slower with the same draws
    rng = make_rng(hash64(49, 1))

    def data(n):
        x = rng.random(n)
        return Dataset.regression(x, 1.0 + 2.0 * x + rng.normal(size=n))

    loss, prior = CheckLoss(0.3, AffineBasis()), GaussianIID(0.0, 10.0, 2)
    for other in (GibbsTarget(CheckLoss(0.3, AffineBasis()), prior, data(30), 1.0),
                  GibbsTarget(loss, GaussianIID(0.0, 10.0, 2), data(30), 1.0),
                  GibbsTarget(loss, prior, data(40), 1.0)):
        targets = [GibbsTarget(loss, prior, data(30), 1.0), other]
        starts = [mh_start(t, MHConfig(steps=100, burn_in=0, thin=1, seed=hash64(49, r)))
                  for r, t in enumerate(targets)]
        with pytest.raises(PreconditionError, match="one loss object, one prior "
                                                    "object and data whose risk"):
            mh_run_block(starts)


# per kind, proposal scales that give acceptance near 0.05, 0.25 and 0.7
# over a four-chain block, with the band each must fall in
_LOOKAHEAD_SCALES = {"mcid/gaussian": (10.0, 2.0, 0.15),
                     "check/gaussian": (3.0, 1.0, 0.2),
                     "check/laplace": (3.0, 1.0, 0.2),
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
    original = MCIDLoss.kernel

    def kernel(self, prepared, k=None):
        sums, n, values = original(self, prepared, k)
        return (lambda B: rows.append(B[..., 0].size) or sums(B)), n, values
    monkeypatch.setattr(MCIDLoss, "kernel", kernel)
    chain = mh_run_block(one)[0]
    assert chain.accept_rate < 0.1
    assert len(rows) <= 0.6 * steps
    assert sum(rows) <= 1.5 * steps
    # a block of eight chains at n = 40 (960 cells) never looks ahead along
    # the reject path; it scores a two-step tree, three rows per chain, in
    # one call per pair of steps
    rows.clear()
    mh_run_block(eight)
    assert rows == [3 * 8] * (steps // 2)


@pytest.mark.parametrize("extra, tree", [(0, True), (1, False)],
                         ids=["at-budget", "over-budget"])
def test_block_takes_the_tree_within_its_cell_budget(monkeypatch, extra, tree):
    # four check-loss chains whose 3 * R rows times n sit at the budget or
    # one observation per chain over it; both run the same chains as mh_run
    R = 4
    n = sampler._TREE_CELLS // (3 * R) + extra
    rng = make_rng(hash64(50, n))
    loss, prior = CheckLoss(0.3, AffineBasis()), GaussianIID(0.0, 10.0, 2)
    targets = []
    for r in range(R):
        x = rng.random(n)
        targets.append(GibbsTarget(loss, prior, Dataset.regression(
            x, 1.0 + 2.0 * x + rng.normal(size=n)), 0.5 + r))
    configs = [MHConfig(steps=2 * _CHUNK + 9, burn_in=9, thin=2,
                        seed=hash64(50, 1, r), proposal_scale=0.05)
               for r in range(R)]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    starts = [mh_start(t, c) for t, c in zip(targets, configs)]
    rows = _counted_rows(monkeypatch)
    block = mh_run_block(starts)
    _assert_same_chains(block, singles)
    if tree:          # a pair per call; each chunk's odd last step alone
        assert rows == ([3 * R] * (_CHUNK // 2)) * 2 + [3 * R] * 4 + [R]
    else:
        assert rows == [R] * (2 * _CHUNK + 9)


@pytest.mark.parametrize("kind", ["mcid/gaussian", "check/gaussian", "check/laplace",
                                  "squared/laplace", "cappedsquared/gaussian",
                                  "auc/gaussian"])
def test_tree_block_equals_single_chain_runs(kind, monkeypatch):
    # five small-n chains take the tree.  An odd burn-in and thin 3 put
    # kept draws on both steps of a pair, and 3 chunks and 51 steps leave
    # an odd last chunk, whose last step takes the one-row call
    targets = _block_case(kind, R=5)
    configs = [MHConfig(steps=3 * _CHUNK + 51, burn_in=99, thin=3,
                        seed=hash64(51, r),
                        proposal_scale=_LOOKAHEAD_SCALES[kind][1])
               for r in range(5)]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    starts = [mh_start(t, c) for t, c in zip(targets, configs)]
    rows = _counted_rows(monkeypatch)
    block = mh_run_block(starts)
    _assert_same_chains(block, singles)
    assert rows == [15] * (3 * _CHUNK // 2 + 25) + [5]
    assert len({c.accepted for c in block}) > 1


class _WalledSquaredLoss(SquaredLoss):
    """Squared loss whose risk, on one chosen dataset only, is NaN where the
    first coefficient exceeds 0.5 and +inf (target density -inf) where it is
    below -0.5."""

    def __init__(self, walled: Dataset):
        super().__init__(None)
        self.walled = walled

    def prepare(self, data):
        return super().prepare(data) + (np.array(data is self.walled),)

    def kernel(self, prepared, k=None):
        *state, walled = prepared
        sums, n, values = super().kernel(tuple(state), k)
        walled = np.repeat(walled, k or 1)        # per row, chain-major

        def walled_sums(B):
            out, first = np.array(sums(B)), B[..., 0].ravel()
            out[walled & (first > 0.5)] = np.nan
            out[walled & (first < -0.5)] = np.inf
            return out.tolist()
        return walled_sums, n, values


def _walled_block(monkeypatch, R):
    """Run a block of R chains of which the first's target is NaN on one
    side of its start and -inf on the other, check it against one-chain
    runs and that only the first chain stays inside the walls; return,
    per kernel call of more than R rows, its NaN and -inf rows."""
    rng = make_rng(hash64(47, 1))
    data = [Dataset.regression(rng.normal(size=(20, 2)), rng.normal(size=20))
            for _ in range(R)]
    loss, prior = _WalledSquaredLoss(data[0]), GaussianIID(0.0, 3.0, 2)
    targets = [GibbsTarget(loss, prior, d, 0.2) for d in data]
    configs = [MHConfig(steps=6 * _CHUNK + 5, burn_in=0, thin=1, seed=hash64(47, 2 + r),
                        proposal_scale=[1.5, 0.2], init=np.zeros(2))
               for r in range(R)]
    singles = [mh_run(t, c) for t, c in zip(targets, configs)]
    walls = []
    original = _WalledSquaredLoss.kernel

    def kernel(self, prepared, k=None):
        sums, n, values = original(self, prepared, k)

        def counted(B):
            out = sums(B)
            if B[..., 0].size > R:
                walls.append((np.isnan(out).sum(), np.isinf(out).sum()))
            return out
        return counted, n, values
    monkeypatch.setattr(_WalledSquaredLoss, "kernel", kernel)
    block = mh_run_block([mh_start(t, c) for t, c in zip(targets, configs)])
    _assert_same_chains(block, singles)
    walled, free = block[0].draws[:, 0], block[1].draws[:, 0]
    assert np.all(np.abs(walled) <= 0.5)
    assert walled.max() > 0.4 and walled.min() < -0.4
    assert free.max() > 0.5 and free.min() < -0.5
    assert 0.05 < block[0].accept_rate < block[1].accept_rate
    return walls


def test_lookahead_block_never_moves_into_nan_or_zero_density(monkeypatch):
    # two chains, so the block evaluates up to two steps per kernel call
    walls = _walled_block(monkeypatch, 2)
    nan_rows, inf_rows = np.sum(walls, axis=0)
    assert len(walls) > 500 and nan_rows > 100 and inf_rows > 100


def test_tree_block_never_moves_into_nan_or_zero_density(monkeypatch):
    # four chains take the tree: every call but the one-row call of the
    # last chunk's odd last step scores both steps of a pair
    walls = _walled_block(monkeypatch, 4)
    nan_rows, inf_rows = np.sum(walls, axis=0)
    assert len(walls) == 6 * _CHUNK // 2 + 2 and nan_rows > 100 and inf_rows > 100


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
    check = GibbsTarget(CheckLoss(0.5, AffineBasis()), LaplaceIID(1.0, 2),
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


@pytest.mark.parametrize("kind, R, regime, accepted, digest", [
    ("squared/laplace", 4, 1, [599, 360, 223, 199],
     "e994a3d9382a62cbb8e183cfdb1bbe2ea9b004a302f9fd62ce870a5a9a2a9e3c"),
    ("squared/laplace", 2, 0, [157, 58],
     "f56137f46b76f28550d40a705f63833b3d1b1b5a8f80c1c9064367c23eb1ca71"),
    ("cappedsquared/gaussian", 4, 1, [661, 503, 266, 194],
     "7127f146c44244a45659508840b91b7dfbd9aa26b46b2a5e44ea33fbedd8d7a7"),
    ("cappedsquared/gaussian", 2, 0, [143, 88],
     "e89a0caf377879808d75072dab61296a8f5931f5945604017df693f062846dfc"),
    ("auc/gaussian", 4, 1, [464, 294, 243, 233],
     "5b223b8801282ef5ef35e2f7a2f6333f5065c4e529a65d0041a7e470e704157c"),
    ("auc/gaussian", 2, 0, [109, 66],
     "7e7c5e076054350ae373c4c96e9409f71332ee976c5e2db17b01133e9ac5c171"),
    ("check/laplace", 4, 1, [518, 320, 246, 152],
     "6f87825f18aa046842f8acd5334b53ec9c3a2837ef2e9df62ca2e54512891824"),
    ("check/laplace", 2, 0, [122, 100],
     "880d43eee806cb9836ee40a915b0fbdf6d5991054f3a2cec977c7be7bf022ad8")])
def test_block_chains_match_recorded_digests(kind, R, regime, accepted, digest):
    # accept counts and a sha256 of the draws of every chain of a block,
    # recorded before the block evaluated its densities into buffers made
    # once per block (the auc and check/laplace blocks, before the kernels
    # gave sums and a divisor and the priors an affine pair: the auc risk is
    # its closed form over 1, the Laplace density log_norm + (-rate) * sum
    # |theta|).  The blocks of four evaluate one step per kernel call
    # at acceptance near 0.25; the blocks of two, near 0.05, mostly look
    # ahead two steps per call.  Five full chunks and a short one.
    targets = _block_case(kind, R=R)
    configs = [MHConfig(steps=5 * _CHUNK + 20, burn_in=100, thin=4,
                        seed=hash64(48, r),
                        proposal_scale=_LOOKAHEAD_SCALES[kind][regime])
               for r in range(R)]
    block = mh_run_block([mh_start(t, c) for t, c in zip(targets, configs)])
    assert [c.accepted for c in block] == accepted
    sha = hashlib.sha256()
    for c in block:
        sha.update(c.draws.tobytes())
    assert sha.hexdigest() == digest


def test_block_memory_is_bounded():
    # variates are drawn chunk by chunk, so the peak stays near the kept
    # draws instead of growing with steps x chains x dim.  The block's
    # memory does not depend on the target; a rate-0 one on four points
    # keeps the traced run short, as tracemalloc slows every allocation.
    R, steps, thin, dim = 4, 60_000, 10, 2
    flat = GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 1.0, dim),
                       Dataset.regression(np.ones((4, dim)), np.zeros(4)), 0.0)
    configs = [MHConfig(steps=steps, burn_in=0, thin=thin, proposal_scale=0.3,
                        seed=hash64(44, r), init=np.zeros(dim)) for r in range(R)]
    # a process's first chain start imports modules (the first Philox a
    # process builds, make_rng's keyed one included, imports `secrets`),
    # about 0.7 MB that is no memory of the block
    mh_start(flat, configs[0])
    tracemalloc.start()
    try:
        chains = mh_run_block([mh_start(flat, c) for c in configs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chains[0].draws.shape == (steps // thin, dim)
    kept = R * (steps // thin) * dim * 8
    variates = R * _CHUNK * (2 * dim + 1) * 8
    bound = kept + variates + 256_000
    assert peak < bound
    # drawing one chain's variates at once would already take 1.44 MB
    assert steps * (dim + 1) * 8 > 2 * bound


def _mcid2_target(n, seed):
    """A one-chain target of the mcid2 protocol: the MCID loss on a 4x4
    tensor spline (J = 16), a Gaussian(0, 6) prior, omega = 1."""
    gen = MCID2()
    return GibbsTarget(MCIDLoss(gen.default_basis(4)), GaussianIID(0.0, 6.0, 16),
                       gen.sample(n, make_rng(seed)), 1.0)


def test_one_chain_lookahead_holds_one_copy_of_the_design():
    # a one-chain block builds its densities for 1..4 rows per call on the
    # target's own (J, n) design: the buffers of those 10 rows (a product,
    # a tiled threshold and a mask each) and the variates, with less than
    # one design's bytes to spare.  A state tiled 4 times would add three
    # designs, 384 kB.
    target = _mcid2_target(1000, hash64(61, 1))
    config = MHConfig(steps=512, burn_in=0, thin=512, proposal_scale=0.1,
                      seed=hash64(61, 2), init=np.zeros(16))
    mh_start(target, config)          # module imports of a first start
    start = mh_start(target, config)
    tracemalloc.start()
    try:
        mh_run_block([start])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    design, n = target.prepared[0].nbytes, 1000
    rows = sum(range(1, sampler._LOOKAHEAD_ROWS + 1))
    buffers = rows * n * (8 + 8 + 1) + _CHUNK * (2 * 16 + 1) * 8
    assert peak < buffers + design


# (sha256 of the draws' bytes, acceptances) of a 3000-step one-chain mcid2
# chain (n = 1000, J = 16) from a given init, recorded before the lookahead
# scored a chain's rows with one gemm on its own design: it makes 812 calls
# of 4 rows.  `test_losses._mask_pin_misses` reruns it under other BLAS
# kernels.
_MCID_LOOKAHEAD_PIN = ("9cd23cd03f3247bf9967018705a3dc8842620983ac129b0b19d8aff4a9867a0b", 334)


def _mcid_lookahead_chain():
    # the init is the tensor spline of z1 + 2 z2 (a cubic B-spline basis
    # on [0, 3] reproduces a linear function from its values at 0, 1, 2, 3),
    # not the pilot, whose lstsq moves under other BLAS kernels
    init = np.add.outer(np.arange(4.0), 2.0 * np.arange(4.0)).ravel()
    return mh_run(_mcid2_target(1000, hash64(62, 1000)),
                  MHConfig(steps=3000, burn_in=0, thin=1, proposal_scale=0.1,
                           init=init, seed=hash64(62, 1000, 1)))


def test_one_chain_mcid_lookahead_matches_recorded_digest(monkeypatch):
    rows = _counted_rows(monkeypatch)
    chain = _mcid_lookahead_chain()
    assert chain.accepted == _MCID_LOOKAHEAD_PIN[1]
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == _MCID_LOOKAHEAD_PIN[0]
    # one row for the start and each step of the first chunk (K = 1), then
    # mostly four
    assert np.bincount(rows).tolist() == [0, 262, 4, 1, 812]


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


class _BinPrior:
    """Flat bins [i, i+1) on [0, len(weights)) with the given weights, in
    the kernel form of the iid priors: a chain's statistic is the log weight
    of its bin, or -inf off the bins, and its log density 1 * s + 0."""

    kind = "bins"
    dim = 1

    def __init__(self, weights):
        self.log_weights = np.log(weights).tolist()

    def kernel(self, shape):
        bins, log_weights = len(self.log_weights), self.log_weights

        def stats(theta):
            return [log_weights[int(x)] if 0.0 <= x < bins else -math.inf
                    for x in np.reshape(theta, (-1,)).tolist()]
        return stats, 1.0, 0.0

    def log_density(self, theta):
        stats, a, b = self.kernel(())
        return a * stats(theta)[0] + b


def test_invariance_on_piecewise_constant_density():
    # five flat bins on [0,5) with known masses; kept frequencies must match
    # within 3 ESS-adjusted standard errors, and transition fluxes between
    # every bin pair must balance as reversibility demands.  The target is
    # the bin prior at rate 0, so the chain runs the block's own kernels.
    weights = np.array([1.0, 2.0, 4.0, 2.0, 1.0])
    target = GibbsTarget(SquaredLoss(None), _BinPrior(weights),
                         Dataset.regression(np.ones((4, 1)), np.zeros(4)), 0.0)
    cfg = MHConfig(steps=200_000, burn_in=20_000, thin=1,
                   proposal_scale=1.2, seed=hash64(77, 3),
                   init=np.array([2.5]))
    chain = mh_run(target, cfg)
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


def _word_position(rng):
    """The Philox counter and the place in its four-word block."""
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("key", [1, hash64(53, 200, 1), 2**64 - 1])
@pytest.mark.parametrize("chosen", [0, 7])
def test_word_draws_equal_the_generator_draws(key, chosen):
    # the sparse chain's uniforms and coordinate picks, read from its Philox
    # words, against Generator.random() and Generator.integers(k) on a twin,
    # with Laplace and normal draws between them: every value, then the word
    # position and the buffered half.  At k = 2**31 + 1 about half the picks
    # are drawn again; k = 1 draws nothing; k = 2**32 is the method's bound.
    # A start that choice(replace=False) left with a buffered half, as
    # SpikeSlab.sample does, takes that half first.  If NumPy changes either
    # algorithm this fails, where the sparse chains' bytes would move.
    bounds = (1, 2, 3, 50, 51, 5001, 2**31 + 1, 2**32 - 1, 2**32)
    words, twin = make_rng(key), make_rng(key)
    if chosen:
        for rng in (words, twin):
            rng.choice(50, size=chosen, replace=False)
        assert twin.bit_generator.state["has_uint32"] == 1
    uniform, pick = sampler._word_draws(words)
    schedule = np.random.default_rng(key)
    drawn = dict.fromkeys(bounds, 0)
    for kind in schedule.integers(4, size=4000).tolist():
        if kind == 0:
            assert uniform() == twin.random()
        elif kind == 1:
            k = bounds[schedule.integers(len(bounds))]
            got = pick(k)
            assert got == twin.integers(k) and 0 <= got < k, k
            drawn[k] += 1
        elif kind == 2:
            assert words.laplace(0.0, 0.7) == twin.laplace(0.0, 0.7)
        else:
            s = int(schedule.integers(5))
            assert np.array_equal(words.standard_normal(s),
                                  twin.standard_normal(s))
    assert min(drawn.values()) > 50
    assert _word_position(words) == _word_position(twin)
    # a 32-bit draw reads the buffered half if there is one, and the words
    # stay in step only if both sides hold the same half
    assert pick(2**32) == twin.integers(2**32)
    assert _word_position(words) == _word_position(twin)


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


# (n, sha256 of the draws' bytes, acceptances) of two 3000-step chains on
# the sparse_trend protocol (q = 50), recorded with the package that kept the
# support as a mask; `test_losses._mask_pin_misses` reruns them under other
# BLAS kernels
_Q50_PINS = [
    (200, "5e15a486631475c85599da1662ee1117bf65cbff994f2892562729bdba4453f4", 144),
    (800, "ba9440b3bea3764d62f2185c60fc627d115466b78a5c3e9a71b2651c598a7e6c", 70)]


def _q50_target(n):
    gen = SparseClassSim(50, (0, 1), [2.0, -1.5], flip_rho=0.1)
    data = gen.sample(n, make_rng(hash64(53, n)))
    return GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=50, a=1.0, c=1.0),
                       data, 1.0)


def _q50_chain(n):
    return ss_mh_run(_q50_target(n), MHConfig(steps=3000, burn_in=0, thin=1,
                                              seed=hash64(53, n, 1)))


@pytest.mark.parametrize("n, digest, accepted", _Q50_PINS)
def test_q50_sparse_chains_match_recorded_digests(n, digest, accepted):
    # every state of the two chains.  About 1700 adds and removes per chain
    # pick among up to 50 coordinates; 30 and 6 are accepted.
    chain = _q50_chain(n)
    assert chain.accepted == accepted
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == digest


def test_sparse_chain_start_is_a_prior_draw_the_prior_does_not_score(monkeypatch):
    # a spike-slab draw's log density is finite (a normalized size prior,
    # log C(q, s) of integers and Laplace slabs), so the first draw is the start;
    # the n = 200 chain pinned above keeps its bytes
    calls = _counted(monkeypatch, SpikeSlab, "log_density")
    gen = SparseClassSim(50, (0, 1), [2.0, -1.5], flip_rho=0.1)
    data = gen.sample(200, make_rng(hash64(53, 200)))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=50, a=1.0, c=1.0),
                         data, 1.0)
    chain = ss_mh_run(target, MHConfig(steps=3000, burn_in=0, thin=1,
                                       seed=hash64(53, 200, 1)))
    assert not calls
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == \
        "5e15a486631475c85599da1662ee1117bf65cbff994f2892562729bdba4453f4"


def _scored_zero_one_rows(monkeypatch, score=None):
    """Record the bytes of every buffer a 0-1 `counter`'s count scores (a
    linear predictor, or a sparse chain's change against its margin);
    `score(k, n)`, if given, replaces the count of the k-th."""
    rows = []
    original = ZeroOneLinearLoss.counter

    def counter(self, prepared, shape):
        count, linear, mask = original(self, prepared, shape)

        def recorded(B=None):
            got = count(B)
            rows.append(linear.tobytes())
            return got if score is None else score(len(rows) - 1, shape[-1])
        return recorded, linear, mask
    monkeypatch.setattr(ZeroOneLinearLoss, "counter", counter)
    return rows


@pytest.mark.parametrize("n, calls, most", [(200, 2000, 0.8), (800, 2128, 0.7)])
def test_q50_sparse_chains_score_repeated_rows_once(monkeypatch, n, calls, most):
    # scores on the two pinned q50 chains above (same draws): a state stands
    # for 20-40 steps, and its remove-j rows and flipped row are scored once
    # each while it stands, and the prior-drawn start is scored once.
    # Scoring every proposal took 2603 and 3154 scores: one per proposal,
    # plus two on the start.  The full product that rebuilds the standing
    # margin at an accepted move is not a score.
    rows = _scored_zero_one_rows(monkeypatch)
    chain = _q50_chain(n)
    proposals = sum(m["proposed"] for m in chain.meta["moves"].values())
    assert len(rows) == calls
    assert len(rows) <= most * proposals


def test_standing_sparse_state_scores_each_remove_and_flip_row_once(monkeypatch):
    # every score but the start's, the first, is n mismatches, so no move is
    # accepted and the start stands for the whole chain: each remove-j row
    # and the flipped row are scored the first time they are proposed, and
    # never again
    q = 5
    init = [1.0, 0.5, -0.25, 0.0, 1.5, 0.0]
    rows = _scored_zero_one_rows(monkeypatch, lambda k, n: 0 if k == 0 else n)
    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(30, 1 + q)),
                                  (rng.random(30) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=q, a=1.0, c=1.0),
                         data, 5.0)
    chain = ss_mh_run(target, MHConfig(steps=400, burn_in=0, thin=1, init=init,
                                       alpha_flip_prob=0.5, seed=hash64(58, 1)))
    moves = chain.meta["moves"]
    assert chain.accepted == 0 and moves["flip"]["accepted"] == 0
    assert (chain.draws == np.array(init)).all()
    assert moves["remove"]["proposed"] > 3 and moves["flip"]["proposed"] > 1
    assert len(set(rows)) == len(rows)
    # the start, each add and walk, the three remove rows, one flipped row
    assert len(rows) == 1 + moves["add"]["proposed"] \
        + moves["walk"]["proposed"] + 3 + 1


class _LastDraws:
    """A generator that keeps the last variate each of its Laplace and
    normal draws gave; its other attributes, the bit generator the chain's
    word draws read among them, pass through."""

    def __init__(self, rng):
        self.rng, self.last = rng, {}

    def __getattr__(self, name):
        draw = getattr(self.rng, name)
        if name not in ("laplace", "standard_normal"):
            return draw

        def recorded(*args, **kwargs):
            self.last[name] = got = draw(*args, **kwargs)
            return got
        return recorded


def _sparse_chain_events(monkeypatch):
    """Record, in order, a sparse chain's start score ("start", theta,
    count), each proposal score ("score", change, count, the last draws,
    the last coordinate pick among them) and each margin build ("margin",
    the standing predictor)."""
    events, rngs = [], []
    make, counter = sampler.make_rng, ZeroOneLinearLoss.counter
    margin, word_draws = ZeroOneLinearLoss.margin, sampler._word_draws

    def recorded_rng(seed):
        rngs.append(_LastDraws(make(seed)))
        return rngs[-1]

    def recorded_word_draws(rng):
        uniform, pick = word_draws(rng)

        def recorded(k):
            rng.last["pick"] = got = pick(k)
            return got
        return uniform, recorded

    def recorded_counter(self, prepared, shape):
        count, linear, mask = counter(self, prepared, shape)

        def recorded(B=None):
            got = count(B)
            events.append(("start", B.copy(), got) if B is not None
                          else ("score", linear.copy(), got, dict(rngs[-1].last)))
            return got
        return recorded, linear, mask

    def recorded_margin(self, prepared):
        build, m = margin(self, prepared)

        def recorded(eta):
            events.append(("margin", eta.copy()))
            return build(eta)
        return recorded, m
    monkeypatch.setattr(sampler, "make_rng", recorded_rng)
    monkeypatch.setattr(ZeroOneLinearLoss, "counter", recorded_counter)
    monkeypatch.setattr(ZeroOneLinearLoss, "margin", recorded_margin)
    monkeypatch.setattr(sampler, "_word_draws", recorded_word_draws)
    return events


def _sparse_proposals(theta, last, Xt, walk_scale):
    """(move, proposed theta, the change it makes to the predictor) of
    every proposal from theta that the last draws can have made."""
    support = np.flatnonzero(theta[1:]) + 1
    absent = np.flatnonzero(theta[1:] == 0) + 1
    steps = [("remove", c, 0.0, -theta[c]) for c in support]
    steps.append(("flip", 0, -theta[0], -2.0 * theta[0]))
    v, i = last.get("laplace"), last.get("pick")
    if np.ndim(v) == 0 and i is not None and i < len(absent):
        steps.append(("add", absent[i], v, v))
    for move, c, value, d in steps:
        prop = theta.copy()
        prop[c] = value
        yield move, prop, np.multiply(Xt[c], d)
    normals = last.get("standard_normal")
    if normals is not None and normals.shape == support.shape:
        walk = walk_scale * normals
        prop = theta.copy()
        prop[support] = theta[support] + walk
        yield "walk", prop, np.matmul(walk, Xt[support])


@pytest.mark.parametrize("n", [200, 800])
def test_q50_sparse_chain_energies_equal_the_reference_risk(monkeypatch, n):
    # every energy the pinned q50 chain scores, -omega*N*count/n on a change
    # counted against the standing margin, is -omega*N*risk of the proposed
    # row by GibbsTarget.risk's full product, and each margin is rebuilt
    # from the accepted row.  Each proposal is found from the change it
    # scored, among the moves the standing row and the last draws allow.
    # The remove and flip energies the cache then serves are these scores.
    recording = _sparse_chain_events(monkeypatch)
    target = _q50_target(n)
    chain = ss_mh_run(target, MHConfig(steps=3000, burn_in=0, thin=1,
                                       seed=hash64(53, n, 1)))
    events = list(recording)      # the reference's own scores come after
    Xt, omega_n = target.prepared[0], target.omega * target.n_terms
    (_, theta, start), (_, eta) = events[:2]
    assert -omega_n * (start / n) == -omega_n * target.risk(theta)
    assert eta.tobytes() == np.matmul(theta[None], Xt).tobytes()   # count(theta)'s
    scored = dict.fromkeys(("add", "remove", "walk", "flip"), 0)
    proposed = []                 # the rows scored while theta stands
    for event in events[2:]:
        if event[0] == "margin":
            theta = next(prop for prop in proposed
                         if np.matmul(prop, Xt).tobytes() == event[1].tobytes())
            proposed = []
            continue
        _, change, got, last = event
        move, prop = next((move, prop) for move, prop, made
                          in _sparse_proposals(theta, last, Xt,
                                               chain.meta["walk_scale"])
                          if made.tobytes() == change.tobytes())
        assert -omega_n * (got / n) == -omega_n * target.risk(prop), move
        scored[move] += 1
        proposed.append(prop)
    assert np.array_equal(theta, chain.draws[-1])
    moves = chain.meta["moves"]
    assert scored["add"] == moves["add"]["proposed"]
    assert scored["walk"] == moves["walk"]["proposed"]
    for move in ("remove", "flip"):
        assert 0 < scored[move] < moves[move]["proposed"]


@pytest.mark.parametrize("n", [1, 200, 800])
def test_one_row_zero_one_kernel_equals_the_block_risk(n):
    # the 0-1 risk of one (alpha, beta) row by the kernel on the target's
    # 2-D arrays, against the kernel on the stacked (1, n, J) block, bit
    # for bit: empty supports with either sign of alpha, signed zeros,
    # sparse rows and dense rows
    q = 50
    gen = SparseClassSim(q, (0, 1), [2.0, -1.5], flip_rho=0.1)
    data = gen.sample(n, make_rng(hash64(57, n)))
    loss = ZeroOneLinearLoss()
    prepared = loss.prepare(data)
    kernel, n = loss.kernel(prepared)[:2]
    block = loss.kernel(tuple(a[None] for a in prepared))[0]

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
        want = block(theta[None])[0] / n
        assert (kernel(theta) / n).hex() == want.hex()


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


@pytest.mark.parametrize("init, message", [
    ([1.0, float("nan"), 0.0, 0.0], "NaN target density"),
    ([1.0, float("inf"), 0.0, 0.0], "zero target density"),
    ([1.0, 1e308, 1e308, 0.0], "zero target density")],
    ids=["nan", "inf", "overflow"])
def test_sparse_start_of_nan_or_zero_density_is_an_initialization_error(
        init, message):
    # as a random-walk start: a NaN slab density, and an infinite coefficient
    # or a sum of |beta| that overflows, whose slab density is -inf
    data = SparseClassSim(3, [0], [1.0]).sample(50, make_rng(1))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(3, 1.0, 1.0), data, 1.0)
    # the overflowing sum of |beta| is the case under test, not a warning
    with pytest.raises(InitializationError, match=message), \
            np.errstate(over="ignore"):
        ss_mh_run(target, MHConfig(steps=200, burn_in=0, thin=1, seed=1,
                                   init=init))


def test_sparse_chain_rejects_a_per_coordinate_proposal_scale():
    # the walk moves every support coordinate with one scale, so a list of
    # several scales is an error, not its first entry; one entry is that scale
    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(20, 4)),
                                  (rng.random(20) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         data, 1.0)
    with pytest.raises(ShapeError, match="one proposal scale"):
        ss_mh_run(target, MHConfig(steps=20, burn_in=0, thin=1,
                                   proposal_scale=[0.1, 9.0, 9.0]))
    chain = ss_mh_run(target, MHConfig(steps=20, burn_in=0, thin=1,
                                       proposal_scale=[0.1]))
    assert chain.meta["walk_scale"] == 0.1


def test_random_walk_chain_rejects_a_spike_slab_target():
    # the spike-slab prior has a density on one (1+q) row only, and its
    # chains are the sparse sampler's
    rng = np.random.default_rng(8)
    data = Dataset.classification(rng.normal(size=(20, 4)),
                                  (rng.random(20) < 0.5).astype(float))
    target = GibbsTarget(ZeroOneLinearLoss(), SpikeSlab(q=3, a=1.0, c=1.0),
                         data, 1.0)
    with pytest.raises(ShapeError, match="ss_mh_run"):
        mh_run(target, MHConfig(steps=20, burn_in=0, thin=1, proposal_scale=0.1,
                                init=np.array([1.0, 0.5, 0.2, 0.1])))


def test_random_walk_chain_rejects_a_proposal_scale_of_the_wrong_length():
    # one scale for every coordinate, or one per coordinate
    data = Dataset.regression(np.ones((4, 2)), np.zeros(4))
    target = GibbsTarget(SquaredLoss(None), GaussianIID(0.0, 1.0, 2), data, 1.0)
    for scale in ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4]):
        with pytest.raises(ShapeError, match="dimension 2"):
            mh_start(target, MHConfig(steps=20, burn_in=0, thin=1,
                                      proposal_scale=scale, init=[0.0, 0.0]))
    for scale in (0.1, [0.1], [0.1, 0.2]):
        start = mh_start(target, MHConfig(steps=20, burn_in=0, thin=1,
                                          proposal_scale=scale, init=[0.0, 0.0]))
        assert start.scale.shape == (2,)


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
    scale = default_proposal_scale(prior)
    assert np.allclose(scale, 2.4 / math.sqrt(6) * 6.0, atol=1e-14)


def test_credible_interval_type7_worked_example():
    lo, hi = credible_interval(np.array([1.0, 2.0, 3.0, 4.0]), level=0.5)
    assert (lo, hi) == (1.75, 3.25)


def test_credible_interval_modes_and_validation():
    target = _prior_only_target()
    chain = mh_run(target, MHConfig(steps=3_000, burn_in=1_000, thin=1,
                                    proposal_scale=1.0, seed=hash64(6, 1)))
    by_coord = credible_interval(chain.draws[:, 0], level=0.9)
    by_list = credible_interval(chain.draws[:, 0].tolist(), level=0.9)
    by_functional = credible_interval([d[0] for d in chain.draws], level=0.9)
    assert by_coord == by_list == by_functional
    assert by_coord[0] < by_coord[1]
    with pytest.raises(PreconditionError):
        credible_interval(chain.draws[:, 0], level=1.5)
    with pytest.raises(PreconditionError):
        credible_interval(np.array([]), level=0.5)
    with pytest.raises(ShapeError, match="1-D"):
        credible_interval(chain.draws, level=0.9)


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
