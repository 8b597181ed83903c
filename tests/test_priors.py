"""Prior log-densities, the sparse configuration prior, and samplers.

Gaussian/Laplace log-densities are cross-checked against scipy.stats; the
sparse configuration masses against direct enumeration in exact rational
arithmetic for the small worked case.
"""

import numpy as np
import pytest
from scipy import stats

from gibbsinf import GaussianIID, LaplaceIID, SparseParam, SpikeSlab
from gibbsinf.errors import PreconditionError, ShapeError
from gibbsinf.sampler import make_rng


# ---------------------------------------------------------------------------
# iid product priors


def test_gaussian_iid_frozen_value_at_origin():
    # -3 log(2 pi) - 6 log 6, six independent N(0, 36) coordinates at 0
    prior = GaussianIID(0.0, 6.0, 6)
    assert prior.log_density(np.zeros(6)) == pytest.approx(
        -16.26418801459636, abs=1e-12)


def test_gaussian_iid_matches_scipy():
    rng = np.random.default_rng(1)
    prior = GaussianIID(1.5, 2.5, 4)
    for _ in range(10):
        theta = rng.normal(size=4)
        want = stats.norm.logpdf(theta, loc=1.5, scale=2.5).sum()
        assert prior.log_density(theta) == pytest.approx(want, abs=1e-12)


def test_laplace_iid_matches_scipy():
    rng = np.random.default_rng(2)
    prior = LaplaceIID(0.7, 3)
    for _ in range(10):
        theta = rng.normal(size=3)
        want = stats.laplace.logpdf(theta, scale=1 / 0.7).sum()
        assert prior.log_density(theta) == pytest.approx(want, abs=1e-12)


def test_gaussian_sampler_moments():
    prior = GaussianIID(2.0, 0.5, 3)
    draws = np.array([prior.sample(make_rng(s)) for s in range(4000)])
    assert np.abs(draws.mean(axis=0) - 2.0).max() < 3 * 0.5 / np.sqrt(4000) * 3
    assert np.abs(draws.std(axis=0) - 0.5).max() < 0.05


def test_prior_parameter_validation():
    with pytest.raises(PreconditionError):
        GaussianIID(0.0, -1.0, 2)
    with pytest.raises(PreconditionError):
        LaplaceIID(0.0, 2)


# ---------------------------------------------------------------------------
# sparse configuration prior


def test_spike_slab_worked_masses_exact():
    # q = 2, a = 1, c = 1: size weights (cq^a)^-s give masses
    # {} -> 4/7, {0} -> 1/7, {1} -> 1/7, {0,1} -> 1/7
    prior = SpikeSlab(q=2, a=1.0, c=1.0)
    masses = {(): 4 / 7, (0,): 1 / 7, (1,): 1 / 7, (0, 1): 1 / 7}
    for S, want in masses.items():
        assert np.exp(prior.log_config_mass(S)) == pytest.approx(
            want, abs=1e-12)


def test_spike_slab_masses_sum_to_one():
    from itertools import combinations
    for q in (1, 2, 3, 5, 8, 12):
        prior = SpikeSlab(q=q, a=1.0, c=1.0)
        total = 0.0
        for s in range(q + 1):
            for S in combinations(range(q), s):
                total += np.exp(prior.log_config_mass(S))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_spike_slab_log_space_stability_large_q():
    # (c q^a)^-s underflows quickly in linear space; the log-space route
    # must still give finite, ordered masses
    prior = SpikeSlab(q=500, a=2.0, c=1.0)
    m0 = prior.log_config_mass(())
    m1 = prior.log_config_mass((3,))
    m2 = prior.log_config_mass((3, 7))
    assert np.isfinite([m0, m1, m2]).all()
    assert m0 > m1 > m2


def test_spike_slab_sampler_returns_sparse_params():
    prior = SpikeSlab(q=6, a=1.0, c=1.0)
    sp = prior.sample(make_rng(9))
    assert sp.alpha in (-1, 1)
    assert sp.dense(6).shape == (6,)
    dense = sp.dense_theta(6)
    assert dense.shape == (7,)
    assert dense[0] == sp.alpha
    assert np.count_nonzero(sp.dense(6)) == len(sp.S)


def test_spike_slab_validation():
    with pytest.raises(PreconditionError):
        SpikeSlab(q=0, a=1.0, c=1.0)


@pytest.mark.parametrize("support", [(-1,), (3,), (0, 5)])
def test_sparse_param_dense_rejects_support_outside_q(support):
    # construction stays permissive; embedding in q coordinates checks
    param = SparseParam(1, support, [2.0] * len(support))
    with pytest.raises(ShapeError, match=r"support \[.*\] .*\(q = 3\)"):
        param.dense(3)
    with pytest.raises(ShapeError, match=r"\(q = 3\)"):
        param.dense_theta(3)
