"""Prior log-densities, the sparse configuration prior, and samplers.

Gaussian/Laplace log-densities are cross-checked against scipy.stats; the
sparse configuration masses against direct enumeration in exact rational
arithmetic for the small worked case.
"""

import hashlib

import numpy as np
import pytest
from scipy import stats

from gibbsinf import GaussianIID, LaplaceIID, SpikeSlab
from gibbsinf.errors import PreconditionError, ShapeError
from gibbsinf.sampler import hash64, make_rng


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


@pytest.mark.parametrize("prior", [GaussianIID(0.0, 2.0, 3), LaplaceIID(0.7, 3)],
                         ids=["gaussian", "laplace"])
def test_iid_log_density_takes_one_row_only(prior):
    # a block of chains is scored by the prior's kernel, not by log_density
    assert isinstance(prior.log_density(np.zeros(3)), float)
    for theta in (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros(4), np.zeros(())):
        with pytest.raises(ShapeError):
            prior.log_density(theta)


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
    # a sparse parameter is its dense (1+q) row (alpha, beta)
    prior = SpikeSlab(q=6, a=0.5, c=0.5)
    for seed in range(20):
        theta = prior.sample(make_rng(seed))
        assert theta.shape == (7,)
        assert theta[0] in (-1.0, 1.0)


def test_spike_slab_draws_match_recorded_digests():
    # 20 prior draws as dense (alpha, beta) rows and their log-densities,
    # recorded as sha256 digests; any change to the variates, their order
    # or the density shows here
    prior = SpikeSlab(q=8, a=1.0, c=1.0)
    rng = make_rng(hash64(97, 8))
    draws = [prior.sample(rng) for _ in range(20)]
    rows = np.stack(draws)
    assert rows.shape == (20, 9)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == \
        "e9dbd0433c83c168987cf4e80c14f1dcb2b6a8be01fdc74a4bacdde8492c70bb"
    log_densities = np.array([prior.log_density(d) for d in draws])
    assert hashlib.sha256(log_densities.tobytes()).hexdigest() == \
        "7a0a3de9d4ed56a7db62001f2a282014c5d7f5be3cf903ff5ab9a65e53a7541d"


def test_spike_slab_validation():
    with pytest.raises(PreconditionError):
        SpikeSlab(q=0, a=1.0, c=1.0)
    # q = 50.7 built 50 coordinates and normalized its size prior with log 50.7
    with pytest.raises(PreconditionError, match="integer"):
        SpikeSlab(q=50.7, a=1.0, c=1.0)


def test_spike_slab_log_density_reads_the_support_off_the_row():
    # the support of (alpha, beta) is the nonzero coordinates of beta
    prior = SpikeSlab(q=4, a=1.0, c=1.0)
    theta = np.array([-1.0, 0.0, 1.5, 0.0, -0.25])
    assert prior.log_density(theta) == (prior.log_config_mass((1, 3))
                                        + prior.slab_log_density([1.5, -0.25]))
    assert prior.log_density(np.zeros(5)) == prior.log_config_mass(())
    with pytest.raises(ShapeError, match=r"\(5,\) row"):
        prior.log_density(np.zeros(4))
