"""Learning-rate schedules: fixed, power-law, tail-adaptive, margin-adaptive,
and the data-driven rate for the pairwise ranking loss.

The ranking-rate worked example (two scores per group) was frozen from hand
pair-counting; the exchange symmetry of the pair covariances is checked
exactly on tie-free data.
"""

import math

import numpy as np
import pytest

from gibbsinf.errors import DegenerateEstimateError, PreconditionError
from gibbsinf.rates import (AUCCovariances, AUCDataDriven, FixedRate,
                            HeavyTailRate, PowerLawRate, auc_covariances,
                            auc_learning_rate)


# ---------------------------------------------------------------------------
# deterministic schedules


def test_fixed_rate_is_constant():
    sched = FixedRate(0.7)
    assert sched.rate_at(10) == 0.7
    assert sched.rate_at(10_000) == 0.7
    with pytest.raises(PreconditionError):
        FixedRate(0.0)


def test_power_law_rate_values():
    sched = PowerLawRate(c=2.0, gamma=0.5)
    assert sched.rate_at(400) == pytest.approx(2.0 / 20.0, abs=1e-15)
    assert sched.rate_at(1) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("c,gamma,n", [(1.0, 400.0, 200), (5e-324, 1.0, 4)],
                         ids=["powerUnderflows", "productUnderflows"])
def test_power_law_rate_that_underflows_to_zero_is_a_precondition_error(c, gamma, n):
    # omega = 0 would sample the prior alone, without an error
    with pytest.raises(PreconditionError, match="underflows to 0"):
        PowerLawRate(c=c, gamma=gamma).rate_at(n)


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_heavy_tail_identities_s4(n):
    # s = 4: cap t_n = n, rate omega_n = n^(-1/2), and the bound product
    # n * omega_n * eps_n^2 collapses to log n exactly
    sched = HeavyTailRate(s=4.0)
    assert sched.cap_at(n) == pytest.approx(float(n), rel=1e-12)
    assert sched.rate_at(n) == pytest.approx(n ** -0.5, rel=1e-12)
    product = n * sched.rate_at(n) * sched.epsilon_at(n) ** 2
    assert product == pytest.approx(math.log(n), abs=1e-10)


def test_heavy_tail_product_identity_general_s():
    # the same collapse holds for every s > 3, not just s = 4
    for s in (3.5, 5.0, 8.0):
        sched = HeavyTailRate(s=s)
        for n in (50, 5_000):
            product = n * sched.rate_at(n) * sched.epsilon_at(n) ** 2
            assert product == pytest.approx(math.log(n), rel=1e-10)


def test_heavy_tail_validation():
    with pytest.raises(PreconditionError):
        HeavyTailRate(s=3.0)
    with pytest.raises(PreconditionError):
        HeavyTailRate(s=4.0).rate_at(1)


# ---------------------------------------------------------------------------
# pair covariances and the data-driven ranking rate


def test_pair_covariances_worked_example():
    # scores0 = (.1, .7), scores1 = (.5, .9): concordant pairs
    # {(.1,.5), (.1,.9), (.7,.9)} of 4 -> theta_hat = 3/4;
    # c = (1, 2), d = (2, 1) -> both covariances 2/4 - 9/16 = -1/16
    cov = auc_covariances([0.1, 0.7], [0.5, 0.9])
    assert cov.theta_hat == pytest.approx(0.75, abs=1e-15)
    assert cov.tau10 == pytest.approx(-0.0625, abs=1e-15)
    assert cov.tau01 == pytest.approx(-0.0625, abs=1e-15)


def test_learning_rate_frozen_value():
    # tau10 = tau01 = 0.05, m = n = 100:
    # lam = 1/2, proxy = 0.2, (m+n)/(2mn) = 0.01 -> 0.05
    cov = AUCCovariances(tau10=0.05, tau01=0.05, theta_hat=0.5)
    assert auc_learning_rate(cov, 100, 100) == pytest.approx(0.05, abs=1e-15)


def test_learning_rate_multiplier_linearity():
    cov = AUCCovariances(tau10=0.03, tau01=0.08, theta_hat=0.6)
    base = auc_learning_rate(cov, 60, 90, multiplier=1.0)
    assert auc_learning_rate(cov, 60, 90, multiplier=3.5) == pytest.approx(
        3.5 * base, rel=1e-14)
    with pytest.raises(PreconditionError):
        auc_learning_rate(cov, 60, 90, multiplier=0.5)


def test_learning_rate_degenerate_proxy():
    cov = AUCCovariances(tau10=-0.01, tau01=-0.01, theta_hat=0.5)
    with pytest.raises(DegenerateEstimateError):
        auc_learning_rate(cov, 50, 50)


def test_exchange_symmetry_exact():
    # swapping the score groups flips theta_hat to 1 - theta_hat, swaps the
    # two pair covariances, and leaves the resolved rate unchanged
    rng = np.random.default_rng(5)
    s0 = rng.normal(size=37)
    s1 = rng.normal(1.0, 1.0, size=23)
    a = auc_covariances(s0, s1)
    b = auc_covariances(s1, s0)
    assert a.theta_hat + b.theta_hat == pytest.approx(1.0, abs=1e-14)
    assert a.tau10 == pytest.approx(b.tau01, abs=1e-14)
    assert a.tau01 == pytest.approx(b.tau10, abs=1e-14)
    sched = AUCDataDriven(2.0)
    assert sched.resolve(s0, s1) == pytest.approx(
        sched.resolve(s1, s0), rel=1e-12)


def test_data_driven_multiplier_modes():
    sched_log = AUCDataDriven(None)
    assert sched_log.multiplier_at(200) == pytest.approx(math.log(200))
    sched_pow = AUCDataDriven((2.0, 0.5))
    assert sched_pow.multiplier_at(400) == pytest.approx(40.0)
    assert AUCDataDriven(3.0).multiplier_at(999) == 3.0


def test_data_driven_resolve_consistency():
    rng = np.random.default_rng(11)
    s0 = rng.normal(size=80)
    s1 = rng.normal(0.8, 1.0, size=120)
    cov = auc_covariances(s0, s1)
    want = auc_learning_rate(cov, 80, 120, multiplier=math.log(200))
    assert AUCDataDriven(None).resolve(s0, s1) == pytest.approx(
        want, rel=1e-14)


def test_covariance_validation():
    with pytest.raises(PreconditionError):
        auc_covariances([0.1], [0.5, 0.9])
    with pytest.raises(PreconditionError):
        AUCCovariances(tau10=0.1, tau01=0.1, theta_hat=1.5)
