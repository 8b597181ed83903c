"""Learning-rate schedules and the data-driven rate for the ranking (AUC) loss.

Deterministic schedules map a sample size n to the scalar learning rate
omega_n; the heavy-tail schedule also exposes its companion sequences (the
cap t_n and the target rate eps_n).  The AUC rate is
estimated from the two-sample data via the empirical pair covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimateError, PreconditionError


class FixedRate:
    """Constant learning rate."""

    kind = "fixed"

    def __init__(self, omega: float):
        if omega <= 0:
            raise PreconditionError("omega must be positive")
        self.omega = float(omega)

    def rate_at(self, n: int) -> float:
        if n < 1:
            raise PreconditionError("n must be >= 1")
        return self.omega


class PowerLawRate:
    """omega_n = c * n^(-gamma) with c > 0, gamma >= 0.  A rate is always
    positive, so one that underflows to 0 is a PreconditionError."""

    kind = "powerlaw"

    def __init__(self, c: float, gamma: float):
        if c <= 0:
            raise PreconditionError("c must be positive")
        if gamma < 0:
            raise PreconditionError("gamma must be >= 0")
        self.c, self.gamma = float(c), float(gamma)

    def rate_at(self, n: int) -> float:
        if n < 1:
            raise PreconditionError("n must be >= 1")
        omega = self.c * float(n) ** (-self.gamma)
        if not omega > 0:
            raise PreconditionError("c * n^(-gamma) underflows to 0")
        return omega


class HeavyTailRate:
    """Schedule for capped-loss regression with polynomial response tails.

    With tail exponent s > 3:
        t_n   = n^(2/(s-2))          (the loss cap),
        omega_n = t_n^(-1/2) = n^(-1/(s-2)),
        eps_n = (log n)^(1/2) * n^(-(s-3)/(2s-4)),
    and the three satisfy n * omega_n * eps_n^2 = log n identically.
    """

    kind = "heavytail"

    def __init__(self, s: float):
        if s <= 3:
            raise PreconditionError("tail exponent s must exceed 3")
        self.s = float(s)

    def _check_n(self, n: int):
        if n < 2:
            raise PreconditionError("n must be >= 2 for log-n schedules")

    def cap_at(self, n: int) -> float:
        self._check_n(n)
        return float(n) ** (2.0 / (self.s - 2.0))

    def rate_at(self, n: int) -> float:
        self._check_n(n)
        return self.cap_at(n) ** -0.5

    def epsilon_at(self, n: int) -> float:
        self._check_n(n)
        s = self.s
        return math.sqrt(math.log(n)) * float(n) ** (-(s - 3.0) / (2.0 * s - 4.0))


class AUCDataDriven:
    """Data-driven learning rate for the pairwise ranking loss.

    multiplier None means the default diverging sequence a_n = log(m+n);
    a finite number >= 1 means a fixed a_n; a pair (c, gamma) of finite
    numbers, c > 0 and gamma >= 0, means the growing power law
    c*(m+n)^gamma, which `resolve` rejects where it is below 1.  The rate
    itself comes from auc_learning_rate applied to the empirical pair
    covariances.
    """

    kind = "aucdatadriven"

    def __init__(self, multiplier: float | tuple[float, float] | None = None):
        if isinstance(multiplier, (list, tuple)):
            pair = tuple(map(float, multiplier))
            if len(pair) != 2 or not all(map(math.isfinite, pair)) \
                    or not (pair[0] > 0 and pair[1] >= 0):
                raise PreconditionError(f"multiplier pair must be two finite "
                                        f"numbers [c, gamma], c > 0 and "
                                        f"gamma >= 0; got {multiplier!r}")
            multiplier = pair
        elif multiplier is not None:
            multiplier = float(multiplier)
            if not (math.isfinite(multiplier) and multiplier >= 1):
                raise PreconditionError(f"multiplier must be a finite number "
                                        f">= 1; got {multiplier!r}")
        self.multiplier = multiplier

    def multiplier_at(self, total: int) -> float:
        if self.multiplier is None:
            return math.log(total)
        if isinstance(self.multiplier, tuple):
            c, gamma = self.multiplier
            return c * float(total) ** gamma
        return self.multiplier

    def resolve(self, scores0, scores1) -> float:
        cov = auc_covariances(scores0, scores1)
        m, n = len(scores0), len(scores1)
        return auc_learning_rate(cov, m, n, self.multiplier_at(m + n))


@dataclass(frozen=True)
class AUCCovariances:
    """Empirical pair covariances and the concordance point estimate."""

    tau10: float
    tau01: float
    theta_hat: float

    def __post_init__(self):
        if not 0.0 <= self.theta_hat <= 1.0:
            raise PreconditionError("theta_hat must lie in [0,1]")


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def auc_covariances(scores0, scores1) -> AUCCovariances:
    """Empirical analogues of the population pair covariances.

    tau10 shares the group-1 score across two distinct group-0 scores:
        tau10 = [n m(m-1)]^-1 sum_i c_i (c_i - 1) - theta_hat^2,
    with c_i = #{j : u0_j < u1_i}; tau01 swaps the roles (d_j = #{i : u1_i > u0_j}).
    Both reduce to integer pair counting, so the sums are exact.
    """
    s0 = np.asarray(scores0, dtype=float)
    s1 = np.asarray(scores1, dtype=float)
    m, n = len(s0), len(s1)
    if m < 2 or n < 2:
        raise PreconditionError("both groups need at least 2 scores")
    sorted0 = np.sort(s0)
    sorted1 = np.sort(s1)
    c = np.searchsorted(sorted0, s1, side="left")          # per group-1 score
    d = n - np.searchsorted(sorted1, s0, side="right")     # per group-0 score
    concordant = int(c.sum())
    theta_hat = concordant / (m * n)
    tau10 = float(np.sum(c * (c - 1))) / (n * m * (m - 1)) - theta_hat ** 2
    tau01 = float(np.sum(d * (d - 1))) / (m * n * (n - 1)) - theta_hat ** 2
    return AUCCovariances(tau10=tau10, tau01=tau01, theta_hat=theta_hat)


def auc_learning_rate(cov: AUCCovariances, m: int, n: int,
                      multiplier: float = 1.0) -> float:
    """multiplier * omega_hat with
    omega_hat = ((m+n)/(2mn)) * (tau10/lam + tau01/(1-lam))^-1, lam = m/(m+n).

    Raises DegenerateEstimateError when the variance proxy is nonpositive
    (tiny samples); callers may fall back to a fixed rate.
    """
    if multiplier < 1.0:
        raise PreconditionError("multiplier must be >= 1")
    lam = m / (m + n)
    proxy = cov.tau10 / lam + cov.tau01 / (1.0 - lam)
    if proxy <= 0.0:
        raise DegenerateEstimateError(
            f"nonpositive variance proxy {proxy:.6g}; "
            "the data-driven rate is degenerate at this sample")
    return multiplier * (m + n) / (2.0 * m * n) / proxy
