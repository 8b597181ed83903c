"""Empirical checks of the quantities the concentration analysis is built on.

Divergence measures d(theta, theta*), the annealed-moment bound constant
K, posterior mass outside a d-ball, and the log-log rate fit used to read
off an empirical convergence exponent.  Monte-Carlo estimates always come with standard errors; exact
divergences return 0 precisely at equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowGuardError, PreconditionError, ShapeError
from .losses import LossSpec, sign_neg
from .model import BasisSpec, design_matrix


# ---------------------------------------------------------------------------
# parameter coercion helpers
# ---------------------------------------------------------------------------

def _vec(theta) -> np.ndarray:
    return np.asarray(theta, dtype=float).reshape(-1)


def _scalar(theta) -> float:
    v = _vec(theta)
    if v.size != 1:
        raise ShapeError("expected a scalar parameter")
    return float(v[0])


def _values_at(f, xs) -> np.ndarray:
    """Values of a callable of the covariate at covariate points."""
    return np.asarray(f(xs), dtype=float).reshape(-1)


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCDivergence:
    """A Monte-Carlo divergence estimate with its standard error."""

    value: float
    se: float
    n_draws: int


def _sqrt_of_mean(values: np.ndarray) -> MCDivergence:
    """sqrt of the Monte-Carlo mean of `values`, with a delta-method standard
    error; a nonpositive mean gives 0 with the square root of its SE."""
    m = float(values.mean())
    se_m = float(values.std(ddof=1) / math.sqrt(values.size))
    if m > 0:
        return MCDivergence(math.sqrt(m), se_m / (2.0 * math.sqrt(m)), values.size)
    return MCDivergence(0.0, math.sqrt(se_m), values.size)


class EuclideanDistance:
    """d(theta, theta*) = ||theta - theta*||_2 on coefficient vectors."""

    kind = "euclid"
    is_mc = False

    def between(self, a, b) -> float:
        va, vb = _vec(a), _vec(b)
        if va.shape != vb.shape:
            raise ShapeError("parameter dimensions differ")
        return float(np.linalg.norm(va - vb))

    def batch(self, mat: np.ndarray, b) -> np.ndarray:
        vb = _vec(b)
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        if mat.shape[1] != vb.size:
            raise ShapeError("draw matrix width differs from reference length")
        return np.linalg.norm(mat - vb[None, :], axis=1)


class AbsScalarDistance:
    """d(theta, theta*) = |theta - theta*| for scalar parameters."""

    kind = "abs"
    is_mc = False

    def between(self, a, b) -> float:
        return abs(_scalar(a) - _scalar(b))

    def batch(self, mat: np.ndarray, b) -> np.ndarray:
        return np.abs(np.asarray(mat, dtype=float).reshape(-1) - _scalar(b))


class EmpiricalL2:
    """Design-averaged L2 distance: sqrt of (1/n) sum_i (f_a - f_b)^2(x_i).

    Both arguments are coefficient vectors over `basis`;
    `between_values`/`batch_values` compare against a fixed vector of target
    function values instead, for references outside the span.
    """

    kind = "empirical_l2"
    is_mc = False

    def __init__(self, basis: BasisSpec | None, xs):
        self.xs = np.asarray(xs, dtype=float)
        self._design = design_matrix(basis, self.xs)
        self.n_points = self._design.shape[0]

    def _coef(self, a) -> np.ndarray:
        v = _vec(a)
        if v.size != self._design.shape[1]:
            raise ShapeError("coefficient length differs from basis size")
        return v

    def between(self, a, b) -> float:
        diff = self._design @ (self._coef(a) - self._coef(b))
        return float(np.sqrt(np.mean(diff * diff)))

    def _target_values(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != self.n_points:
            raise ShapeError("target values must match the design points")
        return values

    def between_values(self, a, values) -> float:
        diff = self._design @ self._coef(a) - self._target_values(values)
        return float(np.sqrt(np.mean(diff * diff)))

    def batch(self, mat: np.ndarray, b) -> np.ndarray:
        diff = np.atleast_2d(np.asarray(mat, dtype=float)) - self._coef(b)[None, :]
        vals = self._design @ diff.T
        return np.sqrt(np.mean(vals * vals, axis=0))

    def batch_values(self, mat: np.ndarray, values) -> np.ndarray:
        vals = self._design @ np.atleast_2d(np.asarray(mat, dtype=float)).T
        diff = vals - self._target_values(values)[:, None]
        return np.sqrt(np.mean(diff * diff, axis=0))


class L2PDistance:
    """L2(P) distance between covariate functions, Monte-Carlo under P.

    Both arguments are callables of the covariate.  sample_x(rng, n) draws
    n fresh covariates; the estimate is sqrt(mean (f_a - f_b)^2) with a
    delta-method standard error, and exactly 0 when a is b.
    """

    kind = "l2p"
    is_mc = True

    def __init__(self, sample_x, n_draws: int = 4096):
        if n_draws < 2:
            raise PreconditionError("n_draws must be at least 2")
        self.sample_x = sample_x
        self.n_draws = int(n_draws)

    def estimate(self, a, b, rng) -> MCDivergence:
        if a is b:
            return MCDivergence(0.0, 0.0, 0)
        xs = self.sample_x(rng, self.n_draws)
        return _sqrt_of_mean((_values_at(a, xs) - _values_at(b, xs)) ** 2)


class RiskDiffSqrt:
    """sqrt(R(theta) - R(theta*)) with the population risk estimated on fresh
    draws (never the fitting data).

    sample_data(rng, n) must return a Dataset (or PairedScores) of n fresh
    observations; the per-observation loss difference gives both the excess
    risk estimate and its standard error.
    """

    kind = "risk_diff_sqrt"
    is_mc = True

    def __init__(self, loss: LossSpec, sample_data, n_draws: int = 4096):
        if n_draws < 2:
            raise PreconditionError("n_draws must be at least 2")
        self.loss = loss
        self.sample_data = sample_data
        self.n_draws = int(n_draws)

    def estimate(self, a, b, rng) -> MCDivergence:
        if np.array_equal(a, b):
            return MCDivergence(0.0, 0.0, 0)
        loss = self.loss
        values = loss.kernel(loss.prepare(self.sample_data(rng, self.n_draws)))[1]
        return _sqrt_of_mean(values(a) - values(b))

    def batch(self, mat: np.ndarray, b, rng) -> np.ndarray:
        """Divergence of each draw (row) to b, sharing one fresh sample.

        Sharing the sample across draws makes the values comparable within a
        chain at a fraction of the cost; each value is still an unbiased MC
        estimate of sqrt(excess risk) clipped at zero.
        """
        loss = self.loss
        values = loss.kernel(loss.prepare(self.sample_data(rng, self.n_draws)))[1]
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        ref = values(_vec(b))
        vals = np.empty(mat.shape[0])
        for i, row in enumerate(mat):
            d = float(np.mean(values(row) - ref))
            vals[i] = math.sqrt(d) if d > 0 else 0.0
        return vals


class MCIDMeasure:
    """P-measure of the disagreement region between two threshold functions:
    P{min(f_a, f_b)(Z) <= X <= max(f_a, f_b)(Z)}, Monte-Carlo under the joint
    law of (X, Z).

    Both arguments are callables of z.  sample_zx(rng, n) returns (z, x)
    arrays of n fresh joint draws; the measure is exactly 0 when a is b.
    """

    kind = "mcid_measure"
    is_mc = True

    def __init__(self, sample_zx, n_draws: int = 4096):
        if n_draws < 2:
            raise PreconditionError("n_draws must be at least 2")
        self.sample_zx = sample_zx
        self.n_draws = int(n_draws)

    def estimate(self, a, b, rng) -> MCDivergence:
        if a is b:
            return MCDivergence(0.0, 0.0, 0)
        z, x = self.sample_zx(rng, self.n_draws)
        da = sign_neg(np.asarray(x) - _values_at(a, z))
        db = sign_neg(np.asarray(x) - _values_at(b, z))
        hit = (da != db).astype(float)
        p = float(hit.mean())
        se = math.sqrt(max(p * (1.0 - p), 0.0) / hit.size)
        return MCDivergence(p, se, hit.size)


Divergence = (EuclideanDistance | AbsScalarDistance | EmpiricalL2
              | L2PDistance | RiskDiffSqrt | MCIDMeasure)


def divergence_value(div: Divergence, theta, theta_star, rng=None) -> float:
    """The divergence d(theta, theta*); MC variants need an rng.

    For the standard error of an MC variant, call its .estimate directly.
    """
    if getattr(div, "is_mc", False):
        if rng is None:
            raise PreconditionError(f"divergence {div.kind!r} needs an rng")
        return div.estimate(theta, theta_star, rng).value
    return div.between(theta, theta_star)


# ---------------------------------------------------------------------------
# annealed-moment condition check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPointReport:
    """Annealed-moment check at one grid parameter.

    mean_exp estimates E exp{-omega (l_theta - l_theta*)}; annealed is
    -log(mean_exp)/omega, and k_hat = annealed / d^r is the implied bound
    constant, with a delta-method standard error.
    """

    theta: tuple
    d: float
    d_pow_r: float
    mean_exp: float
    mean_exp_se: float
    annealed: float
    k_hat: float
    k_hat_se: float

    def to_json(self) -> dict:
        return {
            "theta": list(self.theta), "d": self.d, "d_pow_r": self.d_pow_r,
            "mean_exp": self.mean_exp, "mean_exp_se": self.mean_exp_se,
            "annealed": self.annealed, "k_hat": self.k_hat,
            "k_hat_se": self.k_hat_se,
        }


@dataclass(frozen=True)
class MGFCheck:
    """Per-grid-point annealed-moment reports plus the worst-case constant."""

    points: tuple
    omega: float
    r: float
    n_draws: int

    @property
    def min_k_hat(self) -> float:
        return min(p.k_hat for p in self.points)

    @property
    def min_k_hat_lower3(self) -> float:
        """min over the grid of (k_hat - 3 standard errors)."""
        return min(p.k_hat - 3.0 * p.k_hat_se for p in self.points)

    def to_json(self) -> dict:
        return {
            "omega": self.omega, "r": self.r, "n_draws": self.n_draws,
            "min_k_hat": self.min_k_hat,
            "min_k_hat_lower3": self.min_k_hat_lower3,
            "points": [p.to_json() for p in self.points],
        }


_EXP_GUARD = 700.0  # just under log(float64 max)


def mgf_condition_check(loss: LossSpec, theta_grid, theta_star, omega: float,
                        div: Divergence, r: float, generator, n_draws: int,
                        rng) -> MGFCheck:
    """Estimate the bound constant K in  E exp{-omega excess} <= exp(-K omega d^r).

    One fresh sample of n_draws observations from `generator` is shared by
    every grid point, making the K-hats directly comparable.  A grid point at
    zero divergence from theta* is rejected, and exponents beyond the float64
    range raise OverflowGuardError (the check is inapplicable to losses
    unbounded below on the sample).
    """
    if omega <= 0:
        raise PreconditionError("omega must be positive")
    if n_draws < 2:
        raise PreconditionError("n_draws must be at least 2")
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise PreconditionError("empty parameter grid")
    values = loss.kernel(loss.prepare(generator(rng, n_draws)))[1]
    lstar = values(theta_star)
    points = []
    for theta in theta_grid:
        d = divergence_value(div, theta, theta_star, rng)
        if d <= 0.0:
            raise PreconditionError("grid must exclude theta* (divergence 0)")
        z = -omega * (values(theta) - lstar)
        if float(z.max()) > _EXP_GUARD:
            raise OverflowGuardError(
                "exp(-omega * excess loss) overflows float64 on the sample")
        w = np.exp(z)
        est = float(w.mean())
        se = float(w.std(ddof=1) / math.sqrt(w.size))
        annealed = -math.log(est) / omega
        dr = d ** r
        points.append(GridPointReport(
            theta=tuple(np.asarray(theta, dtype=float).reshape(-1).tolist()),
            d=d, d_pow_r=dr, mean_exp=est, mean_exp_se=se, annealed=annealed,
            k_hat=annealed / dr, k_hat_se=se / (est * omega * dr)))
    return MGFCheck(points=tuple(points), omega=float(omega), r=float(r),
                    n_draws=n_draws)


# ---------------------------------------------------------------------------
# posterior concentration
# ---------------------------------------------------------------------------

def posterior_mass_outside(draws, div: Divergence, theta_star, radius: float,
                           rng=None) -> float:
    """Fraction of kept draws, the rows of `draws`, with d(draw, theta*) > radius."""
    if radius <= 0:
        raise PreconditionError("radius must be positive")
    mat = np.atleast_2d(np.asarray(draws, dtype=float))
    if mat.shape[0] == 0:
        raise PreconditionError("empty chain")
    if hasattr(div, "batch") and not getattr(div, "is_mc", False):
        values = div.batch(mat, theta_star)
    elif hasattr(div, "batch"):
        values = div.batch(mat, theta_star, rng)
    else:
        if getattr(div, "is_mc", False) and rng is None:
            raise PreconditionError(f"divergence {div.kind!r} needs an rng")
        values = np.array([divergence_value(div, row, theta_star, rng)
                           for row in mat])
    return float(np.mean(values > radius))


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(radius) on log(n): the empirical convergence exponent."""

    slope: float
    intercept: float
    pairs: tuple

    def predicted(self, n: float) -> float:
        return math.exp(self.intercept + self.slope * math.log(n))


def concentration_slope(pairs) -> RateFit:
    """Least-squares slope of log(radius) against log(n).

    Radii are positive posterior radius statistics (by convention upstream,
    the 0.9-quantile of d(draw, theta*) over the kept draws); at least three
    distinct n values are required.
    """
    pairs = [(float(n), float(r)) for n, r in pairs]
    if len({n for n, _ in pairs}) < 3:
        raise PreconditionError("need at least 3 distinct n values")
    if any(r <= 0 for _, r in pairs):
        raise PreconditionError("radii must be positive")
    logn = np.log([n for n, _ in pairs])
    logr = np.log([r for _, r in pairs])
    slope, intercept = np.polyfit(logn, logr, 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   pairs=tuple(pairs))
