"""Empirical checks of the quantities the concentration analysis is built on.

Divergence measures d(theta, theta*), the annealed-moment bound constant
K, posterior mass outside a d-ball, and the log-log rate fit used to read
off an empirical convergence exponent.  A divergence a config can build
is a `Divergence`: it answers batch(draws, b, rng=None) for a draw matrix,
and between(a, b, rng=None), its one-row batch, for one parameter; the
exact ones ignore the rng and return 0 precisely at equality, and
`estimate` adds a Monte-Carlo standard error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import OverflowGuardError, PreconditionError, ShapeError
from .losses import LossSpec, _MismatchLoss, sign_neg
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


def _rows(draws, width: int) -> np.ndarray:
    """The draw matrix, one parameter per row; a vector is one draw."""
    mat = np.atleast_2d(np.asarray(draws, dtype=float))
    if mat.shape[1] != width:
        raise ShapeError("draw matrix width differs from the parameter dimension")
    return mat


class Divergence:
    """d(draw, b) for each row of a draw matrix by `batch`; `between` is its
    one-row batch, so a single parameter gets a draw's arithmetic."""

    def between(self, a, b, rng=None) -> float:
        return float(self.batch(_vec(a)[None], b, rng)[0])


class EuclideanDistance(Divergence):
    """d(theta, theta*) = ||theta - theta*||_2 on coefficient vectors."""

    kind = "euclid"

    def batch(self, draws, b, rng=None) -> np.ndarray:
        vb = _vec(b)
        return np.linalg.norm(_rows(draws, vb.size) - vb[None, :], axis=1)


class AbsScalarDistance(Divergence):
    """d(theta, theta*) = |theta - theta*| for scalar parameters."""

    kind = "abs"

    def batch(self, draws, b, rng=None) -> np.ndarray:
        return np.abs(_rows(draws, 1)[:, 0] - _scalar(b))


_L2_CHUNK_FLOATS = 2 ** 21   # the most (grid point, draw) floats batch holds


class EmpiricalL2(Divergence):
    """Design-averaged L2 distance to a reference function f*:
    sqrt of (1/n) sum_i (f_a - f*)^2(x_i) over the grid xs.

    a is a coefficient vector over `basis`, and the reference is the vector
    of f*'s values on xs, so it may lie outside the span; for a coefficient
    reference b, pass design_matrix(basis, xs) @ b.
    """

    kind = "empirical_l2"

    def __init__(self, basis: BasisSpec | None, xs):
        self.xs = np.asarray(xs, dtype=float)
        self._design = design_matrix(basis, self.xs)

    def batch(self, draws, values, rng=None) -> np.ndarray:
        """One divergence per draw, chunk by chunk of draws: a chunk's
        matmul of the G grid points by its d draws writes a C-contiguous
        (G, d) buffer of at most _L2_CHUNK_FLOATS floats, which takes the
        differences and their squares in place and is freed before the next
        chunk's.  Chunks run from `size` to 2 * size draws, so a batch of two
        or more never makes a one-draw chunk, whose product NumPy runs as a
        gemv with other bits.  The mean runs over axis 0 of each buffer, so
        every column sums in the same order whatever its chunk, with the
        one-buffer bits; NumPy's summation order depends on shape and
        layout, and a transposed copy could change the last bit."""
        target = _vec(values)
        grid, width = self._design.shape
        if target.size != grid:
            raise ShapeError("target values must match the design points")
        mat = _rows(draws, width)
        size = max(2, _L2_CHUNK_FLOATS // (2 * grid))
        splits = max(1, len(mat) // size)
        bounds = [len(mat) * b // splits for b in range(splits + 1)]
        out = np.empty(len(mat))
        for lo, hi in zip(bounds, bounds[1:]):
            diff = self._design @ mat[lo:hi].T
            np.subtract(diff, target[:, None], out=diff)
            np.mean(np.multiply(diff, diff, out=diff), axis=0, out=out[lo:hi])
            del diff
        return np.sqrt(out, out=out)


class L2PDistance:
    """L2(P) distance between covariate functions, Monte-Carlo under P.

    Both arguments are callables of the covariate.  sample_x(rng, n) draws
    n fresh covariates; the estimate is sqrt(mean (f_a - f_b)^2) with a
    delta-method standard error, and exactly 0 when a is b.
    """

    kind = "l2p"

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


class RiskDiffSqrt(Divergence):
    """sqrt(R(theta) - R(theta*)) with the population risk estimated on fresh
    draws (never the fitting data).

    sample_data(rng, n) must return a Dataset (or PairedScores) of n fresh
    observations; the per-observation loss difference gives both the excess
    risk estimate and its standard error.  `between`, `batch` and `estimate`
    draw that sample from their rng, and raise PreconditionError without one.
    """

    kind = "risk_diff_sqrt"

    def __init__(self, loss: LossSpec, sample_data, n_draws: int = 4096):
        if n_draws < 2:
            raise PreconditionError("n_draws must be at least 2")
        self.loss = loss
        self.sample_data = sample_data
        self.n_draws = int(n_draws)

    def _prepared(self, rng):
        """The loss's prepared arrays of one fresh sample."""
        if rng is None:
            raise PreconditionError(f"divergence {self.kind!r} needs an rng")
        return self.loss.prepare(self.sample_data(rng, self.n_draws))

    def estimate(self, a, b, rng) -> MCDivergence:
        """The divergence with its standard error; 0, drawing nothing, at a == b."""
        if _vec(a).size != _vec(b).size:
            raise ShapeError("parameter dimensions differ")
        if rng is not None and np.array_equal(a, b):
            return MCDivergence(0.0, 0.0, 0)
        values = self.loss.kernel(self._prepared(rng))[2]
        return _sqrt_of_mean(values(a) - values(b))

    def batch(self, draws, b, rng=None) -> np.ndarray:
        """Divergence of each draw (row) to b, sharing one fresh sample.

        Sharing the sample across draws makes the values comparable within a
        chain at a fraction of the cost; each value is still an unbiased MC
        estimate of sqrt(excess risk) clipped at zero.  A 0-1 loss scores
        the draws by its chunked gemm (`counts`): the mean of a draw's 0/±1
        loss differences is its exact count difference over n, which one
        correctly rounded division gives with np.mean's bits.
        """
        vb = _vec(b)
        mat = _rows(draws, vb.size)
        loss, prepared = self.loss, self._prepared(rng)
        if isinstance(loss, _MismatchLoss):
            n = prepared[0].shape[-1]
            ref = loss.counts(prepared, vb[None])[0]
            excess = [(c - ref) / n for c in loss.counts(prepared, mat)]
        else:
            values = loss.kernel(prepared)[2]
            ref = values(vb)
            excess = [float(np.mean(values(row) - ref)) for row in mat]
        return np.array([math.sqrt(d) if d > 0 else 0.0 for d in excess])


class MCIDMeasure:
    """P-measure of the disagreement region between two threshold functions:
    P{min(f_a, f_b)(Z) <= X <= max(f_a, f_b)(Z)}, Monte-Carlo under the joint
    law of (X, Z).

    Both arguments are callables of z.  sample_zx(rng, n) returns (z, x)
    arrays of n fresh joint draws; the measure is exactly 0 when a is b.
    """

    kind = "mcid_measure"

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
        return {**asdict(self), "min_k_hat": self.min_k_hat,
                "min_k_hat_lower3": self.min_k_hat_lower3}


_EXP_GUARD = 700.0  # just under log(float64 max)


def mgf_condition_check(loss: LossSpec, theta_grid, theta_star, omega: float,
                        div: Divergence, r: float, generator, n_draws: int,
                        rng) -> MGFCheck:
    """Estimate the bound constant K in  E exp{-omega excess} <= exp(-K omega d^r).

    One fresh sample of n_draws observations from `generator` is shared by
    every grid point, making the K-hats directly comparable.  A grid point at
    zero divergence from theta* is rejected, and exponents beyond the float64
    range raise OverflowGuardError (the check is inapplicable to losses
    unbounded below on the sample), as does exp(-omega * excess) underflowing
    to 0 on every draw.
    """
    # NaN fails every comparison, so this rejects it too
    if not (0 < omega < math.inf and 0 < r < math.inf):
        raise PreconditionError("omega and r must be positive and finite")
    if n_draws < 2:
        raise PreconditionError("n_draws must be at least 2")
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise PreconditionError("empty parameter grid")
    values = loss.kernel(loss.prepare(generator(rng, n_draws)))[2]
    lstar = values(theta_star)
    points = []
    for theta in theta_grid:
        d = div.between(theta, theta_star, rng)
        if d <= 0.0:
            raise PreconditionError("grid must exclude theta* (divergence 0)")
        z = -omega * (values(theta) - lstar)
        if float(z.max()) > _EXP_GUARD:
            raise OverflowGuardError(
                "exp(-omega * excess loss) overflows float64 on the sample")
        w = np.exp(z)
        est = float(w.mean())
        if est == 0.0:
            raise OverflowGuardError(
                f"exp(-omega * excess loss) underflows to 0 on every draw at "
                f"grid point {np.asarray(theta, dtype=float).tolist()}")
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
    """Fraction of kept draws, the rows of `draws`, with d(draw, theta*) > radius.

    One div.batch(draws, theta_star, rng) call: theta_star is in the form that
    div.batch takes (function values on the grid for EmpiricalL2)."""
    if not radius > 0:  # NaN included
        raise PreconditionError("radius must be positive")
    mat = np.atleast_2d(np.asarray(draws, dtype=float))
    if mat.shape[0] == 0:
        raise PreconditionError("empty chain")
    return float(np.mean(div.batch(mat, theta_star, rng) > radius))


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(radius) on log(n): the empirical convergence exponent."""

    slope: float
    intercept: float
    pairs: tuple


def concentration_slope(pairs) -> RateFit:
    """Least-squares slope of log(radius) against log(n).

    Radii are posterior radius statistics (by convention upstream, the
    0.9-quantile of d(draw, theta*) over the kept draws); a zero radius has
    no logarithm and is skipped, and three distinct n values must be left.
    """
    pairs = [(float(n), float(r)) for n, r in pairs]
    # NaN fails every comparison, so this rejects it too
    if not all(0 < n < math.inf and 0 <= r < math.inf for n, r in pairs):
        raise PreconditionError("n and radii must be positive and finite "
                                "(a zero radius is skipped)")
    pairs = [(n, r) for n, r in pairs if r > 0]
    if len({n for n, _ in pairs}) < 3:
        raise PreconditionError("need at least 3 distinct n values with a "
                                "positive radius")
    logn = np.log([n for n, _ in pairs])
    logr = np.log([r for _, r in pairs])
    slope, intercept = np.polyfit(logn, logr, 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   pairs=tuple(pairs))
