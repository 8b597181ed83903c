"""Synthetic data-generating processes for the experiment suite.

Each generator draws datasets from a fully specified law with
`sample(n, rng)` and carries the ground truth itself, so experiments can
measure estimation error and misclassification against it: `theta_star` is
the coefficient vector or scalar where the truth is finite-dimensional (None
otherwise), and `truth_fn(xs)` the true function where it is not (the
threshold of the MCID designs, the curve of the mean-curve design).  All
draws consume only the passed Generator, so a generator plus a seed
reproduces a dataset exactly.

Each generator names the kind of data it emits (`data_kind`): "threshold"
(x, y in {-1,+1} and the covariate z, with a threshold-function truth),
"linear-regression" (scalar x, truth the coefficients over {1, x}),
"curve-regression" (scalar x on a fixed design, truth a curve),
"multiple-regression" (an (n, d) design, truth the coefficients over it),
"two-sample" (two score groups) and "linear-classification" (an (n, 1+q)
design, labels in {0,1}).  The config validator pairs these with the losses
that can fit them.

The normal CDF (`ndtr`, the label probabilities and Bayes rates) and
quantile (`ndtri`, the quantile-regression truth) are ports of the Cephes
routines in `gibbsinf._special`; `tests/test_special.py` checks them against
`scipy.special` bit for bit, so datasets do not depend on SciPy.
"""

from __future__ import annotations

import math

import numpy as np

from .._special import ndtr, ndtri
from ..errors import ConfigError, PreconditionError, ShapeError
from ..losses import sign_neg
from ..model import (CubicBSpline, Dataset, FunctionParam, PairedScores,
                     RawDictionary, TensorBSpline)


def affine_features() -> RawDictionary:
    """The dictionary {1, x} of an intercept-plus-slope linear model."""
    return RawDictionary([("const", lambda xs: np.ones_like(np.asarray(xs, dtype=float))),
                          ("x", lambda xs: np.asarray(xs, dtype=float))])


class _Generator:
    """What every generator shares: no coefficient truth unless it sets one,
    and Monte-Carlo reference samples drawn from its own law."""

    theta_star = None

    def mc_sample(self, rng: np.random.Generator, n: int) -> Dataset:
        return self.sample(n, rng)


# ---------------------------------------------------------------------------
# threshold-classification (minimal-important-difference) generators
# ---------------------------------------------------------------------------

class _ThresholdGeneratorBase(_Generator):
    """Shared machinery for the two threshold-classification designs.

    The diagnostic measure X given the patient profile z is normal around a
    profile-dependent center mu(z); the reported outcome Y in {-1,+1} is
    drawn from eta(z, x) = Phi((x - mu(z) +- jump) / eta_sd), where the +-
    jump (sign following x vs mu(z)) creates a hard margin: |2 eta - 1| >=
    2 Phi(jump/eta_sd) - 1 everywhere, and the true threshold is mu itself.
    """

    jump = 0.05
    x_sd = 1.0
    data_kind = "threshold"

    def mean_x(self, z):
        raise NotImplementedError

    @property
    def margin(self) -> float:
        return 2.0 * ndtr(self.jump / self.eta_sd) - 1.0

    def truth_fn(self, z) -> np.ndarray:
        """The true decision boundary theta*(z)."""
        return self.mean_x(z)

    def eta(self, z, x) -> np.ndarray:
        """P(Y = +1 | Z=z, X=x)."""
        mu = self.mean_x(z)
        x = np.asarray(x, dtype=float)
        shift = np.where(x > mu, self.jump, -self.jump)
        return ndtr((x - mu + shift) / self.eta_sd)

    def sample_zx(self, rng: np.random.Generator, n: int):
        z = self._draw_z(rng, n)
        x = self.mean_x(z) + self.x_sd * rng.standard_normal(n)
        return z, x

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise PreconditionError("n must be at least 1")
        z, x = self.sample_zx(rng, n)
        y = np.where(rng.random(n) < self.eta(z, x), 1, -1)
        return Dataset.classification(x=x, y=y, z=z)

    def bayes_rate(self, n_quad: int = 200_001) -> float:
        """E[min(eta, 1-eta)] by quadrature over the law of X - mu(Z).

        X - mu(Z) ~ N(0, x_sd^2) independent of Z, and eta depends on (z, x)
        only through x - mu(z), so the Bayes rate reduces to a 1-d integral:
        2 * int_0^inf Phi(-(t + jump)/eta_sd) phi(t/x_sd)/x_sd dt.
        """
        t = np.linspace(0.0, 12.0 * self.x_sd, n_quad)
        dens = np.exp(-0.5 * (t / self.x_sd) ** 2) / (self.x_sd * math.sqrt(2 * math.pi))
        vals = ndtr(-(t + self.jump) / self.eta_sd) * dens
        return float(2.0 * np.trapezoid(vals, t))


class MCID1(_ThresholdGeneratorBase):
    """One covariate: Z ~ U[0,3], X|z ~ N(z^3 - 3z^2 + 5, 1), eta sd 0.5."""

    name = "mcid1"
    eta_sd = 0.5
    holdout_default = 100
    z_domain = (0.0, 3.0)

    def mean_x(self, z):
        z = np.asarray(z, dtype=float)
        return z ** 3 - 3.0 * z ** 2 + 5.0

    def _draw_z(self, rng, n):
        return rng.uniform(*self.z_domain, n)

    def default_basis(self, num_basis: int = 6) -> CubicBSpline:
        return CubicBSpline(self.z_domain, num_basis)

    def divergence_grid(self, size: int = 256) -> np.ndarray:
        return np.linspace(*self.z_domain, size)


class MCID2(_ThresholdGeneratorBase):
    """Two covariates: Z ~ U[0,3]^2, X|z ~ N(z1 + 2 z2, 1), eta sd 1."""

    name = "mcid2"
    eta_sd = 1.0
    holdout_default = 1000
    z_domain = (0.0, 3.0)

    def mean_x(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return z[:, 0] + 2.0 * z[:, 1]

    def _draw_z(self, rng, n):
        return rng.uniform(*self.z_domain, (n, 2))

    def default_basis(self, num_basis: int = 4) -> TensorBSpline:
        factor = CubicBSpline(self.z_domain, num_basis)
        return TensorBSpline(factor, CubicBSpline(self.z_domain, num_basis))

    def divergence_grid(self, size: int = 16) -> np.ndarray:
        side = np.linspace(*self.z_domain, size)
        g1, g2 = np.meshgrid(side, side, indexing="ij")
        return np.column_stack([g1.ravel(), g2.ravel()])


# ---------------------------------------------------------------------------
# regression generators
# ---------------------------------------------------------------------------

class QuantileRegSim(_Generator):
    """Linear-quantile design: x ~ U(0,1), y = b0 + b1 x + sd * N(0,1).

    The tau-th conditional quantile is (b0 + sd * z_tau) + b1 x with z_tau
    the standard-normal tau-quantile, so the check-loss truth over the
    dictionary {1, x} is theta* = beta* + sd * z_tau * e_1.
    """

    name = "quantilereg"
    data_kind = "linear-regression"

    def __init__(self, tau: float, beta_star=(1.0, 2.0), noise_sd: float = 1.0):
        if not 0.0 < tau < 1.0:
            raise ConfigError("tau must lie in (0,1)")
        if noise_sd <= 0:
            raise ConfigError("noise sd must be positive")
        beta_star = np.asarray(beta_star, dtype=float)
        if beta_star.shape != (2,):
            raise ConfigError("beta_star must have two components (intercept, slope)")
        self.tau = float(tau)
        self.beta_star = beta_star
        self.noise_sd = float(noise_sd)

    @property
    def theta_star(self) -> np.ndarray:
        shift = self.noise_sd * float(ndtri(self.tau))
        return self.beta_star + np.array([shift, 0.0])

    def quantile(self, x) -> np.ndarray:
        b0, b1 = self.theta_star
        return b0 + b1 * np.asarray(x, dtype=float)

    def sample_x(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, 1.0, n)

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise PreconditionError("n must be at least 1")
        x = self.sample_x(rng, n)
        y = (self.beta_star[0] + self.beta_star[1] * x
             + self.noise_sd * rng.standard_normal(n))
        return Dataset.regression(x, y)


class HeavyTailSim(_Generator):
    """Linear regression with Student-t noise: y = x' theta* + t_df.

    The covariate is (1, U(-1,1)^(d-1)); with df > 2 the noise has finite
    variance but only polynomial tails, the setting the capped squared loss
    and the heavy-tail rate schedule are built for.
    """

    name = "heavytail"
    data_kind = "multiple-regression"

    def __init__(self, df: float, theta_star=(1.0, 2.0, -1.0)):
        if df <= 2:
            raise ConfigError("degrees of freedom must exceed 2")
        self.df = float(df)
        self.theta_star = np.asarray(theta_star, dtype=float)
        if self.theta_star.ndim != 1 or self.theta_star.size < 1:
            raise ConfigError("theta_star must be a nonempty vector")

    @property
    def dim(self) -> int:
        return self.theta_star.size

    def sample_x(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.uniform(-1.0, 1.0, (n, self.dim))
        x[:, 0] = 1.0
        return x

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise PreconditionError("n must be at least 1")
        x = self.sample_x(rng, n)
        return Dataset.regression(x, x @ self.theta_star + rng.standard_t(self.df, n))


_CURVES = {
    "sine": lambda x: np.sin(2.0 * math.pi * np.asarray(x, dtype=float)),
    "bump": lambda x: np.exp(-((np.asarray(x, dtype=float) - 0.5) ** 2) / 0.02),
    "ramp": lambda x: 1.0 + 2.0 * np.asarray(x, dtype=float),
}


class MeanCurveSim(_Generator):
    """Fixed-design curve estimation: x_i = i/n, y_i = f(x_i) + sd * N(0,1).

    f is drawn from a named registry of smooth curves on [0,1]; responses are
    independent but not identically distributed (the design is fixed, not
    sampled), so truth is carried as the function itself.
    """

    name = "meancurve"
    data_kind = "curve-regression"

    def __init__(self, curve: str = "sine", noise_sd: float = 0.3):
        if curve not in _CURVES:
            raise ConfigError(f"unknown curve {curve!r}; choices: {sorted(_CURVES)}")
        if noise_sd <= 0:
            raise ConfigError("noise sd must be positive")
        self.curve_name = curve
        self.truth_fn = _CURVES[curve]
        self.noise_sd = float(noise_sd)

    def design(self, n: int) -> np.ndarray:
        return np.arange(1, n + 1, dtype=float) / n

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise PreconditionError("n must be at least 1")
        x = self.design(n)
        y = self.truth_fn(x) + self.noise_sd * rng.standard_normal(n)
        return Dataset.regression(x, y)

    def default_basis(self, num_basis: int = 8) -> CubicBSpline:
        return CubicBSpline((0.0, 1.0), num_basis)

    def divergence_grid(self, size: int = 256) -> np.ndarray:
        return np.linspace(0.0, 1.0, size)


# ---------------------------------------------------------------------------
# ranking generator
# ---------------------------------------------------------------------------

class AUCSim(_Generator):
    """Two normal score groups: U0 ~ N(0,1), U1 ~ N(mu,1), equal sizes.

    The true ranking index is P(U1 > U0) = Phi(mu / sqrt(2)).
    """

    name = "aucsim"
    data_kind = "two-sample"

    def __init__(self, mu: float):
        self.mu = float(mu)

    @property
    def theta_star(self) -> float:
        return float(ndtr(self.mu / math.sqrt(2.0)))

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise PreconditionError("n must be at least 1")
        scores0 = rng.standard_normal(n)
        return Dataset.two_sample(scores0, self.mu + rng.standard_normal(n))

    def sample_pairs(self, rng: np.random.Generator, n: int) -> PairedScores:
        """n matched (U0, U1) pairs -- the Monte-Carlo sample for pointwise
        ranking-loss averages."""
        return PairedScores(u0=rng.standard_normal(n),
                            u1=self.mu + rng.standard_normal(n))

    def mc_sample(self, rng: np.random.Generator, n: int) -> PairedScores:
        return self.sample_pairs(rng, n)


# ---------------------------------------------------------------------------
# sparse linear classification
# ---------------------------------------------------------------------------

class SparseClassSim(_Generator):
    """Sparse noisy linear classification with a bounded-noise margin.

    x = (x0, xt) with x0 ~ U(-1,1) and xt ~ U(-1,1)^q; the clean label is
    1{x0 + beta*' xt > 0} and is flipped independently with probability
    flip_rho < 1/2, so |2 eta(x) - 1| = 1 - 2 flip_rho everywhere and the
    Bayes classifier is the linear rule with theta* = (1, beta*).
    """

    name = "sparseclass"
    data_kind = "linear-classification"

    def __init__(self, q: int, support, beta_values, flip_rho: float = 0.1):
        if q < 1:
            raise ConfigError("q must be at least 1")
        if not 0.0 <= flip_rho < 0.5:
            raise ConfigError("flip probability must lie in [0, 1/2)")
        support = tuple(int(j) for j in support)
        beta_values = np.asarray(beta_values, dtype=float)
        if len(support) != beta_values.size:
            raise ConfigError("support and beta_values lengths differ")
        if support and (min(support) < 0 or max(support) >= q
                        or len(set(support)) != len(support)):
            raise ConfigError("support indices must be distinct in [0, q)")
        self.q = int(q)
        self.support = support
        self.beta_values = beta_values
        self.flip_rho = float(flip_rho)

    @property
    def theta_star(self) -> np.ndarray:
        theta = np.zeros(1 + self.q)
        theta[0] = 1.0
        for j, b in zip(self.support, self.beta_values):
            theta[1 + j] = b
        return theta

    @property
    def margin(self) -> float:
        return 1.0 - 2.0 * self.flip_rho

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if n < 1:
            raise PreconditionError("n must be at least 1")
        x = rng.uniform(-1.0, 1.0, (n, 1 + self.q))
        clean = (x @ self.theta_star > 0.0).astype(int)
        flips = rng.random(n) < self.flip_rho
        return Dataset.classification(x=x, y=np.where(flips, 1 - clean, clean))


def holdout_misclassification(mcid_fn, holdout: Dataset) -> float:
    """Fraction of holdout points misclassified by the threshold rule
    sign(x - theta(z)) (sign(0) = -1).

    mcid_fn may be a fitted FunctionParam over z or any callable z -> values.
    """
    if holdout.kind != "class" or holdout.z is None:
        raise ShapeError("holdout must be threshold-classification data with z")
    if isinstance(mcid_fn, FunctionParam):
        thr = mcid_fn.values(holdout.z)
    elif callable(mcid_fn):
        thr = np.asarray(mcid_fn(holdout.z), dtype=float)
    else:
        raise ShapeError("mcid_fn must be a FunctionParam or callable")
    pred = sign_neg(holdout.x - thr)
    return float(np.mean(pred != holdout.y.astype(int)))
