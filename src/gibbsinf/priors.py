"""Prior distributions: log-density/log-mass evaluation and exact sampling.

Families: iid Gaussian and Laplace coefficient priors, and the sparse
configuration (spike-and-slab) prior with a truncated-geometric complexity
penalty and Laplace slabs.

The iid priors' `log_density` also takes an (R, dim) block of chains and
returns R values, each bit-identical to the one-chain value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import PreconditionError, ShapeError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SparseParam:
    """Sparse classifier parameter: sign alpha, support S, and slab coefficients.

    S holds 0-based coordinate indices (sorted, unique); beta_s[i] is the
    coefficient of coordinate S[i].
    """

    alpha: int
    S: tuple[int, ...]
    beta_s: np.ndarray

    def __post_init__(self):
        if self.alpha not in (-1, 1):
            raise ShapeError("alpha must be -1 or +1")
        s = tuple(int(i) for i in self.S)
        if list(s) != sorted(set(s)):
            raise ShapeError("S must be sorted and duplicate-free")
        object.__setattr__(self, "S", s)
        b = np.asarray(self.beta_s, dtype=float)
        if b.shape != (len(s),):
            raise ShapeError("beta_s length must equal |S|")
        object.__setattr__(self, "beta_s", b)

    def dense(self, q: int) -> np.ndarray:
        """The length-q coefficient vector with zeros off the support."""
        beta = np.zeros(q)
        if self.S:
            beta[list(self.S)] = self.beta_s
        return beta

    def dense_theta(self, q: int) -> np.ndarray:
        """(1+q)-vector (alpha, beta) for the linear classifier."""
        return np.concatenate([[float(self.alpha)], self.dense(q)])


def _coefficients(theta, dim: int) -> np.ndarray:
    """theta as a (dim,) vector or an (R, dim) block of chains."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (dim,) or theta.ndim > 2:
        raise ShapeError(f"expected shape ({dim},) or (R, {dim}), got {theta.shape}")
    return theta


class GaussianIID:
    """Independent N(mean, sd^2) on each of `dim` coordinates."""

    kind = "gaussian"

    def __init__(self, mean: float, sd: float, dim: int):
        if sd <= 0:
            raise PreconditionError("sd must be positive")
        self.mean, self.sd, self.dim = float(mean), float(sd), int(dim)
        self._log_norm = self.dim * (math.log(self.sd) + 0.5 * _LOG_2PI)

    def log_density(self, theta):
        theta = _coefficients(theta, self.dim)
        # x - 0.0 == x for every double, so a zero mean skips an operation
        z = (theta - self.mean if self.mean else theta) / self.sd
        # z'z as one dot product per chain
        out = -0.5 * np.matmul(z[..., None, :], z[..., None])[..., 0, 0] - self._log_norm
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(self.dim)

    def sd_vector(self) -> np.ndarray:
        return np.full(self.dim, self.sd)


class LaplaceIID:
    """Independent Laplace(rate) on each coordinate: density (rate/2) e^{-rate|t|}."""

    kind = "laplace"

    def __init__(self, rate: float, dim: int):
        if rate <= 0:
            raise PreconditionError("rate must be positive")
        self.rate, self.dim = float(rate), int(dim)
        self._log_norm = self.dim * math.log(self.rate / 2.0)

    def log_density(self, theta):
        theta = _coefficients(theta, self.dim)
        out = self._log_norm - self.rate * np.add.reduce(np.abs(theta), axis=-1)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.laplace(0.0, 1.0 / self.rate, size=self.dim)

    def sd_vector(self) -> np.ndarray:
        return np.full(self.dim, math.sqrt(2.0) / self.rate)


class SpikeSlab:
    """Sparse configuration prior on (S, beta_S) with Laplace slabs.

    The support S gets mass pi(S) = C(q,|S|)^{-1} f(|S|) with the
    truncated-geometric size prior f(s) = (c q^a)^{-s} / sum_t (c q^a)^{-t},
    computed in log space.  Given S, coefficients are iid Laplace(lam); the
    classifier sign alpha is uniform on {-1,+1} but its constant mass
    (-log 2) is *excluded* from log_density, matching the documented
    convention that the density covers the (S, beta_S) part only.
    """

    kind = "spikeslab"

    def __init__(self, q: int, a: float, c: float, lam: float | None = None):
        if q < 1:
            raise PreconditionError("q must be >= 1")
        if a <= 0 or c <= 0:
            raise PreconditionError("a and c must be positive")
        self.q, self.a, self.c = int(q), float(a), float(c)
        # default slab rate sqrt(log q), floored for tiny q where log q <= 0
        self.lam = float(lam) if lam is not None else math.sqrt(max(math.log(q), 1e-2))
        if self.lam <= 0:
            raise PreconditionError("slab rate must be positive")
        # log f(s) for s = 0..q
        log_ratio = math.log(c) + a * math.log(q)
        raw = -log_ratio * np.arange(q + 1)
        self._log_f = raw - logsumexp(raw)

    def log_size_mass(self, s: int) -> float:
        """log f(s), the prior mass of support size s."""
        if not 0 <= s <= self.q:
            raise PreconditionError(f"size {s} outside 0..{self.q}")
        return float(self._log_f[s])

    def log_config_mass(self, S) -> float:
        """log pi(S) = log f(|S|) - log C(q, |S|)."""
        s_idx = sorted(int(i) for i in S)
        if s_idx and (s_idx[0] < 0 or s_idx[-1] >= self.q):
            raise PreconditionError("support index out of range")
        if len(set(s_idx)) != len(s_idx):
            raise PreconditionError("support indices must be unique")
        s = len(s_idx)
        log_binom = gammaln(self.q + 1) - gammaln(s + 1) - gammaln(self.q - s + 1)
        return float(self._log_f[s] - log_binom)

    def slab_log_density(self, beta_s) -> float:
        beta_s = np.asarray(beta_s, dtype=float)
        return float(len(beta_s) * math.log(self.lam / 2.0)
                     - self.lam * np.abs(beta_s).sum())

    def log_density(self, param: SparseParam) -> float:
        if not isinstance(param, SparseParam):
            raise ShapeError("spike-slab prior expects a SparseParam")
        return self.log_config_mass(param.S) + self.slab_log_density(param.beta_s)

    def sample(self, rng: np.random.Generator) -> SparseParam:
        alpha = -1 if rng.random() < 0.5 else 1
        size = int(rng.choice(self.q + 1, p=np.exp(self._log_f)))
        S = tuple(sorted(rng.choice(self.q, size=size, replace=False).tolist()))
        beta_s = rng.laplace(0.0, 1.0 / self.lam, size=size)
        return SparseParam(alpha, S, beta_s)


PriorSpec = GaussianIID | LaplaceIID | SpikeSlab


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def log_prior(prior: PriorSpec, theta) -> float:
    """Log prior density/mass of theta under the declared prior.

    theta's shape must match the prior family: an array for iid priors, a
    SparseParam for the sparse configuration prior.
    """
    return prior.log_density(theta)


def spike_slab_log_mass(prior: SpikeSlab, S) -> float:
    """log pi(S) of a support configuration."""
    return prior.log_config_mass(S)


def sample_prior(prior: PriorSpec, rng: np.random.Generator):
    """One exact draw from the prior."""
    return prior.sample(rng)

