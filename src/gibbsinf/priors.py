"""Prior distributions: log-density/log-mass evaluation and exact sampling.

Families: iid Gaussian and Laplace coefficient priors, and the sparse
configuration (spike-and-slab) prior with a truncated-geometric complexity
penalty and Laplace slabs.  Every prior samples and evaluates dense
coefficient vectors; a spike-slab parameter is the (1+q) row (alpha, beta),
whose support is the set of nonzero coordinates of beta.

The iid priors write their formula once, in `kernel(shape)`; their
`log_density` takes one (dim,) row.  For coefficients of leading shape
`shape`, the kernel returns `(stats, a, b)`: `stats(theta)` fills one
statistic per chain (z'z, or the sum of |theta|) into buffers it owns and
gives them as a list of Python floats, and the log density of a chain with
statistic s is a * s + b, on Python floats.  The Gaussian's pair is
(-0.5, -log_norm) and the Laplace's (-rate, log_norm): x - y is x + (-y)
and (-r) * s is -(r * s) in IEEE 754, so these have the bits of
-0.5 * s - log_norm and log_norm - rate * s.  The sampler builds a kernel
once per chain start and once per block.

The spike-slab size prior is normalized with `np.logaddexp.reduce`, and
log C(q, s) is `math.log` of the exact integer C(q, s), so it is rounded
once; `tests/test_special.py` checks both against SciPy to a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError, ShapeError

_LOG_2PI = math.log(2.0 * math.pi)


def _log_density(prior, theta) -> float:
    """An iid prior's log density at a (dim,) vector, from its kernel."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (prior.dim,):
        raise ShapeError(f"expected a ({prior.dim},) row, got {theta.shape}")
    stats, a, b = prior.kernel(())
    return a * stats(theta)[0] + b


class GaussianIID:
    """Independent N(mean, sd^2) on each of `dim` coordinates."""

    kind = "gaussian"

    def __init__(self, mean: float, sd: float, dim: int):
        # written so that NaN, which fails every comparison, is rejected
        if not (-math.inf < mean < math.inf and 0 < sd < math.inf):
            raise PreconditionError("mean must be finite and sd positive and finite")
        self.mean, self.sd, self.dim = float(mean), float(sd), int(dim)
        self._log_norm = self.dim * (math.log(self.sd) + 0.5 * _LOG_2PI)

    def kernel(self, shape: tuple):
        """z'z per chain of coefficients of leading shape `shape`, () for one
        vector and (R,) for a block, into its own z and z'z buffers; the log
        density is -0.5 * z'z - log_norm."""
        z, zz = np.empty(shape + (self.dim,)), np.empty(shape + (1, 1))
        # z'z as one dot product per chain, of views made once
        row, col, flat = z[..., None, :], z[..., None], zz.reshape(-1)
        mean, sd = self.mean, self.sd

        def stats(theta):
            # x - 0.0 == x for every double, so a zero mean skips an operation
            np.divide(np.subtract(theta, mean, out=z) if mean else theta, sd, out=z)
            np.matmul(row, col, out=zz)
            return flat.tolist()
        return stats, -0.5, -self._log_norm

    def log_density(self, theta):
        return _log_density(self, theta)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(self.dim)

    def sd_vector(self) -> np.ndarray:
        return np.full(self.dim, self.sd)


class LaplaceIID:
    """Independent Laplace(rate) on each coordinate: density (rate/2) e^{-rate|t|}."""

    kind = "laplace"

    def __init__(self, rate: float, dim: int):
        if not 0 < rate < math.inf:
            raise PreconditionError("rate must be positive and finite")
        self.rate, self.dim = float(rate), int(dim)
        self._log_norm = self.dim * math.log(self.rate / 2.0)

    def kernel(self, shape: tuple):
        """As GaussianIID.kernel, the sum of |theta| per chain into its own
        |theta| and sum buffers; the log density is log_norm - rate * sum."""
        absolute, total = np.empty(shape + (self.dim,)), np.empty(shape)
        flat = total.reshape(-1)

        def stats(theta):
            np.add.reduce(np.abs(theta, out=absolute), axis=-1, out=total)
            return flat.tolist()
        return stats, -self.rate, self._log_norm

    def log_density(self, theta):
        return _log_density(self, theta)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.laplace(0.0, 1.0 / self.rate, size=self.dim)

    def sd_vector(self) -> np.ndarray:
        return np.full(self.dim, math.sqrt(2.0) / self.rate)


class SpikeSlab:
    """Sparse configuration prior on (S, beta_S) with Laplace slabs.

    A parameter is the dense (1+q) row (alpha, beta); its support S is the
    set of nonzero coordinates of beta.  S gets mass
    pi(S) = C(q,|S|)^{-1} f(|S|) with the truncated-geometric size prior
    f(s) = (c q^a)^{-s} / sum_t (c q^a)^{-t}, computed in log space.  Given
    S, coefficients are iid Laplace(lam); the classifier sign alpha is
    uniform on {-1,+1} but its constant mass (-log 2) is *excluded* from
    log_density, matching the documented convention that the density covers
    the (S, beta_S) part only.
    """

    kind = "spikeslab"

    def __init__(self, q: int, a: float, c: float, lam: float | None = None):
        if not 1 <= q < math.inf or q != int(q):
            raise PreconditionError(f"q must be an integer >= 1; got {q!r}")
        if not (0 < a < math.inf and 0 < c < math.inf):
            raise PreconditionError("a and c must be positive and finite")
        self.q, self.a, self.c = int(q), float(a), float(c)
        self.dim = 1 + self.q         # the width of the (alpha, beta) row
        # default slab rate sqrt(log q), floored for tiny q where log q <= 0
        self.lam = float(lam) if lam is not None else math.sqrt(max(math.log(q), 1e-2))
        if not 0 < self.lam < math.inf:
            raise PreconditionError("slab rate must be positive and finite")
        self.log_slab_norm = math.log(self.lam / 2.0)   # a slab's log(lam/2)
        # log f(s) for s = 0..q
        log_ratio = math.log(c) + a * math.log(q)
        raw = -log_ratio * np.arange(q + 1)
        self._log_f = raw - np.logaddexp.reduce(raw)
        # log pi(S) by s = |S|, as Python floats: log f(s) - log C(q, s), with
        # C(q, s) the exact integer built one factor per step, far cheaper at
        # large q than a math.comb call per s
        log_mass, binom = [], 1
        for s, f in enumerate(self._log_f.tolist()):
            log_mass.append(f - math.log(binom))
            binom = binom * (self.q - s) // (s + 1)
        self.log_size_mass = tuple(log_mass)

    def log_config_mass(self, S) -> float:
        """log pi(S) = log f(|S|) - log C(q, |S|), read from `log_size_mass`."""
        s_idx = sorted(int(i) for i in S)
        if s_idx and (s_idx[0] < 0 or s_idx[-1] >= self.q):
            raise PreconditionError("support index out of range")
        if len(set(s_idx)) != len(s_idx):
            raise PreconditionError("support indices must be unique")
        return self.log_size_mass[len(s_idx)]

    def slab_log_density(self, beta_s) -> float:
        beta_s = np.asarray(beta_s, dtype=float)
        return float(len(beta_s) * self.log_slab_norm
                     - self.lam * np.add.reduce(np.abs(beta_s)))

    def log_density(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ShapeError(f"expected a ({self.dim},) row, got {theta.shape}")
        S = np.flatnonzero(theta[1:])
        return self.log_config_mass(S.tolist()) + self.slab_log_density(theta[1 + S])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A (1+q) row: the sign alpha, then beta with a prior-drawn support
        holding Laplace slab draws and zeros elsewhere."""
        theta = np.zeros(1 + self.q)
        theta[0] = -1.0 if rng.random() < 0.5 else 1.0
        size = int(rng.choice(self.q + 1, p=np.exp(self._log_f)))
        S = sorted(rng.choice(self.q, size=size, replace=False).tolist())
        theta[[1 + j for j in S]] = rng.laplace(0.0, 1.0 / self.lam, size=size)
        return theta


PriorSpec = GaussianIID | LaplaceIID | SpikeSlab
