"""Gibbs-posterior targets and Metropolis-Hastings samplers.

The target density is
    log pi_n(theta) = -omega * N * R_n(theta) + log prior(theta) + const,
where R_n is the empirical risk and N the number of loss summands (the
sample size for iid data; the m*n pair count for two-sample data, which is
what makes the data-driven ranking rate calibrate the posterior spread).

Samplers are deterministic functions of their seed: the generator is a
counter-based Philox keyed directly with the 64-bit seed, and seeds for
replications are derived with the documented hash64 stream-splitter, so any
chain can be reproduced bit-for-bit from (target, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InitializationError, PreconditionError, ShapeError
from .losses import LossSpec, ZeroOneLinearLoss
from .model import Dataset
from .priors import PriorSpec, SparseParam, SpikeSlab, log_prior, sample_prior

_MASK64 = (1 << 64) - 1


def hash64(*parts: int) -> int:
    """Stable 64-bit stream-splitting hash.

    Absorbs each integer part into an accumulator and applies the splitmix64
    finalizer after each absorption.  This mapping is part of the
    reproducibility contract: it is fixed across versions and platforms, so
    (baseSeed, nIndex, repIndex) always yields the same row seed.
    """
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc ^= int(p) & _MASK64
        z = (acc + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = (z ^ (z >> 31)) & _MASK64
    return acc


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed directly by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


# ---------------------------------------------------------------------------
# target
# ---------------------------------------------------------------------------

class GibbsTarget:
    """Bundle of loss, prior, dataset, and resolved learning rate omega."""

    def __init__(self, loss: LossSpec, prior: PriorSpec, data: Dataset, omega: float):
        # omega = 0 is the degenerate prior-only target (used by prior-predictive
        # checks); schedules themselves always resolve to strictly positive rates
        if omega < 0:
            raise PreconditionError("omega must be nonnegative")
        self.loss = loss
        self.prior = prior
        self.data = data
        self.omega = float(omega)
        self.n_terms = data.n_terms
        self._risk = loss.prepare_risk(data)

    def risk(self, theta) -> float:
        """Empirical risk at theta (dense coefficients, or SparseParam)."""
        if isinstance(theta, SparseParam):
            if not isinstance(self.prior, SpikeSlab):
                raise ShapeError("SparseParam state requires a spike-slab prior")
            return self._risk(theta.dense_theta(self.prior.q))
        return self._risk(np.asarray(theta, dtype=float))

    def log_unnormalized(self, theta) -> float:
        """-omega * N * R_n(theta) + log prior(theta); -inf outside support."""
        lp = log_prior(self.prior, theta)
        if lp == -math.inf:
            return -math.inf
        return -self.omega * self.n_terms * self.risk(theta) + lp

    def initial_draw(self, rng: np.random.Generator, retries: int = 1000):
        """A prior draw with finite target density (retry up to `retries`)."""
        for _ in range(retries):
            theta = sample_prior(self.prior, rng)
            if self.log_unnormalized(theta) > -math.inf:
                return theta
        raise InitializationError(
            f"no finite-density initial point in {retries} prior draws")


# ---------------------------------------------------------------------------
# chain containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MHConfig:
    """Metropolis-Hastings run configuration.

    proposal_scale may be a scalar, a per-coordinate array, or None to use
    the default 2.4/sqrt(J) times the prior's coordinate sd.  (steps-burn_in)
    must be divisible by thin so the kept-draw count is exact.  init is the
    starting point, or None for a prior draw: a coefficient array for
    `mh_run`, a SparseParam for `ss_mh_run`.
    """

    steps: int = 50_000
    burn_in: int = 10_000
    thin: int = 5
    proposal_scale: float | np.ndarray | None = None
    seed: int = 0
    init: np.ndarray | SparseParam | None = None
    alpha_flip_prob: float = 0.05
    move_probs: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if self.steps <= self.burn_in:
            raise PreconditionError("steps must exceed burn_in")
        if self.burn_in < 0 or self.thin < 1:
            raise PreconditionError("burn_in >= 0 and thin >= 1 required")
        if (self.steps - self.burn_in) % self.thin != 0:
            raise PreconditionError("(steps - burn_in) must be divisible by thin")
        if self.proposal_scale is not None and np.any(np.asarray(self.proposal_scale) <= 0):
            raise PreconditionError("proposal scale must be positive")
        if not 0.0 <= self.alpha_flip_prob < 1.0:
            raise PreconditionError("alpha_flip_prob must be in [0,1)")
        if abs(sum(self.move_probs) - 1.0) > 1e-12 or min(self.move_probs) < 0:
            raise PreconditionError("move_probs must be nonnegative and sum to 1")

    @property
    def n_kept(self) -> int:
        return (self.steps - self.burn_in) // self.thin


@dataclass(frozen=True)
class Chain:
    """Ordered kept draws from one continuous-parameter chain."""

    draws: np.ndarray            # (kept, J)
    accepted: int
    steps: int
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.steps

    def matrix(self) -> np.ndarray:
        return self.draws


@dataclass(frozen=True)
class SparseChain:
    """Ordered kept draws from a sparse-configuration chain."""

    params: tuple                # tuple[SparseParam, ...]
    q: int
    accepted: int
    steps: int
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.steps

    def matrix(self) -> np.ndarray:
        """Dense coefficient draws, one row per kept draw."""
        return np.stack([p.dense(self.q) for p in self.params])

    def alphas(self) -> np.ndarray:
        return np.array([p.alpha for p in self.params], dtype=float)

    def supports(self) -> list[tuple[int, ...]]:
        return [p.S for p in self.params]


def default_proposal_scale(prior: PriorSpec, dim: int) -> np.ndarray:
    """Default random-walk scale 2.4/sqrt(J) * prior sd per coordinate."""
    try:
        sd = prior.sd_vector()
    except AttributeError:
        sd = np.ones(dim)
    return 2.4 / math.sqrt(dim) * np.asarray(sd, dtype=float)


# ---------------------------------------------------------------------------
# continuous-parameter random-walk Metropolis
# ---------------------------------------------------------------------------

def mh_run(target, config: MHConfig) -> Chain:
    """Symmetric Gaussian random-walk Metropolis.

    target must expose log_unnormalized(theta); GibbsTarget also provides the
    default prior initialization.  Acceptance: min(1, exp(delta log)).
    Proposal and acceptance variates are pre-generated in fixed order, so a
    chain is a pure function of (target, config).
    """
    rng = make_rng(config.seed)
    if config.init is not None:
        theta = np.asarray(config.init, dtype=float).copy()
    else:
        if not hasattr(target, "initial_draw"):
            raise InitializationError("no init given and target cannot self-initialize")
        theta = np.asarray(target.initial_draw(rng), dtype=float)
    dim = theta.shape[0]

    if config.proposal_scale is None:
        scale = default_proposal_scale(getattr(target, "prior", None), dim)
    else:
        scale = np.broadcast_to(np.asarray(config.proposal_scale, dtype=float),
                                (dim,)).copy()

    logp = float(target.log_unnormalized(theta))
    if logp == -math.inf:
        raise InitializationError("initial point has zero target density")

    steps, burn_in, thin = config.steps, config.burn_in, config.thin
    z = rng.standard_normal((steps, dim))
    u = rng.random(steps)

    kept = np.empty((config.n_kept, dim))
    k = 0
    accepted = 0
    for step in range(steps):
        prop = theta + scale * z[step]
        lp = float(target.log_unnormalized(prop))
        delta = lp - logp
        if delta >= 0.0 or u[step] < math.exp(delta):
            theta, logp = prop, lp
            accepted += 1
        idx = step + 1 - burn_in
        if idx > 0 and idx % thin == 0:
            kept[k] = theta
            k += 1

    meta = {"dim": dim, "proposal_scale": np.asarray(scale).tolist(),
            "burn_in": burn_in, "thin": thin}
    if isinstance(target, GibbsTarget):
        meta.update(omega=target.omega, n_terms=target.n_terms,
                    loss=target.loss.kind, prior=target.prior.kind)
    return Chain(draws=kept, accepted=accepted, steps=steps,
                 seed=config.seed, meta=meta)


# ---------------------------------------------------------------------------
# sparse-configuration Metropolis-Hastings
# ---------------------------------------------------------------------------

def ss_mh_run(target: GibbsTarget, config: MHConfig) -> SparseChain:
    """Metropolis-Hastings over (alpha, S, beta_S) for spike-slab targets.

    Per step, one of three moves with probabilities move_probs:
      * add: insert a uniformly chosen absent index, drawing its coefficient
        from the slab (the slab density cancels between prior and proposal,
        leaving the support-count asymmetry (q-s)/(s+1));
      * remove: drop a uniformly chosen member (asymmetry s/(q-s+1));
      * walk: Gaussian random walk on the current beta_S.
    Independently, alpha is proposed to flip with probability alpha_flip_prob
    (a symmetric move, so plain Metropolis acceptance).  acceptedCount counts
    the add/remove/walk acceptances only.
    """
    prior = target.prior
    if not isinstance(prior, SpikeSlab):
        raise ShapeError("ss_mh_run requires a spike-slab prior")
    if not isinstance(target.loss, ZeroOneLinearLoss):
        raise ShapeError("ss_mh_run expects the linear classifier loss")
    q, lam = prior.q, prior.lam

    rng = make_rng(config.seed)
    if config.init is not None:
        state = config.init
        if not isinstance(state, SparseParam):
            raise ShapeError("sparse chain init must be a SparseParam")
    else:
        state = target.initial_draw(rng)

    if config.proposal_scale is None:
        walk_scale = 2.4 / math.sqrt(max(q, 1)) * math.sqrt(2.0) / lam
    else:
        walk_scale = float(np.asarray(config.proposal_scale).reshape(-1)[0])

    omega_n = target.omega * target.n_terms
    add_p, rem_p, _ = config.move_probs

    def neg_energy(p: SparseParam) -> float:
        return -omega_n * target.risk(p)

    ne = neg_energy(state)

    steps, burn_in, thin = config.steps, config.burn_in, config.thin
    kept: list[SparseParam] = []
    accepted = 0

    for step in range(steps):
        mu = rng.random()
        prop: SparseParam | None = None
        # log of [prior-structure ratio x proposal ratio], excluding the
        # -omega*N*R energy term which is added uniformly below
        log_extra = 0.0
        if mu < add_p:
            s = len(state.S)
            if s < q:
                absent = sorted(set(range(q)) - set(state.S))
                j = absent[int(rng.integers(len(absent)))]
                bj = float(rng.laplace(0.0, 1.0 / lam))
                pos = int(np.searchsorted(state.S, j))
                new_s = state.S[:pos] + (j,) + state.S[pos:]
                new_b = np.insert(state.beta_s, pos, bj)
                prop = SparseParam(state.alpha, new_s, new_b)
                # the slab density of the inserted coordinate cancels exactly
                # against its proposal density, leaving the configuration-mass
                # ratio and the uniform-choice asymmetry (q-s)/(s+1)
                log_extra = (prior.log_config_mass(new_s)
                             - prior.log_config_mass(state.S)
                             + math.log(q - s) - math.log(s + 1))
        elif mu < add_p + rem_p:
            s = len(state.S)
            if s > 0:
                pos = int(rng.integers(s))
                new_s = state.S[:pos] + state.S[pos + 1:]
                new_b = np.delete(state.beta_s, pos)
                prop = SparseParam(state.alpha, new_s, new_b)
                # mirror of the add move: dropped coordinate's slab density
                # cancels against the reverse proposal
                log_extra = (prior.log_config_mass(new_s)
                             - prior.log_config_mass(state.S)
                             + math.log(s) - math.log(q - s + 1))
        else:
            s = len(state.S)
            if s > 0:
                new_b = state.beta_s + walk_scale * rng.standard_normal(s)
                prop = SparseParam(state.alpha, state.S, new_b)
                # symmetric walk on a fixed configuration: only the slab ratio
                log_extra = (prior.slab_log_density(new_b)
                             - prior.slab_log_density(state.beta_s))

        if prop is not None:
            prop_ne = neg_energy(prop)
            delta = (prop_ne - ne) + log_extra
            if delta >= 0.0 or rng.random() < math.exp(delta):
                state, ne = prop, prop_ne
                accepted += 1

        if rng.random() < config.alpha_flip_prob:
            flipped = SparseParam(-state.alpha, state.S, state.beta_s)
            flip_ne = neg_energy(flipped)
            d = flip_ne - ne
            if d >= 0.0 or rng.random() < math.exp(d):
                state, ne = flipped, flip_ne

        idx = step + 1 - burn_in
        if idx > 0 and idx % thin == 0:
            kept.append(state)

    meta = {"q": q, "walk_scale": walk_scale, "burn_in": burn_in, "thin": thin,
            "omega": target.omega, "n_terms": target.n_terms,
            "loss": target.loss.kind, "prior": prior.kind}
    return SparseChain(params=tuple(kept), q=q, accepted=accepted,
                       steps=steps, seed=config.seed, meta=meta)


# ---------------------------------------------------------------------------
# chain summaries
# ---------------------------------------------------------------------------

def posterior_mean(chain: Chain | SparseChain) -> np.ndarray:
    """Coordinate-wise mean of the kept draws.

    For sparse chains the result is the (1+q)-vector (mean alpha, mean dense
    beta) -- configuration draws are averaged through their dense embedding.
    """
    if isinstance(chain, SparseChain):
        if len(chain.params) == 0:
            raise PreconditionError("empty chain")
        return np.concatenate([[chain.alphas().mean()],
                               chain.matrix().mean(axis=0)])
    if chain.draws.shape[0] == 0:
        raise PreconditionError("empty chain")
    return chain.draws.mean(axis=0)


def credible_interval(chain: Chain | SparseChain | np.ndarray,
                      coordinate: int | None = None,
                      level: float = 0.95,
                      functional=None) -> tuple[float, float]:
    """Equal-tailed credible interval from kept draws.

    Quantiles use linear interpolation of order statistics (the classical
    "type 7" rule, numpy's default) at probabilities (1 -+ level)/2.  Scalar
    draws may be passed directly; otherwise give a coordinate index or a
    functional mapping one draw to a scalar.
    """
    if not 0.0 < level < 1.0:
        raise PreconditionError("level must be in (0,1)")
    if isinstance(chain, (Chain, SparseChain)):
        if functional is not None:
            src = chain.params if isinstance(chain, SparseChain) else chain.draws
            values = np.array([float(functional(d)) for d in src])
        else:
            mat = chain.matrix()
            if mat.shape[0] == 0:
                raise PreconditionError("empty chain")
            if coordinate is None:
                if mat.shape[1] != 1:
                    raise PreconditionError("coordinate required for multivariate chains")
                coordinate = 0
            values = mat[:, coordinate]
    else:
        values = np.asarray(chain, dtype=float).reshape(-1)
    if values.size == 0:
        raise PreconditionError("empty chain")
    lo, hi = np.quantile(values, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float(lo), float(hi)


def effective_sample_size(values: Sequence[float]) -> float:
    """ESS via the initial-positive-sequence autocorrelation estimator.

    Sums lagged autocorrelations in adjacent pairs until a pair sum goes
    nonpositive (Geyer's rule); returns n / tau clipped to [1, n].
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    n = x.size
    if n < 4:
        return float(max(n, 1))
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    if acov[0] <= 0:
        return float(n)
    rho = acov / acov[0]
    tau = -1.0
    k = 0
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    tau = max(tau, 1.0)
    return float(min(max(n / tau, 1.0), n))


def chain_summary(chain: Chain | SparseChain, level: float = 0.95) -> dict:
    """JSON-ready summary: mean, equal-tailed intervals, acceptance, seed."""
    mat = chain.matrix()
    mean = posterior_mean(chain)
    intervals = [credible_interval(mat[:, j], level=level)
                 for j in range(mat.shape[1])]
    out = {
        "mean": [float(v) for v in mean],
        "interval_level": level,
        "intervals": [[float(a), float(b)] for a, b in intervals],
        "accept_rate": chain.accept_rate,
        "accepted": chain.accepted,
        "steps": chain.steps,
        "kept": int(mat.shape[0]),
        "seed": int(chain.seed),
        "meta": chain.meta,
    }
    return out


def write_chain_csv(chain: Chain | SparseChain, path) -> None:
    """One kept draw per row; sparse chains are written densely with a
    leading alpha column."""
    mat = chain.matrix()
    if isinstance(chain, SparseChain):
        mat = np.column_stack([chain.alphas(), mat])
        header = ["alpha"] + [f"beta{j}" for j in range(chain.q)]
    else:
        header = [f"theta{j}" for j in range(mat.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
