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
        self.risk_state = loss.risk_state(data)

    def risk(self, theta) -> float:
        """Empirical risk at theta (dense coefficients, or SparseParam)."""
        if isinstance(theta, SparseParam):
            if not isinstance(self.prior, SpikeSlab):
                raise ShapeError("SparseParam state requires a spike-slab prior")
            theta = theta.dense_theta(self.prior.q)
        beta = np.asarray(theta, dtype=float).reshape(1, -1)
        return float(self.loss.risk(self.risk_state, beta)[0])

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

# steps of proposal and acceptance variates held at a time per chain, so a
# block's memory does not grow with the chain length beyond its kept draws
_CHUNK = 256


@dataclass(frozen=True)
class ChainStart:
    """One chain set up to run: its initial point and density, proposal
    scale, and the two streams its proposals and uniforms come from.  A run
    draws from the streams, so a ChainStart serves one run only."""

    target: object
    config: MHConfig
    theta: np.ndarray
    logp: float
    scale: np.ndarray
    normals: np.random.Generator
    uniforms: np.random.Generator


def mh_start(target, config: MHConfig) -> ChainStart:
    """Set up one random-walk chain; raises InitializationError when it
    cannot start.

    Variates come from the chain's Philox stream in a fixed order: the prior
    draw of the start (when no init is given), then steps x dim proposal
    normals, then steps uniforms.  `uniforms` is a copy of the stream
    advanced past the normals, so both can be drawn chunk by chunk.
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
    if math.isnan(logp):
        raise InitializationError("initial point has NaN target density")
    if logp == -math.inf:
        raise InitializationError("initial point has zero target density")

    uniforms = np.random.Generator(np.random.Philox())
    uniforms.bit_generator.state = rng.bit_generator.state
    buf = np.empty((_CHUNK, dim))
    for done in range(0, config.steps, _CHUNK):
        uniforms.standard_normal(out=buf[:min(_CHUNK, config.steps - done)])
    return ChainStart(target, config, theta, logp, scale, rng, uniforms)


def _block_log_density(targets):
    """Map an (R, J) block to the R log target densities.

    Targets that share one loss and one prior object and whose data stack
    are evaluated by the vectorized kernels; any others chain by chain
    through log_unnormalized.
    """
    first = targets[0]
    if all(isinstance(t, GibbsTarget) and t.loss is first.loss
           and t.prior is first.prior for t in targets):
        try:
            state = tuple(np.concatenate(parts)
                          for parts in zip(*(t.risk_state for t in targets)))
        except ValueError:          # data of different shapes
            state = None
        if state is not None:
            # -omega * N * R_n(theta) + log prior(theta), in that order
            coef = np.array([-t.omega * t.n_terms for t in targets])
            risk, log_prior_block = first.loss.risk, first.prior.log_density
            return lambda B: coef * risk(state, B) + log_prior_block(B)
    return lambda B: np.array([float(t.log_unnormalized(b))
                               for t, b in zip(targets, B)])


def mh_run_block(starts: Sequence[ChainStart]) -> list[Chain]:
    """Symmetric Gaussian random-walk Metropolis on a block of chains.

    The block's state is an (R, J) array; each step proposes for every
    chain at once and evaluates all R densities in one call.  Each chain
    keeps its own target, variates and accept decisions (min(1, exp(delta
    log))), so every chain is bit-identical to a one-chain run: a chain is a
    pure function of (target, config), whatever block it runs in.  The
    chains must share steps, burn-in, thin and dimension.
    """
    first = starts[0].config
    dim = starts[0].theta.shape[0]
    steps, burn_in, thin = first.steps, first.burn_in, first.thin
    if any((s.config.steps, s.config.burn_in, s.config.thin, s.theta.shape[0])
           != (steps, burn_in, thin, dim) for s in starts):
        raise PreconditionError("chains in a block must share steps, burn-in, "
                                "thin and dimension")
    R = len(starts)
    log_density = _block_log_density([s.target for s in starts])
    theta = np.stack([s.theta for s in starts])
    logp = np.array([s.logp for s in starts])

    kept = np.empty((R, first.n_kept, dim))
    k = 0
    accepted = np.zeros(R, dtype=int)     # plus `every`: steps all chains accepted
    every = 0
    exp = math.exp
    normals = np.empty((_CHUNK, dim))
    steps_dz = np.empty((_CHUNK, R, dim))      # scaled proposal increments
    uniforms = np.empty((R, _CHUNK))
    for done in range(0, steps, _CHUNK):
        c = min(_CHUNK, steps - done)
        for r, s in enumerate(starts):
            s.normals.standard_normal(out=normals[:c])
            np.multiply(s.scale, normals[:c], out=steps_dz[:c, r])
            s.uniforms.random(out=uniforms[r, :c])
        u_steps = uniforms[:, :c].T.tolist()
        for i in range(c):
            prop = theta + steps_dz[i]
            lp = log_density(prop)
            # math.exp per chain: np.exp may differ in the last bit, and
            # that can flip a decision
            accept = [d >= 0.0 or v < exp(d)
                      for d, v in zip((lp - logp).tolist(), u_steps[i])]
            if all(accept):
                theta, logp = prop, lp
                every += 1
            elif any(accept):
                mask = np.array(accept)
                np.copyto(theta, prop, where=mask[:, None])
                np.copyto(logp, lp, where=mask)
                accepted += mask
            idx = done + i + 1 - burn_in
            if idx > 0 and idx % thin == 0:
                kept[:, k] = theta
                k += 1

    accepted += every
    out = []
    for r, s in enumerate(starts):
        meta = {"dim": dim, "proposal_scale": s.scale.tolist(),
                "burn_in": burn_in, "thin": thin}
        if isinstance(s.target, GibbsTarget):
            meta.update(omega=s.target.omega, n_terms=s.target.n_terms,
                        loss=s.target.loss.kind, prior=s.target.prior.kind)
        out.append(Chain(draws=kept[r], accepted=int(accepted[r]), steps=steps,
                         seed=s.config.seed, meta=meta))
    return out


def mh_run(target, config: MHConfig) -> Chain:
    """One random-walk Metropolis chain: the one-chain block.

    target must expose log_unnormalized(theta); GibbsTarget also provides the
    default prior initialization.  See `mh_start` and `mh_run_block`.
    """
    return mh_run_block([mh_start(target, config)])[0]


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
