"""Gibbs-posterior targets and Metropolis-Hastings samplers.

The target density is
    log pi_n(theta) = -omega * N * R_n(theta) + log prior(theta) + const,
where R_n is the empirical risk and N the number of loss summands (the
sample size for iid data; the m*n pair count for two-sample data, which is
what makes the data-driven ranking rate calibrate the posterior spread).

Both samplers start, walk and return dense rows: a random-walk draw is the
coefficient vector, a spike-slab draw the (1+q) row (alpha, beta) with zeros
off its support.

Samplers are deterministic functions of their seed: the generator is a
counter-based Philox keyed directly with the 64-bit seed, and seeds for
replications are derived with the documented hash64 stream-splitter, so any
chain can be reproduced bit-for-bit from (target, config, seed).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InitializationError, PreconditionError, ShapeError
from .losses import LossSpec, ZeroOneLinearLoss
from .model import Dataset
from .priors import PriorSpec, SpikeSlab

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
        """Empirical risk at the dense coefficient vector theta."""
        beta = np.asarray(theta, dtype=float).reshape(1, -1)
        return float(self.loss.risk(self.risk_state, beta)[0])

    def log_unnormalized(self, theta) -> float:
        """-omega * N * R_n(theta) + log prior(theta); -inf outside support."""
        lp = self.prior.log_density(theta)
        if lp == -math.inf:
            return -math.inf
        return -self.omega * self.n_terms * self.risk(theta) + lp

    def initial_draw(self, rng: np.random.Generator, retries: int = 1000):
        """A prior draw with finite target density (retry up to `retries`)."""
        for _ in range(retries):
            theta = self.prior.sample(rng)
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
    `mh_run`, a (1+q) row (alpha, beta) for `ss_mh_run`.
    """

    steps: int = 50_000
    burn_in: int = 10_000
    thin: int = 5
    proposal_scale: float | np.ndarray | None = None
    seed: int = 0
    init: np.ndarray | None = None
    alpha_flip_prob: float = 0.05

    def __post_init__(self):
        if self.steps <= self.burn_in:
            raise PreconditionError("steps must exceed burn_in")
        if self.burn_in < 0 or self.thin < 1:
            raise PreconditionError("burn_in >= 0 and thin >= 1 required")
        if (self.steps - self.burn_in) % self.thin != 0:
            raise PreconditionError("(steps - burn_in) must be divisible by thin")
        if self.proposal_scale is not None:
            scale = np.asarray(self.proposal_scale, dtype=float)
            # NaN fails every comparison, so `scale <= 0` would let it through
            if not np.all(np.isfinite(scale) & (scale > 0)):
                raise PreconditionError("proposal scale must be positive and finite")
        if not 0.0 <= self.alpha_flip_prob < 1.0:
            raise PreconditionError("alpha_flip_prob must be in [0,1)")

    @property
    def n_kept(self) -> int:
        return (self.steps - self.burn_in) // self.thin


@dataclass(frozen=True)
class Chain:
    """Ordered kept draws from one chain, one dense row per draw; spike-slab
    chains carry q in their meta."""

    draws: np.ndarray            # (kept, J)
    accepted: int
    steps: int
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.steps


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


def _block_log_density(targets, tiles: int = 1):
    """Map an (R, J) block to the R log target densities, and say whether
    that runs on the vectorized kernels.

    Targets that share one loss and one prior object and whose data stack
    are evaluated by the vectorized kernels; any others chain by chain
    through log_unnormalized.  With tiles > 1 the targets are repeated that
    many times, and a block of m rows, m <= tiles * R, gets the densities of
    the first m targets (on views of the first m rows of the stacked state).
    """
    targets = targets * tiles
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
            if tiles == 1:
                return (lambda B: coef * risk(state, B) + log_prior_block(B)), True

            rows = len(targets)

            def log_density(B):
                m = len(B)
                if m == rows:
                    return coef * risk(state, B) + log_prior_block(B)
                return (coef[:m] * risk(tuple(a[:m] for a in state), B)
                        + log_prior_block(B))
            return log_density, True
    return (lambda B: np.array([float(t.log_unnormalized(b))
                                for t, b in zip(targets, B)])), False


# a lookahead fill evaluates at most this many rows (chains x steps) at once
_LOOKAHEAD_ROWS = 4


def mh_run_block(starts: Sequence[ChainStart]) -> list[Chain]:
    """Symmetric Gaussian random-walk Metropolis on a block of chains.

    The block's state is an (R, J) array; each step proposes for every
    chain at once and evaluates all R densities in one call.  Each chain
    keeps its own target, variates and accept decisions (min(1, exp(delta
    log))), so every chain is bit-identical to a one-chain run: a chain is a
    pure function of (target, config), whatever block it runs in.  The
    chains must share steps, burn-in, thin and dimension.

    Lookahead (pre-fetching, Brockwell 2006, JCGS 15(1)): while no chain
    accepts, the state does not move, so the next K proposals theta +
    s*eps_{t+1..t+K} of every chain are known in advance.  When a step is
    not covered by the buffer, the next k = min(K, steps left in the chunk)
    proposals are evaluated in one kernel call on a (k*R, J) array (row
    j*R + r is chain r at step t+j), against the targets repeated K times.
    The decisions are then taken step by step from the buffer, with the
    same uniforms and the same test, and the buffer is dropped as soon as
    any chain accepts.  The kernels are bit-identical row by row, so K
    decides only which rows get computed, never a draw or a decision.
    K = 1 for the first chunk of _CHUNK steps; after each chunk, K =
    floor(_CHUNK / steps of that chunk on which some chain accepted),
    capped at max(1, 4 // R) rows per call.  Blocks of four or more chains,
    and blocks evaluated chain by chain through log_unnormalized (where a
    bigger call only adds evaluations), keep K = 1.
    """
    first = starts[0].config
    dim = starts[0].theta.shape[0]
    steps, burn_in, thin = first.steps, first.burn_in, first.thin
    if any((s.config.steps, s.config.burn_in, s.config.thin, s.theta.shape[0])
           != (steps, burn_in, thin, dim) for s in starts):
        raise PreconditionError("chains in a block must share steps, burn-in, "
                                "thin and dimension")
    R = len(starts)
    targets = [s.target for s in starts]
    log_density, vectorized = _block_log_density(targets)
    max_k = max(1, _LOOKAHEAD_ROWS // R) if vectorized else 1
    K = tiles = 1                         # lookahead, and the kernel's copies
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
        if K != tiles:
            log_density, _ = _block_log_density(targets, K)
            tiles = K
        moved = 0                         # steps on which some chain accepted
        start = end = 0                   # steps [start, end) are in the buffer
        for i in range(c):
            if i < end:
                prop, lp = props[i - start], lps[i - start]
            elif K == 1 or i + 1 == c:
                # one step on (R, J) arrays: a (1, R, J) buffer would make
                # every broadcast on the way cost more
                prop = theta + steps_dz[i]
                lp = log_density(prop)
            else:
                n_ahead = min(K, c - i)
                props = theta + steps_dz[i:i + n_ahead]
                lps = log_density(props.reshape(n_ahead * R, dim)).reshape(n_ahead, R)
                start, end = i, i + n_ahead
                prop, lp = props[0], lps[0]
            # math.exp per chain: np.exp may differ in the last bit, and
            # that can flip a decision
            accept = [d >= 0.0 or v < exp(d)
                      for d, v in zip((lp - logp).tolist(), u_steps[i])]
            if all(accept):
                theta, logp = prop, lp
                every += 1
                moved += 1
                end = 0
            elif any(accept):
                mask = np.array(accept)
                np.copyto(theta, prop, where=mask[:, None])
                np.copyto(logp, lp, where=mask)
                accepted += mask
                moved += 1
                end = 0
            idx = done + i + 1 - burn_in
            if idx > 0 and idx % thin == 0:
                kept[:, k] = theta
                k += 1
        if max_k > 1:
            K = min(max_k, _CHUNK // moved) if moved else max_k

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

# probabilities of the add and remove moves; the walk takes the rest
_ADD_P = _REMOVE_P = 1 / 3


def ss_mh_run(target: GibbsTarget, config: MHConfig) -> Chain:
    """Metropolis-Hastings over (alpha, S, beta_S) for spike-slab targets.

    The state is the dense (1+q)-vector theta = (alpha, beta), zero off the
    support S (the start is config.init, such a row with alpha in {-1,+1},
    or a prior draw), together with S and its complement as ascending lists of
    coordinates (changed only when an add or remove is accepted).  Per step,
    one of three moves, each with probability 1/3:
      * add: set a uniformly chosen absent coordinate to a slab draw (the
        slab density cancels between prior and proposal, leaving the
        support-count asymmetry (q-s)/(s+1));
      * remove: zero a uniformly chosen member (asymmetry s/(q-s+1));
      * walk: Gaussian random walk on the current beta_S.
    Independently, alpha is proposed to flip with probability alpha_flip_prob
    (a symmetric move, so plain Metropolis acceptance).  acceptedCount counts
    the add/remove/walk acceptances only.

    log pi(S) depends on S only through s = |S|, so the add and remove
    ratios are read from per-chain tables by s, built once from
    `prior.log_config_mass(range(s))` for s = 0..q.  The slab density of the
    current beta_S is kept between walks.  Each proposal is scored by a
    one-row kernel on the target's 2-D arrays (`risk_state` without its chain
    axis): one gemv and one count of `pointwise`'s mismatches, the bits of
    `GibbsTarget.risk` at 60-80 % of its cost.  Chains run one at a time: a
    lockstep block costs more per row at n=800, and lookahead would win at
    most about 15 % (ROADMAP item 3).  The kept draws are theta rows.
    The chain's meta carries q, the proposals and acceptances of each move
    (`moves`: add, remove, walk, flip) and the mean |S| over the kept draws
    (`mean_support_size`).
    """
    prior = target.prior
    if not isinstance(prior, SpikeSlab):
        raise ShapeError("ss_mh_run requires a spike-slab prior")
    if not isinstance(target.loss, ZeroOneLinearLoss):
        raise ShapeError("ss_mh_run expects the linear classifier loss")
    q, lam = prior.q, prior.lam

    rng = make_rng(config.seed)
    if config.init is not None:
        theta = np.array(config.init, dtype=float)
        if theta.shape != (1 + q,) or theta[0] not in (-1.0, 1.0):
            raise ShapeError(f"sparse chain init must be a ({1 + q},) row "
                             "(alpha, beta) with alpha -1 or +1")
    else:
        theta = target.initial_draw(rng)
    support = np.flatnonzero(theta[1:]).tolist()
    absent = sorted(set(range(q)).difference(support))
    support_idx = np.array(support, dtype=np.intp) + 1   # beta_S in theta

    if config.proposal_scale is None:
        walk_scale = 2.4 / math.sqrt(max(q, 1)) * math.sqrt(2.0) / lam
    else:
        walk_scale = float(np.asarray(config.proposal_scale).reshape(-1)[0])

    # log of [prior-structure ratio x proposal ratio] of an add or remove
    # from size s, excluding the -omega*N*R energy term added uniformly
    # below.  The slab density of the added or dropped coordinate cancels
    # exactly against its proposal density, leaving the configuration-mass
    # ratio and the uniform-choice asymmetry.
    log_mass = [prior.log_config_mass(range(s)) for s in range(q + 1)]
    log, exp = math.log, math.exp
    add_extra = [log_mass[s + 1] - log_mass[s] + log(q - s) - log(s + 1)
                 for s in range(q)]
    remove_extra = [None] + [log_mass[s - 1] - log_mass[s] + log(s)
                             - log(q - s + 1) for s in range(1, q + 1)]

    omega_n = target.omega * target.n_terms
    prepared = tuple(a[0] for a in target.risk_state)   # the 2-D arrays
    pointwise, count = target.loss.pointwise, np.count_nonzero
    n = len(prepared[1])

    def risk(theta):
        return count(pointwise(prepared, theta)) / n
    slab_log_density = prior.slab_log_density
    random, integers = rng.random, rng.integers
    laplace, standard_normal = rng.laplace, rng.standard_normal
    slab_scale = 1.0 / lam
    flip_prob = config.alpha_flip_prob

    ne = -omega_n * risk(theta)
    slab = None                       # slab density of beta_S, once needed

    steps, burn_in, thin = config.steps, config.burn_in, config.thin
    kept = np.empty((config.n_kept, 1 + q))
    k = 0
    next_keep = burn_in + thin        # 1-based step of the next kept draw
    size_sum = 0
    accepted = 0
    proposed = [0, 0, 0, 0]           # add, remove, walk, flip
    taken = [0, 0, 0, 0]

    for step in range(1, steps + 1):
        mu = random()
        s = len(support)
        move = None
        if mu < _ADD_P:
            if s < q:
                i = integers(q - s)
                prop = theta.copy()
                prop[1 + absent[i]] = laplace(0.0, slab_scale)
                log_extra = add_extra[s]
                move = 0
        elif mu < _ADD_P + _REMOVE_P:
            if s > 0:
                i = integers(s)
                prop = theta.copy()
                prop[1 + support[i]] = 0.0
                log_extra = remove_extra[s]
                move = 1
        elif s > 0:
            beta_s = theta[support_idx]
            new_b = beta_s + walk_scale * standard_normal(s)
            prop = theta.copy()
            prop[support_idx] = new_b
            if slab is None:
                slab = slab_log_density(beta_s)
            prop_slab = slab_log_density(new_b)
            # symmetric walk on a fixed configuration: only the slab ratio
            log_extra = prop_slab - slab
            move = 2

        if move is not None:
            proposed[move] += 1
            prop_ne = -omega_n * risk(prop)
            delta = (prop_ne - ne) + log_extra
            if delta >= 0.0 or random() < exp(delta):
                theta, ne = prop, prop_ne
                accepted += 1
                taken[move] += 1
                if move == 2:
                    slab = prop_slab
                else:
                    if move == 0:
                        insort(support, absent.pop(i))
                    else:
                        insort(absent, support.pop(i))
                    support_idx = np.array(support, dtype=np.intp) + 1
                    slab = None

        if random() < flip_prob:
            proposed[3] += 1
            flipped = theta.copy()
            flipped[0] = -flipped[0]
            flip_ne = -omega_n * risk(flipped)
            d = flip_ne - ne
            if d >= 0.0 or random() < exp(d):
                theta, ne = flipped, flip_ne
                taken[3] += 1

        if step == next_keep:
            kept[k] = theta
            k += 1
            size_sum += len(support)
            next_keep += thin

    moves = {name: {"proposed": p, "accepted": a} for name, p, a
             in zip(("add", "remove", "walk", "flip"), proposed, taken)}
    meta = {"q": q, "walk_scale": walk_scale, "burn_in": burn_in, "thin": thin,
            "omega": target.omega, "n_terms": target.n_terms,
            "loss": target.loss.kind, "prior": prior.kind,
            "moves": moves, "mean_support_size": size_sum / k}
    return Chain(draws=kept, accepted=accepted, steps=steps, seed=config.seed,
                 meta=meta)


# ---------------------------------------------------------------------------
# chain summaries
# ---------------------------------------------------------------------------

def posterior_mean(chain: Chain) -> np.ndarray:
    """Coordinate-wise mean of the kept draws."""
    if chain.draws.shape[0] == 0:
        raise PreconditionError("empty chain")
    return chain.draws.mean(axis=0)


def credible_interval(chain: Chain | np.ndarray,
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
    if isinstance(chain, Chain):
        mat = chain.draws
        if functional is not None:
            values = np.array([float(functional(d)) for d in mat])
        else:
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


def chain_summary(chain: Chain, level: float = 0.95) -> dict:
    """JSON-ready summary: mean, equal-tailed intervals, acceptance, seed."""
    mat = chain.draws
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


def write_chain_csv(chain: Chain, path) -> None:
    """One kept draw per row; spike-slab chains (whose meta carries q) are
    headed alpha,beta0,..., others theta0,..."""
    if "q" in chain.meta:
        header = ["alpha"] + [f"beta{j}" for j in range(chain.meta["q"])]
    else:
        header = [f"theta{j}" for j in range(chain.draws.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # a row's tolist() gives Python floats, whose repr is the shortest
        # round-tripping text; row by row, so no copy of all draws is made
        for row in chain.draws:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
