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
from functools import cache
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


def _word_draws(rng: np.random.Generator):
    """(uniform, pick): rng.random() and rng.integers(k) read straight from
    rng's 64-bit words, with the same values and the same words consumed.

    uniform() is Philox's next_double, (w >> 11) * 2**-53.  pick(k) is
    NumPy's bounded integer for k <= 2**32, Lemire's multiply-shift on
    32-bit halves (Lemire 2019, ACM TOMACS 29(1)): take the buffered high
    half if there is one, else the low half of a fresh word, keeping its
    high half; m = u * k, drawn again while m % 2**32 < (2**32 - k) % k;
    return m >> 32.  pick(1) draws nothing.  The half buffer starts as
    rng's own and is kept here from then on, so rng must take no 32-bit
    draw of its own after this call; `laplace` and `standard_normal` read
    whole words and may be interleaved.  A pick saves about 1 µs of
    `integers`' argument handling and lock, a uniform about 0.1 µs.
    `test_word_draws_equal_the_generator_draws` holds them to NumPy's.
    """
    raw = rng.bit_generator.random_raw
    state = rng.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else -1

    def uniform():
        return (raw() >> 11) * 2.0**-53

    def pick(k):
        nonlocal half
        if k == 1:
            return 0
        while True:
            if half < 0:
                word = raw()
                u, half = word & 0xFFFFFFFF, word >> 32
            else:
                u, half = half, -1
            m = u * k
            if m & 0xFFFFFFFF >= (0x100000000 - k) % k:
                return m >> 32
    return uniform, pick


# ---------------------------------------------------------------------------
# target
# ---------------------------------------------------------------------------

class GibbsTarget:
    """Record of loss, prior, dataset, resolved learning rate omega and the
    loss's prepared arrays of the data; the samplers build its kernels."""

    def __init__(self, loss: LossSpec, prior: PriorSpec, data: Dataset, omega: float):
        # omega = 0 is the degenerate prior-only target (used by prior-predictive
        # checks); schedules themselves always resolve to strictly positive rates
        if not 0 <= omega < math.inf:      # NaN fails it too
            raise PreconditionError("omega must be finite and nonnegative")
        if not isinstance(data, Dataset):
            raise ShapeError("a Gibbs target's data must be a Dataset")
        self.loss = loss
        self.prior = prior
        self.data = data
        self.omega = float(omega)
        self.n_terms = data.n_terms
        self.prepared = loss.prepare(data)

    def risk(self, theta) -> float:
        """Empirical risk at theta, on a one-chain kernel built for this call."""
        sums, n = self.loss.kernel(tuple(a[None] for a in self.prepared))[:2]
        return sums(np.asarray(theta, dtype=float).reshape(1, -1))[0] / n


# ---------------------------------------------------------------------------
# chain containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MHConfig:
    """Metropolis-Hastings run configuration.

    proposal_scale may be a scalar, a per-coordinate array (`mh_run` only),
    or None to use the default 2.4/sqrt(J) times the prior's coordinate sd.
    (steps-burn_in) must be divisible by thin so the kept-draw count is
    exact.  init is the starting point, or None for a prior draw: a
    coefficient array for `mh_run`, a (1+q) row (alpha, beta) for
    `ss_mh_run`.
    """

    steps: int = 50_000
    burn_in: int = 10_000
    thin: int = 5
    proposal_scale: float | np.ndarray | None = None
    seed: int = 0
    init: np.ndarray | None = None
    alpha_flip_prob: float = 0.05

    def __post_init__(self):
        # a bool is an int, and a float would pass the checks below and
        # fail later as a slice bound or a variate count
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in (self.steps, self.burn_in, self.thin)):
            raise PreconditionError("steps, burn_in and thin must be integers")
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


def default_proposal_scale(prior: PriorSpec) -> np.ndarray:
    """Default random-walk scale 2.4/sqrt(J) * prior sd per coordinate."""
    return 2.4 / math.sqrt(prior.dim) * prior.sd_vector()


# ---------------------------------------------------------------------------
# continuous-parameter random-walk Metropolis
# ---------------------------------------------------------------------------

# steps of proposal and acceptance variates held at a time per chain, so a
# block's memory does not grow with the chain length beyond its kept draws
_CHUNK = 256


@dataclass(frozen=True)
class ChainStart:
    """One chain set up to run: its initial point and density, proposal
    scale, the two streams its proposals and uniforms come from, and their
    bit generators' states when the start was made.  A run first sets the
    streams back to those states, so every run of a start is the same
    chain."""

    target: GibbsTarget
    config: MHConfig
    theta: np.ndarray
    logp: float
    scale: np.ndarray
    normals: np.random.Generator
    uniforms: np.random.Generator
    states: tuple


def mh_start(target: GibbsTarget, config: MHConfig) -> ChainStart:
    """Set up one random-walk chain; raises InitializationError when it
    cannot start.

    Variates come from the chain's Philox stream in a fixed order: the prior
    draws of the start (when no init is given), then steps x dim proposal
    normals, then steps uniforms.  `uniforms` is a copy of the stream
    advanced past the normals, so both can be drawn chunk by chunk.  The
    start, init or else the first of up to 1000 prior draws of finite
    density (NaN is not), is scored once, by the one-chain, one-row density
    of `_block_log_density` that the chain's proposals are scored by.
    """
    if not isinstance(target, GibbsTarget):
        raise ShapeError(f"a random-walk chain takes a GibbsTarget, not "
                         f"{type(target).__name__}")
    prior = target.prior
    if isinstance(prior, SpikeSlab):
        raise ShapeError("a random-walk chain cannot take a spike-slab prior; "
                         "use ss_mh_run")
    rng = make_rng(config.seed)
    density = _block_log_density([target])(1)
    dim = prior.dim
    if config.init is not None:
        theta = np.asarray(config.init, dtype=float).copy()
        if theta.shape != (dim,):
            raise ShapeError(f"init must be a ({dim},) row, one entry per "
                             f"coordinate of the prior; got shape {theta.shape}")
        logp = density(theta[None, None])[0]
    else:
        for _ in range(1000):
            theta = np.asarray(prior.sample(rng), dtype=float)
            if (logp := density(theta[None, None])[0]) > -math.inf:
                break
        else:
            raise InitializationError(
                "no finite-density initial point in 1000 prior draws")

    if config.proposal_scale is None:
        scale = default_proposal_scale(prior)
    else:
        scale = np.asarray(config.proposal_scale, dtype=float)
        if scale.size not in (1, dim):
            raise ShapeError(f"proposal_scale has {scale.size} entries, not 1 or dimension {dim}")
        scale = np.broadcast_to(scale, (dim,)).copy()

    if math.isnan(logp):
        raise InitializationError("initial point has NaN target density")
    if logp == -math.inf:
        raise InitializationError("initial point has zero target density")

    uniforms = np.random.Generator(np.random.Philox())
    uniforms.bit_generator.state = state = rng.bit_generator.state
    buf = np.empty((_CHUNK, dim))
    for done in range(0, config.steps, _CHUNK):
        uniforms.standard_normal(out=buf[:min(_CHUNK, config.steps - done)])
    return ChainStart(target, config, theta, logp, scale, rng, uniforms,
                      (state, uniforms.bit_generator.state))


def _block_log_density(targets):
    """The log target densities of a block of R chains' proposals, k per
    chain, on the vectorized kernels of the targets' one loss and one
    prior: a function of k that builds the map from an (R, k, J) block to
    its R*k densities, chain-major (row r*k + j is chain r's j-th), as a
    list of Python floats.  `mh_start` scores a chain's start with the
    one-chain map at k = 1, `mh_run_block` every proposal.

    The loss's kernel for k rows per chain scores the block against the R
    targets' prepared arrays as they stand, stacked on a leading chain axis
    (one chain's are views of its target's own, with no copy), and the
    prior's kernel for (R, k) rows; each owns its buffers, so an evaluation
    allocates no n-sized array.  The loss kernel fills each row's loss sum
    m and gives its divisor n, the prior kernel fills each row's statistic
    s and gives the affine pair (a, b) of its log density, and one list
    combines them on Python floats into -omega * N * (m / n) + (a * s + b),
    the bits of -omega * N * R_n(theta) + log prior(theta).
    """
    R = len(targets)
    loss, prior = targets[0].loss, targets[0].prior
    state = tuple(a[None] for a in targets[0].prepared) if R == 1 else tuple(
        np.stack(parts) for parts in zip(*(t.prepared for t in targets)))
    coef = [-t.omega * t.n_terms for t in targets]

    def density(k):
        sums, n, _ = loss.kernel(state, k)
        stats, a, b = prior.kernel((R, k))
        row_coef = [c for c in coef for _ in range(k)]
        return lambda B: [c * (m / n) + (a * s + b)
                          for c, m, s in zip(row_coef, sums(B), stats(B))]
    return density


# a call of k rows per chain on R chains of n observations costs about
# 1 + k*R*n / _CALL_CELLS one-row calls.  A line a + b*cells through medians
# of 60 interleaved batches of 100 calls, in us per call at k = 1 and 3, of
# 8 MCID chains at n = 100 (15.3-17.2, 20.9-22.9) and 4 check-loss chains at
# n = 200 (18.3-20.8, 28.3-31.2), 800 (25.0-26.5, 51.3-53.2) and 3200
# (55.6-57.2, 147.6-150.6) gives a / b of 2250-3700 cells (three runs on one
# thread of a 2-vCPU Intel Xeon, NumPy 2.4.6, OpenBLAS 0.3.31).
_CALL_CELLS = 3000


def _prefetch(stay: float, cells: int, left: int) -> int:
    """K, the steps per chain a chunk's calls score along the reject path
    (1 to 4), or 0 for the two-step tree, whichever covers the most steps
    per unit of call cost (Strid 2010, CSDA 54(11)).  A call of k rows per
    chain costs 1 + k * cells / _CALL_CELLS (cells = R * n); K rows cover
    sum_{d<K} stay^d steps, where stay is the share of the last chunk's
    steps on which no chain moved, and the tree's 3 rows cover 2 if two
    steps are left.  Ties go to the smaller K, never to the tree, so a
    first chunk (stay 0) takes the tree exactly when cells < _CALL_CELLS."""
    covers = {K: sum(stay ** d for d in range(K)) for K in range(1, 5)}
    if left > 1:
        covers[0] = 2
    return max(covers, key=lambda K: covers[K] / (1 + (K or 3) * cells / _CALL_CELLS))


def mh_run_block(starts: Sequence[ChainStart]) -> list[Chain]:
    """Symmetric Gaussian random-walk Metropolis on a block of chains.

    The block's state is an (R, J) array; each step proposes for every
    chain at once and evaluates all R densities in one call.  Each chain
    keeps its own target, variates and accept decisions (min(1, exp(delta
    log))), so every chain is bit-identical to a one-chain run: a chain is a
    pure function of (target, config), whatever block it runs in.  The
    chains must share steps, burn-in, thin and dimension, and their targets
    one loss object, one prior object and prepared arrays of one shape.

    Each kernel call scores an (R, k, J) array, k proposals per chain (row
    r*k + j of the densities is chain r's j-th), each chain's rows against
    its own data, untiled, by the density function for k, built when first
    used.  `_prefetch` chooses, per chunk of _CHUNK steps, which of two
    prefetching trees (Strid 2010) the calls score.  The reject path
    (Brockwell 2006, JCGS 15(1)): while no chain accepts the state does not
    move, so one call scores theta + s*eps of the next k = min(K, steps
    left in the chunk) steps, dropped as soon as any chain accepts.  The
    two-step tree: one call per pair of steps t, t+1 scores theta + eps_t,
    theta + eps_{t+1} and (theta + eps_t) + eps_{t+1}, the last added to
    the stored first row, so it has the bits of step t+1's proposal after
    a move at t; at t+1 a chain that accepted at t reads the third row, any
    other the second, and a chunk's odd last step takes a one-row call.
    The decisions are taken step by step, with the same uniforms and test.
    A row's density does not depend on which rows share its call (a 0-1
    loss's mask does not see the products' last bits, and every other
    loss does the same arithmetic per row), so the schedule decides only
    which rows get computed, never a draw or a decision.

    Decisions run on Python floats: each kernel call's densities are one
    list, and each chain's current log density is a float.  A step on which
    every chain rejects makes no NumPy call besides its share of a kernel
    call; the kept draws since the state last moved are written when it
    next moves.  A step on which some chains accept copies just their rows;
    outside a tree pair, one on which all accept takes the proposal row as
    the state.  A run first sets each start's streams back to their states
    at the start, so running one start again gives the same chain.
    """
    if not starts:
        raise PreconditionError("a block needs at least one chain")
    first, target = starts[0].config, starts[0].target
    dim = starts[0].theta.shape[0]
    steps, burn_in, thin = first.steps, first.burn_in, first.thin
    loss, prior = target.loss, target.prior
    shapes = [a.shape for a in target.prepared]
    if any((s.config.steps, s.config.burn_in, s.config.thin, s.theta.shape[0])
           != (steps, burn_in, thin, dim) or s.target.loss is not loss
           or s.target.prior is not prior
           or [a.shape for a in s.target.prepared] != shapes
           for s in starts):
        raise PreconditionError("chains in a block must share steps, burn-in, "
                                "thin, dimension, one loss object, one prior "
                                "object and data whose risk arrays stack")
    for s in starts:
        s.normals.bit_generator.state, s.uniforms.bit_generator.state = s.states
    R = len(starts)
    cells = R * target.data.n
    log_density = cache(_block_log_density([s.target for s in starts]))
    theta = np.stack([s.theta for s in starts])
    logp = [s.logp for s in starts]
    chains = range(R)
    # the tree's one buffer and its views.  theta may be bound to a
    # reject-path row, never to a row of this buffer, and only outside tree
    # pairs; a tree chunk's pairs precede its one-row call, so a view of
    # theta taken at a chunk's start is theta's through all of its pairs
    tree_rows = np.empty((R, 3, dim))
    first_two, row0, row2 = tree_rows[:, :2], tree_rows[:, 0], tree_rows[:, 2]

    kept = np.empty((R, first.n_kept, dim))
    written = 0                           # kept draws written so far
    accepted = [0] * R                    # plus `every`: steps all chains accepted
    every = 0
    exp = math.exp
    normals = np.empty((_CHUNK, dim))
    steps_dz = np.empty((R, _CHUNK, dim))      # scaled proposal increments
    uniforms = np.empty((R, _CHUNK))
    stay = 0.0        # the share of the last chunk's steps on which no chain moved
    for done in range(0, steps, _CHUNK):
        c = min(_CHUNK, steps - done)
        for r, s in enumerate(starts):
            s.normals.standard_normal(out=normals[:c])
            np.multiply(s.scale, normals[:c], out=steps_dz[r, :c])
            s.uniforms.random(out=uniforms[r, :c])
        u_steps = uniforms[:, :c].T.tolist()
        K = _prefetch(stay, cells, c)     # 0: the two-step tree
        current = theta[:, None]          # theta's through the chunk's pairs
        moved = 0                         # steps on which some chain accepted
        start = end = 0                   # steps [start, end) are in the buffer
        for i in range(c):
            if i >= end:
                pair = not K and i + 1 < c
                if pair:
                    k, end, props = 3, i + 2, tree_rows
                    np.add(current, steps_dz[:, i:end], out=first_two)
                    np.add(row0, steps_dz[:, i + 1], out=row2)
                else:
                    k = min(K or 1, c - i)
                    end = i + k
                    props = theta[:, None] + steps_dz[:, i:end]
                lps = log_density(k)(props)
                start, ahead = i, ()
            # lp[r] is chain r at step i, row r*k + j of the buffer (at a
            # tree's second step, the third row's density where chain r
            # moved at the first).  A float difference has the bits of
            # NumPy's; math.exp, because np.exp may differ in the last bit
            # and flip a decision.  A NaN or -inf proposal fails both
            # comparisons.
            j = i - start
            lp, u = lps[j::k], u_steps[i]
            accept = [r for r in chains
                      if (d := lp[r] - logp[r]) >= 0.0 or u[r] < exp(d)]
            if accept:
                # the kept draws taken since theta last moved, before it moves
                taken = max(0, done + i - burn_in) // thin
                if written < taken:
                    kept[:, written:taken] = theta[:, None]
                    written = taken
                if len(accept) == R and not pair:
                    theta, logp = props[:, j], lp
                    every += 1
                else:
                    for r in accept:
                        theta[r] = props[r, j + (r in ahead)]
                        logp[r] = lp[r]
                        accepted[r] += 1
                moved += 1
                if pair and not j:
                    # the chains that moved read their third rows at i + 1
                    ahead = accept
                    for r in accept:
                        lps[3 * r + 1] = lps[3 * r + 2]
                else:
                    end = 0
        stay = 1.0 - moved / c
    kept[:, written:] = theta[:, None]

    out = []
    for r, s in enumerate(starts):
        meta = {"dim": dim, "proposal_scale": s.scale.tolist(),
                "burn_in": burn_in, "thin": thin, "omega": s.target.omega,
                "n_terms": s.target.n_terms, "loss": loss.kind, "prior": prior.kind}
        out.append(Chain(draws=kept[r], accepted=accepted[r] + every, steps=steps,
                         seed=s.config.seed, meta=meta))
    return out


def mh_run(target: GibbsTarget, config: MHConfig) -> Chain:
    """One random-walk Metropolis chain on a GibbsTarget: the one-chain
    block.  See `mh_start` and `mh_run_block`.
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
    ratios are read from per-chain tables by s, built from the prior's
    table `log_size_mass` of log pi(S) by s = |S|, and so is the term
    s*log(lam/2) of a walk's slab density s*log(lam/2) - lam*sum|beta_S|,
    the prior's `slab_log_density` expression.  The slab density of the
    current beta_S is kept between walks; a start whose slab density is
    NaN or -inf is an InitializationError, as a random-walk start is.

    On the target's (1+q, n) design Xt (its columns signed by their
    labels, so the predictor eta = theta @ Xt is linear in theta as the
    plain one is) a proposal changes eta by p, built into one buffer in
    one of two forms: an add, remove or flip changes one coordinate c of
    theta by d (b, -beta_j or -2*alpha), p = d*Xt[c]; a walk moves the
    support, p = walk @ Xt_S (the support's rows, taken once per support
    change).  The chain keeps the standing state's margin m, built by
    `ZeroOneLinearLoss.margin` from eta, and the loss's `counter` on
    (Xt, m) counts the mismatches p > m, divided by n: one product, one
    comparison and one count, with no n-length sum eta + p.  The count is
    exactly that of the sum eta + p against the loss's thresholds c in
    {0, -5e-324} for finite doubles: a rounded sum has the exact sum's
    sign and is zero only where it is, so fl(eta + p) > 0 is p > -eta and
    fl(eta + p) >= 0 is p > nextafter(-eta, -inf).  An accepted move edits
    theta in place and rebuilds m from the full product theta @ Xt, so
    rounding does not build up over moves.  The sum eta + p may differ in
    its last bits from the proposal's full product; the count does not,
    because a 0-1 loss sees the predictor only through one comparison,
    which moves only where its two sides tie within rounding.

    The chain accepts only a few per cent of its moves, so a state stands
    for tens of steps and proposes the same rows again: one dict keeps the
    energy of each remove and flip row, by the coordinate it changes,
    until a move is accepted, and a repeat builds and counts nothing.
    A step draws, in this order: the move uniform; for an add (s < q) a
    pick below q - s and a Laplace slab draw, for a remove (s > 0) a pick
    below s, for a walk (s > 0) s standard normals; the accept uniform
    when delta < 0; the flip uniform, then, for a proposed flip with
    d < 0, its accept uniform.  The uniforms and picks are read from the
    Philox words by `_word_draws`, the same values and words as
    rng.random() and rng.integers(k), about 1 µs a step less than those
    calls; a pick below 1 draws nothing.  The Laplace and normal draws
    stay Generator calls.  The interleaving is exact because they read
    whole 64-bit words and never the 32-bit half that picks buffer, and
    `_word_draws` takes over the half that the start's prior draw leaves
    buffered (SpikeSlab.sample's choice without replacement leaves one).

    Chains run one at a time: a lockstep block costs more per row at
    n=800, and lookahead would save at most about 2 µs of a step (ROADMAP,
    Set aside).  The kept draws are theta rows.  The chain's meta carries
    q, the proposals and acceptances of each move (`moves`: add, remove,
    walk, flip) and the mean |S| over the kept draws
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
        # a spike-slab draw's density is finite, and so is a 0-1 energy
        theta = prior.sample(rng)
    support = np.flatnonzero(theta[1:]).tolist()
    absent = sorted(set(range(q)).difference(support))
    support_idx = np.array(support, dtype=np.intp) + 1   # beta_S in theta

    if config.proposal_scale is None:
        walk_scale = 2.4 / math.sqrt(max(q, 1)) * math.sqrt(2.0) / lam
    else:
        if np.size(config.proposal_scale) != 1:
            raise ShapeError("a sparse chain's walk takes one proposal scale")
        walk_scale = float(np.asarray(config.proposal_scale).reshape(-1)[0])

    # log of [prior-structure ratio x proposal ratio] of an add or remove
    # from size s, excluding the -omega*N*R energy term added uniformly
    # below.  The slab density of the added or dropped coordinate cancels
    # exactly against its proposal density, leaving the configuration-mass
    # ratio and the uniform-choice asymmetry.
    log_mass = prior.log_size_mass
    log, exp = math.log, math.exp
    add_extra = [log_mass[s + 1] - log_mass[s] + log(q - s) - log(s + 1)
                 for s in range(q)]
    remove_extra = [None] + [log_mass[s - 1] - log_mass[s] + log(s)
                             - log(q - s + 1) for s in range(1, q + 1)]

    omega_n = target.omega * target.n_terms
    loss, prepared = target.loss, target.prepared
    Xt = prepared[0]
    n = Xt.shape[1]
    slab_log_density = prior.slab_log_density
    # a walk's slab density by |S|: the same expression, so the same bits
    slab_norm = [s * prior.log_slab_norm for s in range(q + 1)]
    reduce, absolute = np.add.reduce, np.abs
    # rng.random() and rng.integers(k) from the words, after the prior draw
    uniform, pick = _word_draws(rng)
    laplace, standard_normal = rng.laplace, rng.standard_normal
    slab_scale = 1.0 / lam
    flip_prob = config.alpha_flip_prob

    # beta_S's slab density, dropped at a support change until a walk needs
    # it; the start's energy and size mass are finite, so it alone can fail
    slab = slab_log_density(theta[support_idx])
    if math.isnan(slab):
        raise InitializationError("initial point has NaN target density")
    if slab == -math.inf:
        raise InitializationError("initial point has zero target density")
    build, margin = loss.margin(prepared)
    build(np.matmul(theta, Xt, out=margin))   # the standing state's margin
    # count() scores the change a proposal makes, built into `change`; the
    # start's is +0.0, and 0.0 > m counts eta > c exactly (`margin`)
    count, change, _ = loss.counter((Xt, margin), (n,))
    change.fill(0.0)
    ne = -omega_n * (count() / n)
    Xt_s = Xt[support_idx]            # the design rows of beta_S
    cached = {}                       # remove and flip energies by coordinate

    def energy(c=None, d=None):
        if c is not None:
            np.multiply(Xt[c], d, out=change)
        return -omega_n * (count() / n)

    steps, burn_in, thin = config.steps, config.burn_in, config.thin
    kept = np.empty((config.n_kept, 1 + q))
    k = 0
    next_keep = burn_in + thin        # 1-based step of the next kept draw
    size_sum = 0
    accepted = 0
    proposed = [0, 0, 0, 0]           # add, remove, walk, flip
    taken = [0, 0, 0, 0]

    for step in range(1, steps + 1):
        mu = uniform()
        s = len(support)
        move = None
        if mu < _ADD_P:
            if s < q:
                i = pick(q - s)
                c = 1 + absent[i]
                v = laplace(0.0, slab_scale)
                prop_ne = energy(c, v)
                log_extra = add_extra[s]
                move = 0
        elif mu < _ADD_P + _REMOVE_P:
            if s > 0:
                i = pick(s)
                c, v = 1 + support[i], 0.0
                prop_ne = cached.get(c)
                if prop_ne is None:
                    prop_ne = cached[c] = energy(c, -theta[c])
                log_extra = remove_extra[s]
                move = 1
        elif s > 0:
            beta_s = theta[support_idx]
            walk = walk_scale * standard_normal(s)
            new_b = beta_s + walk
            np.matmul(walk, Xt_s, out=change)
            if slab is None:
                slab = slab_log_density(beta_s)
            prop_slab = float(slab_norm[s] - lam * reduce(absolute(new_b)))
            prop_ne = energy()
            # symmetric walk on a fixed configuration: only the slab ratio
            log_extra = prop_slab - slab
            move = 2

        if move is not None:
            proposed[move] += 1
            delta = (prop_ne - ne) + log_extra
            if delta >= 0.0 or uniform() < exp(delta):
                if move == 2:
                    theta[support_idx] = new_b
                    slab = prop_slab
                else:
                    theta[c] = v
                    if move == 0:
                        insort(support, absent.pop(i))
                    else:
                        insort(absent, support.pop(i))
                    support_idx = np.array(support, dtype=np.intp) + 1
                    Xt_s = Xt[support_idx]
                    slab = None
                build(np.matmul(theta, Xt, out=margin))
                ne = prop_ne
                cached.clear()
                accepted += 1
                taken[move] += 1

        if uniform() < flip_prob:
            proposed[3] += 1
            prop_ne = cached.get(0)
            if prop_ne is None:
                prop_ne = cached[0] = energy(0, -2.0 * theta[0])
            d = prop_ne - ne
            if d >= 0.0 or uniform() < exp(d):
                theta[0] = -theta[0]
                build(np.matmul(theta, Xt, out=margin))
                ne = prop_ne
                cached.clear()
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


def credible_interval(values, level: float = 0.95) -> tuple[float, float]:
    """Equal-tailed credible interval of one scalar from its kept draws.

    `values` is a 1-D array, e.g. one coordinate `chain.draws[:, j]` or a
    functional evaluated on each draw.  Quantiles use linear interpolation
    of order statistics (the classical "type 7" rule, numpy's default) at
    probabilities (1 -+ level)/2.
    """
    if not 0.0 < level < 1.0:
        raise PreconditionError("level must be in (0,1)")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ShapeError("credible_interval takes a 1-D array of draws")
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
