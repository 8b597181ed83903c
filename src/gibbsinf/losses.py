"""Loss functions, empirical risk, and closed-form least-squares minimization.

Each loss family is written once, as two methods: `prepare(sample)` checks a
sample and precomputes its arrays (design matrix, labels, responses), and
`kernel(prepared, k=None)` holds the loss formula.  The regression losses
share one kernel, which computes the residual and hands it to the family's
formula `residual_loss(r, v)`; the 0-1 losses (MCID and zero-one) share
`_MismatchLoss`, whose formula is one comparison.  The regression losses
keep their design as (n, J) rows; the 0-1 losses keep theirs as one
C-contiguous (J, n) array with each label's sign folded into its column, the
one copy `prepare` makes, and one threshold per observation.  On one
sample's prepared arrays, or R samples' stacked ((R, n, J) or (R, J, n)),
`kernel` makes every n-sized buffer the formula writes into (one matmul into
a linear predictor, then ufuncs with `out=`) and returns `(sums, n, values)`.
`sums(B)` fills the losses of a (J,) vector on one sample, of each row of an
(R, J) block on a stacked state, or, given k, of each row of an (R, k, J)
block, k rows per chain scored against that chain's data as it stands, and
sums them over the observations into a buffer the kernel owns: one float,
or a flat list of Python numbers, one per row, chain-major (integer counts
for the 0-1 losses).  The empirical risk is that sum divided by the divisor
n, on Python numbers.  `values(theta)` is a fresh float vector of theta's
per-observation losses on one sample.  The samplers, `empirical_risk`,
`pointwise_losses` and the Monte-Carlo diagnostics build a kernel once per
sample, chain start or block and call these; `GibbsTarget.risk`, a
reference for one coefficient vector, builds one per call.  A 0-1 loss's
formula is its `counter`: the count of a linear predictor's entries above
their thresholds.  Its kernel fills the predictor with one product per
chain (a gemv for one row, a gemm for k rows), and `counts`, which
`RiskDiffSqrt` scores draws with, by one gemm per chunk of draws; the
spike-slab chain counts what a move changes against the standing state's
margin, which `ZeroOneLinearLoss.margin` builds from the fold.  The loss on
a single observation is the one value of a one-row sample.  The ranking
loss prepares a two-sample dataset as a closed-form risk over the m*n
pairs, whose sums are the risks over the divisor 1, and matched pairs for
values.

Every chain's risk is bit-identical to its one-chain value and to its risk
on the unstacked arrays: the linear predictor is one matrix-vector product
per row, and the risk is the same pairwise sum (an exact count for the 0-1
losses) divided by n that `np.mean` computes.  On the (J, n) layout the 0-1
losses' linear predictor, b @ Ft, may differ in its last bits from the row
layout's F @ b, and so may one built by a gemm or from a change of b;
their masks and counts do not, because a 0-1 loss sees the predictor only
through one comparison, which moves only where its two sides tie within
rounding.

Sign convention: sign(0) = -1 everywhere, and classifier indicators use the
strict inequality x'theta > 0.  Score ties across groups in the pairwise
ranking loss count as discordant.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError, PreconditionError, ShapeError
from .model import BasisSpec, Dataset, PairedScores, design_matrix


def sign_neg(t):
    """sign with sign(0) = -1; vectorized."""
    return np.where(np.asarray(t) > 0, 1, -1)


def _sums(buf: np.ndarray):
    """The map from a filled (..., n) loss buffer to its sums over n, and the
    divisor n.  The sums are a float for one sample's (n,) buffer and a flat
    list of Python numbers, one per row in C order, for a stacked (R, n) or
    (R, k, n) one, summed into a buffer of its own.  A 0-1 mask sums as an
    integer count; one row counts with np.count_nonzero, about three times
    faster than np.add.reduce, and gives a float, which divides 20 times
    faster than a NumPy scalar."""
    n, reduce = buf.shape[-1], np.add.reduce
    if buf.ndim == 1:
        total = np.count_nonzero if buf.dtype == bool else reduce
        return (lambda v: float(total(v))), n
    sums = np.empty(buf.shape[:-1], dtype=np.int_ if buf.dtype == bool else float)
    flat = sums.reshape(-1)

    def rows(v):
        reduce(v, -1, out=sums)
        return flat.tolist()
    return rows, n


def _values(sums, buf: np.ndarray):
    """values(theta): run `sums` on one coefficient vector and return a
    float copy of the per-observation buffer it fills."""
    def values(theta):
        sums(np.asarray(theta, dtype=float))
        return buf.astype(float)
    return values


# ---------------------------------------------------------------------------
# loss families
# ---------------------------------------------------------------------------

class _RegressionLoss:
    """Losses of the residual y - b'f(x) on a regression dataset.

    A family is its formula, `residual_loss(r, v)`: it writes the losses of
    the residuals r into v with ufuncs (r may be overwritten) and returns
    v.  The one kernel around it owns the buffers."""

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "reg":
            raise ShapeError(f"{self.kind} loss expects a regression dataset")
        return design_matrix(self.basis, sample.x), sample.y

    def kernel(self, prepared, k=None):
        F, y = prepared
        lead = F.shape[:-2] if k is None else (len(F), k)
        if k is not None:         # k rows per chain: the state broadcast over them
            F, y = F[:, None], y[:, None]
        product = np.empty(lead + F.shape[-2:-1] + (1,))
        r = product[..., 0]
        v = np.empty(r.shape)
        residual_loss, (total, n) = self.residual_loss, _sums(v)

        def sums(B):
            np.matmul(F, B[..., None], out=product)
            return total(residual_loss(np.subtract(y, r, out=r), v))
        return sums, n, _values(sums, v)


class CheckLoss(_RegressionLoss):
    """Check (pinball) loss of the residual r = y - b'f(x):
    r * (tau - 1{r < 0}), computed as max(r * (tau - 1), r * tau).

    Its population risk is minimized at the tau-th conditional quantile of y
    given x within the span of the feature map.

    The max form needs no boolean mask and no bool-to-float cast, and keeps
    the bits of the mask form: for r < 0 the max is r * fl(tau - 1), else
    r * tau, and fl(tau - 1) is the constant tau - True.  When the products
    tie (r = ±0), `np.maximum(v, w)` returns its second operand w = r * tau,
    the mask form's value, so `residual_loss` keeps that operand order.  One
    exception: where both products underflow to zero (r = -5e-324 at
    tau = 0.5), the loss is -0.0 where the mask form gives +0.0.  Every
    check loss is >= 0, so a sum or risk can differ only when every loss of
    a sample is zero, and then only in the sign of that zero.
    """

    kind = "check"

    def __init__(self, tau: float, basis: BasisSpec | None):
        if not 0.0 < tau < 1.0:
            raise PreconditionError("tau must lie in (0,1)")
        self.tau = float(tau)
        self.lower = self.tau - 1.0     # fl(tau - 1)
        self.basis = basis

    def residual_loss(self, r, v):
        np.multiply(r, self.lower, out=v)
        # on ties maximum returns r * tau (see the class docstring)
        return np.maximum(v, np.multiply(r, self.tau, out=r), out=v)


class SquaredLoss(_RegressionLoss):
    """Squared-error loss (y - b'f(x))^2."""

    kind = "squared"

    def __init__(self, basis: BasisSpec | None):
        self.basis = basis

    def residual_loss(self, r, v):
        return np.multiply(r, r, out=v)


class CappedSquaredLoss(_RegressionLoss):
    """Squared-error loss truncated at `cap`: min((y - b'f(x))^2, cap).

    The truncation restores moment-generating-function existence when the
    response has only polynomial tails; it never exceeds the plain squared
    loss and agrees with it whenever the squared residual is at most cap.
    """

    kind = "cappedsquared"

    def __init__(self, basis: BasisSpec | None, cap: float):
        if not cap > 0:
            raise PreconditionError("cap must be positive")
        self.basis = basis
        self.cap = float(cap)

    def residual_loss(self, r, v):
        return np.minimum(np.multiply(r, r, out=v), self.cap, out=v)


_CHUNK_FLOATS = 8192    # the most linear-predictor floats `counts` holds


class _MismatchLoss:
    """The 0-1 losses: a mismatch is one comparison, b @ Ft > c.

    `prepare` folds each label's sign s_i into its design column, so the
    design is one C-contiguous (J, n) array Ft = (s_i f_i), or a stacked
    (R, J, n) one, and gives one threshold c_i per observation.  A family
    is its fold: the mismatch of its comparison of b'f_i with the label is
    s_i b'f_i > c_i."""

    basis = None      # the linear predictor's basis; None is the identity on x

    def counter(self, prepared, shape) -> tuple:
        """(count, linear, mask): the one 0-1 formula, which the kernel, the
        spike-slab chain and `counts` share, on a linear-predictor buffer
        and a mask buffer of `shape`, (..., n), that it owns.  count(B)
        fills linear with B @ Ft; count() takes linear as its caller filled
        it.  Then the mismatches linear > c are counted per row, as `_sums`
        gives them.  The spike-slab chain passes (Ft, m), with the zero-one
        `margin` m of its standing predictor for c, and fills linear with
        the change a proposal makes.  A shape with one axis fewer than Ft
        takes one (J,) vector per design, (J,) on (J, n) or (R, J) on
        (R, J, n), by `np.matmul(B[..., None, :], Ft)`, OpenBLAS's
        axpy-form gemv along rows n long; one with as many takes a matrix
        of rows per design, (m, J) on (J, n) or (R, k, J) on (R, J, n), by
        one gemm per design, which is that gemv at one row.  The thresholds
        are tiled once to a matrix's rows; the design never is.

        The fold gives the label comparison's mask exactly.  Negating a
        column negates each of its products and sums exactly, and for
        doubles t >= x is t > nextafter(x, -inf).  MCID, x > t against
        y > 0: s = +1 and c = nextafter(x, -inf) where y = +1 (a mismatch
        is t >= x); s = -1 and c = -x where y = -1 (x > t, that is
        -t > -x).  Zero-one, t > 0 against the label: s = -1 and
        c = -5e-324 where it is 1 (t <= 0, that is -t >= 0); s = +1 and
        c = 0 where it is 0.  A NaN predictor is the one exception: it
        fails every comparison, so it counts no mismatch, where the label
        comparison counts one at a positive label.  The data are finite, so
        only an overflowing b'f gives one.  A Gaussian prior gives such a b
        a log density of -inf on a design with entries of at most 1 (a
        B-spline basis), since its z'z overflows first; a Laplace prior's
        sum of |b| may still be finite, for instance on a zero-one design
        with |x| > 1.

        The products' last bits may differ between the gemv and the gemm,
        and from `F @ b`'s, as may those of a predictor a caller builds
        another way; the masks do not, since a comparison changes only
        where c ties the predictor within rounding."""
        Ft, c = prepared
        one = len(shape) < Ft.ndim           # one vector, not a matrix, per design
        product = np.empty(shape[:-1] + (1, shape[-1]) if one else shape)
        linear = product[..., 0, :] if one else product
        mask = np.empty(shape, dtype=bool)
        if c.ndim < len(shape):              # one copy of c per row of a matrix
            c = np.broadcast_to(c[..., None, :], shape).copy()
        total = _sums(mask)[0]

        def count(B=None):
            if B is not None:
                np.matmul(B[..., None, :] if one else B, Ft, out=product)
            return total(np.greater(linear, c, out=mask))
        return count, linear, mask

    def kernel(self, prepared, k=None):
        Ft = prepared[0]
        shape = Ft.shape[:-2] + ((k,) if k else ()) + Ft.shape[-1:]
        count, _, mask = self.counter(prepared, shape)
        return count, Ft.shape[-1], _values(count, mask)

    def counts(self, prepared, B) -> list:
        """The mismatch count of each row of a (D, J) matrix B on one
        sample's prepared arrays: `counter`'s count, one gemm of a chunk of
        rows against the (J, n) design into a buffer of at most
        _CHUNK_FLOATS floats, so a batch of any size holds one chunk."""
        n = prepared[0].shape[-1]
        rows = max(1, _CHUNK_FLOATS // n)
        counts, count, size = [], None, None
        for start in range(0, len(B), rows):
            chunk = B[start:start + rows]
            if len(chunk) != size:
                count, size = self.counter(prepared, (len(chunk), n))[0], len(chunk)
            counts += count(chunk)
        return counts


def _folded(F: np.ndarray, negate: np.ndarray, c: np.ndarray) -> tuple:
    """A 0-1 loss's prepared arrays: the (n, J) design as one C-contiguous
    (J, n) array with the columns of `negate` negated (a product by -1.0,
    exact), and the thresholds c."""
    Ft = np.empty(F.shape[::-1])
    return np.multiply(F.T, np.where(negate, -1.0, 1.0), out=Ft), c


def _positive_labels(sample: Dataset, allowed: set, what: str) -> np.ndarray:
    """Boolean vector y > 0 after checking the labels lie in `allowed`."""
    y = sample.y.astype(int)
    if not set(np.unique(y).tolist()) <= allowed:
        raise ShapeError(f"{what} expects labels in {sorted(allowed)}")
    return y > 0


class ZeroOneLinearLoss(_MismatchLoss):
    """Misclassification loss of the linear classifier 1{x'theta > 0}.

    theta is the dense coefficient vector (first coordinate conventionally
    the sign-constrained one); labels are in {0,1}.  `prepare` gives the
    features as one C-contiguous (J, n) array, negated where the label is
    1, and the thresholds -5e-324 there and 0 elsewhere.
    """

    kind = "zeroone"

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "class":
            raise ShapeError("zero-one loss expects a classification dataset")
        positive = _positive_labels(sample, {0, 1}, "zero-one loss")
        # -t > -5e-324, the negative double nearest 0, is t <= 0
        return _folded(design_matrix(None, sample.x), positive,
                       np.where(positive, -5e-324, 0.0))

    def margin(self, prepared) -> tuple:
        """(build, m): build(eta) writes into m, an (n,) buffer it owns, the
        margin of a standing linear predictor eta (eta may be m itself) and
        returns m.  A change p's mismatches eta + p > c are exactly p > m,
        so `counter((Ft, m), (n,))` counts them from p alone.  m is -eta
        where c = 0 and nextafter(-eta, -inf) where c = -5e-324.

        On doubles the rounded sum fl(eta + p) has the sign of the exact
        sum and is zero only where that sum is, so fl(eta + p) > 0 is
        p > -eta, and fl(eta + p) > -5e-324, that is fl(eta + p) >= 0, is
        p >= -eta, or p > nextafter(-eta, -inf).  Negation is exact, so
        for finite p the count is the sum form's, bit for bit, for every
        eta but NaN; the plain difference c - eta would round where
        c = -5e-324.

        The next double down is one step of the bit pattern, down for a
        positive double and up for a negative one, taken in seven array
        passes with no `where=` and no scalar operand, each cheaper than
        np.nextafter's per-element call.  Two doubles step otherwise, and
        are moved first: +0.0, whose next double down is -5e-324, so -eta
        is taken as -(eta + 0.0), which is -0.0 at eta = +-0.0; and -inf,
        which is taken to -max where c = -5e-324, since -max steps to
        -inf."""
        c = prepared[1]
        below = (c < 0).astype(np.int64)    # 1 where the comparison is >=
        zero, floor = np.zeros(c.shape), np.where(below, -np.finfo(float).max,
                                                  -np.inf)
        sign_bit, one = np.full(c.shape, 63, np.int64), np.ones(c.shape, np.int64)
        m, step = np.empty(c.shape), np.empty(c.shape, np.int64)
        bits = m.view(np.int64)

        def build(eta):
            np.negative(np.add(eta, zero, out=m), out=m)
            np.maximum(m, floor, out=m)
            np.right_shift(bits, sign_bit, out=step)    # 0 if m > 0, else -1
            np.bitwise_or(step, one, out=step)          # +1 if m > 0, else -1
            np.multiply(step, below, out=step)
            np.subtract(bits, step, out=bits)
            return m
        return build, m


class MCIDLoss(_MismatchLoss):
    """Threshold-classification loss 0.5*(1 - y * sign(x - theta(z))).

    theta(z) = beta'f(z) is a function of the covariate z, given by its
    coefficient vector beta over `basis`; x is the scalar diagnostic measure
    and y in {-1,+1} the reported outcome.  For y in {-1,+1} the loss is the
    mismatch indicator of sign(x - theta(z)) and y: sign(t) = +1 exactly
    when t > 0, so it is the mismatch of x > theta(z) and y > 0.  `prepare`
    gives the basis design of z as one C-contiguous (J, n) array, negated
    where y = -1, and the thresholds nextafter(x, -inf) where y = +1 and -x
    where y = -1.
    """

    kind = "mcid"

    def __init__(self, basis: BasisSpec):
        self.basis = basis

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "class" or sample.z is None:
            raise ShapeError("threshold loss expects classification data with z")
        positive = _positive_labels(sample, {-1, 1}, "threshold loss")
        x = sample.x.astype(float)
        with np.errstate(over="ignore"):    # below -max is -inf: t > -inf is t >= -max
            below = np.nextafter(x, -np.inf)
        return _folded(design_matrix(self.basis, sample.z), ~positive,
                       np.where(positive, below, -x))


class AUCLoss:
    """Pairwise ranking loss (theta - 1{u1 > u0})^2 for scalar theta in [0,1].

    The empirical risk averages over all m*n (group-0, group-1) pairs and is
    minimized at the concordance fraction (normalized rank-sum statistic).
    Per-observation values are defined on matched PairedScores.
    """

    kind = "auc"
    basis = None

    def prepare(self, sample):
        """On a two-sample dataset, the concordance fraction that and the
        constant that*(1 - that) of the closed form over its m*n grid, as
        two 0-d arrays; on PairedScores, the pair indicators 1{u1 > u0}.

        The risk (mn)^-1 sum over pairs of (theta - 1{u1 > u0})^2 equals
        (theta - that)^2 + that*(1 - that): the pair indicators are 0/1, so
        their mean equals the mean of their squares.
        """
        if isinstance(sample, PairedScores):
            return (sample.u1 > sample.u0).astype(float)
        if not isinstance(sample, Dataset) or sample.kind != "twosample":
            raise ShapeError("ranking loss expects two-sample data or PairedScores")
        that = auc_point_estimate(sample.scores0, sample.scores1)
        return np.array(that), np.array(that * (1.0 - that))

    def kernel(self, prepared, k=None):
        """On the closed form, the risks over the divisor 1 (x / 1 is x), of
        k rows per chain if k is given, and values that raise ShapeError; on
        pair indicators, no sums and the values (theta - 1{u1 > u0})^2."""
        if not isinstance(prepared, tuple):
            return None, 1, lambda theta: (float(np.asarray(theta).reshape(-1)[0])
                                           - prepared) ** 2
        that, const = (np.repeat(a, k or 1).tolist() for a in prepared)

        def sums(B):
            # Python floats per row: `** 2` on a float calls pow(), which an
            # array square (a product) need not match in the last bit
            return [(t - a) ** 2 + c
                    for t, a, c in zip(B[..., 0].ravel().tolist(), that, const)]

        def values(theta):
            raise ShapeError("ranking loss needs PairedScores for pointwise values")
        return sums, 1, values


LossSpec = (CheckLoss | SquaredLoss | CappedSquaredLoss | ZeroOneLinearLoss
            | MCIDLoss | AUCLoss)


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def empirical_risk(loss: LossSpec, theta, data: Dataset) -> float:
    """Average loss over the dataset.

    For two-sample data the average runs over all m*n score pairs.
    """
    beta = np.asarray(theta, dtype=float).reshape(1, -1)
    sums, n, _ = loss.kernel(tuple(a[None] for a in loss.prepare(data)))
    return sums(beta)[0] / n


def auc_point_estimate(scores0, scores1) -> float:
    """Fraction of concordant pairs: #{(i,j): u0_i < u1_j} / (m n).

    Equals the normalized rank-sum statistic; ties across groups are not
    concordant.  Computed by exact integer counting (sort + binary search).
    """
    s0 = np.sort(np.asarray(scores0, dtype=float))
    s1 = np.asarray(scores1, dtype=float)
    if len(s0) < 1 or len(s1) < 1:
        raise PreconditionError("both groups must be nonempty")
    concordant = int(np.searchsorted(s0, s1, side="left").sum())
    return concordant / (len(s0) * len(s1))


def pointwise_losses(loss: LossSpec, theta, sample) -> np.ndarray:
    """Vector of per-observation losses (floats).

    `sample` is a Dataset for regression/classification losses and a
    PairedScores batch for the pairwise ranking loss (one loss term per
    matched pair).  The mean of the returned vector is the empirical risk
    of the corresponding dataset (for two-sample data, of the paired subset).
    """
    return loss.kernel(loss.prepare(sample))[2](theta)


def least_squares_coefficients(F: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solve with an explicit conditioning guard.

    Raises ConditioningError when cond(F'F) = (smax/smin)^2 reaches 1e12.
    """
    svals = np.linalg.svd(F, compute_uv=False)
    if svals[-1] <= 0 or (svals[0] / svals[-1]) ** 2 >= 1e12:
        raise ConditioningError("feature Gram matrix condition number >= 1e12")
    beta, *_ = np.linalg.lstsq(F, y, rcond=None)
    return beta
