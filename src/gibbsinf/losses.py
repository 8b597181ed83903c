"""Loss functions, empirical risk, and closed-form least-squares minimization.

Each loss family is written once, as two methods: `prepare(sample)` checks a
sample and precomputes its arrays (design matrix, labels, responses), and
`pointwise(prepared, beta, work)` holds the loss formula, mapping the
prepared arrays and a coefficient vector to the per-observation losses (a
boolean mismatch vector for the 0-1 losses).  Everything else derives from
that pair: the risk kernel used inside MCMC loops (`risk_state` + `risk`,
vectorized over a block of chains), the empirical risk of a dataset
(`empirical_risk`, the one-chain kernel), the sparse sampler's one-row
kernel, and float per-observation values for Monte-Carlo diagnostics
(`pointwise_losses`, or `loss.per_observation` on a sample prepared once).
The loss on a single observation is the one value of a one-row sample.  The
ranking loss keeps a closed-form risk over the m*n pair grid.

Buffers: `pointwise` and `risk` write every n-sized intermediate into a
`Workspace` (one matmul into its linear predictor, then ufuncs with `out=`,
then one sum per chain), so a caller that evaluates the same prepared
arrays many times makes the workspace once (`loss.workspace(prepared)`) and
allocates nothing per call.  Without one they make a fresh workspace.

Chain blocks: `pointwise` also takes prepared arrays stacked along a leading
chain axis, (R, n, J) with an (R, J) coefficient block, and `risk` maps a
stacked state and an (R, J) block to R risks, as Python floats.  Every
chain's value is bit-identical to its one-chain value: the linear predictor
is one matrix-vector product per chain, and the mean is the same pairwise
sum (an exact count for the 0-1 losses) divided by n that `np.mean`
computes.

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


class Workspace:
    """Buffers that a loss's `pointwise` and `risk` write into, for prepared
    arrays of one sample, (n, J), or of a stacked block, (R, n, J): the
    linear predictor (`product`, with matmul's trailing unit axis, and its
    view `linear`), a boolean and a float value per observation (`mask`,
    `values`), and each chain's float sum and integer count (`sums`,
    `counts`)."""

    __slots__ = ("product", "linear", "mask", "values", "sums", "counts")

    def __init__(self, shape: tuple):
        self.product = np.empty(shape + (1,))
        self.linear = self.product[..., 0]
        self.mask = np.empty(shape, dtype=bool)
        self.values = np.empty(shape)
        self.sums = np.empty(shape[:-1])
        self.counts = np.empty(shape[:-1], dtype=np.int_)


def _linear(F: np.ndarray, beta: np.ndarray, work: Workspace) -> np.ndarray:
    """F @ beta into `work.linear`, one matrix-vector product per chain of a
    stacked block."""
    np.matmul(F, beta[..., None], out=work.product)
    return work.linear


# ---------------------------------------------------------------------------
# loss families
# ---------------------------------------------------------------------------

class _Loss:
    """Risk kernel and per-observation values, both derived from a family's
    `prepare(sample)` and `pointwise(prepared, beta, work)`.
    """

    def risk_state(self, data: Dataset) -> tuple:
        """The arrays `risk` needs for one dataset, as a one-chain stack;
        chains' states concatenate along the leading axis into a block."""
        return tuple(a[None] for a in self.prepare(data))

    def workspace(self, prepared: tuple) -> Workspace:
        """Buffers for `pointwise` and `risk` on these prepared arrays (or a
        risk state), whose first array is the design matrix."""
        return Workspace(prepared[0].shape[:-1])

    def risk(self, state: tuple, B: np.ndarray, work: Workspace | None = None) -> list:
        """Empirical risks of an (R, J) coefficient block, one Python float
        per chain, evaluated into `work` (from `workspace(state)`) if given."""
        work = work or self.workspace(state)
        losses = self.pointwise(state, B, work)
        # 0-1 losses sum as integer counts, as np.add.reduce does by default
        sums = np.add.reduce(losses, -1,
                             out=work.counts if losses.dtype == bool else work.sums)
        n = float(losses.shape[-1])
        return [s / n for s in sums.tolist()]

    def per_observation(self, prepared, theta) -> np.ndarray:
        """Float vector of losses of theta on every row of a prepared sample."""
        beta = np.asarray(theta, dtype=float)
        return np.asarray(self.pointwise(prepared, beta), dtype=float)


class _RegressionLoss(_Loss):
    """Losses of the residual y - b'f(x) on a regression dataset."""

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "reg":
            raise ShapeError(f"{self.kind} loss expects a regression dataset")
        return design_matrix(self.features, sample.x), sample.y


def _residual(prepared, beta: np.ndarray, work: Workspace) -> np.ndarray:
    """y - b'f(x) into `work.linear`."""
    F, y = prepared
    return np.subtract(y, _linear(F, beta, work), out=work.linear)


class CheckLoss(_RegressionLoss):
    """Check (pinball) loss (y - b'f(x)) * (tau - 1{y < b'f(x)}).

    Its population risk is minimized at the tau-th conditional quantile of y
    given x within the span of the feature map.
    """

    kind = "check"

    def __init__(self, tau: float, features: BasisSpec | None):
        if not 0.0 < tau < 1.0:
            raise PreconditionError("tau must lie in (0,1)")
        self.tau = float(tau)
        self.features = features

    def pointwise(self, prepared, beta: np.ndarray, work=None) -> np.ndarray:
        work = work or self.workspace(prepared)
        r = _residual(prepared, beta, work)
        # r * (tau - 1{r < 0})
        np.subtract(self.tau, np.less(r, 0.0, out=work.mask), out=work.values)
        return np.multiply(r, work.values, out=work.values)


class SquaredLoss(_RegressionLoss):
    """Squared-error loss (y - b'f(x))^2."""

    kind = "squared"

    def __init__(self, features: BasisSpec | None):
        self.features = features

    def pointwise(self, prepared, beta: np.ndarray, work=None) -> np.ndarray:
        r = _residual(prepared, beta, work or self.workspace(prepared))
        return np.multiply(r, r, out=r)


class CappedSquaredLoss(_RegressionLoss):
    """Squared-error loss truncated at `cap`: min((y - b'f(x))^2, cap).

    The truncation restores moment-generating-function existence when the
    response has only polynomial tails; it never exceeds the plain squared
    loss and agrees with it whenever the squared residual is at most cap.
    """

    kind = "cappedsquared"

    def __init__(self, features: BasisSpec | None, cap: float):
        if not cap > 0:
            raise PreconditionError("cap must be positive")
        self.features = features
        self.cap = float(cap)

    def pointwise(self, prepared, beta: np.ndarray, work=None) -> np.ndarray:
        r = _residual(prepared, beta, work or self.workspace(prepared))
        return np.minimum(np.multiply(r, r, out=r), self.cap, out=r)


def _positive_labels(sample: Dataset, allowed: set, what: str) -> np.ndarray:
    """Boolean vector y > 0 after checking the labels lie in `allowed`."""
    y = sample.y.astype(int)
    if not set(np.unique(y).tolist()) <= allowed:
        raise ShapeError(f"{what} expects labels in {sorted(allowed)}")
    return y > 0


class ZeroOneLinearLoss(_Loss):
    """Misclassification loss of the linear classifier 1{x'theta > 0}.

    theta is the dense coefficient vector (first coordinate conventionally
    the sign-constrained one); labels are in {0,1}.  `pointwise` returns the
    boolean mismatch vector.
    """

    kind = "zeroone"

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "class":
            raise ShapeError("zero-one loss expects a classification dataset")
        return np.atleast_2d(sample.x), _positive_labels(sample, {0, 1}, "zero-one loss")

    def pointwise(self, prepared, theta: np.ndarray, work=None) -> np.ndarray:
        X, positive = prepared
        work = work or self.workspace(prepared)
        np.greater(_linear(X, theta, work), 0.0, out=work.mask)
        return np.not_equal(work.mask, positive, out=work.mask)


class MCIDLoss(_Loss):
    """Threshold-classification loss 0.5*(1 - y * sign(x - theta(z))).

    theta(z) = beta'f(z) is a function of the covariate z, given by its
    coefficient vector beta over `basis`; x is the scalar diagnostic measure
    and y in {-1,+1} the reported outcome.  For y in {-1,+1} the loss is the
    mismatch indicator of sign(x - theta(z)) and y, which `pointwise` returns
    as a boolean vector: sign(t) = +1 exactly when t > 0, so it is the
    mismatch of x > theta(z) and y > 0.
    """

    kind = "mcid"

    def __init__(self, basis: BasisSpec):
        self.basis = basis

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "class" or sample.z is None:
            raise ShapeError("threshold loss expects classification data with z")
        return (design_matrix(self.basis, sample.z), sample.x.astype(float),
                _positive_labels(sample, {-1, 1}, "threshold loss"))

    def pointwise(self, prepared, beta: np.ndarray, work=None) -> np.ndarray:
        F, x, positive = prepared
        work = work or self.workspace(prepared)
        # x > t is x - t > 0 for every pair of doubles, one operation fewer
        np.greater(x, _linear(F, beta, work), out=work.mask)
        return np.not_equal(work.mask, positive, out=work.mask)


class AUCLoss(_Loss):
    """Pairwise ranking loss (theta - 1{u1 > u0})^2 for scalar theta in [0,1].

    The empirical risk averages over all m*n (group-0, group-1) pairs and is
    minimized at the concordance fraction (normalized rank-sum statistic).
    Per-observation values are defined on matched PairedScores.
    """

    kind = "auc"

    def prepare(self, sample):
        if not isinstance(sample, PairedScores):
            raise ShapeError("ranking loss needs PairedScores for pointwise values")
        return (sample.u1 > sample.u0).astype(float)

    def pointwise(self, prepared, theta, work=None) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return (t - prepared) ** 2

    def risk_state(self, data: Dataset) -> tuple:
        """Concordance fraction and constant of the closed form over the m*n
        grid of a two-sample dataset.

        The risk (mn)^-1 sum over pairs of (theta - 1{u1 > u0})^2 equals
        (theta - that)^2 + that*(1 - that), where that is the concordance
        fraction: the pair indicators are 0/1, so their mean equals the mean
        of their squares.
        """
        if data.kind != "twosample":
            raise ShapeError("ranking loss expects a two-sample dataset")
        that = auc_point_estimate(data.scores0, data.scores1)
        return np.array([that]), np.array([that * (1.0 - that)])

    def workspace(self, prepared):
        """None: the closed form writes no n-sized array."""
        return None

    def risk(self, state: tuple, B: np.ndarray, work=None) -> list:
        # Python floats per chain: `** 2` on a float calls pow(), which an
        # array square (a product) need not match in the last bit
        that, const = state
        return [(t - a) ** 2 + c for t, a, c in
                zip(B[:, 0].tolist(), that.tolist(), const.tolist())]


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
    return loss.risk(loss.risk_state(data), beta)[0]


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
    return loss.per_observation(loss.prepare(sample), theta)


def least_squares_coefficients(F: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solve with an explicit conditioning guard.

    Raises ConditioningError when cond(F'F) = (smax/smin)^2 reaches 1e12.
    """
    svals = np.linalg.svd(F, compute_uv=False)
    if svals[-1] <= 0 or (svals[0] / svals[-1]) ** 2 >= 1e12:
        raise ConditioningError("feature Gram matrix condition number >= 1e12")
    beta, *_ = np.linalg.lstsq(F, y, rcond=None)
    return beta
