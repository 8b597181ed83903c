"""Loss functions, empirical risk, and closed-form least-squares minimization.

Each loss family is written once, as two methods: `prepare(sample)` checks a
sample and precomputes its arrays (design matrix, labels, responses), and
`pointwise(prepared, beta)` holds the loss formula, mapping the prepared
arrays and a coefficient vector to the per-observation losses (a boolean
mismatch vector for the 0-1 losses).  Everything else derives from that pair:
the risk closure used inside MCMC loops (`prepare_risk`), float
per-observation values for Monte-Carlo diagnostics (`pointwise_losses`), the
loss on one observation (`loss_value`) and the empirical risk of a dataset
(`empirical_risk`).  The ranking loss keeps a closed-form risk over the m*n
pair grid.

Sign convention: sign(0) = -1 everywhere, and classifier indicators use the
strict inequality x'theta > 0.  Score ties across groups in the pairwise
ranking loss count as discordant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, PreconditionError, ShapeError
from .model import (BasisSpec, ClassTriple, Dataset, FunctionParam, PairedScores,
                    RegPair, ScorePair, design_matrix)


def sign_neg(t):
    """sign with sign(0) = -1; vectorized."""
    return np.where(np.asarray(t) > 0, 1, -1)


@dataclass(frozen=True)
class RiskValue:
    """An empirical risk together with the number of loss terms averaged."""

    value: float
    n_used: int


def _as_beta(theta, loss) -> np.ndarray:
    """Accept either a coefficient array or a FunctionParam over the loss's basis."""
    if isinstance(theta, FunctionParam):
        features = getattr(loss, "features", getattr(loss, "basis", None))
        if features is not None and theta.basis != features:
            raise ShapeError("FunctionParam basis differs from the loss's feature basis")
        return theta.beta
    return np.asarray(theta, dtype=float)


def _features_design(features: BasisSpec | None, xs) -> np.ndarray:
    """Design matrix of the feature map; None means the identity map on x."""
    if features is None:
        xs = np.asarray(xs, dtype=float)
        return xs[:, None] if xs.ndim == 1 else xs
    return design_matrix(features, xs)


# ---------------------------------------------------------------------------
# loss families
# ---------------------------------------------------------------------------

class _Loss:
    """Risk, per-observation values and single-observation losses, all
    derived from a family's `prepare(sample)` and `pointwise(prepared, beta)`.
    """

    def prepare_risk(self, data: Dataset):
        """Closure beta -> empirical risk over a fixed dataset."""
        prepared = self.prepare(data)
        kernel = self.pointwise

        def risk(beta: np.ndarray) -> float:
            return float(np.mean(kernel(prepared, beta)))

        return risk

    def per_observation(self, prepared, theta) -> np.ndarray:
        """Float vector of losses of theta on every row of a prepared sample."""
        return np.asarray(self.pointwise(prepared, _as_beta(theta, self)),
                          dtype=float)


class _RegressionLoss(_Loss):
    """Losses of the residual y - b'f(x) on a regression dataset."""

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "reg":
            raise ShapeError(f"{self.kind} loss expects a regression dataset")
        return _features_design(self.features, sample.x), sample.y


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

    def pointwise(self, prepared, beta: np.ndarray) -> np.ndarray:
        F, y = prepared
        r = y - F @ beta
        return r * (self.tau - (r < 0.0))


class SquaredLoss(_RegressionLoss):
    """Squared-error loss (y - b'f(x))^2."""

    kind = "squared"

    def __init__(self, features: BasisSpec | None):
        self.features = features

    def pointwise(self, prepared, beta: np.ndarray) -> np.ndarray:
        F, y = prepared
        r = y - F @ beta
        return r * r


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

    def pointwise(self, prepared, beta: np.ndarray) -> np.ndarray:
        F, y = prepared
        r = y - F @ beta
        return np.minimum(r * r, self.cap)


def _labels(sample: Dataset, allowed: set, what: str) -> np.ndarray:
    y = sample.y.astype(int)
    if not set(np.unique(y).tolist()) <= allowed:
        raise ShapeError(f"{what} expects labels in {sorted(allowed)}")
    return y


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
        return np.atleast_2d(sample.x), _labels(sample, {0, 1}, "zero-one loss")

    def pointwise(self, prepared, theta: np.ndarray) -> np.ndarray:
        X, y = prepared
        return (X @ theta > 0.0).astype(int) != y


class MCIDLoss(_Loss):
    """Threshold-classification loss 0.5*(1 - y * sign(x - theta(z))).

    theta is a function of the covariate z (a FunctionParam over `basis`),
    x the scalar diagnostic measure, y in {-1,+1} the reported outcome.  For
    y in {-1,+1} the loss is the mismatch indicator of sign(x - theta(z)) and
    y, which `pointwise` returns as a boolean vector.
    """

    kind = "mcid"

    def __init__(self, basis: BasisSpec):
        self.basis = basis

    def prepare(self, sample):
        if not isinstance(sample, Dataset) or sample.kind != "class" or sample.z is None:
            raise ShapeError("threshold loss expects classification data with z")
        return (design_matrix(self.basis, sample.z), sample.x.astype(float),
                _labels(sample, {-1, 1}, "threshold loss"))

    def pointwise(self, prepared, beta: np.ndarray) -> np.ndarray:
        F, x, y = prepared
        return sign_neg(x - F @ beta) != y


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

    def pointwise(self, prepared, theta) -> np.ndarray:
        t = float(np.asarray(theta).reshape(-1)[0])
        return (t - prepared) ** 2

    def prepare_risk(self, data: Dataset):
        """Closed form over the m*n grid of a two-sample dataset; see
        `auc_empirical_risk`."""
        if data.kind != "twosample":
            raise ShapeError("ranking loss expects a two-sample dataset")
        that = auc_point_estimate(data.scores0, data.scores1)
        const = that * (1.0 - that)

        def risk(theta) -> float:
            t = float(np.asarray(theta).reshape(-1)[0])
            return (t - that) ** 2 + const

        return risk


LossSpec = (CheckLoss | SquaredLoss | CappedSquaredLoss | ZeroOneLinearLoss
            | MCIDLoss | AUCLoss)


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def _one_row(u):
    """A single observation as a one-row sample."""
    if isinstance(u, RegPair):
        return Dataset.regression(np.asarray([u.x]), [u.y])
    if isinstance(u, ClassTriple):
        return Dataset.classification([u.x], [u.y], None if u.z is None else [u.z])
    if isinstance(u, ScorePair):
        return PairedScores([u.u0], [u.u1])
    raise ShapeError(f"unsupported observation type {type(u).__name__}")


def loss_value(loss: LossSpec, theta, u) -> float:
    """Loss of parameter theta on a single observation."""
    return float(pointwise_losses(loss, theta, _one_row(u))[0])


def empirical_risk(loss: LossSpec, theta, data: Dataset) -> RiskValue:
    """Average loss over the dataset.

    For two-sample data the average runs over all m*n score pairs.
    """
    return RiskValue(loss.prepare_risk(data)(_as_beta(theta, loss)), data.n_terms)


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


def auc_empirical_risk(theta: float, scores0, scores1) -> float:
    """(mn)^-1 sum over pairs of (theta - 1{u1 > u0})^2.

    Uses the exact algebraic identity
    risk(theta) = (theta - that)^2 + that*(1 - that)
    where that is the concordance fraction; the identity follows because the
    pair indicators are 0/1, so their mean equals the mean of their squares.
    """
    that = auc_point_estimate(scores0, scores1)
    t = float(theta)
    return (t - that) ** 2 + that * (1.0 - that)


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


def erm_least_squares(data: Dataset, basis: BasisSpec | None) -> np.ndarray:
    """Minimizer of the empirical squared-error risk over the feature span."""
    if data.kind != "reg":
        raise ShapeError("least-squares ERM expects a regression dataset")
    return least_squares_coefficients(_features_design(basis, data.x), data.y)
