"""Core data model: datasets and basis expansions.

Every parameter is a plain coefficient vector.  A function-valued parameter,
theta(x) = beta' f(x), is its coefficient vector beta over a basis f, and
its values at points xs are `design_matrix(basis, xs) @ beta`.  Three basis
families are provided: clamped cubic B-splines on an interval, tensor
products of two such bases, and the affine basis {1, x} of an
intercept-plus-slope model.  A basis is evaluated on a batch of points
(`design_matrix`); a single point is a one-row batch.  Data live in columnar
`Dataset`s (and `PairedScores` for matched score pairs); a single
observation is a one-row sample.

The cubic B-spline basis is evaluated by the Cox-de Boor recursion (de Boor
1978, *A Practical Guide to Splines*), vectorized over points, in the
operation order of SciPy's `_deBoor_D`.  `tests/test_special.py` checks that
`CubicBSpline.design` returns the bits of SciPy's
`BSpline.design_matrix(...).toarray()` at random points, at every knot and
at the doubles next to each knot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ShapeError

# Absolute tolerance for clamping points that sit just outside a basis domain.
DOMAIN_TOL = 1e-12


# ---------------------------------------------------------------------------
# paired scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedScores:
    """A batch of matched (group-0, group-1) score pairs.

    Unlike the two-sample Dataset, which represents the full m*n grid of
    cross-group pairs, this container holds N one-to-one pairs -- the natural
    sample for Monte-Carlo averages of the pairwise ranking loss.
    """

    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=float).reshape(-1)
        u1 = np.asarray(self.u1, dtype=float).reshape(-1)
        if u0.shape != u1.shape or u0.size == 0:
            raise ShapeError("paired scores require equal-length nonempty arrays")
        if not (np.isfinite(u0).all() and np.isfinite(u1).all()):
            raise ShapeError("scores must be finite")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)


# ---------------------------------------------------------------------------
# datasets (columnar storage)
# ---------------------------------------------------------------------------

_LABEL_SETS = ({-1, 1}, {0, 1})


@dataclass(frozen=True)
class Dataset:
    """Immutable homogeneous sample.

    kind is one of "reg", "class", "twosample".  Storage is columnar numpy
    arrays for vectorized risk evaluation.  For two-sample data, m counts
    group-0 scores and n counts group-1 scores.
    """

    kind: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    scores0: np.ndarray | None = None
    scores1: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("reg", "class", "twosample"):
            raise ShapeError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "twosample":
            if self.scores0 is None or self.scores1 is None:
                raise ShapeError("two-sample dataset needs scores0 and scores1")
            if len(self.scores0) < 1 or len(self.scores1) < 1:
                raise PreconditionError("two-sample dataset needs m >= 1 and n >= 1")
        else:
            if self.x is None or self.y is None:
                raise ShapeError(f"{self.kind} dataset needs x and y")
            if len(self.y) < 1:
                raise PreconditionError("dataset needs n >= 1")
            if len(np.atleast_1d(self.x)) != len(self.y):
                raise ShapeError("x and y lengths differ")
            if self.z is not None and len(self.z) != len(self.y):
                raise ShapeError("z and y lengths differ")
        for a in (self.x, self.y, self.z, self.scores0, self.scores1):
            if a is not None and not np.all(np.isfinite(a)):
                raise ShapeError("data values (x, y, z, scores) must be finite")
        if self.kind == "class":
            labels = set(np.unique(self.y).tolist())
            if not any(labels <= s for s in _LABEL_SETS):
                raise ShapeError(
                    f"class labels must lie in {{-1,+1}} or {{0,1}}, got {sorted(labels)}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def regression(x, y) -> "Dataset":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return Dataset("reg", x=x, y=np.asarray(y, dtype=float))

    @staticmethod
    def classification(x, y, z=None) -> "Dataset":
        za = None if z is None else np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            # checked here because the cast to int labels would hide a NaN
            raise ShapeError("class labels must be finite")
        if np.any(y != np.trunc(y)):
            raise ShapeError("class labels must be integers")
        return Dataset("class", x=np.asarray(x, dtype=float),
                       y=y.astype(int), z=za)

    @staticmethod
    def two_sample(scores0, scores1) -> "Dataset":
        return Dataset("twosample",
                       scores0=np.asarray(scores0, dtype=float),
                       scores1=np.asarray(scores1, dtype=float))

    # -- views --------------------------------------------------------------

    @property
    def n(self) -> int:
        """Sample size; for two-sample data, the group-1 count."""
        if self.kind == "twosample":
            return len(self.scores1)
        return len(self.y)

    @property
    def n_terms(self) -> int:
        """Number of loss summands: n for iid data, m*n pairs for two-sample."""
        if self.kind == "twosample":
            return len(self.scores0) * len(self.scores1)
        return len(self.y)


# ---------------------------------------------------------------------------
# basis expansions
# ---------------------------------------------------------------------------

class CubicBSpline:
    """Clamped cubic B-spline basis with uniform knots on [lo, hi].

    num_basis J >= 4 functions; the knot vector repeats each boundary 4 times
    with J-4 equally spaced interior knots, so the basis forms a partition of
    unity on the domain and every point has at most 4 active functions.
    """

    degree = 3

    def __init__(self, domain: tuple[float, float], num_basis: int):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise PreconditionError("domain must satisfy lo < hi")
        if num_basis < 4:
            raise PreconditionError("cubic B-spline basis needs J >= 4")
        self.domain = (lo, hi)
        self.num_basis = int(num_basis)
        interior = np.linspace(lo, hi, num_basis - 2)[1:-1]
        self.knots = np.concatenate([np.full(4, lo), interior, np.full(4, hi)])
        # `design` divides by knot gaps, which must not round to zero
        if not np.all(np.diff(self.knots[3:-3]) > 0):
            raise PreconditionError(
                f"domain [{lo}, {hi}] too narrow for {num_basis} distinct knots")

    def __repr__(self):
        return f"CubicBSpline(domain={self.domain}, num_basis={self.num_basis})"

    def _clamp(self, xs: np.ndarray) -> np.ndarray:
        lo, hi = self.domain
        # written so that NaN, which fails every comparison, counts as outside
        outside = ~((xs >= lo - DOMAIN_TOL) & (xs <= hi + DOMAIN_TOL))
        if np.any(outside):
            bad = xs[outside][0]
            raise DomainError(f"point {bad!r} outside basis domain [{lo}, {hi}]")
        return np.clip(xs, lo, hi)

    def design(self, xs) -> np.ndarray:
        """n x J matrix of basis values by the Cox-de Boor recursion.

        Point x in [t_l, t_{l+1}) (the last interval also takes x = hi) has
        nonzero values only in columns l-3..l.  The recursion runs in the
        operation order of SciPy's `_deBoor_D`, so each entry has the bits
        of `BSpline.design_matrix(xs, knots, 3).toarray()`.
        """
        xs = self._clamp(np.atleast_1d(np.asarray(xs, dtype=float)))
        t, k = self.knots, self.degree
        ell = np.clip(np.searchsorted(t, xs, "right") - 1, k, self.num_basis - 1)
        h = np.zeros((k + 1, xs.size))
        h[0] = 1.0
        for j in range(1, k + 1):
            hh = h[:j].copy()
            h[0] = 0.0
            for n in range(1, j + 1):
                # interior knots are distinct, so t[ell+n] > t[ell+n-j]
                xb, xa = t[ell + n], t[ell + n - j]
                w = hh[n - 1] / (xb - xa)
                h[n - 1] += w * (xb - xs)
                h[n] = w * (xs - xa)
        out = np.zeros((xs.size, self.num_basis))
        out[np.arange(xs.size)[:, None], (ell - k)[:, None] + np.arange(k + 1)] = h.T
        return out


class TensorBSpline:
    """Tensor product of two cubic B-spline bases over a rectangle.

    Basis index ordering is row-major over the factor indices (first-factor
    major): entry j1*J2 + j2 is f1_{j1}(x1) * f2_{j2}(x2).  Coefficient files
    written under this ordering are portable.
    """

    def __init__(self, factor1: CubicBSpline, factor2: CubicBSpline):
        self.factor1 = factor1
        self.factor2 = factor2
        self.num_basis = factor1.num_basis * factor2.num_basis

    def __repr__(self):
        return f"TensorBSpline({self.factor1!r}, {self.factor2!r})"

    def design(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 2:
            raise ShapeError("tensor basis points must be (n, 2)")
        d1 = self.factor1.design(xs[:, 0])
        d2 = self.factor2.design(xs[:, 1])
        return (d1[:, :, None] * d2[:, None, :]).reshape(xs.shape[0], -1)


class AffineBasis:
    """The basis {1, x} of an intercept-plus-slope model in a scalar covariate."""

    num_basis = 2

    def design(self, xs) -> np.ndarray:
        x = np.asarray(xs, dtype=float)
        if x.ndim != 1:
            raise ShapeError(f"affine basis points must be a 1-D array, "
                             f"not of shape {x.shape}")
        return np.column_stack((np.ones_like(x), x))


BasisSpec = CubicBSpline | TensorBSpline | AffineBasis


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def design_matrix(basis: BasisSpec | None, xs) -> np.ndarray:
    """n x J matrix with rows f(x_i); None means the identity map on x."""
    if basis is None:
        xs = np.asarray(xs, dtype=float)
        return xs[:, None] if xs.ndim == 1 else xs
    return basis.design(xs)
