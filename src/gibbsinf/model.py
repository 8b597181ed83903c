"""Core data model: observations, datasets, basis expansions, function parameters.

Parameters of interest are either plain coefficient vectors or functions
represented as a basis expansion theta(x) = beta' f(x).  Three basis families
are provided: clamped cubic B-splines on an interval, tensor products of two
such bases, and raw user-declared dictionaries (e.g. polynomial terms).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import BSpline

from .errors import DomainError, PreconditionError, ShapeError

# Absolute tolerance for clamping points that sit just outside a basis domain.
DOMAIN_TOL = 1e-12


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegPair:
    """Regression observation (x, y)."""

    x: np.ndarray
    y: float


@dataclass(frozen=True)
class ClassTriple:
    """Classification observation (x, y[, z]).

    For threshold-classification problems x is the scalar diagnostic measure,
    y in {-1,+1} the reported outcome, and z the covariate vector.  For linear
    classifiers x is the full covariate vector, y in {0,1}, and z is None.
    """

    x: np.ndarray | float
    y: int
    z: np.ndarray | None = None


@dataclass(frozen=True)
class ScorePair:
    """A single (group-0, group-1) score pair -- the atomic observation of the
    pairwise ranking loss."""

    u0: float
    u1: float


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

    def __len__(self) -> int:
        return self.u0.size


# ---------------------------------------------------------------------------
# datasets (columnar storage; observation lists materialized on demand)
# ---------------------------------------------------------------------------

_LABEL_SETS = ({-1, 1}, {0, 1})


@dataclass(frozen=True)
class Dataset:
    """Immutable homogeneous sample.

    kind is one of "reg", "class", "twosample".  Storage is columnar numpy
    arrays for vectorized risk evaluation; `observations` materializes the
    per-row view of regression and classification data when needed.  For
    two-sample data, m counts group-0 scores and n counts group-1 scores.
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
    def m(self) -> int:
        """Group-0 count (two-sample data only)."""
        if self.kind != "twosample":
            raise ShapeError("m is defined for two-sample data only")
        return len(self.scores0)

    @property
    def n_terms(self) -> int:
        """Number of loss summands: n for iid data, m*n pairs for two-sample."""
        if self.kind == "twosample":
            return len(self.scores0) * len(self.scores1)
        return len(self.y)

    @property
    def observations(self) -> list:
        if self.kind == "reg":
            return [RegPair(np.atleast_1d(self.x[i]), float(self.y[i]))
                    for i in range(self.n)]
        if self.kind == "class":
            return [ClassTriple(self.x[i], int(self.y[i]),
                                None if self.z is None else self.z[i])
                    for i in range(self.n)]
        raise ShapeError("two-sample data has no per-row observations; "
                         "its loss terms are the m*n score pairs")


def dataset_from_csv(path, kind: str, columns: dict | None = None) -> Dataset:
    """Load a Dataset from a CSV file.

    columns declares the mapping, e.g. {"x": ["x1","x2"], "y": "y", "z": ["z1"]}
    for regression/classification, or {"group": "group", "u": "u"} (the default)
    for two-sample data.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise PreconditionError(f"no data rows in {path}")
    if kind == "twosample":
        cols = columns or {}
        gcol, ucol = cols.get("group", "group"), cols.get("u", "u")
        groups = np.array([int(float(r[gcol])) for r in rows])
        us = np.array([float(r[ucol]) for r in rows])
        return Dataset.two_sample(us[groups == 0], us[groups == 1])
    if columns is None or "x" not in columns or "y" not in columns:
        raise PreconditionError("regression/classification CSV needs x and y column names")
    xnames = [columns["x"]] if isinstance(columns["x"], str) else list(columns["x"])
    xs = np.array([[float(r[c]) for c in xnames] for r in rows])
    if xs.shape[1] == 1:
        xs = xs[:, 0]
    ys = np.array([float(r[columns["y"]]) for r in rows])
    if kind == "reg":
        return Dataset.regression(xs, ys)
    if kind == "class":
        z = None
        if columns.get("z"):
            znames = [columns["z"]] if isinstance(columns["z"], str) else list(columns["z"])
            z = np.array([[float(r[c]) for c in znames] for r in rows])
        return Dataset.classification(xs, ys, z)
    raise PreconditionError(f"unknown dataset kind {kind!r}")


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

    def __repr__(self):
        return f"CubicBSpline(domain={self.domain}, num_basis={self.num_basis})"

    def __eq__(self, other):
        return (isinstance(other, CubicBSpline) and other.domain == self.domain
                and other.num_basis == self.num_basis)

    def _clamp(self, xs: np.ndarray) -> np.ndarray:
        lo, hi = self.domain
        if np.any(xs < lo - DOMAIN_TOL) or np.any(xs > hi + DOMAIN_TOL):
            bad = xs[(xs < lo - DOMAIN_TOL) | (xs > hi + DOMAIN_TOL)][0]
            raise DomainError(f"point {bad!r} outside basis domain [{lo}, {hi}]")
        return np.clip(xs, lo, hi)

    def design(self, xs) -> np.ndarray:
        xs = self._clamp(np.atleast_1d(np.asarray(xs, dtype=float)))
        dm = BSpline.design_matrix(xs, self.knots, self.degree, extrapolate=False)
        return dm.toarray()

    def eval(self, x) -> np.ndarray:
        return self.design(np.asarray([x], dtype=float))[0]


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

    def __eq__(self, other):
        return (isinstance(other, TensorBSpline) and other.factor1 == self.factor1
                and other.factor2 == self.factor2)

    def design(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 2:
            raise ShapeError("tensor basis points must be (n, 2)")
        d1 = self.factor1.design(xs[:, 0])
        d2 = self.factor2.design(xs[:, 1])
        return (d1[:, :, None] * d2[:, None, :]).reshape(xs.shape[0], -1)

    def eval(self, x) -> np.ndarray:
        return self.design(np.asarray(x, dtype=float).reshape(1, 2))[0]


def _component_scalar(value) -> float:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ShapeError("dictionary component returned a non-scalar value for one point")
    return float(arr[0])


class RawDictionary:
    """Basis from a list of named component functions, e.g. [("const", ...), ("linear", ...)].

    Component callables should accept numpy arrays elementwise; scalar-only
    callables are handled by a per-point fallback.
    """

    def __init__(self, components: Sequence[tuple[str, Callable]]):
        if len(components) == 0:
            raise PreconditionError("dictionary needs at least one component")
        self.components = tuple((str(name), fn) for name, fn in components)
        self.num_basis = len(self.components)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.components)

    def __repr__(self):
        return f"RawDictionary({list(self.names)})"

    def design(self, xs) -> np.ndarray:
        xs = np.asarray(xs)
        n = xs.shape[0]
        cols = []
        for _, fn in self.components:
            try:
                col = np.asarray(fn(xs), dtype=float)
                if col.shape != (n,):
                    raise ValueError
            except Exception:
                col = np.array([_component_scalar(fn(x)) for x in xs])
            cols.append(col)
        return np.column_stack(cols)

    def eval(self, x) -> np.ndarray:
        return np.array([_component_scalar(fn(x)) for _, fn in self.components])


BasisSpec = CubicBSpline | TensorBSpline | RawDictionary


@dataclass(frozen=True)
class FunctionParam:
    """A function-valued parameter theta(x) = beta' f(x)."""

    basis: BasisSpec
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or len(beta) != self.basis.num_basis:
            raise ShapeError(
                f"beta has length {beta.size}, basis has {self.basis.num_basis} functions")

    def values(self, xs) -> np.ndarray:
        """Vectorized theta(x) over a batch of points."""
        return self.basis.design(xs) @ self.beta


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def eval_basis(basis: BasisSpec, x) -> np.ndarray:
    """Evaluate the basis vector f(x) at one point."""
    return basis.eval(x)


def eval_function(fp: FunctionParam, x) -> float:
    """Evaluate theta(x) = beta' f(x) at one point."""
    return float(fp.beta @ fp.basis.eval(x))


def design_matrix(basis: BasisSpec, xs) -> np.ndarray:
    """n x J matrix with rows f(x_i)."""
    return basis.design(xs)
