"""The package's special functions and B-spline basis against SciPy.

`gibbsinf._special` ports Cephes' `ndtr`, `ndtri` and `lgam` and SciPy's
`logsumexp`, and `CubicBSpline.design` runs the Cox-de Boor recursion in
SciPy's operation order, so that no output depends on whether SciPy is
installed.  Every check here is equality of the 64-bit patterns, not a
tolerance: a port that differs in the last bit changes chains, and with them
the recorded digests.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import BSpline

from gibbsinf import CubicBSpline, SpikeSlab, TensorBSpline
from gibbsinf._special import gammaln, logsumexp, ndtr, ndtri


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _neighbours(values, steps: int = 3) -> np.ndarray:
    """Each value and its `steps` nearest doubles on either side."""
    out = []
    for v in values:
        lo = hi = float(v)
        out.append(lo)
        for _ in range(steps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out.extend([lo, hi])
    return np.array(out)


# ---------------------------------------------------------------------------
# B-spline design matrix


# the bases the bundled configs and generators build (mcid1, the mcid2
# factors, meancurve) and a few more shapes
@pytest.mark.parametrize("domain,num_basis", [
    ((0.0, 3.0), 6), ((0.0, 3.0), 4), ((0.0, 1.0), 8),
    ((0.0, 1.0), 5), ((0.0, 3.0), 51), ((-1.0, 2.5), 12)])
def test_design_matches_scipy_bits(domain, num_basis):
    basis = CubicBSpline(domain, num_basis)
    knots = basis.knots
    rng = np.random.default_rng(num_basis)
    xs = np.concatenate([rng.uniform(*domain, 50_000), knots, domain,
                         _neighbours(knots)])
    xs = xs[(xs >= domain[0]) & (xs <= domain[1])]
    expected = BSpline.design_matrix(xs, knots, 3, extrapolate=False).toarray()
    assert _same_bits(basis.design(xs), expected)


def test_tensor_design_matches_scipy_factors():
    f1, f2 = CubicBSpline((0.0, 3.0), 4), CubicBSpline((0.0, 3.0), 5)
    pts = np.random.default_rng(3).uniform(0.0, 3.0, (2_000, 2))
    d1 = BSpline.design_matrix(pts[:, 0], f1.knots, 3).toarray()
    d2 = BSpline.design_matrix(pts[:, 1], f2.knots, 3).toarray()
    expected = (d1[:, :, None] * d2[:, None, :]).reshape(len(pts), -1)
    assert _same_bits(TensorBSpline(f1, f2).design(pts), expected)


# ---------------------------------------------------------------------------
# normal CDF and quantile


def test_ndtr_matches_scipy_bits():
    rng = np.random.default_rng(11)
    r2 = math.sqrt(2.0)
    # branch edges: |a| = 1 (erf vs erfc), sqrt(2) and 8 sqrt(2) (erfc's
    # polynomial switches), about 37.68 (exp(-a^2/2) underflows)
    edges = [s * e for e in (1.0, r2, 8.0 * r2, 37.6767, 37.68, 37.7)
             for s in (1.0, -1.0)]
    a = np.concatenate([rng.normal(0.0, 3.0, 60_000),
                        rng.uniform(-40.0, 40.0, 40_000),
                        np.linspace(-37.7, -37.6, 2_001),
                        _neighbours(edges, 20),
                        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    assert a.size >= 100_000
    assert _same_bits(ndtr(a), special.ndtr(a))


def test_ndtr_keeps_scalar_and_shape():
    assert type(ndtr(0.3)) is type(special.ndtr(0.3))
    assert ndtr(0.3) == special.ndtr(0.3)
    grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert _same_bits(ndtr(grid), special.ndtr(grid))


def test_ndtri_matches_scipy_bits():
    rng = np.random.default_rng(12)
    e2 = math.exp(-2.0)
    p = np.concatenate([rng.uniform(0.0, 1.0, 20_000),
                        np.exp(-rng.uniform(0.0, 700.0, 10_000)),
                        1.0 - np.exp(-rng.uniform(0.0, 36.0, 10_000)),
                        _neighbours([e2, 1.0 - e2, math.exp(-32.0)], 20),
                        [1e-300, 5e-324, 0.5]])
    p = p[(p > 0.0) & (p < 1.0)]
    assert _same_bits([ndtri(v) for v in p], special.ndtri(p))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_ndtri_rejects_p_outside_the_open_interval(p):
    with pytest.raises(ValueError):
        ndtri(p)


# ---------------------------------------------------------------------------
# log gamma and logsumexp


def test_gammaln_matches_scipy_bits_on_integers():
    n = np.arange(1, 100_001)
    assert _same_bits([gammaln(int(k)) for k in n], special.gammaln(n))


@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_gammaln_rejects_non_positive_integers(n):
    with pytest.raises(ValueError):
        gammaln(n)


@pytest.mark.parametrize("q,a,c", [(50, 1.0, 1.0), (3, 1.0, 1.0),
                                   (200, 0.5, 2.0), (1, 1.0, 1.0),
                                   (1, 1.0, 0.5), (1000, 2.0, 0.1)])
def test_logsumexp_matches_scipy_bits_on_the_size_prior(q, a, c):
    # SpikeSlab's unnormalized log size prior; (1, 1, 1) has two maxima
    raw = -(math.log(c) + a * math.log(q)) * np.arange(q + 1)
    assert _same_bits(logsumexp(raw), special.logsumexp(raw))
    prior = SpikeSlab(q=q, a=a, c=c)
    assert _same_bits(prior._log_f, raw - special.logsumexp(raw))
