"""The package's special functions and B-spline basis against SciPy.

`CubicBSpline.design` runs the Cox-de Boor recursion in SciPy's operation
order, so that no output depends on whether SciPy is installed; its checks
are equality of the 64-bit patterns, since a basis value that differs in the
last bit changes chains, and with them the recorded digests.  The normal CDF
and quantile and the spike-slab size prior come from `math`, `statistics`
and NumPy; their last bits may differ from SciPy's, and they reach an output
only through comparisons (a label's `u < eta`, a chain's accept test), so
they are checked to a tolerance.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import BSpline

from gibbsinf import CubicBSpline, SpikeSlab, TensorBSpline
from gibbsinf.harness import QuantileRegSim
from gibbsinf.harness.generators import ndtr


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


def test_ndtr_is_within_1e13_of_scipy():
    rng = np.random.default_rng(11)
    r2 = math.sqrt(2.0)
    # branch edges: |a| = 1 (erf vs erfc), sqrt(2) and 8 sqrt(2) (Cephes'
    # erfc polynomial switches), about 37.68 (exp(-a^2/2) underflows)
    edges = [s * e for e in (1.0, r2, 8.0 * r2, 37.6767, 37.68, 37.7)
             for s in (1.0, -1.0)]
    a = np.concatenate([rng.normal(0.0, 3.0, 60_000),
                        rng.uniform(-40.0, 40.0, 40_000),
                        np.linspace(-37.7, -37.6, 2_001),
                        _neighbours(edges, 20)])
    got, want = ndtr(a), special.ndtr(a)
    normal = want >= np.finfo(float).tiny
    # the largest gaps are in the far left tail, where Cephes rounds a^2
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-13 * want[normal])
    assert np.all(got[~normal] < 1e-300)
    assert (~normal).any()


def test_ndtr_special_values_scalar_and_shape():
    values = ndtr(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert values[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
    assert np.isnan(values[4])
    assert type(ndtr(0.3)) is np.float64
    assert ndtr(0.3) == pytest.approx(special.ndtr(0.3), rel=1e-15)
    grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert ndtr(grid).shape == (3, 4)


@pytest.mark.parametrize("tau", [0.001, 0.1, 0.25, 0.75, 0.9, 0.999])
def test_quantile_truth_is_within_1e14_of_scipy(tau):
    gen = QuantileRegSim(tau, (1.0, 2.0), 1.5)
    want = np.array([1.0, 2.0]) + np.array([1.5 * special.ndtri(tau), 0.0])
    assert np.all(np.abs(gen.theta_star - want) <= 1e-14)


def test_median_truth_is_the_coefficients():
    gen = QuantileRegSim(0.5, (1.0, 2.0), 1.5)
    assert gen.theta_star.tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# spike-slab size prior


@pytest.mark.parametrize("q,a,c", [(50, 1.0, 1.0), (3, 1.0, 1.0),
                                   (200, 0.5, 2.0), (1, 1.0, 1.0),
                                   (1, 1.0, 0.5), (1000, 2.0, 0.1)])
def test_size_prior_is_within_tolerance_of_scipy(q, a, c):
    # SpikeSlab's unnormalized log size prior; (1, 1, 1) has two maxima
    raw = -(math.log(c) + a * math.log(q)) * np.arange(q + 1)
    prior = SpikeSlab(q=q, a=a, c=c)
    want_f = raw - special.logsumexp(raw)
    assert np.all(np.abs(prior._log_f - want_f) <= 1e-15)
    # at q = 1000 SciPy's three-term log C(q, s) loses digits
    s = np.arange(q + 1)
    want = want_f - (special.gammaln(q + 1) - special.gammaln(s + 1)
                     - special.gammaln(q - s + 1))
    got = [prior.log_config_mass(range(k)) for k in range(q + 1)]
    assert np.all(np.abs(np.array(got) - want) <= 1e-11)
    # the exact binomial coefficient, rounded once by the logarithm
    assert got == [f - math.log(math.comb(q, k))
                   for k, f in enumerate(prior._log_f.tolist())]
