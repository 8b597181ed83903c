"""Special functions the package needs, as ports that return SciPy's bits.

`ndtr`, `ndtri` and `gammaln` are ports of the Cephes routines (Moshier
1989, *Methods and Programs for Mathematical Functions*) as SciPy compiles
them; `logsumexp` follows `scipy.special.logsumexp`'s order of operations.
Where the compiled routines call libm, the ports call `math.exp` and
`math.log`, which are libm's; `np.exp` rounds differently on some inputs.
Polynomials are evaluated in Horner form in the routines' order, with no
fused multiply-add, so every operation rounds as it does in the C code.

Each port covers only the arguments the package passes: `ndtr` all reals,
±inf and NaN; `ndtri` the open interval (0, 1); `gammaln` positive
integers; `logsumexp` a finite 1-d array.  `tests/test_special.py` checks
each against SciPy for bitwise equality.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(2**1024)

# erf on |x| <= 1: x T(x^2) / U(x^2)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# erfc on 1 <= x < 8: exp(-x^2) P(x) / Q(x)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc on x >= 8: exp(-x^2) R(x) / S(x)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef):
    """c0 x^N + ... + cN by Horner's rule (Cephes `polevl`)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^N + c0 x^(N-1) + ... by Horner's rule (Cephes `p1evl`)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc_pos(x: np.ndarray) -> np.ndarray:
    """Cephes `erfc` on x >= sqrt(1/2); 0 where exp(-x^2) underflows."""
    out = np.zeros_like(x)
    small = x < 1.0
    out[small] = 1.0 - _erf(x[small])
    z = -x * x
    mid = ~small & (z >= -_MAXLOG) & (x < 8.0)
    tail = ~small & (z >= -_MAXLOG) & (x >= 8.0)
    for sel, p, q in ((mid, _ERFC_P, _ERFC_Q), (tail, _ERFC_R, _ERFC_S)):
        xs = x[sel]
        ez = np.fromiter(map(math.exp, z[sel].tolist()), float, xs.size)
        out[sel] = (ez * _polevl(xs, p)) / _p1evl(xs, q)
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes `erf` on |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def ndtr(a):
    """Standard normal CDF, elementwise; bit-identical to `scipy.special.ndtr`."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    out = np.full_like(x, np.nan)
    small = z < _SQRT1_2
    out[small] = 0.5 + 0.5 * _erf(x[small])
    big = z >= _SQRT1_2
    y = 0.5 * _erfc_pos(z[big])
    out[big] = np.where(x[big] > 0, 1.0 - y, y)
    return out[()]


# ndtri on |y - 1/2| <= 3/8
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri for sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ndtri for sqrt(-2 log y) in [8, 64)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def ndtri(y0: float) -> float:
    """Standard normal quantile for y0 in (0, 1); bit-identical to
    `scipy.special.ndtri`."""
    y = float(y0)
    if not 0.0 < y < 1.0:
        raise ValueError(f"ndtri needs 0 < p < 1, got {y0!r}")
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


# Stirling series for log Gamma on 13 <= x < 1000
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def gammaln(n: int) -> float:
    """log Gamma(n) for a positive integer n; bit-identical to
    `scipy.special.gammaln` (Cephes `lgam`)."""
    if n != int(n) or n < 1:
        raise ValueError(f"gammaln port takes positive integers, got {n!r}")
    x = float(n)
    if x < 13.0:
        # lgam's recurrence reduces x to exactly 2 with z = (n-1)!, an
        # integer that doubles hold exactly
        return math.log(float(math.factorial(int(n) - 1)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) for a finite 1-d array, in `scipy.special.logsumexp`'s
    order: the max terms are taken out of the sum and added back as
    log1p(rest / m) + log(m) + max, m the number of max terms."""
    a = np.asarray(a, dtype=float)
    a_max = np.max(a)
    top = a == a_max
    m = np.sum(top, dtype=float)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max
