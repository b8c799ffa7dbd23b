"""Race statistics on plain lists, standard library only.

F-Race and its t-test variant need a handful of numerical pieces per
race step: average ranks within a block, means, the F survival
function for the Friedman/Conover test and the Student-t survival
function and quantile for the critical differences. They live here so
that loading the racing engine pulls in nothing beyond ``math``.

Two properties are load-bearing:

- :func:`fsum_pairwise` adds floats in exactly the order numpy 2.x's
  ``add.reduce`` does for a contiguous float64 vector (plain loop below
  8 elements, eight running sums up to 128, a split at ``n // 2``
  rounded down to a multiple of 8 above). Every mean the race reports
  is therefore bit-identical to ``np.mean`` over the same costs, so
  decision records and tuned configurations do not move.
- The distribution functions are accurate to about 1e-12 relative
  over the degrees of freedom a race produces, far inside what a
  decision at ``alpha`` in {0.01, 0.05, 0.1} can see.

The regularised incomplete beta is the continued fraction of Numerical
Recipes (modified Lentz), evaluated on whichever side of the mean
converges fast; both ``x`` and ``1 - x`` are passed in so that neither
is formed by cancellation.
"""

from __future__ import annotations

import math

#: Block size below which numpy's pairwise sum runs unsplit.
_PW_BLOCK = 128
#: Continued-fraction stopping tolerance and iteration cap.
_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 10000


def fsum_pairwise(values, lo: int = 0, n: int = None) -> float:
    """Sum ``values[lo:lo + n]`` in numpy's pairwise order.

    Bit-identical to ``np.add.reduce`` over a contiguous float64 array
    of the same values (numpy >= 2 on every platform), hence
    ``fsum_pairwise(v) / len(v) == np.mean(v)``.
    """
    if n is None:
        n = len(values) - lo
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += values[i]
        return res
    if n <= _PW_BLOCK:
        r0 = float(values[lo])
        r1 = float(values[lo + 1])
        r2 = float(values[lo + 2])
        r3 = float(values[lo + 3])
        r4 = float(values[lo + 4])
        r5 = float(values[lo + 5])
        r6 = float(values[lo + 6])
        r7 = float(values[lo + 7])
        end8 = lo + n - n % 8
        for i in range(lo + 8, end8, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end8, lo + n):
            res += values[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return (fsum_pairwise(values, lo, n2)
            + fsum_pairwise(values, lo + n2, n - n2))


def mean(values) -> float:
    """Arithmetic mean, bit-identical to ``np.mean`` (see :func:`fsum_pairwise`)."""
    return fsum_pairwise(values) / len(values)


def argmin(values) -> int:
    """Index of the first smallest value (``np.argmin`` semantics)."""
    return min(range(len(values)), key=values.__getitem__)


def average_ranks(values) -> list:
    """1-based ranks, ties sharing their average rank.

    Matches ``scipy.stats.rankdata(values)`` (method ``"average"``) for
    NaN-free input.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    n = len(order)
    while i < n:
        j = i
        v = values[order[i]]
        while j + 1 < n and values[order[j + 1]] == v:
            j += 1
        rank = 0.5 * (i + j) + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = rank
        i = j + 1
    return ranks


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta ``I_x(a, b)`` for ``a, b > 0``.

    ``y`` is ``1 - x``, computed by the caller from the quantities
    ``x`` came from so that it carries no cancellation error.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def f_sf(f: float, dfn: float, dfd: float) -> float:
    """Survival function ``P(F > f)`` of the F distribution."""
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    scaled = dfn * f
    denom = dfd + scaled
    # P(F > f) = I_{dfd / (dfd + dfn f)}(dfd / 2, dfn / 2)
    return betainc(0.5 * dfd, 0.5 * dfn, dfd / denom, scaled / denom)


def t_sf(t: float, df: float) -> float:
    """Survival function ``P(T > t)`` of Student's t distribution."""
    if math.isnan(t):
        return math.nan
    if t < 0.0:
        return 1.0 - t_sf(-t, df)
    if math.isinf(t):
        return 0.0
    t2 = t * t
    denom = df + t2
    # P(T > t) = I_{df / (df + t^2)}(df / 2, 1 / 2) / 2 for t >= 0
    return 0.5 * betainc(0.5 * df, 0.5, df / denom, t2 / denom)


def _t_pdf(t: float, df: float) -> float:
    log_norm = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                - 0.5 * math.log(df * math.pi))
    return math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))


def t_isf(q: float, df: float) -> float:
    """Inverse survival function: the ``t`` with ``P(T > t) = q``."""
    if not 0.0 < q < 1.0:
        if q == 0.0:
            return math.inf
        if q == 1.0:
            return -math.inf
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q > 0.5:
        return -t_isf(1.0 - q, df)
    if q == 0.5:
        return 0.0
    # Start from the Cornish-Fisher expansion around the normal quantile
    # (Abramowitz & Stegun 26.2.23), then take Newton steps; a bracket
    # on the root catches the steps that leave it.
    w = math.sqrt(-2.0 * math.log(q))
    z = w - ((2.515517 + 0.802853 * w + 0.010328 * w * w)
             / (1.0 + 1.432788 * w + 0.189269 * w * w + 0.001308 * w ** 3))
    t = z + (z ** 3 + z) / (4.0 * df) \
        + (5.0 * z ** 5 + 16.0 * z ** 3 + 3.0 * z) / (96.0 * df * df)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        excess = t_sf(t, df) - q
        if excess > 0.0:
            lo = t
        elif excess < 0.0:
            hi = t
        else:
            return t
        step = excess / _t_pdf(t, df)
        if abs(step) <= 1e-12 * t:
            return t + step
        t += step
        if not lo < t < hi:
            t = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    raise ArithmeticError(f"t quantile did not converge (q={q}, df={df})")


def t_ppf(p: float, df: float) -> float:
    """Quantile function of Student's t distribution."""
    return t_isf(1.0 - p, df)
