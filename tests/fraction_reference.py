"""Euclid and root signs over the rationals: the Fraction references that
the integer core of `realcubic.algebra` is tested against."""

from fractions import Fraction

from realcubic.algebra import (
    Interval,
    _taylor_shift,
    _variations01,
    strip_high,
    univ_degree,
    univ_eval,
)


def univ_divmod(a, b) -> tuple:
    """Exact Fraction division with remainder."""
    a = [Fraction(t) for t in strip_high(a)]
    b = [Fraction(t) for t in strip_high(b)]
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a
    while len(r) >= len(b) and r:
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        q[k] = f
        for i, bi in enumerate(b):
            r[k + i] -= f * bi
        r = strip_high(r)
    return q, r


def univ_gcd(a, b) -> list:
    """Monic gcd over the rationals."""
    a = strip_high([Fraction(t) for t in a])
    b = strip_high([Fraction(t) for t in b])
    while b:
        _, r = univ_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [t / lead for t in a]


def _bisect_once(c, lo, hi) -> tuple:
    mid = (lo + hi) / 2
    vm = univ_eval(c, mid)
    if vm == 0:
        return mid, mid
    if (univ_eval(c, lo) > 0) != (vm > 0):
        return lo, mid
    return mid, hi


def sign_at(p, c, iv) -> tuple:
    """`realcubic.algebra.sign_at` with every step in Fractions: Taylor
    shifts by the rational lo, Euclid's gcd and rational evaluation."""
    lo, hi = iv.lo, iv.hi
    g = None
    while lo != hi:
        shifted = _taylor_shift(p, lo)                    # p(x + lo)
        w = hi - lo
        if _variations01([a * w ** k for k, a in enumerate(shifted)]) == 0:
            v = univ_eval(p, (lo + hi) / 2)
            return (v > 0) - (v < 0), Interval(lo, hi)
        if g is None:
            g = univ_gcd(p, c)
        if univ_degree(g) > 0 and \
                (univ_eval(g, lo) > 0) != (univ_eval(g, hi) > 0):
            return 0, Interval(lo, hi)
        lo, hi = _bisect_once(c, lo, hi)
    v = univ_eval(p, lo)
    return (v > 0) - (v < 0), Interval(lo, hi)
