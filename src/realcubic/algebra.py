"""Exact multivariate polynomials and the root machinery built on them.

Coefficients are exact, integers or `fractions.Fraction` (a float is a
TypeError), and the arithmetic keeps integers integers.  `Poly.parse`
reads expanded text straight into a term dict, and anything else by a
recursive descent on integer coefficients over one common denominator;
either way the parsed coefficients are Fractions, made once at the end.

The root toolkit takes exact coefficient lists and works in integers:
denominators are cleared on entry (`to_int_primitive`), a value at a
rational a/d is the homogeneous Horner sum of c_i a^i d^(n-i)
(`hom_eval`), and a gcd is a primitive remainder sequence over Z
(`int_gcd`).  Fractions remain only as interval endpoints, as exact roots
and in the monic factors that `squarefree_decomposition` returns.

Real roots take three steps.  `real_roots` isolates them exactly, by
Descartes bisection on an explicit stack (no recursion, whatever the
depth), and takes squarefree input only: one gcd(p, p') checks that, and a
repeated root gives None.  `certified_brackets` certifies float roots, in
integers: each, moved by one Newton step with an exact residual, gets a
dyadic bracket whose end signs prove a root inside.  The floats are those
of the list over a power of two (`scaled_floats`), so integer lists of any
size have them, and `real_root_floats` bisects the exact intervals only
where the brackets fail.  `sign_at` decides the sign of a polynomial at an
isolated root, by Descartes' rule on the interval.

Complex roots use simultaneous Aberth iteration, in floats and then with
each step's p/p' evaluated exactly in Fractions.  `bareiss_det`, the one
exact determinant, is Bareiss's fraction-free elimination in integers; the
singularity test of `forms.py` runs on it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import InternalInconsistency, NonConvergence

CANONICAL_VARS = ("x", "y", "z", "w")

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse polynomial over an ordered variable tuple.

    Terms map exponent tuples (aligned with ``vars``) to coefficients.
    Instances are immutable by convention; every operation returns a new
    Poly.  Equality is structural.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(vars)
        clean = {}
        for expo, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"inexact coefficient {c!r}")
            if c == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(vs):
                raise ValueError("exponent arity mismatch")
            clean[expo] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, vars: tuple, terms: dict) -> "Poly":
        """A Poly of clean terms, as the arithmetic builds them."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors --

    @classmethod
    def const(cls, c: Scalar, vars: Sequence[str] = CANONICAL_VARS) -> "Poly":
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def var(cls, name: str, vars: Sequence[str] = CANONICAL_VARS) -> "Poly":
        vs = tuple(vars)
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return cls._make(vs, {tuple(e): 1})

    # -- predicates / views --

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree(self, var: str) -> int:
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    def variables_present(self) -> tuple:
        out = []
        for i, v in enumerate(self.vars):
            if any(e[i] for e in self.terms):
                out.append(v)
        return tuple(out)

    # -- arithmetic --

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch {self.vars} vs {other.vars}")
            return other
        return Poly.const(other, self.vars)

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        t = dict(self.terms)
        for e, c in o.terms.items():
            t[e] = t.get(e, 0) + c
        return Poly._make(self.vars, {e: c for e, c in t.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)) and other:    # a scalar
            return Poly._make(self.vars, {e: c * other
                                          for e, c in self.terms.items()})
        o = self._coerce(other)
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(operator.add, e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return Poly._make(self.vars, {e: c for e, c in t.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "Poly":
        if isinstance(c, Poly):
            c = c.constant_value()
        return Poly(self.vars, {e: Fraction(v) / c for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly._make(self.vars, {(0,) * len(self.vars): 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if self.is_constant() or self.is_zero():
                return (next(iter(self.terms.values()), 0)) == other
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- evaluation --

    def eval(self, point: Union[Mapping[str, object], Sequence]):
        if not isinstance(point, Mapping):
            point = dict(zip(self.vars, point))
        vals = [point[v] for v in self.vars]
        total = None
        for expo, c in self.terms.items():
            t = c
            for v, k in zip(vals, expo):
                if k:
                    t = t * v ** k
            total = t if total is None else total + t
        if total is None:
            return Fraction(0)
        return total

    def derivative(self, var: str) -> "Poly":
        i = self.vars.index(var)
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                t[tuple(ne)] = c * e[i]
        return Poly(self.vars, t)

    # -- univariate views --

    def coeffs_in(self, var: str) -> list:
        """Coefficients of powers of var, low to high, as Polys in the rest."""
        i = self.vars.index(var)
        d = self.degree(var)
        if d < 0:
            return []
        buckets: list = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            buckets[k][tuple(ne)] = c
        return [Poly(self.vars, b) for b in buckets]

    def to_univariate(self, var: str = None) -> list:
        """Dense coefficient list, low to high, requiring all other vars absent."""
        present = self.variables_present()
        if var is None:
            if len(present) > 1:
                raise ValueError(f"polynomial is multivariate: {present}")
            var = present[0] if present else self.vars[0]
        i = self.vars.index(var)
        d = self.degree(var)
        out = [Fraction(0)] * (d + 1)
        for e, c in self.terms.items():
            if any(e[j] for j in range(len(e)) if j != i):
                raise ValueError("extra variables present")
            out[e[i]] = c
        return out

    # -- parsing / printing --

    @classmethod
    def parse(cls, text: str, vars: Sequence[str] = None) -> "Poly":
        """Read text in `vars` (by default x, y, z, w): expanded text term
        by term, anything else by the recursive descent."""
        vs = CANONICAL_VARS if vars is None else tuple(vars)
        terms = _flat_terms(text, vs)
        return _parse_poly(text, vars) if terms is None else cls(vs, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-k for k in e)))
        parts = []
        for e in keys:
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            neg = c < 0
            a = -c if neg else c
            if mono and a == 1:
                body = mono
            else:
                body = f"{a}*{mono}" if mono else str(a)
            parts.append(("-" if neg else "+", body))
        s0, b0 = parts[0]
        out = ("-" if s0 == "-" else "") + b0
        for s, b in parts[1:]:
            out += f" {s} {b}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


# -- flat reader for expanded text --------------------------------------------

_NUMBER = r"(\d+)(?:\s*/\s*(\d+))?"
_VAR_POWER = r"[A-Za-z_]\w*(?:\s*(?:\^|\*\*)\s*\d+)?"
_MONOMIAL = rf"{_VAR_POWER}(?:\s*\*\s*{_VAR_POWER})*"
_FLAT_TERM = re.compile(
    rf"\s*([+-]?)\s*(?:(?:{_NUMBER}|\(\s*([+-]?)\s*{_NUMBER}\s*\))"
    rf"(?:\s*\*\s*({_MONOMIAL}))?|({_MONOMIAL}))")
_POWER = re.compile(r"([A-Za-z_]\w*)(?:\s*(?:\^|\*\*)\s*(\d+))?")


def _flat_terms(text: str, vs: tuple):
    """The term dict of a sum of terms [coefficient *] monomial, or None
    for any other text.  A coefficient is n or n/d, bare or in parentheses
    with a sign.  A sum that cancels leaves the dict and comes back at the
    end, as in the recursive descent: both give one Poly and term order.
    A zero d raises ValueError once all the text has read as such a sum."""
    index = {v: k for k, v in enumerate(vs)}
    terms, pos, end, by_zero = {}, 0, len(text.rstrip()), False
    while pos < end:
        m = _FLAT_TERM.match(text, pos)
        if m is None or pos and not m[1]:
            return None
        pos = m.end()
        n, d = m[2] or m[5] or "1", m[3] or m[6] or "1"
        if int(d) == 0:
            by_zero = True
            continue
        c = Fraction(-int(n) if (m[1] == "-") != (m[4] == "-") else int(n),
                     int(d))
        e = [0] * len(vs)
        for name, k in _POWER.findall(m[7] or m[8] or ""):
            if name not in index:
                return None
            e[index[name]] += int(k or 1)
        e = tuple(e)
        c += terms.get(e, 0)
        if c:
            terms[e] = c
        else:
            terms.pop(e, None)
    if by_zero:
        raise ValueError("division by zero")
    return terms if pos else None


# -- recursive-descent parser -------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+\.\d+|\d+|[A-Za-z_]\w*|\*\*|[-+*/^()])")


def _tokenize(text: str) -> list:
    out, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in polynomial at {text[pos:pos + 10]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    out.append(None)
    return out


def _parse_poly(text: str, vars) -> Poly:
    """The recursive descent on nodes (P, d), P a Poly with integer
    coefficients over the denominator d > 0; the Fractions come at the end.
    Term order follows the Poly operations, as it did on Fractions."""
    toks = _tokenize(text)
    if vars is None:
        names = {t for t in toks if t and t[0].isalpha()}
        bad = names - set(CANONICAL_VARS)
        if bad:
            raise ValueError(f"unknown variables {sorted(bad)}")
        vars = CANONICAL_VARS
    vs = tuple(vars)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr() -> tuple:                # [sign] term {(+|-) term}
        sign = take() if toks[pos] in ("+", "-") else "+"
        p, d = term()
        p = -p if sign == "-" else p
        while toks[pos] in ("+", "-"):
            sign = take()
            q, e = term()
            m = math.lcm(d, e)
            p, d = p * (m // d) + (-q if sign == "-" else q) * (m // e), m
        return p, d

    def term() -> tuple:                # factor {(*|/|implicit) factor}
        p, d = factor()
        while True:
            t = toks[pos]
            if t in ("*", "/"):
                take()
            elif t is None or not (t[0].isalnum() or t == "("):
                return p, d             # not an implicit product either
            q, e = factor()
            if t != "/":
                p, d = p * q, d * e
                continue
            c = q.constant_value()
            if c == 0:
                raise ValueError("division by zero")
            p, d = (p * e, d * c) if c > 0 else (p * -e, d * -c)

    def factor() -> tuple:              # (+|-) factor, or atom [^ n]
        nonlocal pos
        t = take()
        if t in ("+", "-"):
            p, d = factor()
            return (-p if t == "-" else p), d
        if t == "(":
            p, d = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
        elif t is None:
            raise ValueError("unexpected end of polynomial")
        elif t[0].isdigit():            # a decimal is over a power of ten
            whole, _, frac = t.partition(".")
            p, d = Poly.const(int(whole + frac), vs), 10 ** len(frac)
        elif t[0].isalpha():
            if t not in vs:
                raise ValueError(f"unknown variable {t!r}")
            p, d = Poly.var(t, vs), 1
        else:
            raise ValueError(f"unexpected token {t!r}")
        if toks[pos] == "^":
            e = toks[pos + 1]
            pos += 2
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            p, d = p ** int(e), d ** int(e)
        return p, d

    p, d = expr()
    if toks[pos] is not None:
        raise ValueError(f"trailing input at token {toks[pos]!r}")
    return Poly._make(vs, {e: Fraction(c, d) for e, c in p.terms.items()})


# ---------------------------------------------------------------------------
# univariate exact helpers (dense lists, low degree first)
# ---------------------------------------------------------------------------

def strip_high(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def univ_degree(c: Sequence) -> int:
    return len(strip_high(c)) - 1


def univ_eval(c: Sequence, x):
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def univ_derivative(c: Sequence) -> list:
    return [k * a for k, a in enumerate(c)][1:]


def univ_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def univ_sub(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    return strip_high([
        (a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
        for k in range(n)
    ])


def _over_z(c: Sequence) -> tuple:
    """(ints, den) with c = ints / den, for the exact list c: den > 0 is the
    lcm of its denominators.  lcm gets a list, not a generator: the argument
    tuple of a generator is built at one size and shrunk, and then stays on
    the interpreter's free list of the smaller size."""
    den = math.lcm(*[t.denominator for t in c])
    return [t.numerator * (den // t.denominator) for t in c], den


def to_int_primitive(c: Sequence) -> list:
    """Clear denominators and content; preserves roots and signs."""
    ints = _over_z(strip_high(c))[0]
    g = math.gcd(*ints)
    return [t // g for t in ints] if g > 1 else ints


def hom_eval(c: Sequence[int], x) -> int:
    """d^n c(a/d) for the integer list c of length n + 1 and the rational
    x = a/d, by homogeneous Horner: sum c_i a^i d^(n-i), an integer with
    the sign of c(x)."""
    return _hom_eval(c, x.numerator, x.denominator)


def _hom_eval(c: Sequence[int], a: int, d: int) -> int:
    acc, dk = 0, 1
    for t in reversed(c):
        acc = acc * a + t * dk
        dk *= d
    return acc


def int_quo(a: Sequence[int], b: Sequence[int]):
    """The quotient a / b of integer lists when b divides a in Z[x], else
    None.  For b primitive, dividing over Q and over Z agree (Gauss)."""
    a, m = list(a), len(b) - 1
    q = [0] * max(0, len(a) - m)
    for k in reversed(range(len(q))):
        q[k], r = divmod(a[k + m], b[-1])
        if r:
            return None
        for i, t in enumerate(b):
            a[k + i] -= q[k] * t
    return None if any(a) else q


def int_gcd(a: Sequence, b: Sequence) -> list:
    """A gcd of the exact polynomials a and b, primitive in Z[x] ([] when
    both are zero): the primitive remainder sequence (Collins, J. ACM 14,
    1967), whose every step is a pseudo-division in integers."""
    a, b = to_int_primitive(a), to_int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        while len(a) >= len(b):
            g = math.gcd(a[-1], b[-1])
            s, f, k = b[-1] // g, a[-1] // g, len(a) - len(b)
            a = [t * s for t in a]
            for i, t in enumerate(b):
                a[k + i] -= f * t
            a = strip_high(a)
        a, b = b, to_int_primitive(a)
    return a


def squarefree_decomposition(c: Sequence) -> list:
    """Yun's algorithm: [(factor, multiplicity)] with factors monic, coprime.
    The steps divide exactly in Z[x], every divisor being primitive."""
    f = to_int_primitive(c)
    if len(f) < 2:
        return []
    fp = univ_derivative(f)
    d = int_gcd(f, fp)
    if len(d) < 2:
        return [([Fraction(t, f[-1]) for t in f], 1)]
    b, dd = int_quo(f, d), int_quo(fp, d)
    dd = univ_sub(dd, univ_derivative(b))
    out, i = [], 1
    while len(b) > 1:
        a = int_gcd(b, dd)
        if len(a) > 1:
            out.append(([Fraction(t, a[-1]) for t in a], i))
        b = int_quo(b, a)
        dd = univ_sub(int_quo(dd, a), univ_derivative(b))
        i += 1
    return out


# ---------------------------------------------------------------------------
# real root isolation (Descartes / bisection on integer polynomials)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Isolating interval for one real root.

    lo == hi marks an exactly known rational root.  Otherwise the open
    interval (lo, hi) contains exactly one root and neither endpoint is one.
    """
    lo: Fraction
    hi: Fraction

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, x) -> bool:
        if self.is_point():
            return x == self.lo
        return self.lo < x < self.hi


def _sign_variations(c: Sequence[int]) -> int:
    signs = [a > 0 for a in c if a]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _taylor_shift(c: list, a=1) -> list:
    """p(x + a) for the coefficients c of p, low to high."""
    c = list(c)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _variations01(c: list) -> int:
    """Descartes' bound on the roots in (0, 1) of the polynomial c: the sign
    variations of (1 + x)^n c(1 / (1 + x)).  Zero proves there are none."""
    return _sign_variations(_taylor_shift(c[::-1]))


def _on_unit(c: list, lo: Fraction, hi: Fraction) -> list:
    """A positive integer multiple of c(lo + (hi - lo) t), for the integer
    list c: its roots in (0, 1) are those of c in (lo, hi) moved there."""
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = (x.numerator * (d // x.denominator) for x in (lo, hi))
    n = len(c) - 1
    shifted = _taylor_shift([t * d ** (n - i) for i, t in enumerate(c)], a)
    return [t * (b - a) ** k for k, t in enumerate(shifted)]


def _vca(c: list) -> list:
    """Isolating intervals in (0, 1) for the roots of the squarefree integer
    c, which has none at 0 or 1, by bisection on an explicit stack: a node
    (c, j, k) stands for (j/2^k, (j+1)/2^k), its roots mapped onto (0, 1)."""
    out, stack = [], [(c, 0, 0)]
    while stack:
        c, j, k = stack.pop()
        v = _variations01(c)
        if v == 1:
            out.append((Fraction(j, 1 << k), Fraction(j + 1, 1 << k)))
        if v < 2:
            continue
        n = len(c) - 1
        left = [a << (n - i) for i, a in enumerate(c)]     # 2^n c(x/2)
        right = _taylor_shift(left)                        # 2^n c((x+1)/2)
        if right[0] == 0:
            mid = Fraction(2 * j + 1, 2 << k)
            out.append((mid, mid))
            right = right[1:]
            left = int_quo(left, [-1, 1])
        stack += [(right, 2 * j + 1, k + 1), (left, 2 * j, k + 1)]
    return out


def _root_bound_pow2(c: Sequence[int]) -> int:
    """Power of two strictly exceeding the Cauchy bound 1 + max|ai/an|: the
    least b = 2^k with (b - 1) an > max|ai|, that is b >= max|ai| // an + 2."""
    m = max(map(abs, c[:-1]), default=0)
    return 1 << (m // abs(c[-1]) + 1).bit_length()


def _isolate_squarefree(c: list) -> list:
    """Isolating intervals for a squarefree integer polynomial of degree at
    least 1: the root 0, then the roots in (0, B) and in (-B, 0), each
    range mapped onto (0, 1)."""
    out = [(Fraction(0), Fraction(0))] if c[0] == 0 else []
    c = c[1:] if c[0] == 0 else c
    if len(c) < 2:
        return out
    B = _root_bound_pow2(c)
    out += [(B * lo, B * hi) for lo, hi in
            _vca([a * B ** k for k, a in enumerate(c)])]
    return out + [(-B * hi, -B * lo) for lo, hi in
                  _vca([a * (-B) ** k for k, a in enumerate(c)])]


def _bisect_once(c: Sequence[int], lo: Fraction, hi: Fraction) -> tuple:
    mid = (lo + hi) / 2
    vm = hom_eval(c, mid)
    if vm == 0:
        return mid, mid
    if (hom_eval(c, lo) > 0) != (vm > 0):
        return lo, mid
    return mid, hi


def refine_root(c: Sequence, iv: Interval, width: Fraction) -> Interval:
    """Shrink an isolating interval below the requested width."""
    lo, hi = iv.lo, iv.hi
    c = to_int_primitive(c)
    while hi - lo > width and lo != hi:
        lo, hi = _bisect_once(c, lo, hi)
    return Interval(lo, hi)


def real_roots(p: Union[Poly, Sequence], var: str = None):
    """Isolating intervals for the real roots of the squarefree p, sorted
    increasing, or None when p has a repeated real or complex root.

    Accepts a Poly (univariate in `var` or in its only present variable) or
    a dense list of exact coefficients.  One gcd(p, p') in integers decides
    squarefreeness; the curve layer calls this on polynomials it needs
    squarefree anyway, so None doubles as its rejection of a chart.
    """
    c = to_int_primitive(p.to_univariate(var) if isinstance(p, Poly) else p)
    if not c:
        raise ValueError("zero polynomial has every number as a root")
    if len(c) == 1:
        return []
    if len(int_gcd(c, univ_derivative(c))) > 1:
        return None
    found = [list(iv) for iv in _isolate_squarefree(c)]
    # exact rational roots found during subdivision sit at endpoints of the
    # neighbouring intervals; divide them out so sign bisection keeps a
    # valid bracket on those intervals
    for lo, hi in found:
        if lo == hi:
            c = int_quo(c, [-lo.numerator, lo.denominator])
    # closures must end up strictly disjoint: no endpoint may equal any
    # root, and neighbours may not share an endpoint
    changed = True
    while changed:
        changed = False
        found.sort()
        for a, b in zip(found, found[1:]):
            if a[1] >= b[0] and not (a[0] == a[1] and b[0] == b[1]):
                for r in (a, b):
                    if r[0] != r[1]:
                        r[0], r[1] = _bisect_once(c, r[0], r[1])
                changed = True
    return [Interval(lo, hi) for lo, hi in found]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def sign_at(p: Sequence, c: Sequence, iv: Interval) -> tuple:
    """Exact sign (-1, 0 or 1) of p at the root of the squarefree c that iv
    isolates, and iv as refined to decide it.

    Once Descartes' rule shows p has no root in (lo, hi), p has its sign at
    the midpoint.  Until then p vanishes at the root exactly when gcd(p, c)
    changes sign across iv, and iv is bisected on c.  Where p does not
    vanish, the variation count falls to 0 as iv shrinks: no width cap.
    Both run in integers, on p and c with denominators cleared.
    """
    p, c = to_int_primitive(p), to_int_primitive(c)
    lo, hi = iv.lo, iv.hi
    g = None
    while lo != hi:
        if _variations01(_on_unit(p, lo, hi)) == 0:
            return _sign(hom_eval(p, (lo + hi) / 2)), Interval(lo, hi)
        if g is None:
            g = int_gcd(p, c)
        if len(g) > 1 and (hom_eval(g, lo) > 0) != (hom_eval(g, hi) > 0):
            return 0, Interval(lo, hi)
        lo, hi = _bisect_once(c, lo, hi)
    return _sign(hom_eval(p, lo)), Interval(lo, hi)


# ---------------------------------------------------------------------------
# certified float roots
# ---------------------------------------------------------------------------

ENCLOSURE_BITS = 40              # certified brackets: 2^-40 of the root scale
FALLBACK_WIDTH = Fraction(1, 10 ** 15)   # exact refinement where they fail


def scaled_floats(c: Sequence) -> tuple:
    """(floats, p): the entries of the exact list c divided by the least
    power of two p >= 1 that brings them below 2^1000, each rounded once."""
    bits = max((t.numerator.bit_length() - t.denominator.bit_length()
                for t in c), default=0)
    p = 1 << max(0, bits - 1000)
    return [float(t / p) for t in c], p


def certified_brackets(c: Sequence, n: int, roots=None):
    """Brackets for the n real roots of c, increasing, certified from its
    float roots, or None where that fails, as where two roots nearly merge
    or one is beyond float range: (r, lo, hi, k) per root, the bracket
    (lo / 2^k, hi / 2^k) around the float r, a real root of c / p
    (`scaled_floats`) moved by one Newton step (c exact, c' in floats), of
    half width 2^-ENCLOSURE_BITS s for s the power of two at or above the
    largest root modulus.  n disjoint brackets, each with c of opposite
    nonzero signs at its ends, hold one root each.  `roots` are the
    `np.roots` of c / p, if the caller has taken them."""
    c = strip_high(c)
    fc, p = scaled_floats(c)
    if not fc or not fc[-1] or max(map(abs, fc)) > 2.0 ** 1000 * abs(fc[-1]):
        return None             # the companion matrix would overflow
    if roots is None:
        roots = np.roots(fc[::-1])
    if not np.isfinite(roots).all():
        return None
    real = [float(r.real) for r in roots if r.imag == 0]
    if len(real) != n:
        return None
    dc = [float(t / p) for t in univ_derivative(c)]
    ci, den = _over_z(c)
    real = sorted(_newton_step(ci, den * p, dc, r) for r in real)
    # the half width is 2^e
    e = math.frexp(float(np.abs(roots).max()))[1] - ENCLOSURE_BITS
    out = []
    for r in real:
        m, q = r.as_integer_ratio()
        k = max(q.bit_length() - 1, -e)
        mid, half = m * ((1 << k) // q), 1 << (k + e)
        lo, hi = mid - half, mid + half
        if out and lo << out[-1][3] <= out[-1][2] << k:
            return None
        a, b = _hom_eval(ci, lo, 1 << k), _hom_eval(ci, hi, 1 << k)
        if a == 0 or b == 0 or (a > 0) == (b > 0):
            return None
        out.append((r, lo, hi, k))
    return out


def _newton_step(ci: list, den: int, dc: list, r: float) -> float:
    """r - c(r)/c'(r) for c = ci / den, with c(r) exact at the float r and
    c'(r) from the floats dc of c', the quotient rounded once."""
    d = univ_eval(dc, r)
    if d == 0 or not math.isfinite(d):
        return r
    (a, q), (dn, dd) = r.as_integer_ratio(), d.as_integer_ratio()
    return r - _hom_eval(ci, a, q) * dd / (den * q ** (len(ci) - 1) * dn)


def real_root_floats(c: Sequence, n: int, ivs: Sequence = None,
                     roots=None) -> list:
    """The n real roots of the squarefree c as sorted floats: midpoints of
    certified brackets (from the float `roots` of c, if given), else of
    the isolating intervals `ivs` (by default `real_roots(c)`) refined to
    FALLBACK_WIDTH.  A root that `ivs` gives as a point is rounded from its
    exact value.  Raises InternalInconsistency when c has a repeated root
    after all."""
    got = certified_brackets(c, n, roots)
    if got is not None:
        mids = [r for r, *_ in got]
        return mids if ivs is None else [
            float(iv.lo) if iv.is_point() else r for iv, r in zip(ivs, mids)]
    ivs = real_roots(c) if ivs is None else ivs
    if ivs is None:
        raise InternalInconsistency("repeated root in a polynomial "
                                    "taken as squarefree")
    return [float(refine_root(c, iv, FALLBACK_WIDTH).mid) for iv in ivs]


# ---------------------------------------------------------------------------
# complex roots (Aberth simultaneous iteration)
# ---------------------------------------------------------------------------

def _exact_newton_ratio(c: list, dc: list, z: complex) -> complex:
    """p(z) / p'(z) for the exact polynomial c, evaluated exactly at the
    float z and rounded once."""
    x, y = Fraction(z.real), Fraction(z.imag)

    def horner(coeffs):
        re = im = Fraction(0)
        for a in reversed(coeffs):
            re, im = re * x - im * y + a, re * y + im * x
        return re, im

    pr, pi = horner(c)
    dr, di = horner(dc)
    den = dr * dr + di * di
    if den == 0:
        raise NonConvergence("derivative vanishes at a root estimate")
    return complex(float((pr * dr + pi * di) / den),
                   float((pi * dr - pr * di) / den))


def _aberth_steps(ratio, z: np.ndarray, settled, max_iter: int) -> np.ndarray:
    """Simultaneous Aberth iteration from the estimates z; ratio(z) gives
    p/p' at each estimate and settled(z, dz) ends the iteration."""
    for _ in range(max_iter):
        w = ratio(z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - w * inv.sum(axis=1)
        dz = w / np.where(np.abs(denom) < 1e-300, 1.0, denom)
        z = z - dz
        if settled(z, dz):
            return z
    raise NonConvergence(f"Aberth iteration did not converge in {max_iter} steps")


def _aberth(c: list, tol: float, max_iter: int) -> np.ndarray:
    """Roots of the exact squarefree c, of degree at least 2: Aberth in
    floats until the residual is below tol, then with p/p' evaluated
    exactly, since rounded coefficients misplace clustered roots."""
    n = len(c) - 1
    dc = univ_derivative(c)
    f = np.array([float(t) for t in c])
    f = f / f[-1]
    df = f[1:] * np.arange(1, n + 1)
    chi = np.polynomial.polynomial.polyval
    scale = float(np.max(np.abs(f)))

    def small_residual(z, dz):
        resid = np.abs(chi(z, f)) / (scale * np.maximum(1.0, np.abs(z)) ** n)
        return float(resid.max()) < tol

    def step_at_rounding(z, dz):
        return bool((np.abs(dz) <= 1e-14 * np.maximum(1.0, np.abs(z))).all())

    radius = 1.0 + float(np.max(np.abs(f[:-1])))
    z = radius * np.exp(2j * np.pi * (np.arange(n) / n) + 0.4j)
    z = _aberth_steps(lambda z: chi(z, f) / chi(z, df), z, small_residual,
                      max_iter)
    return _aberth_steps(
        lambda z: np.array([_exact_newton_ratio(c, dc, zk) for zk in z]),
        z, step_at_rounding, max_iter)


def complex_roots(p: Union[Poly, Sequence], var: str = None,
                  tol: float = 1e-12, max_iter: int = 200) -> list:
    """All complex roots with multiplicity, sorted by (real, imag).

    The input is exact (a TypeError otherwise) and is square-freed first,
    so multiplicities come out exact; the roots are accurate to float
    precision even where they cluster.
    """
    coeffs = p.to_univariate(var) if isinstance(p, Poly) else list(p)
    if not all(isinstance(t, (int, Fraction)) for t in coeffs):
        raise TypeError("complex_roots needs exact coefficients")
    coeffs = strip_high([Fraction(t) for t in coeffs])
    if not coeffs:
        raise ValueError("zero polynomial")
    roots: list = []
    for factor, mult in squarefree_decomposition(coeffs):
        if len(factor) == 2:
            rs = [complex(-factor[0] / factor[1])]
        else:
            rs = _aberth(factor, tol, max_iter)
        roots.extend(list(rs) * mult)
    roots = [complex(r) for r in roots]
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


# ---------------------------------------------------------------------------
# exact determinant
# ---------------------------------------------------------------------------

def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): every division is exact, and every
    intermediate entry is a minor of m."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1
