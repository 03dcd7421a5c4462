"""Resultants through the Sylvester matrix, and the resultant of three
ternary quadrics: the Poly references that the integer forms of
`realcubic.forms` (`y_resultant`, `discriminant_sign`) and the curve layer's
closed-form discriminant are tested against.  Scalar entries get
`bareiss_det`, polynomial entries a Laplace expansion.  Also the
recursive descent with a Fraction per atom, and substitution of Polys for
variables, which the integer parser and the tensor restriction to a plane
are tested against."""

import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from realcubic.algebra import (
    CANONICAL_VARS,
    Interval,
    Poly,
    Scalar,
    _tokenize,
    bareiss_det,
    certified_brackets,
)


def certified_roots(c, n: int):
    """The brackets of `certified_brackets` as Intervals, or None."""
    got = certified_brackets(c, n)
    return None if got is None else [
        Interval(Fraction(lo, 1 << k), Fraction(hi, 1 << k))
        for _, lo, hi, k in got]


def substitute(p: Poly, assignment: Mapping[str, Union[Poly, Scalar]]) -> Poly:
    """Replace variables by polynomials or scalars (simultaneously)."""
    images = []
    for v in p.vars:
        if v in assignment:
            img = assignment[v]
            if not isinstance(img, Poly):
                img = Poly.const(img, p.vars)
            elif img.vars != p.vars:
                raise ValueError("substitution image has wrong variables")
            images.append(img)
        else:
            images.append(Poly.var(v, p.vars))
    out = Poly(p.vars, {})
    pow_cache: dict = {}

    def power(i: int, k: int) -> Poly:
        if (i, k) not in pow_cache:
            pow_cache[i, k] = images[i] ** k
        return pow_cache[i, k]

    for expo, c in p.terms.items():
        term = Poly.const(c, p.vars)
        for i, k in enumerate(expo):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


def parse_poly(text: str, vars=None) -> Poly:
    """The recursive descent on Polys with a Fraction per atom."""
    toks = _tokenize(text)
    if vars is None:
        names = {t for t in toks if t and t[0].isalpha()}
        bad = names - set(CANONICAL_VARS)
        if bad:
            raise ValueError(f"unknown variables {sorted(bad)}")
        vars = CANONICAL_VARS
    vs = tuple(vars)
    i = 0

    def peek():
        return toks[i]

    def take():
        nonlocal i
        t = toks[i]
        i += 1
        return t

    def parse_expr() -> Poly:
        if peek() in ("+", "-"):
            sign = take()
            node = parse_term()
            if sign == "-":
                node = -node
        else:
            node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node - rhs if op == "-" else node + rhs
        return node

    def parse_term() -> Poly:
        node = parse_factor()
        while True:
            t = peek()
            if t in ("*", "/"):
                op = take()
                rhs = parse_factor()
                if op == "/":
                    if rhs.constant_value() == 0:
                        raise ValueError("division by zero")
                    node = node / rhs.constant_value()
                else:
                    node = node * rhs
            elif t is not None and (t[0].isdigit() or t[0].isalpha()
                                    or t == "("):
                node = node * parse_factor()   # implicit multiplication
            else:
                return node

    def parse_factor() -> Poly:
        t = peek()
        if t in ("+", "-"):
            take()
            f = parse_factor()
            return -f if t == "-" else f
        base = parse_atom()
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            base = base ** int(e)
        return base

    def parse_atom() -> Poly:
        t = take()
        if t == "(":
            node = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if t is None:
            raise ValueError("unexpected end of polynomial")
        if t[0].isdigit():
            return Poly.const(Fraction(t), vs)
        if t[0].isalpha():
            if t not in vs:
                raise ValueError(f"unknown variable {t!r}")
            return Poly(vs, {tuple(int(v == t) for v in vs): Fraction(1)})
        raise ValueError(f"unexpected token {t!r}")

    node = parse_expr()
    if peek() is not None:
        raise ValueError(f"trailing input at token {peek()!r}")
    return node


def from_univariate(coeffs, var: str, vars=CANONICAL_VARS) -> Poly:
    """The polynomial sum_k coeffs[k] var^k in the variables `vars`."""
    return Poly(vars, {tuple(k if v == var else 0 for v in vars): c
                       for k, c in enumerate(coeffs)})


def _det_scalar(m: list) -> Fraction:
    """Exact determinant of a rational matrix: each row cleared of its
    denominators, then `bareiss_det`."""
    dens = [math.lcm(*(Fraction(x).denominator for x in row)) for row in m]
    ints = [[int(Fraction(x) * d) for x in row] for row, d in zip(m, dens)]
    return Fraction(bareiss_det(ints), math.prod(dens))


def _det_poly(m: list, vars: tuple) -> Poly:
    """Determinant with Poly entries by Laplace expansion along the first
    row: fine for the sizes of the resultants tested."""
    if not m:
        return Poly.const(Fraction(1), vars)
    total = Poly(vars, {})
    for col, entry in enumerate(m[0]):
        if not entry.is_zero():
            term = entry * _det_poly([row[:col] + row[col + 1:]
                                      for row in m[1:]], vars)
            total = total + term if col % 2 == 0 else total - term
    return total


def sylvester_matrix(p: Poly, q: Poly, var: str) -> list:
    cp, cq = p.coeffs_in(var)[::-1], q.coeffs_in(var)[::-1]
    m, n = len(cp) - 1, len(cq) - 1
    zero = Poly(p.vars, {})
    return ([[zero] * i + cp + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * j + cq + [zero] * (m - 1 - j) for j in range(m)])


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant eliminating var; a Poly in the remaining variables."""
    if p.vars != q.vars:
        raise ValueError("variable mismatch")
    if p.is_zero() or q.is_zero():
        return Poly(p.vars, {})
    m, n = p.degree(var), q.degree(var)
    if m == 0:
        return p ** n if n > 0 else Poly.const(Fraction(1), p.vars)
    if n == 0:
        return q ** m
    rows = sylvester_matrix(p, q, var)
    if all(e.is_constant() for row in rows for e in row):
        val = _det_scalar([[e.constant_value() for e in row] for row in rows])
        return Poly.const(val, p.vars)
    return _det_poly(rows, p.vars)


def quadric_triple_resultant(q1: Poly, q2: Poly, q3: Poly,
                             vars3: Sequence[str]) -> Fraction:
    """Resultant (up to a fixed nonzero constant) of three quadratic forms in
    three variables.  Vanishes iff they share a projective zero.

    The construction: J is the Jacobian determinant of the three forms, a
    cubic form; the 6x6 matrix of coefficients of q1, q2, q3 and the three
    partials of J in the six degree-2 monomials has the resultant as its
    determinant.
    """
    vs = tuple(vars3)
    forms = [q1, q2, q3]
    for f in forms:
        if f.homogeneous_degree() not in (2, 0):
            raise ValueError("inputs must be quadratic forms")
    jac = [[f.derivative(v) for v in vs] for f in forms]
    J = (jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
         - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
         + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]))
    rows_src = forms + [J.derivative(v) for v in vs]
    monos = []
    idx = {v: k for k, v in enumerate(q1.vars)}
    pos = [idx[v] for v in vs]
    for i in range(3):
        for j in range(i, 3):
            e = [0] * len(q1.vars)
            e[pos[i]] += 1
            e[pos[j]] += 1
            monos.append(tuple(e))
    mat = []
    for f in rows_src:
        extra = set(f.terms) - set(monos)
        if extra:
            raise ValueError("form involves unexpected monomials")
        mat.append([f.terms.get(mo, Fraction(0)) for mo in monos])
    return _det_scalar(mat)
