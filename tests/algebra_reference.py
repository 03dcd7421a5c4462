"""Resultants through the Sylvester matrix, and the resultant of three
ternary quadrics: the Poly references that the integer forms of
`realcubic.forms` (`y_resultant`, `_nonsingular`) and the curve layer's
closed-form discriminant are tested against.  Scalar entries get
`bareiss_det`, polynomial entries a Laplace expansion."""

import math
from fractions import Fraction
from typing import Sequence

from realcubic.algebra import CANONICAL_VARS, Poly, bareiss_det


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
    total = Poly.zero(vars)
    for col, entry in enumerate(m[0]):
        if not entry.is_zero():
            term = entry * _det_poly([row[:col] + row[col + 1:]
                                      for row in m[1:]], vars)
            total = total + term if col % 2 == 0 else total - term
    return total


def sylvester_matrix(p: Poly, q: Poly, var: str) -> list:
    cp, cq = p.coeffs_in(var)[::-1], q.coeffs_in(var)[::-1]
    m, n = len(cp) - 1, len(cq) - 1
    zero = Poly.zero(p.vars)
    return ([[zero] * i + cp + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * j + cq + [zero] * (m - 1 - j) for j in range(m)])


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant eliminating var; a Poly in the remaining variables."""
    if p.vars != q.vars:
        raise ValueError("variable mismatch")
    if p.is_zero() or q.is_zero():
        return Poly.zero(p.vars)
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
