"""Exact forms in integers.

A form G gets one symmetric tensor T with integer entries and a
denominator D > 0, so that G(v) = T(v, ..., v) / D (`form_tensor`).  A
change of coordinates by an integer matrix M of any shape is one mode
product per index of T (`contract`, and `chart_terms` for the
coefficients).  `classify_surface` builds the surface's tensor once; its
users are the section at infinity (`classify.restrict_to_plane`, by the
plane's embedding times its pivot coefficient), the sphere flag's
`classify.line_discriminant`, the sweep's chart changes of the section
(`curve.analyze_cubic`), and `lines.cubic_tensor`, which rounds it.  The
sign of a ternary cubic's discriminant is that of a 6 x 6 Bareiss
determinant built from T (`discriminant_sign`): 0 on a singular curve, +1
on a real curve of one component and -1 on one of two, so one exact
determinant both tests the curve nonsingular and counts its components.
The resultant in y of a chart conic and a chart curve, over dense integer
polynomials in x, is their Sylvester determinant in closed form: the conic's
y^2 coefficient is a constant, so at most two pseudo-division steps reduce
the other curve to a line in y (`y_resultant`).
`positive_definite` proves a ternary form positive, or not, by integer
Taylor shifts on the triangles of an octahedron.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from .algebra import Poly, _taylor_shift, bareiss_det, univ_mul, univ_sub
from .errors import Undecided


@lru_cache(maxsize=None)
def _monomials(d: int, w: int) -> tuple:
    """(exponent, flat index, multinomial) for each monomial of degree d in
    w variables; the flat index, in base w, is that of its sorted index
    tuple in a symmetric tensor."""
    out = []
    for idx in itertools.combinations_with_replacement(range(w), d):
        e = tuple(idx.count(v) for v in range(w))
        out.append((e, reduce(lambda acc, i: acc * w + i, idx, 0),
                    math.factorial(d) // math.prod(map(math.factorial, e))))
    return tuple(out)


def form_tensor(G: Poly) -> tuple:
    """(T, D) for a form G of degree d in w = len(G.vars) variables: T is
    its symmetric tensor with integer entries, flat in base w, and D > 0
    clears the denominators, so that G(v) = T(v, ..., v) / D.  A
    monomial's coefficient is spread evenly over the index tuples that
    multiply out to it."""
    d, w = G.homogeneous_degree(), len(G.vars)
    share = {e: Fraction(G.terms.get(e, 0), k) for e, _, k in _monomials(d, w)}
    D = math.lcm(*[c.denominator for c in share.values()])
    share = {e: c.numerator * (D // c.denominator) for e, c in share.items()}
    return [share[tuple(idx.count(v) for v in range(w))]
            for idx in itertools.product(range(w), repeat=d)], D


def contract(T: list, M, d: int) -> list:
    """The tensor of D * G(M v), flat in base w, for G = T(v, ..., v) / D
    of degree d in n variables and the integer n x w matrix M: each index
    of T contracted with the rows of M, one plain-int mode product each."""
    n, cols = len(M), list(zip(*M))
    for _ in range(d):
        s = len(T) // n
        rows = zip(*[T[k * s:k * s + s] for k in range(n)])
        if n == 3:              # the chart changes: spelt out, twice as fast
            T = [a * p + b * q + c * r for a, b, c in rows
                 for p, q, r in cols]
        else:
            T = [sum(map(operator.mul, row, col)) for row in rows
                 for col in cols]
    return T


def chart_terms(T: list, M, d: int) -> dict:
    """The nonzero coefficients, by exponent, of D * G(M v)."""
    T = contract(T, M, d)
    return {e: k * T[f] for e, f, k in _monomials(d, len(M[0])) if T[f]}


_QUADRIC_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PERMUTATION_SIGNS = ((1, (0, 1, 2)), (-1, (0, 2, 1)), (-1, (1, 0, 2)),
                      (1, (1, 2, 0)), (1, (2, 0, 1)), (-1, (2, 1, 0)))


def discriminant_sign(T: list) -> int:
    """The sign of the discriminant of the cubic with the integer tensor T:
    0 when the curve is singular, +1 when its real points form one
    component (a pseudoline) and -1 when they form two (pseudoline and
    oval).

    The cubic's partials are, up to one factor, the quadrics T(e_i, v, v).
    Their Jacobian is the Hessian, whose determinant is, up to a factor,
    J(v) = det(sum_k T_ijk v_k), and the partials of J are 3 J(e_m, v, v)
    for J symmetrised.  The 6 x 6 matrix of the six quadrics' coefficients
    is Sylvester's formula for the resultant of the three partials
    (Gelfand, Kapranov & Zelevinsky, *Discriminants, Resultants and
    Multidimensional Determinants*, 1994; built from Poly forms in
    `tests/algebra_reference.py` as this test's reference); each row here
    holds a quadric's symmetric matrix entries, a fixed rescaling of its
    columns.  Its determinant R(T) has the component count as its sign:

    - R vanishes on every singular cubic, where the partials share a
      projective zero, and is not identically zero.  The discriminant
      Delta of ternary cubics is irreducible of degree 12 and vanishes
      exactly there, so Delta divides R; R has degree 12 too (three rows
      linear in T, three cubic), so R = kappa Delta for a universal
      constant kappa != 0.
    - Delta(lambda G o g) = lambda^12 det(g)^12 Delta(G) for real lambda
      and g in GL3(R), so the sign of Delta is a real projective invariant.
    - A real nonsingular cubic has a real flex, so it is real-projectively
      y^2 z = x^3 + a x z^2 + b z^3, where Delta is a fixed multiple of
      4 a^3 + 27 b^2.  It has an oval exactly when x^3 + a x + b has three
      real roots, that is when 4 a^3 + 27 b^2 < 0.
    - One evaluation fixes the sign of kappa: R > 0 on y^2 z = x^3 + x z^2
      (one component) and R < 0 on y^2 z = x^3 - x z^2 (two).
    """
    J = [0] * 27                # J(v) = sum J[p, q, r] v_p v_q v_r
    for sign, perm in _PERMUTATION_SIGNS:
        # the linear forms sum_k T[i, perm[i], k] v_k, for i = 0, 1, 2
        ra, rb, rc = (T[9 * i + 3 * j:9 * i + 3 * j + 3]
                      for i, j in enumerate(perm))
        for p in range(3):
            for q in range(3):
                t = sign * ra[p] * rb[q]
                for r in range(3):
                    J[9 * p + 3 * q + r] += t * rc[r]
    rows = [[T[9 * i + 3 * j + k] for j, k in _QUADRIC_SLOTS]
            for i in range(3)]
    rows += [[sum(J[9 * p + 3 * q + r]
                  for p, q, r in itertools.permutations((m, j, k)))
              for j, k in _QUADRIC_SLOTS] for m in range(3)]
    det = bareiss_det(rows)
    return (det > 0) - (det < 0)


def y_resultant(P: list, Q: list) -> list:
    """Res_y(p, q) dense in x, the determinant of the Sylvester matrix in y
    of p and q, given by their coefficients of y^0 .. y^m and y^0 .. y^n,
    each a dense integer list in x with the leading ones nonzero: p is a
    chart conic, so m <= 2, and its y^2 coefficient a, of degree 0 in x, is
    an integer.

    Res(p, q) = lc(p)^n q(t_1) ... q(t_m) over the roots t_i of p, for q of
    formal degree n (Poisson's formula; Basu, Pollack & Roy, *Algorithms
    in Real Algebraic Geometry*, 2006).  So Res = p0^n for m = 0, q0^m for
    n = 0, and for m = 1 it is p1^n q(-p0/p1) = sum_k q_k (-p0)^k p1^(n-k).
    For m = 2 and n >= 1, n - 1 pseudo-division steps, each
    Q <- a Q - lc(Q) y^(k-2) P for Q of degree k, give
    a^(n-1) q = s p + r1 y + r0.  Then q(t_i) = (r1 t_i + r0) / a^(n-1),
    and with t_1 + t_2 = -b/a and t_1 t_2 = c/a, b and c the y^1 and y^0
    coefficients of p,

        Res = a^n a^(2-2n) (r1 t_1 + r0)(r1 t_2 + r0)
            = (a r0^2 - b r0 r1 + c r1^2) / a^(n-1),

    a division that is exact in Z[x], Res being an integer polynomial.
    """
    m, n = len(P) - 1, len(Q) - 1
    if m == 0 or n == 0:
        return reduce(univ_mul, [P[0]] * n + [Q[0]] * m, [1])
    if m == 1:
        acc, power = [], [1]
        for q in reversed(Q):       # homogeneous Horner in (-p0, p1)
            acc = univ_sub(univ_mul(q, power), univ_mul(acc, P[0]))
            power = univ_mul(power, P[1])
        return acc
    if m != 2 or len(P[2]) != 1:
        raise ValueError("expected a conic's coefficients in y")
    (a,), b, c = P[2], P[1], P[0]
    R = list(Q)
    for k in range(n, 1, -1):
        top, R = R[k], [[a * t for t in r] for r in R[:k]]
        R[k - 2] = univ_sub(R[k - 2], univ_mul(top, c))
        R[k - 1] = univ_sub(R[k - 1], univ_mul(top, b))
    r0, r1 = R
    num = univ_sub(univ_mul([a * t for t in r0], r0),
                   univ_sub(univ_mul(b, univ_mul(r0, r1)),
                            univ_mul(c, univ_mul(r1, r1))))
    den = a ** (n - 1)
    return [t // den for t in num]


POSITIVITY_DEPTH = 16            # bisection levels before Undecided


def positive_definite(G: Poly) -> bool:
    """Whether the ternary form G of even degree n is positive at every
    nonzero real point: proved either way, or Undecided.

    The octahedron faces (+-e0, +-e1, e2) cover the real projective plane.
    q(s, t, u) = G(s V1 + t V2 + u V3) on a triangle has the signs of its
    Bernstein coefficients, so q > 0 there when all are positive (Farin,
    CAGD 3, 1986); a vertex with G <= 0 refutes.  Else the edge opposite the
    newest vertex V3 is split at V1 + V2, into q(s + t, t, u) and
    q(s, s + t, u), and the coefficients tend to the values (Powers &
    Reznick, J. Pure Appl. Algebra 164, 2001).  q[c][a] multiplies
    s^a t^(n-c-a) u^c."""
    n = G.homogeneous_degree()
    if len(G.vars) != 3 or not n or n % 2:
        raise ValueError("expected a ternary form of even degree")
    den = math.lcm(*[c.denominator for c in G.terms.values()])
    level = [[[int(G.terms.get((a, n - c - a, c), 0) * den)
               * i ** a * j ** (n - c - a) for a in range(n - c + 1)]
              for c in range(n + 1)] for i in (1, -1) for j in (1, -1)]
    if min(level[0][0][0], level[0][0][n], level[0][n][0]) <= 0:
        return False
    for depth in range(POSITIVITY_DEPTH + 1):
        level = [q for q in level if min(map(min, q)) <= 0]
        if not level:
            return True
        if depth == POSITIVITY_DEPTH:
            raise Undecided(f"no positivity proof in {depth} levels")
        split = []
        for q in level:
            # the halves as (V1, V3, V1 + V2) and (V2, V3, V1 + V2), the new
            # vertex last; p is reversed for the second, so both move alike
            left, right = ([[0] * (k + 1) for k in range(n, -1, -1)]
                           for _ in range(2))
            for c, p in enumerate(q):
                for a, (x, y) in enumerate(zip(_taylor_shift(p),
                                               _taylor_shift(p[::-1]))):
                    left[n - c - a][a], right[n - c - a][a] = x, y
            if left[n][0] <= 0:
                return False
            split += (left, right)
        level = split
