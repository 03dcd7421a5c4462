"""Exact plane-curve constructions that the curve layer's suites use as
independent cross-checks: the conic through five points and the residual
sixth point where it meets a cubic, the Weierstrass chord-tangent group
law, and the singularity test of a cubic as a `Poly` function."""

from fractions import Fraction

from algebra_reference import resultant
from realcubic.algebra import Poly, int_gcd, int_quo, to_int_primitive
from realcubic.curve import AFFINE_VARS, PLANE_VARS, _coeffs_in_x, fibre_dense
from realcubic.errors import (
    DegenerateConfiguration,
    InternalInconsistency,
    NotOnCurve,
    SharedComponent,
)
from realcubic.forms import _nonsingular, form_tensor


def nonsingular_cubic(G: Poly) -> bool:
    """True when the ternary form G is a cubic and the curve G = 0 is
    nonsingular: its three partials have no common zero in P2 over C."""
    return G.homogeneous_degree() == 3 and _nonsingular(form_tensor(G)[0])


_CONIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                    (0, 0, 2))


def conic_through_five(points) -> Poly:
    """The unique conic through five points, exactly.

    Points are rational (x, y) pairs or projective triples.  Raises
    DegenerateConfiguration when the five points fail to determine one
    conic (four collinear, repeated points, ...).
    """
    pts = []
    for p in points:
        p = tuple(Fraction(t) for t in p)
        if len(p) == 2:
            p = (p[0], p[1], Fraction(1))
        if len(p) != 3:
            raise ValueError("points must have 2 or 3 coordinates")
        pts.append(p)
    if len(pts) != 5:
        raise ValueError("exactly five points required")
    rows = [[x ** e[0] * y ** e[1] * z ** e[2] for e in _CONIC_MONOMIALS]
            for (x, y, z) in pts]
    null = null_space(rows, 6)
    if len(null) != 1:
        raise DegenerateConfiguration(
            f"five points determine a {len(null)}-dimensional conic family")
    coeffs = null[0]
    terms = {e: c for e, c in zip(_CONIC_MONOMIALS, coeffs) if c != 0}
    return Poly(PLANE_VARS, terms)


def null_space(rows, width):
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col]
        mat[r] = [t / inv for t in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis




def residual_point(cubic: Poly, points) -> tuple:
    """Sixth intersection of a cubic with the conic through five of its
    points, exactly.

    The five points must be rational, lie on the cubic, and have pairwise
    distinct x-coordinates.  Returns the sixth point as a Fraction pair.
    """
    pts = [tuple(Fraction(t) for t in p) for p in points]
    if len(pts) != 5:
        raise ValueError("exactly five points required")
    for (x0, y0) in pts:
        if cubic.eval({"x": x0, "y": y0}) != 0:
            raise NotOnCurve(f"({x0}, {y0}) is not on the cubic")
    xs = [p[0] for p in pts]
    if len(set(xs)) != 5:
        raise DegenerateConfiguration("x-coordinates must be distinct")
    conic = conic_through_five(pts)
    q_aff = Poly(AFFINE_VARS,
                 {(e[0], e[1]): c for e, c in
                  conic.substitute({"z": 1}).terms.items()})
    res = resultant(q_aff, cubic, "y")
    if res.is_zero():
        raise SharedComponent("conic and cubic share a component")
    dense = to_int_primitive(_coeffs_in_x(res))
    for x0 in xs:
        dense = int_quo(dense, [-x0.numerator, x0.denominator])
        if dense is None:
            raise InternalInconsistency("known root failed to divide out")
    if len(dense) != 2:
        raise DegenerateConfiguration(
            "sixth intersection is at infinity or multiple")
    x6 = Fraction(-dense[0], dense[1])
    g = int_gcd(fibre_dense(q_aff, x6), fibre_dense(cubic, x6))
    if len(g) != 2:
        raise DegenerateConfiguration("sixth point fibre is not simple")
    y6 = Fraction(-g[0], g[1])
    if cubic.eval({"x": x6, "y": y6}) != 0:
        raise InternalInconsistency("residual point not on the cubic")
    return (x6, y6)

def weierstrass_chord(a, b, P, Q):
    """Third intersection of the chord (or tangent) with y^2 = x^3 + ax + b.

    Exact rational arithmetic; None encodes the point at infinity.
    """
    a, b = Fraction(a), Fraction(b)
    if P is None or Q is None:
        raise ValueError("chord needs two affine points")
    x1, y1 = (Fraction(t) for t in P)
    x2, y2 = (Fraction(t) for t in Q)
    for (x0, y0) in ((x1, y1), (x2, y2)):
        if y0 * y0 != x0 ** 3 + a * x0 + b:
            raise NotOnCurve(f"({x0}, {y0}) is not on the curve")
    if (x1, y1) == (x2, y2):
        if y1 == 0:
            return None
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        if x1 == x2:
            return None
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = y1 + lam * (x3 - x1)
    return (x3, y3)


def weierstrass_add(a, b, P, Q):
    """Group sum on y^2 = x^3 + ax + b (chord then reflect)."""
    if P is None:
        return Q
    if Q is None:
        return P
    third = weierstrass_chord(a, b, P, Q)
    if third is None:
        return None
    return (third[0], -third[1])
