"""Exact plane-curve constructions that the curve layer's suites use as
independent cross-checks: the conic through five points and the residual
sixth point where it meets a cubic, the Weierstrass chord-tangent group
law, the singularity test of a cubic as a `Poly` function, and point
location on the Fraction fibres of the chart curve, which the integer
`realcubic.curve.locate` is tested against."""

from fractions import Fraction

import numpy as np

from algebra_reference import resultant, substitute
from realcubic.algebra import (
    Poly,
    int_gcd,
    int_quo,
    real_root_floats,
    real_roots,
    sign_at,
    to_int_primitive,
    univ_derivative,
    univ_eval,
)
from realcubic.curve import (
    AFFINE_VARS,
    PLANE_VARS,
    _coeffs_in_x,
    _mat_mul_vec,
    fibre_dense,
)
from realcubic.errors import (
    DegenerateConfiguration,
    InternalInconsistency,
    MultiplicityAmbiguity,
    NotOnCurve,
    SharedComponent,
)
from realcubic.forms import discriminant_sign, form_tensor


def nonsingular_cubic(G: Poly) -> bool:
    """True when the ternary form G is a cubic and the curve G = 0 is
    nonsingular: its three partials have no common zero in P2 over C."""
    return (G.homogeneous_degree() == 3
            and discriminant_sign(form_tensor(G)[0]) != 0)


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
                  substitute(conic, {"z": 1}).terms.items()})
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


# ---------------------------------------------------------------------------
# point location on Fraction fibres
# ---------------------------------------------------------------------------

LOCATE_TOL = 1e-7


def locate(analysis, point) -> str:
    """`realcubic.curve.locate` with the fibre over a float x as Fractions
    (`fibre_dense` of the chart curve at Fraction(x)), the chart inverse's
    entries rounded per call, and the cell of x decided by `sign_at`."""
    v = tuple(point)
    if all(isinstance(t, (int, Fraction)) for t in v):
        u = _mat_mul_vec(analysis.inverse, tuple(Fraction(t) for t in v))
        if u[2] == 0:
            return "pseudoline"
        x0, y0, exact = u[0] / u[2], u[1] / u[2], True
    else:
        vf = tuple(float(t) for t in v)
        u = tuple(sum(float(analysis.inverse[i][j]) * vf[j] for j in range(3))
                  for i in range(3))
        scale = max(abs(t) for t in u)
        if abs(u[2]) < LOCATE_TOL * scale:
            return "pseudoline"
        x0, y0, exact = Fraction(u[0] / u[2]), Fraction(u[1] / u[2]), False
    fy = fibre_dense(analysis.f, x0)
    if analysis.components == 1:
        _check_on_fibre(fy, y0, exact)
        return "pseudoline"
    below = 0
    for k, fp in enumerate(analysis.folds):
        if x0 in fp.x:
            side = sign_at([-x0, Fraction(1)], analysis.disc_dense, fp.x)[0]
            if side == 0:
                return _locate_at_fold(fp, fy, y0, exact)
            below += side < 0
        elif fp.x.hi <= x0:
            below += 1
    _check_on_fibre(fy, y0, exact)
    if exact:
        branch = sum(1 for r in real_roots(fy)
                     if (r.hi <= y0 and not r.is_point())
                     or (r.is_point() and r.lo < y0))
    else:
        fyf = [float(t) for t in fy]
        yf = float(y0)
        mids = real_root_floats(fy, analysis.cell_counts[below])
        others = [] if len(mids) == 3 else sorted(
            np.roots(fyf[::-1]), key=lambda r: abs(r - mids[0]))[1:]
        dists = sorted((abs(yf - m), i) for i, m in enumerate(mids + others))
        branch = dists[0][1]
        if branch >= len(mids) or \
                dists[0][0] > 0 and dists[1][0] < 4 * dists[0][0]:
            raise MultiplicityAmbiguity("point between two fibre branches")
    pair = analysis.oval_cells.get(below)
    return "oval" if pair is not None and branch in pair else "pseudoline"


def _check_on_fibre(fy, y0, exact) -> None:
    if exact:
        if univ_eval(fy, y0) != 0:
            raise NotOnCurve("point does not satisfy the curve equation")
        return
    fyf = [float(t) for t in fy]
    scale = max(abs(t) for t in fyf) or 1.0
    yf = float(y0)
    if abs(univ_eval(fyf, yf)) > LOCATE_TOL * scale * max(1.0, abs(yf)) ** 3:
        raise NotOnCurve("point too far from the curve")


def _locate_at_fold(fp, fy, y0, exact) -> str:
    g = int_gcd(fy, univ_derivative(fy))
    if len(g) != 2:
        raise InternalInconsistency("fold fibre without a double root")
    ystar = Fraction(-g[0], g[1])
    ysurv = -fy[2] / fy[3] - 2 * ystar
    if exact:
        if y0 == ystar:
            return fp.pair_component
        if y0 == ysurv:
            return fp.survivor_component
        raise NotOnCurve("point does not satisfy the curve equation")
    d_star = abs(float(y0) - float(ystar))
    d_surv = abs(float(y0) - float(ysurv))
    if min(d_star, d_surv) > LOCATE_TOL * max(1.0, abs(float(y0))):
        raise NotOnCurve("point too far from the curve")
    return fp.pair_component if d_star <= d_surv else fp.survivor_component
