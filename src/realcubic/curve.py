"""Topology of a nonsingular real plane cubic, by an exact vertical sweep.

A nonsingular real cubic in P2 is either one pseudoline or a pseudoline
plus an oval.  After a projective chart change that puts exactly one simple
real point on the line at infinity and makes the y-discriminant squarefree,
the affine picture is a proper 3:1 cover of the x-axis away from finitely
many simple folds.  Counting real fibre points per cell (three where the
y-discriminant is positive, else one) and matching fold pairs through the
first subresultant reconstructs the components exactly, in rational
arithmetic all the way down.

The chart arithmetic is done in integers, on the integer tensor of each
conic or cubic (`forms.py`).  The chart search takes the integer
candidates of `_chart_candidates` in a fixed order and screens each at
infinity first: only the first two columns of the chart go into the binary
cubic at z = 0, which must have a negative discriminant.  Only a chart that
passes gets the full chart change, and its y-discriminant one call of
`real_roots`, which both tests it squarefree and isolates the folds.  The
conic-cubic meet takes its y-resultant over dense integer polynomials in
x, in closed form (`forms.y_resultant`).  The sweep keeps the chart
coefficients and the y-discriminant as integers, D and D^4 times the true
ones for the form's denominator D, and hands them to the integer root
toolkit of `algebra.py` as they are.

The meet's chart search counts its resultant's real roots by Sturm's
theorem (`real_root_count`), which tests it squarefree too.  Each real
root carries exactly one real common point, so the count is the exact
real count.  The chart curves, the isolating intervals and the points
(`ConicCubicMeet.real_points`, `complex_points()`) are built only when
first read, and the points are Newton-polished and checked then.

The sign of the cubic's discriminant alone gives its component count
(`component_count`, `forms.discriminant_sign`), and `analyze_cubic`
checks the sweep against it.  A one-component cubic needs no sweep to
locate a point, for every real point is on the pseudoline, so
`wall_label` and `realcubic curve` sweep only two-component cubics, and
`wall_label` reads no meet point on a one-component cubic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .algebra import (
    Interval,
    Poly,
    complex_roots,
    hom_eval,
    int_gcd,
    real_root_count,
    real_root_floats,
    real_roots,
    scaled_floats,
    sign_at,
    strip_high,
    univ_degree,
    univ_derivative,
    univ_eval,
    univ_mul,
    univ_sub,
)
from .combinat import UnionFind
from .errors import (
    ChartDegenerate,
    DegenerateConfiguration,
    InternalInconsistency,
    MultiplicityAmbiguity,
    NonConvergence,
    NotOnCurve,
    NotTransversal,
    SharedComponent,
    SingularCurve,
)
from .forms import chart_terms, discriminant_sign, form_tensor, y_resultant

PLANE_VARS = ("x", "y", "z")
AFFINE_VARS = ("x", "y")
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

CHART_ATTEMPTS = 1000            # sweep chart candidates tried per curve
LOCATE_TOL = 1e-7                # a float point's relative residual


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------

def _mat_mul_vec(M, v):
    return tuple(sum(M[i][j] * v[j] for j in range(3)) for i in range(3))


def _det3(M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _mat_inv3(M):
    """The inverse of the integer matrix M, in Fractions."""
    det = _det3(M)
    if det == 0:
        raise ValueError("singular chart matrix")
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


# ---------------------------------------------------------------------------
# chart curves
# ---------------------------------------------------------------------------

def _dense_in_y(terms: dict, d: int) -> list:
    """The coefficients of y^0, y^1, ... of the affine curve of chart terms
    of degree d, each dense in x ([] for zero), up to the degree in y."""
    cs = [[0] * (d + 1 - k) for k in range(d + 1)]
    for (ex, ey, _), c in terms.items():
        cs[ey][ex] = c
    cs = [strip_high(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _affine(G: Poly, M, terms: dict, D: int) -> Poly:
    """The affine curve (z = 1) of G in the chart M, from its chart terms
    with denominator D.  Float evaluation sums a Poly's terms in dict
    order, so they are listed in G's order in the identity chart and in
    lex order otherwise, the order that substituting the chart's rows
    gives for a chart with no zero entry."""
    keys = G.terms if M == _IDENTITY else terms
    return Poly(AFFINE_VARS, {e[:2]: Fraction(terms[e], D) for e in keys})


# ---------------------------------------------------------------------------
# chart search
# ---------------------------------------------------------------------------

def _chart_candidates(attempts: int):
    """Integer chart matrices: the identity, then random nonsingular ones
    from a fixed seed.  A longer run has the shorter one as its prefix."""
    yield _IDENTITY
    rng = random.Random(0x5eed)
    produced = 1
    while produced < attempts:
        # cycle through coefficient scales: curves with large ovals need a
        # line at infinity far from the origin to cross them only once
        bound = 3 + 2 * (produced % 5)
        M = tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                  for _ in range(3))
        if _det3(M) == 0:
            continue
        produced += 1
        yield M


def _one_point_at_infinity(T: list, M) -> bool:
    """Whether the chart M's line at infinity meets the cubic with tensor
    T in one simple real point, with x^3 and y^3 both present in the
    chart.  G(M (x, y, 0)), from the first two columns of M alone, is the
    binary cubic a3 x^3 + a2 x^2 y + a1 x y^2 + a0 y^3; it must have
    a0 a3 != 0 and a negative discriminant: squarefree, one real root."""
    terms = chart_terms(T, [row[:2] for row in M], 3)
    a = [terms.get((k, 3 - k), 0) for k in range(4)]
    if a[0] == 0 or a[3] == 0:
        return False
    disc = cubic_discriminant(*([t] for t in a))
    return bool(disc) and disc[0] < 0


def _chart_ok(cs: list):
    """(disc, folds) for the affine curve with coefficients c0..c3 in y:
    its y-discriminant dense in x and the isolating intervals of its real
    roots, when it is constant or squarefree; else None."""
    dense = cubic_discriminant(*cs)
    if univ_degree(dense) < 1:
        return dense, []
    folds = real_roots(dense)
    return None if folds is None else (dense, folds)


def cubic_discriminant(c0, c1, c2, c3) -> list:
    """c1^2 c2^2 - 4 c0 c2^3 - 4 c1^3 c3 - 27 c0^2 c3^2 + 18 c0 c1 c2 c3, the
    discriminant of c3 y^3 + c2 y^2 + c1 y + c0 dense in x: -Res(f, f_y)/c3,
    or of any c0 .. c3 multiplied as dense lists."""
    out = []
    for k, *factors in ((-1, c1, c1, c2, c2), (4, c0, c2, c2, c2),
                        (4, c1, c1, c1, c3), (27, c0, c0, c3, c3),
                        (-18, c0, c1, c2, c3)):
        out = univ_sub(out, [k * t for t in reduce(univ_mul, factors)])
    return out


# ---------------------------------------------------------------------------
# sweep data
# ---------------------------------------------------------------------------

@dataclass
class FoldPoint:
    x: Interval
    birth: bool                 # fibre count rises from 1 to 3 left to right
    pair_low: int               # index (0 or 1) of the lower merging branch
    pair_component: str = ""
    survivor_component: str = ""


@dataclass
class CurveAnalysis:
    ternary: Poly
    transform: tuple            # chart matrix M: chart coords -> input coords
    inverse: tuple
    f: Poly                     # affine curve in the chart
    coeffs: list                # D f's y^0 .. y^3 coefficients, 4 ints each
    disc_dense: list            # y-discriminant of D f, dense in x
    folds: list
    cell_samples: list          # one rational x per cell
    cell_counts: list
    components: int
    tensor: tuple               # the ternary's integer tensor (T, D)
    oval_cells: dict = field(default_factory=dict)   # cell -> (lo, hi) branch


def _fold_sign(fold_iv: Interval, A: list, N: list, disc: list, c3: int):
    """Exact sign of (y_survivor - y_double) at the fold, and the fold's
    interval as refined to decide it."""
    sign, iv = sign_at(univ_mul(A, N), disc, fold_iv)
    if sign == 0:
        raise InternalInconsistency("subresultant vanishes at a fold")
    return (-sign if c3 < 0 else sign), iv


def _coeffs_in_x(p: Poly) -> list:
    dense = [q.constant_value() for q in p.coeffs_in("x")]
    return strip_high([Fraction(c) for c in dense]) or [Fraction(0)]


def fibre_dense(p: Poly, x0: Fraction) -> list:
    """p(x0, y) as a dense univariate in y, exactly; p is in x and y."""
    ix, iy = p.vars.index("x"), p.vars.index("y")
    x0 = Fraction(x0)
    out = [Fraction(0)] * (max((e[iy] for e in p.terms), default=0) + 1)
    for e, c in p.terms.items():
        out[e[iy]] += c * x0 ** e[ix]
    return strip_high(out) or [Fraction(0)]


def component_count(G: Poly, tensor: tuple = None) -> tuple:
    """(components, tensor) for the nonsingular real plane cubic G = 0: the
    number of its real components, 1 or 2, read off the sign of its
    discriminant (`forms.discriminant_sign`), and the integer tensor
    (T, D) of G, G(v) = T(v, v, v) / D, built unless given.  Raises
    ValueError unless G is a ternary cubic form, and SingularCurve for
    singular input."""
    if len(G.vars) != 3:
        raise ValueError("expected a ternary cubic")
    if G.homogeneous_degree() != 3:
        raise ValueError("expected a homogeneous cubic")
    tensor = tensor or form_tensor(G)
    sign = discriminant_sign(tensor[0])
    if sign == 0:
        raise SingularCurve("plane section is singular")
    return (1 if sign > 0 else 2), tensor


def analyze_cubic(G: Poly, tensor: tuple = None) -> CurveAnalysis:
    """Component structure of the nonsingular real plane cubic G = 0.

    G must be an exact homogeneous cubic in three variables, and `tensor`
    an integer tensor (T, D) of G, G(v) = T(v, v, v) / D, if built.  Raises
    SingularCurve for singular input and ChartDegenerate when no usable
    sweep chart is found.  The sweep runs in the first usable chart only:
    an impossible picture there, or a component count other than the one
    the discriminant's sign gives (`component_count`), raises
    InternalInconsistency.
    """
    components, tensor = component_count(G, tensor)
    T, D = tensor
    for M in _chart_candidates(CHART_ATTEMPTS):
        if not _one_point_at_infinity(T, M):
            continue
        terms = chart_terms(T, M, 3)
        cs = _dense_in_y(terms, 3)
        ok = _chart_ok(cs)
        if ok is None:
            continue
        disc, fold_ivs = ok
        analysis = _sweep(G, M, _affine(G, M, terms, D), cs, disc, tensor,
                          fold_ivs)
        if analysis.components != components:
            raise InternalInconsistency(
                f"the sweep finds {analysis.components} components, the "
                f"discriminant's sign {components}")
        return analysis
    raise ChartDegenerate("no usable sweep chart found")


def _sweep(G: Poly, M, f: Poly, cs: list, disc: list, tensor: tuple,
           fold_ivs: list) -> CurveAnalysis:
    """The sweep of f in the chart M.  cs and disc, the integer y^0 .. y^3
    coefficients and y-discriminant, are D and D^4 times those of f for
    G's tensor (T, D): positive multiples, with the same signs and roots."""
    c0, c1, c2, (c3,) = cs

    # one rational sample per cell, strictly between consecutive fold roots
    samples = []
    if not fold_ivs:
        samples.append(Fraction(0))
    else:
        samples.append(fold_ivs[0].lo - 1)
        for a, b in zip(fold_ivs, fold_ivs[1:]):
            samples.append(Fraction(a.hi + b.lo, 2))
        samples.append(fold_ivs[-1].hi + 1)

    # each sample lies strictly between folds, so its fibre cubic has a
    # nonzero discriminant, and three real roots exactly when it is positive
    counts = [3 if hom_eval(disc, x0) > 0 else 1 for x0 in samples]
    if counts[0] != 1 or counts[-1] != 1:
        raise InternalInconsistency("unbounded cells must have one branch")
    for a, b in zip(counts, counts[1:]):
        if abs(a - b) != 2:
            raise InternalInconsistency("fold must change the fibre by two")

    # first subresultant of (f, f_y):  9*c3*f mod f_y = A y + B up to scale
    A = univ_sub([6 * c3 * t for t in c1], univ_mul([2 * t for t in c2], c2))
    B = univ_sub([9 * c3 * t for t in c0], univ_mul(c1, c2))
    # N/ (c3 A) gives y_survivor - y_double up to positive factors
    N = univ_sub([3 * c3 * t for t in B], univ_mul(c2, A))

    folds = []
    for k, iv in enumerate(fold_ivs):
        birth = counts[k] == 1
        sign, iv = _fold_sign(iv, A, N, disc, c3)
        # sign > 0: the surviving branch lies above the merging pair
        pair_low = 0 if sign > 0 else 1
        folds.append(FoldPoint(x=iv, birth=birth, pair_low=pair_low))

    uf = UnionFind()
    ncells = len(samples)
    for k, fp in enumerate(folds):
        left, right = k, k + 1
        if fp.birth:
            uf.union((right, fp.pair_low), (right, fp.pair_low + 1))
            survivor = 2 if fp.pair_low == 0 else 0
            uf.union((left, 0), (right, survivor))
        else:
            uf.union((left, fp.pair_low), (left, fp.pair_low + 1))
            survivor = 2 if fp.pair_low == 0 else 0
            uf.union((left, survivor), (right, 0))
    # the two unbounded ends meet at the single real point at infinity
    uf.union((0, 0), (ncells - 1, 0))

    classes = {}
    for cell in range(ncells):
        for branch in range(counts[cell]):
            classes.setdefault(uf.find((cell, branch)), []).append(
                (cell, branch))
    if len(classes) > 2:
        raise InternalInconsistency(
            f"{len(classes)} components in a plane cubic")
    infinite = uf.find((0, 0))
    oval_cells = {}
    components = len(classes)
    if components == 2:
        (oval_key,) = [k for k in classes if k != infinite]
        for cell, branch in classes[oval_key]:
            oval_cells.setdefault(cell, []).append(branch)
        for cell, branches in oval_cells.items():
            branches.sort()
            if len(branches) != 2 or branches[1] != branches[0] + 1:
                raise InternalInconsistency("oval branches not adjacent")
        oval_cells = {c: (b[0], b[1]) for c, b in oval_cells.items()}
        span = sorted(oval_cells)
        if span != list(range(span[0], span[-1] + 1)):
            raise InternalInconsistency("oval cells not contiguous")

    # label each fold by the component of its merging pair / survivor
    def comp_of(node):
        return "oval" if uf.find(node) != infinite else "pseudoline"

    for k, fp in enumerate(folds):
        side = k + 1 if fp.birth else k
        fp.pair_component = comp_of((side, fp.pair_low))
        survivor = 2 if fp.pair_low == 0 else 0
        fp.survivor_component = comp_of((side, survivor))

    return CurveAnalysis(
        ternary=G,
        transform=M,
        inverse=_mat_inv3(M),
        f=f,
        coeffs=[c + [0] * (4 - len(c)) for c in cs],
        disc_dense=disc,
        folds=folds,
        cell_samples=samples,
        cell_counts=counts,
        components=components,
        tensor=tensor,
        oval_cells=oval_cells,
    )


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def _cell_of(analysis: CurveAnalysis, x: Fraction):
    """Index of the cell containing x, or ('fold', k) at an exact fold;
    x splits a fold's interval that holds it."""
    below, disc = 0, analysis.disc_dense
    for k, fp in enumerate(analysis.folds):
        if x in fp.x:
            v = hom_eval(disc, x)
            if v == 0:
                return ("fold", k)
            below_x = (hom_eval(disc, fp.x.lo) > 0) != (v > 0)
            fp.x = Interval(fp.x.lo, x) if below_x else Interval(x, fp.x.hi)
            below += below_x
        elif fp.x.hi <= x:
            below += 1
    return ("cell", below)


def _chart_xy(analysis: CurveAnalysis, point):
    v = tuple(point)
    if len(v) != 3:
        raise ValueError("expected plane coordinates (3 entries)")
    exact = all(isinstance(t, (int, Fraction)) for t in v)
    if exact:
        u = _mat_mul_vec(analysis.inverse, tuple(Fraction(t) for t in v))
        if u[2] == 0:
            return None
        return (u[0] / u[2], u[1] / u[2], True)
    vf = tuple(float(t) for t in v)
    u = tuple(sum(float(analysis.inverse[i][j]) * vf[j] for j in range(3))
              for i in range(3))
    scale = max(abs(t) for t in u)
    if scale == 0:
        raise ValueError("zero vector is not a projective point")
    if abs(u[2]) < LOCATE_TOL * scale:
        return None
    return (Fraction(u[0] / u[2]), u[1] / u[2], False)


def locate(analysis: CurveAnalysis, point) -> str:
    """Which component of the curve a point lies on: 'oval' or 'pseudoline'.

    The point is given in the coordinates of the input ternary cubic.
    Exact rational points are decided exactly.  Floating input is matched
    to the nearest fibre branch, must sit within LOCATE_TOL of it, and is
    refused with MultiplicityAmbiguity when the second-nearest branch is
    less than 4 times as far.  The cell of x is exact, with no width cap
    (`_cell_of`), so its fibre count n is known; the branches are the n
    certified float fibre roots (`real_root_floats`), which fall back to
    exact isolation only next to a fold.  In a one-branch cell the two
    non-real fibre roots count as branches too: just past a fold they are
    the nearly real pair that met there.  On a one-component curve every
    point is on the pseudoline, and is only checked to lie on the curve.
    The fibre over x = a/d is d^3 D f(x, y) in integers (`hom_eval`), its
    floats over a power of two (`scaled_floats`), large for a tiny x.
    """
    got = _chart_xy(analysis, point)
    if got is None:
        # the point at infinity of the chart lies on the pseudoline
        return "pseudoline"
    x0, y0, exact = got
    fy = [hom_eval(c, x0) for c in analysis.coeffs]
    fyf = fy if exact else scaled_floats(fy)[0]     # as the check reads it
    if analysis.components == 1:
        _check_on_fibre(fyf, y0, exact)
        return "pseudoline"
    where = _cell_of(analysis, x0)

    if where[0] == "fold":
        return _locate_at_fold(analysis, where[1], fy, y0, exact)

    _check_on_fibre(fyf, y0, exact)
    cell = where[1]
    if exact:
        branch = sum(1 for r in real_roots(fy)
                     if (r.hi <= y0 and not r.is_point())
                     or (r.is_point() and r.lo < y0))
    else:
        # in a one-branch cell one np.roots of the fibre serves both the
        # brackets and the two non-real branches
        n = analysis.cell_counts[cell]
        roots = None if n == 3 else np.roots(fyf[::-1])
        mids = real_root_floats(fy, n, roots=roots)
        others = [] if n == 3 else sorted(
            roots, key=lambda r: abs(r - mids[0]))[1:]
        dists = sorted((abs(y0 - m), i) for i, m in enumerate(mids + others))
        branch = dists[0][1]
        if branch >= len(mids) or \
                dists[0][0] > 0 and dists[1][0] < 4 * dists[0][0]:
            raise MultiplicityAmbiguity("point between two fibre branches")
    pair = analysis.oval_cells.get(cell)
    if pair is not None and branch in pair:
        return "oval"
    return "pseudoline"


def _check_on_fibre(fy: list, y0, exact: bool) -> None:
    """Refuse a point off the curve with NotOnCurve: exactly, or for a
    float point when its residual in the float fibre fy exceeds LOCATE_TOL
    relative to fy's largest coefficient and to max(1, |y0|)^3."""
    if exact:
        if univ_eval(fy, y0) != 0:
            raise NotOnCurve("point does not satisfy the curve equation")
        return
    scale = max(abs(t) for t in fy) or 1.0
    if abs(univ_eval(fy, y0)) > LOCATE_TOL * scale * max(1.0, abs(y0)) ** 3:
        raise NotOnCurve("point too far from the curve")


def _locate_at_fold(analysis, k: int, fy, y0, exact) -> str:
    fp = analysis.folds[k]
    # exact fold x: the fibre has a double root y* and a simple root, whose
    # three sum to -fy[2] / fy[3]
    g = int_gcd(fy, univ_derivative(fy))
    if len(g) != 2:
        raise InternalInconsistency("fold fibre without a double root")
    ystar = Fraction(-g[0], g[1])
    ysurv = Fraction(-fy[2], fy[3]) - 2 * ystar
    if exact:
        if y0 == ystar:
            return fp.pair_component
        if y0 == ysurv:
            return fp.survivor_component
        raise NotOnCurve("point does not satisfy the curve equation")
    d_star, d_surv = abs(y0 - float(ystar)), abs(y0 - float(ysurv))
    if min(d_star, d_surv) > LOCATE_TOL * max(1.0, abs(y0)):
        raise NotOnCurve("point too far from the curve")
    return fp.pair_component if d_star <= d_surv else fp.survivor_component


def plane_form(p, degree: int, what: str) -> Poly:
    """Coerce text or Poly input to a homogeneous ternary form.

    Affine input in x, y is homogenized with z; ternary input must already
    be homogeneous of the requested degree.  `what` names the input in
    error messages.
    """
    if isinstance(p, str):
        p = Poly.parse(p, vars=PLANE_VARS)
    if not isinstance(p, Poly):
        raise TypeError(f"{what} must be text or a Poly")
    if tuple(p.vars) == AFFINE_VARS:
        p = Poly(PLANE_VARS, {(e[0], e[1], 0): c for e, c in p.terms.items()})
    if tuple(p.vars) != PLANE_VARS:
        raise ValueError(f"{what} must use variables x, y[, z]")
    if p.homogeneous_degree() == degree:
        return p
    if p.degree("z") > 0:
        raise ValueError(
            f"{what} must be homogeneous of degree {degree} when it uses z")
    if p.is_zero() or p.total_degree() > degree:
        raise ValueError(f"{what} must have degree {degree}")
    return Poly(PLANE_VARS,
                {e[:2] + (degree - e[0] - e[1],): c
                 for e, c in p.terms.items()})


def _real_points_over(p: Poly, q: Poly, dense: list, ivs: list) -> list:
    """(x, y) float pairs over the real roots of `dense`, the squarefree
    y-resultant of p and q, isolated by `ivs`, when no two common points
    share an x.  A point over a rational root is computed exactly and
    rounded once; any other is polished by Newton and must stay inside its
    root's isolating interval (NonConvergence otherwise)."""
    out = []
    for iv, x in zip(ivs, real_root_floats(dense, len(ivs), ivs)):
        if iv.is_point():
            out.append((x, _common_y(p, q, iv.lo)))
            continue
        x, y = _newton_polish(p, q, x, _common_y(p, q, x))
        if not iv.lo < Fraction(x) < iv.hi:
            raise NonConvergence("Newton left the interval of a real "
                                 "conic-cubic point")
        out.append((x, y))
    return out


@dataclass(frozen=True)
class ConicCubicMeet:
    """The six distinct intersection points of a conic and a cubic.

    `chart` maps chart coordinates to input coordinates and puts all six
    points in the affine part with distinct x.  `resultant`, the
    y-resultant of the affine conic and cubic in that chart dense in x, is
    squarefree of degree 6, and `real_count` is the number of its real
    roots (`real_root_count`).

    Each real root x carries exactly one common point, and that point is
    real: a non-real y over a real x would bring its conjugate over the
    same x.  So `real_count` is the number of real intersections, known
    before any root is isolated.  The rest waits until first read: the
    affine curves `conic` and `cubic`, built from `curves` (each form's
    chart terms and denominator), the `intervals` that isolate the real
    roots, and the points, `real_points` and `complex_points()`.
    """

    chart: tuple
    resultant: list
    real_count: int
    curves: tuple = field(repr=False, compare=False)

    @cached_property
    def conic(self) -> Poly:
        G, terms, D = self.curves[0]
        return _affine(G, self.chart, terms, D)

    @cached_property
    def cubic(self) -> Poly:
        G, terms, D = self.curves[1]
        return _affine(G, self.chart, terms, D)

    @cached_property
    def intervals(self) -> list:
        """Isolating intervals of the resultant's real roots, increasing."""
        return real_roots(self.resultant, count=self.real_count)

    @cached_property
    def real_points(self) -> list:
        """The real intersections as float triples in input coordinates."""
        M = self.chart
        return [tuple(float(M[i][0]) * u + float(M[i][1]) * v + float(M[i][2])
                      for i in range(3))
                for u, v in _real_points_over(self.conic, self.cubic,
                                              self.resultant, self.intervals)]

    def complex_points(self) -> list:
        """The non-real intersections as complex triples in input
        coordinates, to float accuracy.

        Each starts from a float root x of the resultant and the common y
        over it, and is polished by Newton on (conic, cubic) in the chart,
        which checks that each is a simple common point.  Raises
        NonConvergence when Newton does not settle.
        """
        M = self.chart
        xs = sorted(complex_roots(self.resultant),
                    key=lambda r: -abs(r.imag))[:6 - self.real_count]
        if xs and min(abs(r.imag) for r in xs) < 1e-9:
            raise InternalInconsistency("real/complex root split disagrees "
                                        "with the exact real count")
        pts = [_newton_polish(self.conic, self.cubic, x0,
                              _common_y(self.conic, self.cubic, x0))
               for x0 in xs]
        return [tuple(complex(M[i][0]) * x + complex(M[i][1]) * y
                      + complex(M[i][2]) for i in range(3))
                for x, y in pts]


def _newton_polish(p: Poly, q: Poly, x: complex, y: complex) -> tuple:
    """Newton on the affine curves p = q = 0 from (x, y), in complex floats,
    or in floats from a real start, with p and q then evaluated exactly at
    each float point.  Raises NonConvergence unless the step falls to
    rounding level: below 1e-14 relative within 30 steps, or, in complex
    floats, after them no larger than rounding alone makes it
    (`_rounding_step`)."""
    num = complex if isinstance(x, complex) else float
    jac = [[h.derivative(v) for v in AFFINE_VARS] for h in (p, q)]
    for _ in range(30):
        pt = {"x": x, "y": y}
        (a, b), (c, d) = [[num(h.eval(pt)) for h in row] for row in jac]
        if num is float:
            pt = {"x": Fraction(x), "y": Fraction(y)}
        f, g = num(p.eval(pt)), num(q.eval(pt))
        det = a * d - b * c
        if det == 0:
            break
        dx, dy = (d * f - b * g) / det, (a * g - c * f) / det
        if not np.isfinite([dx, dy]).all():     # beyond float range
            break
        x, y = x - dx, y - dy
        if max(abs(dx), abs(dy)) <= 1e-14 * max(1.0, abs(x), abs(y)):
            return x, y
    else:   # 30 finite steps: settled if the last is at the noise floor
        if num is complex and \
                max(abs(dx), abs(dy)) <= _rounding_step(p, q, jac, x, y):
            return x, y
    raise NonConvergence("Newton did not settle on a conic-cubic point")


ROUNDING_ULPS = 16               # complex float evaluation of a chart curve


def _rounding_step(p: Poly, q: Poly, jac: list, x: complex,
                   y: complex) -> float:
    """A bound on the Newton step that rounding alone makes at (x, y) when
    p and q are evaluated in complex floats: ROUNDING_ULPS units of 2^-53
    of each one's sum of term moduli, which bounds its evaluation error
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3),
    taken through the inverse Jacobian by moduli.  Over the wall pairs and
    their projective images the noise steps stay below 1.5 such units."""
    ax, ay = abs(x), abs(y)
    ep, eq = (ROUNDING_ULPS * 2.0 ** -53
              * sum(abs(float(c)) * ax ** e[0] * ay ** e[1]
                    for e, c in h.terms.items()) for h in (p, q))
    pt = {"x": x, "y": y}
    (a, b), (c, d) = [[complex(h.eval(pt)) for h in row] for row in jac]
    return max(abs(d) * ep + abs(b) * eq, abs(c) * ep + abs(a) * eq) \
        / abs(a * d - b * c)


def conic_cubic_meet(conic: Poly, cubic: Poly,
                     cubic_tensor: tuple = None) -> ConicCubicMeet:
    """Where a ternary conic and cubic meet, when they meet transversally.

    Both inputs are exact homogeneous forms in x, y, z; `cubic_tensor` is
    the cubic's `form_tensor`, if built.  Searches for a chart where all six
    intersections are affine with distinct x, so the y-resultant there has
    degree exactly 6 and is squarefree.  Raises SharedComponent when the
    curves share a component, NotTransversal when no chart has six distinct
    intersections, and ValueError when the inputs are not a conic form and
    a cubic form.
    """
    if conic.homogeneous_degree() != 2 or cubic.homogeneous_degree() != 3:
        raise ValueError("expected a ternary conic and a ternary cubic")
    Tb, Db = form_tensor(conic)
    Tc, Dc = cubic_tensor or form_tensor(cubic)
    for M in _chart_candidates(60):
        b_terms, c_terms = chart_terms(Tb, M, 2), chart_terms(Tc, M, 3)
        P, Q = _dense_in_y(b_terms, 2), _dense_in_y(c_terms, 3)
        res = y_resultant(P, Q)
        if not res:
            raise SharedComponent("conic and cubic share a component")
        if univ_degree(res) == 6:
            count = real_root_count(res)
            if count is not None:
                break
    else:
        raise NotTransversal("conic and cubic meet non-transversally")
    # Res(P / Db, Q / Dc) = Res(P, Q) / (Db^n Dc^m), m and n the y-degrees
    scale = Db ** (len(Q) - 1) * Dc ** (len(P) - 1)
    return ConicCubicMeet(M, [Fraction(t, scale) for t in res], count,
                          ((conic, b_terms, Db), (cubic, c_terms, Dc)))


def _common_y(p: Poly, q: Poly, x):
    """The y of the common point of p and q over an isolated intersection x.

    `x` is either a Fraction, which gives y exactly and rounds it once, or
    a float or complex number, which gives y to float accuracy.
    """
    if isinstance(x, Fraction):
        g = int_gcd(fibre_dense(p, x), fibre_dense(q, x))
        if len(g) != 2:
            raise DegenerateConfiguration("fibre gcd is not a single point")
        return float(Fraction(-g[0], g[1]))
    pc = [univ_eval([float(u) for u in _coeffs_in_x(c)], x)
          for c in p.coeffs_in("y")]
    qc = [univ_eval([float(u) for u in _coeffs_in_x(c)], x)
          for c in q.coeffs_in("y")]
    roots = np.roots(list(reversed(pc)))
    if not isinstance(x, complex):
        roots = [float(r.real) for r in roots if abs(r.imag) <= 1e-6]
    if len(roots) == 0:
        raise InternalInconsistency("no fibre root over an intersection x")
    return min(roots, key=lambda r: abs(univ_eval(qc, r)))
