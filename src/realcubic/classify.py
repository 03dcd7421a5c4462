"""Classification of real nonsingular affine cubic surfaces.

The projective type is read off the real line count (27, 15, 7 or 3), with
the two three-line types separated by the number of conjugation-invariant
tritangent planes.  The affine type adds the topology of the section by the
plane at infinity: number of real curve components, how many real lines meet
the oval, and, on surfaces with a spherical part, whether the oval sits on
the sphere, which a positivity proof decides exactly (`oval_in_sphere`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import Poly, hom_eval, real_roots, refine_root
from .combinat import CLASSES, PROJECTIVE_CLASSES, class_id_for
from .curve import (
    PLANE_VARS,
    CurveAnalysis,
    analyze_cubic,
    component_count,
    conic_cubic_meet,
    cubic_discriminant,
    locate,
    plane_form,
)
from .errors import (
    DegenerateConfiguration,
    InternalInconsistency,
    NotTransversal,
    SingularCurve,
    Undecided,
)
from .forms import (
    _monomials,
    chart_terms,
    contract,
    form_tensor,
    positive_definite,
)
from .lines import (
    LineSet,
    line_plane_points,
    solve_lines,
    tritangent_triples,
)

AMBIENT_VARS = ("x", "y", "z", "w")

# conjugation-invariant tritangent planes per projective class; the count
# depends only on how conjugation permutes the 27 lines, so it is constant
# on each deformation class
REAL_TRITANGENT_PLANES = {"C27": 45, "C15": 15, "C7": 5, "C3a": 7, "C3b": 13}

_LINE_COUNT_CLASS = {27: "C27", 15: "C15", 7: "C7"}


# ---------------------------------------------------------------------------
# input handling and plane restriction
# ---------------------------------------------------------------------------

def homogenize(f: Poly) -> Poly:
    """Affine cubic in x, y, z lifted to a quaternary form with w."""
    if f.vars not in (AMBIENT_VARS, PLANE_VARS):
        raise ValueError(f"expected variables x, y, z[, w], got {f.vars}")
    deg = f.total_degree()
    if deg != 3:
        raise ValueError(f"expected a cubic, got total degree {deg}")
    terms = {}
    for e, c in f.terms.items():
        e4 = tuple(e[:3]) + ((e[3] if len(e) == 4 else 0),)
        if len(e) == 4 and e[3] != 0:
            raise ValueError("affine input must not use the variable w")
        s = sum(e4)
        terms[e4[:3] + (3 - s,)] = c
    return Poly(AMBIENT_VARS, terms)


def as_projective_cubic(surface) -> Poly:
    """Accept a Poly or string, affine (x,y,z) or homogeneous (x,y,z,w)."""
    if isinstance(surface, str):
        surface = Poly.parse(surface, vars=AMBIENT_VARS)
    if surface.vars == PLANE_VARS:
        return homogenize(surface)
    if surface.vars != AMBIENT_VARS:
        raise ValueError(f"expected variables x, y, z[, w], got {surface.vars}")
    if surface.degree("w") <= 0:
        return homogenize(surface)
    if surface.homogeneous_degree() == 3:
        return surface
    raise ValueError(
        "input must be an affine cubic in x, y, z or a homogeneous "
        "quaternary cubic")


def parse_plane(plane) -> tuple:
    """Coefficients of a plane given as a linear form, string, or 4-vector.

    Accepts "w", "3*x+3*y+3*z+11*w", a degree-1 Poly, or a sequence of
    four rationals, and returns the coefficient 4-tuple of Fractions.
    """
    if isinstance(plane, str):
        plane = Poly.parse(plane, vars=AMBIENT_VARS)
    if isinstance(plane, Poly):
        if plane.vars != AMBIENT_VARS:
            raise ValueError("plane form must use variables x, y, z, w")
        if plane.homogeneous_degree() != 1:
            raise ValueError("plane must be a nonzero homogeneous linear form")
        coeffs = [Fraction(0)] * 4
        for mono, c in plane.terms.items():
            coeffs[mono.index(1)] = Fraction(c)
        return tuple(coeffs)
    hq = tuple(Fraction(c) for c in plane)
    if len(hq) != 4 or all(c == 0 for c in hq):
        raise ValueError("plane must be a nonzero 4-vector")
    return hq


@dataclass
class PlaneRestriction:
    ternary: Poly               # section cubic in plane coordinates
    tensor: tuple               # its integer tensor, from the surface's
    embed: tuple                # 4x3 rational matrix, plane coords -> ambient
    free: tuple                 # ambient slots holding the plane coordinates
    pivot: int


def restrict_to_plane(tensor: tuple, h) -> PlaneRestriction:
    """The section by the plane h.x = 0 of the surface with the integer
    tensor (T, D).  Plane coordinate k rides in the k-th ambient slot other
    than the pivot, h's largest coefficient, whose slot gets -h_j / h_pivot
    times them: with h in integers, h_pivot times that embedding is an
    integer E, and the section's tensor T contracted with E over
    D h_pivot^3, both divided by their gcd to make D > 0."""
    hq = tuple(Fraction(c) for c in h)
    if len(hq) != 4 or all(c == 0 for c in hq):
        raise ValueError("plane must be a nonzero 4-vector")
    den = math.lcm(*[c.denominator for c in hq])
    hz = [int(c * den) for c in hq]
    pivot = max(range(4), key=lambda i: (abs(hz[i]), i))
    free = tuple(i for i in range(4) if i != pivot)
    hp = hz[pivot]
    E = [[-hz[j] if i == pivot else hp * (j == i) for j in free]
         for i in range(4)]
    T, D = tensor
    S, D = contract(T, E, 3), D * hp ** 3
    g = math.gcd(D, *S) if D > 0 else -math.gcd(D, *S)
    S, D = [t // g for t in S], D // g
    G = Poly(PLANE_VARS, {e: Fraction(k * S[f], D)
                          for e, f, k in _monomials(3, 3) if S[f]})
    embed = tuple(tuple(Fraction(c, hp) for c in row) for row in E)
    return PlaneRestriction(G, (S, D), embed, free, pivot)


# ---------------------------------------------------------------------------
# projective class
# ---------------------------------------------------------------------------

def real_tritangent_count(lineset: LineSet) -> int:
    return sum(t["real"] for t in tritangent_triples(lineset))


def projective_class(lineset: LineSet, warnings: Optional[list] = None) -> str:
    n = lineset.real_count
    nreal = real_tritangent_count(lineset)
    if n in _LINE_COUNT_CLASS:
        cls = _LINE_COUNT_CLASS[n]
        if nreal != REAL_TRITANGENT_PLANES[cls] and warnings is not None:
            warnings.append(
                f"{cls} surface shows {nreal} real tritangent planes, "
                f"expected {REAL_TRITANGENT_PLANES[cls]}")
        return cls
    if n != 3:
        raise InternalInconsistency(f"impossible real line count {n}")
    for cls in ("C3a", "C3b"):
        if nreal == REAL_TRITANGENT_PLANES[cls]:
            return cls
    raise Undecided(
        f"three real lines but {nreal} real tritangent planes matches "
        f"neither three-line type")


# ---------------------------------------------------------------------------
# section geometry
# ---------------------------------------------------------------------------

def oval_interior_point(restriction: PlaneRestriction,
                        analysis: CurveAnalysis) -> list:
    """An integer point of the plane at infinity strictly inside the oval,
    which is bounded in the sweep chart: the midpoint of the widest gap
    between the two oval branches' isolating intervals, each refined to at
    most the gap, over the sample of an oval cell."""
    found = []
    for cell, (lo, _) in analysis.oval_cells.items():
        fibre = [hom_eval(c, analysis.cell_samples[cell])
                 for c in analysis.coeffs]
        a, b = real_roots(fibre)[lo:lo + 2]     # oval branches are adjacent
        while max(a.hi - a.lo, b.hi - b.lo) > b.lo - a.hi:
            a, b = (refine_root(fibre, iv, (iv.hi - iv.lo) / 2)
                    for iv in (a, b))
        found.append((b.lo - a.hi, analysis.cell_samples[cell],
                      (a.hi + b.lo) / 2))
    _, x0, y0 = max(found)
    u = [m[0] * x0 + m[1] * y0 + m[2] for m in analysis.transform]
    r = [sum(e * v for e, v in zip(row, u)) for row in restriction.embed]
    den = math.lcm(*[c.denominator for c in r])
    return [int(c * den) for c in r]


def line_discriminant(T: list, r: list) -> Poly:
    """Delta_r(d), the discriminant of the binary cubic F(s r + t d) for d
    in the coordinate plane without r's largest coordinate, a sextic in the
    other three coordinates, times D^4 for F's integer tensor (T, D) of
    `forms.form_tensor`.

    T contracted with the columns r, e_i, e_j, e_k (`forms.chart_terms`)
    gives c0 = T(r,r,r), c1 = 3 T(r,r,d), c2 = 3 T(r,d,d) and c3 = T(d,d,d),
    multiplied as dense lists with d0^a d1^b d2^c as X^(a + 7 b):
    a + b <= 6, so no two monomials meet."""
    k = max(range(4), key=lambda i: (abs(r[i]), i))
    M = [[r[a]] + [int(a == j) for j in range(4) if j != k] for a in range(4)]
    cs = [[0] * (7 * m + 1) for m in range(4)]
    for (_, a, b, c), v in chart_terms(T, M, 3).items():
        cs[a + b + c][a + 7 * b] += v
    return Poly(PLANE_VARS, {(n % 7, n // 7, 6 - n % 7 - n // 7): v
                             for n, v in enumerate(cubic_discriminant(*cs))})


def oval_in_sphere(T: list, restriction: PlaneRestriction,
                   analysis: CurveAnalysis) -> bool:
    """Whether the oval O of the section at infinity P lies on the sphere
    S2 of a surface X whose real part is RP2 and S2, with the integer
    tensor T of `forms.form_tensor`: proved, or Undecided.

    S2 bounds an open ball B; the pseudoline lies on the RP2 part, outside
    B.  If O lies on S2, B meets P in the open disc inside O, which holds
    the point r of `oval_interior_point`; if not, S2 and B miss P.  So O
    lies on S2 exactly when r is in B, that is, when every real line
    through r meets X in three distinct real points: through B a line
    crosses S2 twice and the one-sided RP2 part an odd number of times,
    while outside B some line through r touches S2, between those in P and
    those through B.  As F(r) != 0, that is the positivity of the sextic
    `line_discriminant` at every real d (`positive_definite`).
    """
    r = oval_interior_point(restriction, analysis)
    return positive_definite(line_discriminant(T, r))


def _line_section_tally(lineset: LineSet, restriction: PlaneRestriction,
                        analysis: CurveAnalysis, h) -> dict:
    # the real lines' points in one array pass.  The lines are in the
    # coordinates x' of x_i = 2^e_i x'_i (`LineSet.scale`), where the plane
    # h.x = 0 is (2^e h).x' = 0, taken over its largest entry; each point
    # goes back to x by the same powers of two
    e = lineset.scale
    he = [Fraction(c) * Fraction(2) ** int(k) for c, k in zip(h, e)]
    top = max(abs(c) for c in he)
    hnp = np.array([float(c / top) for c in he])
    bases = np.array([line.basis for line in lineset.lines if line.real])
    free = list(restriction.free)
    counts = {"oval": 0, "pseudoline": 0}
    for u in np.ldexp(line_plane_points(bases, hnp)[:, free].real, e[free]):
        counts[locate(analysis, u)] += 1
    return counts


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

@dataclass
class SurfaceReport:
    nonsingular: bool
    transversal: bool
    real_lines: int
    projective_class: str
    curve_components: int
    oval_line_count: Optional[int]
    b0_complement: int
    oval_in_sphere: Optional[bool]
    class_id: int
    warnings: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "nonsingular": self.nonsingular,
            "transversal": self.transversal,
            "real_lines": self.real_lines,
            "projective_class": self.projective_class,
            "curve_components": self.curve_components,
            "oval_line_count": self.oval_line_count,
            "b0_complement": self.b0_complement,
            "oval_in_sphere": self.oval_in_sphere,
            "class_id": self.class_id,
            "warnings": list(self.warnings),
        }


def classify_surface(surface, plane=(0, 0, 0, 1),
                     seed: int = 0) -> SurfaceReport:
    """The deformation class of the surface with the given plane at
    infinity; `seed` draws the line solver's patches (`solve_lines`)."""
    F = as_projective_cubic(surface)
    h = parse_plane(plane)
    warnings: list = []

    # F's integer tensor, built once for the section, lines and sphere flag
    tensor = form_tensor(F)
    restriction = restrict_to_plane(tensor, h)
    # the sweep tests the section nonsingular, that is the plane transversal
    section = restriction.ternary
    try:
        analysis = None if section.is_zero() else \
            analyze_cubic(section, restriction.tensor)
    except SingularCurve:
        analysis = None
    if analysis is None:
        raise NotTransversal(
            "the plane at infinity meets the surface in a singular curve")
    components = analysis.components

    # a full set of 27 well-separated lines doubles as the smoothness check:
    # surfaces at or near the discriminant are rejected by the solver
    lineset = solve_lines(F, seed, tensor)
    cls = projective_class(lineset, warnings)
    if lineset.real_count != PROJECTIVE_CLASSES[cls]["real_lines"]:
        raise InternalInconsistency("line count does not match class")

    tally = _line_section_tally(lineset, restriction, analysis, h)
    if tally["oval"] + tally["pseudoline"] != lineset.real_count:
        raise InternalInconsistency(f"lost a line in the section tally {tally}")

    sphere_flag = (oval_in_sphere(tensor[0], restriction, analysis)
                   if cls == "C3b" and components == 2 else None)

    oval_lines = tally["oval"] if components == 2 else None
    class_id = class_id_for(cls, components,
                            oval_lines=None if cls == "C3b" else oval_lines,
                            oval_in_sphere=sphere_flag)
    if cls == "C3b":
        oval_lines = None               # count left open for these classes

    return SurfaceReport(
        nonsingular=True,
        transversal=True,
        real_lines=lineset.real_count,
        projective_class=cls,
        curve_components=components,
        oval_line_count=oval_lines,
        b0_complement=CLASSES[class_id]["b0"],
        oval_in_sphere=sphere_flag,
        class_id=class_id,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# nodal wall representatives from conic/cubic pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WallLabel:
    """Crossing record of a real conic against a nonsingular plane cubic.

    The real intersections of the two curves, split by cubic component:
    `oval_crossings` is None when the cubic is connected, and the `label`
    property then collapses to the single one-sided count.  `surface` is
    the quaternary form w*conic + cubic; its only singular point is the
    node at the affine origin, and its section at infinity is the cubic,
    so it exhibits the wall that the label names.
    """

    pseudoline_crossings: int
    oval_crossings: Optional[int]
    curve_components: int
    surface: Poly

    @property
    def label(self):
        if self.oval_crossings is None:
            return self.pseudoline_crossings
        return (self.pseudoline_crossings, self.oval_crossings)

    def as_dict(self) -> dict:
        lab = self.label
        return {
            "label": list(lab) if isinstance(lab, tuple) else lab,
            "pseudoline_crossings": self.pseudoline_crossings,
            "oval_crossings": self.oval_crossings,
            "curve_components": self.curve_components,
            "real_crossings": self.pseudoline_crossings
            + (self.oval_crossings or 0),
            "surface": str(self.surface),
        }


def wall_label(f2, f3) -> WallLabel:
    """Label of the nodal wall spanned by a conic and a transversal cubic.

    `f2` is a real conic and `f3` a nonsingular real cubic in the plane,
    each given as a ternary form in x, y, z or an affine polynomial in
    x, y (text or Poly).  The six complex intersection points must be
    distinct; tangency raises NotTransversal and a singular cubic raises
    SingularCurve.  Counts the real intersections per component of the
    cubic and packages them with the one-nodal surface w*f2 + f3.  The
    sign of the cubic's discriminant gives its component count
    (`component_count`); on a one-component cubic the intersections are
    counted (`ConicCubicMeet`), with no sweep and no point located.
    """
    B = plane_form(f2, 2, "conic")
    C = plane_form(f3, 3, "cubic")
    t = B.terms
    # nondegeneracy of the quadratic form: a rank-drop conic would give the
    # surface a singularity worse than a node
    a, b, c = t.get((2, 0, 0), 0), t.get((1, 1, 0), 0), t.get((1, 0, 1), 0)
    d, e, f = t.get((0, 2, 0), 0), t.get((0, 1, 1), 0), t.get((0, 0, 2), 0)
    det = (2 * a) * ((2 * d) * (2 * f) - e * e) \
        - b * (b * (2 * f) - e * c) + c * (b * e - (2 * d) * c)
    if det == 0:
        raise DegenerateConfiguration("conic is degenerate")
    components, tensor = component_count(C)
    analysis = analyze_cubic(C, tensor) if components == 2 else None
    meet = conic_cubic_meet(B, C, tensor)
    on = {"oval": 0, "pseudoline": 0}
    if analysis is None:
        on["pseudoline"] = len(meet.intervals)
    else:
        for point in meet.real_points:
            on[locate(analysis, point)] += 1
    if on["pseudoline"] % 2 or on["oval"] % 2:
        raise InternalInconsistency("odd crossing count against a conic")

    nodal = Poly(AMBIENT_VARS,
                 {**{mono + (1,): coef for mono, coef in B.terms.items()},
                  **{mono + (0,): coef for mono, coef in C.terms.items()}})
    return WallLabel(
        pseudoline_crossings=on["pseudoline"],
        oval_crossings=None if analysis is None else on["oval"],
        curve_components=components,
        surface=nodal,
    )


def load_witnesses() -> list:
    """The shipped per-class witness suite: one rational surface per class.

    Each record carries the surface text, the plane at infinity as a linear
    form, and the expected report fields.
    """
    import json
    from importlib import resources

    text = resources.files("realcubic.data").joinpath(
        "witnesses.json").read_text()
    return json.loads(text)["witnesses"]
