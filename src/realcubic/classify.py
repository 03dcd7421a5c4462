"""Classification of real nonsingular affine cubic surfaces.

The projective type is read off the real line count (27, 15, 7 or 3), with
the two three-line types separated by the number of conjugation-invariant
tritangent planes.  The affine type adds the topology of the section by the
plane at infinity: number of real curve components, how many real lines meet
the oval, and, on surfaces with a spherical part, whether the oval sits on
the sphere.  All root counting along probe lines is cyclic in the projective
parameter so points at infinity need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import Poly, real_root_floats
from .combinat import CLASSES, PROJECTIVE_CLASSES, class_id_for
from .config import DEFAULT, Config
from .curve import (
    PLANE_VARS,
    CurveAnalysis,
    analyze_cubic,
    conic_cubic_meet,
    fibre_dense,
    locate,
    plane_form,
)
from .errors import (
    DegenerateConfiguration,
    InternalInconsistency,
    NotTransversal,
    SamplingInconclusive,
    Undecided,
)
from .forms import nonsingular_cubic
from .lines import (
    LineSet,
    cubic_tensor,
    cubic_values,
    line_plane_point,
    solve_lines,
    tritangent_triples,
)

AMBIENT_VARS = ("x", "y", "z", "w")

# conjugation-invariant tritangent planes per projective class; the count
# depends only on how conjugation permutes the 27 lines, so it is constant
# on each deformation class
REAL_TRITANGENT_PLANES = {"C27": 45, "C15": 15, "C7": 5, "C3a": 7, "C3b": 13}

_LINE_COUNT_CLASS = {27: "C27", 15: "C15", 7: "C7"}

PROBE_LINES = 24                 # random lines for the sphere probe
PROBE_EXTRA = 16                 # escalation when the first round ties


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
    embed: tuple                # 4x3 rational matrix, plane coords -> ambient
    free: tuple                 # ambient slots holding the plane coordinates
    pivot: int


def restrict_to_plane(F: Poly, h) -> PlaneRestriction:
    hq = tuple(Fraction(c) for c in h)
    if len(hq) != 4 or all(c == 0 for c in hq):
        raise ValueError("plane must be a nonzero 4-vector")
    pivot = max(range(4), key=lambda i: (abs(hq[i]), i))
    free = tuple(i for i in range(4) if i != pivot)
    # plane coordinate k rides in the ambient slot named AMBIENT_VARS[k]
    xs = [Poly.parse(v, vars=AMBIENT_VARS) for v in AMBIENT_VARS[:3]]
    images = {}
    acc = Poly(AMBIENT_VARS, {})
    for k, j in enumerate(free):
        images[AMBIENT_VARS[j]] = xs[k]
        acc = acc + xs[k] * Poly(AMBIENT_VARS,
                                 {(0, 0, 0, 0): -hq[j] / hq[pivot]})
    images[AMBIENT_VARS[pivot]] = acc
    G4 = F.substitute(images)
    if G4.degree("w") > 0:
        raise InternalInconsistency("plane restriction left a w term")
    G = Poly(PLANE_VARS, {e[:3]: c for e, c in G4.terms.items()})
    embed = []
    for i in range(4):
        if i == pivot:
            embed.append(tuple(-hq[j] / hq[pivot] for j in free))
        else:
            embed.append(tuple(Fraction(1) if j == i else Fraction(0)
                               for j in free))
    return PlaneRestriction(G, tuple(embed), free, pivot)


def transversal_at_infinity(F: Poly, h=(0, 0, 0, 1)) -> bool:
    """True when the plane cuts the surface in a nonsingular curve."""
    return nonsingular_cubic(restrict_to_plane(F, h).ternary)


# ---------------------------------------------------------------------------
# projective class
# ---------------------------------------------------------------------------

def real_tritangent_count(lineset: LineSet, triples=None) -> int:
    if triples is None:
        triples = tritangent_triples(lineset)
    return sum(1 for t in triples if t["real"])


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
# probe lines: fast float evaluation of F along projective segments
# ---------------------------------------------------------------------------

class _SurfaceProbe:
    def __init__(self, F: Poly, seed: int):
        self.T = cubic_tensor(F)
        self.scale = float(sum(abs(c) for c in F.terms.values()))
        self.rng = np.random.default_rng(seed)

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return cubic_values(self.T, pts)

    def segment_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of F((1-t) a + t b) as a cubic in t, low to high:
        with d = b - a they are T(a,a,a), 3 T(a,a,d), 3 T(a,d,d), T(d,d,d)."""
        d = b - a
        Ta, Td = self.T @ a, self.T @ d
        return np.array([a @ Ta @ a, 3 * (a @ Ta @ d), 3 * (a @ Td @ d),
                         d @ Td @ d])

    def real_roots_separated(self, c: np.ndarray, sep: float = 1e-7):
        """All-real-and-separated test for a probe cubic; None when unclear."""
        mag = np.abs(c).max()
        if mag == 0 or abs(c[3]) < 1e-12 * mag:
            return None                  # third root escaped to infinity
        r = np.roots(c[::-1])
        realness = np.abs(r.imag) <= 1e-7 * (1 + np.abs(r.real))
        if not realness.all():
            return sorted(r[realness].real) if realness.sum() == 1 else None
        rr = np.sort(r.real)
        if np.diff(rr).min() < sep * (1 + np.abs(rr).max()):
            return None                  # tangential contact, retry elsewhere
        return list(rr)


def _find_sphere_interior(probe: _SurfaceProbe) -> Optional[np.ndarray]:
    """A point of the open ball bounded by the spherical component.

    A projective line meets the surface in at most three points, so it
    crosses the sphere at most twice and the region it bounds meets every
    line in a single arc.  A point is inside exactly when every line
    through it sees three real intersections; candidates are midpoints of
    adjacent intersections along random probe lines.
    """
    rng = probe.rng
    for _ in range(PROBE_LINES * 20):
        a = np.append(rng.uniform(-4, 4, 3), 1.0)
        b = np.append(rng.uniform(-4, 4, 3), 1.0)
        c = probe.segment_coeffs(a, b)
        rr = probe.real_roots_separated(c)
        if rr is None or len(rr) != 3:
            continue
        for lo, hi in zip(rr, rr[1:]):
            t = 0.5 * (lo + hi)
            q = (1 - t) * a + t * b
            mag = max(1.0, float(np.abs(q).max())) ** 3
            if abs(probe.eval(q[None, :])[0]) < 1e-4 * probe.scale * mag:
                continue
            if _verify_interior(probe, q, PROBE_EXTRA + 24):
                return q
    return None


def _verify_interior(probe: _SurfaceProbe, q: np.ndarray, ndir: int) -> bool:
    rng = probe.rng
    good = 0
    for _ in range(ndir * 3):
        if good >= ndir:
            return True
        d = rng.normal(size=4)
        d[3] = 0.0                      # direction point on the far plane
        b = q + d / np.linalg.norm(d)
        c = probe.segment_coeffs(q, b)
        rr = probe.real_roots_separated(c)
        if rr is None:
            continue                    # tangential direction, resample
        if len(rr) != 3:
            return False
        good += 1
    return good >= ndir


def _point_separated_from(probe: _SurfaceProbe, q: np.ndarray,
                          p: np.ndarray) -> Optional[bool]:
    """True when p's intersection is cyclically adjacent to q along qp.

    Walking from q to the surface point p inside the region bounded by the
    sphere crosses nothing, so adjacency along one of the two arcs of the
    projective line is equivalent to p lying on the sphere.
    """
    c = probe.segment_coeffs(q, p)
    r = np.roots(c[::-1])
    near_p = np.argmin(np.abs(r - 1.0))
    if abs(r[near_p] - 1.0) > 5e-3:
        return None
    rest = np.delete(r, near_p)
    if (np.abs(rest.imag) > 1e-7 * (1 + np.abs(rest.real))).any():
        return None                     # probe line missed the sphere
    rest = rest.real
    if (np.abs(rest) < 1e-6).any() or (np.abs(rest - 1.0) < 1e-6).any():
        return None
    inside = ((rest > 0) & (rest < 1)).sum()
    if inside == 1:
        return False                    # both arcs blocked: p off the sphere
    return True                         # one arc clean: p on the sphere


def oval_in_sphere(probe: _SurfaceProbe, q: np.ndarray,
                   oval_pts: list) -> bool:
    votes = []
    for p in oval_pts:
        v = _point_separated_from(probe, q, np.asarray(p, dtype=float))
        if v is not None:
            votes.append(v)
    if not votes:
        raise SamplingInconclusive(
            "every probe from the sphere interior to the oval was tangential")
    if len(set(votes)) != 1:
        raise Undecided(f"oval placement votes disagree: {votes}")
    return votes[0]


# ---------------------------------------------------------------------------
# section geometry
# ---------------------------------------------------------------------------

def _embed_matrix(restriction: PlaneRestriction) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in restriction.embed])


def oval_curve_points(analysis: CurveAnalysis, count: int = 3) -> list:
    """Float points on the oval, in input plane coordinates."""
    cells = sorted(analysis.oval_cells)
    if not cells:
        raise ValueError("curve has no oval")
    chosen = []
    for cell in (cells[len(cells) // 2],) + tuple(cells):
        if cell not in chosen:
            chosen.append(cell)
        if len(chosen) >= count:
            break
    T = np.array([[float(c) for c in row] for row in analysis.transform])
    pts = []
    for cell in chosen:
        x0 = analysis.cell_samples[cell]
        ys = real_root_floats(fibre_dense(analysis.f, x0),
                              analysis.cell_counts[cell])
        for branch in analysis.oval_cells[cell]:
            pts.append(T @ np.array([float(x0), ys[branch], 1.0]))
    return pts


def _line_section_tally(lineset: LineSet, restriction: PlaneRestriction,
                        analysis: CurveAnalysis, h) -> dict:
    hnp = np.array([float(Fraction(c)) for c in h])
    counts = {"oval": 0, "pseudoline": 0}
    for line in lineset.lines:
        if not line.real:
            continue
        x4 = line_plane_point(line, hnp)
        u = tuple(float(np.real(x4[i])) for i in restriction.free)
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
                     cfg: Config = DEFAULT) -> SurfaceReport:
    F = as_projective_cubic(surface)
    h = parse_plane(plane)
    warnings: list = []

    restriction = restrict_to_plane(F, h)
    if not nonsingular_cubic(restriction.ternary):
        raise NotTransversal(
            "the plane at infinity meets the surface in a singular curve")

    # a full set of 27 well-separated lines doubles as the smoothness check:
    # surfaces at or near the discriminant are rejected by the solver
    lineset = solve_lines(F, cfg.lines)
    cls = projective_class(lineset, warnings)
    if lineset.real_count != PROJECTIVE_CLASSES[cls]["real_lines"]:
        raise InternalInconsistency("line count does not match class")

    analysis = analyze_cubic(restriction.ternary)
    components = analysis.components

    tally = _line_section_tally(lineset, restriction, analysis, h)
    if tally["oval"] + tally["pseudoline"] != lineset.real_count:
        raise InternalInconsistency(f"lost a line in the section tally {tally}")

    sphere_flag = None
    if cls == "C3b" and components == 2:
        probe = _SurfaceProbe(F, cfg.classify.seed)
        q = _find_sphere_interior(probe)
        if q is None:
            raise SamplingInconclusive(
                "no verified interior point of the spherical component")
        embed = _embed_matrix(restriction)
        oval_pts = [embed @ p for p in oval_curve_points(analysis)]
        sphere_flag = oval_in_sphere(probe, q, oval_pts)

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
    cubic and packages them with the one-nodal surface w*f2 + f3.  On a
    one-component cubic they are counted, not located (`ConicCubicMeet`).
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
    analysis = analyze_cubic(C)
    meet = conic_cubic_meet(B, C)
    on = {"oval": 0, "pseudoline": 0}
    if analysis.components == 1:
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
        oval_crossings=on["oval"] if analysis.components == 2 else None,
        curve_components=analysis.components,
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
