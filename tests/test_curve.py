"""Sweep analyzer and exact conic/chord utilities."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from realcubic import algebra as algebra_module
from realcubic import classify as classify_module
from realcubic import curve as curve_module
from realcubic.algebra import (
    Poly,
    hom_eval,
    real_roots,
    refine_root,
    sign_at,
    univ_degree,
    univ_eval,
    univ_mul,
)
from realcubic.classify import (
    as_projective_cubic,
    classify_surface,
    load_witnesses,
    parse_plane,
    restrict_to_plane,
)
from realcubic.curve import (
    _IDENTITY,
    _affine,
    _chart_candidates,
    _coeffs_in_x,
    _dense_in_y,
    _one_point_at_infinity,
    analyze_cubic,
    component_count,
    conic_cubic_meet,
    fibre_dense,
    locate,
    plane_form,
)
from realcubic.errors import (
    DegenerateConfiguration,
    InternalInconsistency,
    MultiplicityAmbiguity,
    NotOnCurve,
    NotTransversal,
    RealcubicError,
    SharedComponent,
    SingularCurve,
)
from realcubic.forms import (
    chart_terms,
    discriminant_sign,
    form_tensor,
    y_resultant,
)
from realcubic.lines import line_plane_points, solve_lines

from algebra_reference import (
    certified_roots,
    quadric_triple_resultant,
    resultant,
    substitute,
)
import curve_reference
from classify_reference import pool_entries
from curve_reference import (
    conic_through_five,
    nonsingular_cubic,
    null_space,
    residual_point,
    weierstrass_add,
    weierstrass_chord,
)

V = ("x", "y", "z")
AV = ("x", "y")

# a nonsingular cubic whose sweep chart has a rational fold at (1 : 0 : 1)
FOLD_CUBIC = ("x^3 - 3*x^2*y + x^2*z - 2*x*y^2 + 2*x*y*z - 3*x*z^2 + y^3"
              " - 2*y^2*z + z^3")


def weierstrass_plane_cubic(a: int, b: int) -> Poly:
    return Poly.parse(f"x^3 + ({a})*x*z^2 + ({b})*z^3 - y^2*z", vars=V)


def cubic_disc(a: int, b: int) -> int:
    return -4 * a ** 3 - 27 * b ** 2


class TestAnalyze:
    @pytest.mark.parametrize("a,b", [(-25, 0), (-4, 1), (-7, 6), (-3, 1)])
    def test_two_components_when_three_real_roots(self, a, b):
        assert cubic_disc(a, b) > 0
        out = analyze_cubic(weierstrass_plane_cubic(a, b))
        assert out.components == 2
        assert discriminant_sign(out.tensor[0]) == -1

    @pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (2, 3), (-1, 1)])
    def test_one_component_when_one_real_root(self, a, b):
        assert cubic_disc(a, b) < 0
        out = analyze_cubic(weierstrass_plane_cubic(a, b))
        assert out.components == 1
        assert discriminant_sign(out.tensor[0]) == 1

    def test_fermat_plane_cubic_is_connected(self):
        out = analyze_cubic(Poly.parse("x^3 + y^3 + z^3", vars=V))
        assert out.components == 1

    def test_cell_counts_change_by_two(self):
        out = analyze_cubic(weierstrass_plane_cubic(-25, 0))
        counts = out.cell_counts
        assert counts[0] == 1 and counts[-1] == 1
        assert all(abs(p - q) == 2 for p, q in zip(counts, counts[1:]))

    @pytest.mark.parametrize("text", [
        "x^3 - y^2*z",                 # cusp
        "x^3 + x^2*z - y^2*z",         # node
        "x*y*z",                       # three lines
        "(x^2 + y^2 - z^2)*x",         # conic and line
    ])
    def test_singular_sections_rejected(self, text):
        with pytest.raises(SingularCurve):
            analyze_cubic(Poly.parse(text, vars=V))

    def test_impossible_sweep_is_not_retried(self, monkeypatch):
        # an impossible picture in the first usable chart fails closed;
        # no other chart is tried
        sweep, calls = curve_module._sweep, []

        def fails_once(*args):
            calls.append(args[1])
            if len(calls) == 1:
                raise InternalInconsistency("impossible sweep")
            return sweep(*args)

        monkeypatch.setattr(curve_module, "_sweep", fails_once)
        with pytest.raises(InternalInconsistency):
            analyze_cubic(weierstrass_plane_cubic(-25, 0))
        assert len(calls) == 1

    def test_discriminant_sign_is_the_component_count(self):
        # the sign against the sweep's count on the witness sections, the
        # nonsingular wall cubics and random cubics with coefficients in
        # {-1, 0, 1}
        rng = random.Random("sign")
        cubics = witness_sections() + [C for _, C in wall_draws(60)]
        cubics += [random_form(rng, 3, 1) for _ in range(150)]
        seen = set()
        for G in cubics:
            if G.homogeneous_degree() != 3:
                continue
            sign = discriminant_sign(form_tensor(G)[0])
            if sign == 0:
                continue
            components = analyze_cubic(G).components
            assert sign == (1 if components == 1 else -1)
            assert component_count(G)[0] == components
            seen.add(sign)
        assert seen == {1, -1}

    def test_sweep_must_match_the_discriminant_sign(self, monkeypatch):
        # a sweep whose count disagrees with the sign fails closed
        sweep = curve_module._sweep

        def miscounts(*args):
            out = sweep(*args)
            out.components = 3 - out.components
            return out

        monkeypatch.setattr(curve_module, "_sweep", miscounts)
        for a, b in ((-25, 0), (1, 0)):
            with pytest.raises(InternalInconsistency):
                analyze_cubic(weierstrass_plane_cubic(a, b))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            analyze_cubic(Poly.parse("x^2 + y^2 + z^2", vars=V))
        with pytest.raises(ValueError):
            analyze_cubic(Poly.parse("x^3 + y^3 + z^3 + x^2", vars=V))


@pytest.fixture(scope="module")
def curve():
    return analyze_cubic(weierstrass_plane_cubic(-25, 0))


class TestLocate:
    def chord_points(self, n=8):
        """Rational points on y^2 = x^3 - 25 x via repeated chord sums."""
        a, b = Fraction(-25), Fraction(0)
        pts = [(Fraction(-4), Fraction(6))]
        gens = [(Fraction(-5), Fraction(0)), (Fraction(0), Fraction(0))]
        seen = set(pts)
        frontier = list(pts)
        while frontier and len(seen) < n:
            p = frontier.pop()
            for q in list(seen)[:4] + gens:
                s = weierstrass_add(a, b, p, q)
                if s is not None and s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return sorted(seen)

    def test_exact_points_against_x_range(self, curve):
        for (x, y) in self.chord_points(10):
            expect = "oval" if Fraction(-5) <= x <= 0 else "pseudoline"
            assert locate(curve, (x, y, Fraction(1))) == expect

    def test_float_points_agree_with_exact(self, curve):
        for (x, y) in self.chord_points(10):
            expect = "oval" if Fraction(-5) <= x <= 0 else "pseudoline"
            got = locate(curve, (float(x), float(y), 1.0))
            assert got == expect

    def test_point_at_infinity_is_on_pseudoline(self, curve):
        assert locate(curve, (0.0, 1.0, 0.0)) == "pseudoline"
        assert locate(curve, (Fraction(0), Fraction(1), Fraction(0))) \
            == "pseudoline"

    def test_fold_points(self, curve):
        one = Fraction(1)
        assert locate(curve, (Fraction(-5), Fraction(0), one)) == "oval"
        assert locate(curve, (Fraction(0), Fraction(0), one)) == "oval"
        assert locate(curve, (Fraction(5), Fraction(0), one)) == "pseudoline"

    def test_off_curve_rejected(self, curve):
        with pytest.raises(NotOnCurve):
            locate(curve, (Fraction(1), Fraction(1), Fraction(1)))
        with pytest.raises(NotOnCurve):
            locate(curve, (1.25, -3.5, 1.0))

    def test_connected_curve_locates_pseudoline(self):
        out = analyze_cubic(weierstrass_plane_cubic(1, 0))
        # (0, 0) and (4, 2*sqrt(17)) ~ rational test point (0,0) only
        assert locate(out, (Fraction(0), Fraction(0), Fraction(1))) \
            == "pseudoline"

    def test_float_point_off_a_connected_curve_rejected(self):
        # y^2 = x^3 + x + 1 has one component; (100, 3) is far off it,
        # given exactly or as floats
        out = analyze_cubic(plane_form("y^2 - x^3 - x - 1", 3, "cubic"))
        assert out.components == 1
        with pytest.raises(NotOnCurve):
            locate(out, (Fraction(100), Fraction(3), Fraction(1)))
        with pytest.raises(NotOnCurve):
            locate(out, (100.0, 3.0, 1.0))

    def test_exact_point_over_a_rational_fold(self):
        # in the sweep chart of this cubic, (1 : 0 : 1) lies over x = 3/14,
        # which is an exact root of the discriminant: the point is a fold
        out = analyze_cubic(Poly.parse(FOLD_CUBIC, vars=V))
        u = [sum(out.inverse[i][j] * t for j, t in enumerate((1, 0, 1)))
             for i in range(3)]
        assert univ_eval(out.disc_dense, u[0] / u[2]) == 0
        assert locate(out, (Fraction(1), Fraction(0), Fraction(1))) == "oval"

    def test_scaled_projective_input(self, curve):
        assert locate(curve, (Fraction(-8), Fraction(12), Fraction(2))) \
            == "oval"
        assert locate(curve, (-8.0, 12.0, 2.0)) == "oval"


class TestCertifiedFibreRoots:
    def test_witness_cell_samples(self):
        # every cell sample of the 15 witness sections: one root of the
        # fibre per certified bracket, with the midpoint on the root
        for w in load_witnesses():
            F = as_projective_cubic(w["surface"])
            section = restrict_to_plane(form_tensor(F),
                                        parse_plane(w["plane"])).ternary
            analysis = analyze_cubic(section)
            for x0, n in zip(analysis.cell_samples, analysis.cell_counts):
                fy = fibre_dense(analysis.f, x0)
                brackets = certified_roots(fy, n)
                assert brackets is not None and len(brackets) == n
                roots = [refine_root(fy, r, Fraction(1, 10 ** 30))
                         for r in real_roots(fy)]
                for b in brackets:
                    inside = [r for r in roots if b.lo < r.lo and r.hi < b.hi]
                    assert len(inside) == 1
                    assert abs(float(b.mid) - float(inside[0].mid)) < 1e-9

    def test_refused_next_to_a_fold(self, curve):
        # at the float nearest each fold on the side where the fibre has
        # three real roots, two of them about 4e-8 apart, the float roots
        # miss their brackets even after the Newton step, and locate falls
        # back to exact isolation.  The float chart round trip can carry a
        # point across the fold, where the merging pair is a nearly real
        # complex pair: locate refuses it rather than give it the survivor
        T = curve.transform
        for fp in curve.folds:
            three = 1 if fp.birth else -1

            def side_of(x):
                # sign of (x - fold), exactly
                return -sign_at([-Fraction(x), Fraction(1)],
                                curve.disc_dense, fp.x)[0]

            x = float(refine_root(curve.disc_dense, fp.x,
                                  Fraction(1, 2 ** 70)).mid)
            while side_of(x) != three:
                x = math.nextafter(x, three * math.inf)
            assert side_of(math.nextafter(x, -three * math.inf)) != three
            fy = fibre_dense(curve.f, Fraction(x))
            assert certified_roots(fy, 3) is None
            roots = sorted(float(refine_root(fy, r, Fraction(1, 10 ** 20)).mid)
                           for r in real_roots(fy))
            pair = [k for k in range(3) if k != (2 if fp.pair_low == 0 else 0)]
            for k, y in enumerate(roots):
                point = tuple(float(T[i][0]) * x + float(T[i][1]) * y
                              + float(T[i][2]) for i in range(3))
                if k in pair:
                    try:
                        assert locate(curve, point) == fp.pair_component
                    except MultiplicityAmbiguity:
                        pass
                else:
                    assert locate(curve, point) == fp.survivor_component

    def test_float_locate_makes_no_bisection(self, curve, monkeypatch):
        # the fibre roots come from certified brackets: no isolation and no
        # bisection of the fibre (the fold intervals may still be refined)
        fibre_calls = []

        def counting(name, fn):
            def wrapper(c, *args):
                if c is not curve.disc_dense:
                    fibre_calls.append(name)
                return fn(c, *args)
            return wrapper

        for module, name in ((algebra_module, "refine_root"),
                             (algebra_module, "real_roots"),
                             (curve_module, "real_roots")):
            monkeypatch.setattr(module, name, counting(
                name, getattr(module, name)))
        for (x, y) in TestLocate().chord_points(10):
            expect = "oval" if Fraction(-5) <= x <= 0 else "pseudoline"
            assert locate(curve, (float(x), float(y), 1.0)) == expect
        assert fibre_calls == []

    def test_float_locate_takes_one_np_roots_per_fibre(self, curve,
                                                       monkeypatch):
        # the brackets and the non-real branches of a one-branch cell share
        # one np.roots of the fibre
        calls = []
        roots = np.roots

        def counted(c):
            calls.append(len(c))
            return roots(c)

        monkeypatch.setattr(np, "roots", counted)
        points = TestLocate().chord_points(10)
        for (x, y) in points:
            locate(curve, (float(x), float(y), 1.0))
        assert len(calls) == len(points)

    def test_clustered_roots_far_from_zero_certify(self, monkeypatch):
        # an affine image of witness 8 with two section points whose fibre
        # roots, near -9.00, -8.94 and -8.86, float roots misplace by more
        # than the bracket; one exact Newton step puts them inside, so no
        # locate call isolates or bisects a fibre
        locates, inner = calls_inside(
            monkeypatch, (classify_module, "locate"),
            ((algebra_module, "refine_root"), (algebra_module, "real_roots"),
             (curve_module, "real_roots")))
        assert classify_surface(WITNESS_8_IMAGE, "w").class_id == 8
        assert locates and inner == []


def located(locate_fn, analysis, point):
    """What locate_fn says of the point: a component, or the error."""
    try:
        return locate_fn(analysis, point)
    except RealcubicError as exc:
        return type(exc).__name__, str(exc)


# identity sweep chart, an oval over x = 0 and three real fibre roots there
TINY_X_CUBIC = "(x^2 + y^2 - 4*z^2)*(y - 3*z) + x^3/100 + z^3/10"


class TestIntegerLocate:
    """`locate` on the integer fibre against the Fraction fibre of
    `curve_reference.locate`."""

    def test_section_points_of_the_pool(self):
        # every real line's point on the plane, as the section tally
        # computes it, for the 15 witnesses and the 5 extra planes
        n = 0
        for surface, plane in pool_entries():
            F = as_projective_cubic(surface)
            h = parse_plane(plane)
            T = form_tensor(F)
            restriction = restrict_to_plane(T, h)
            analysis = analyze_cubic(restriction.ternary, restriction.tensor)
            top = max(abs(c) for c in h)
            bases = np.array([l.basis for l in solve_lines(F, 0, T).lines
                              if l.real])
            for u in line_plane_points(
                    bases, np.array([float(c / top) for c in h])
            )[:, restriction.free].real:
                want = located(curve_reference.locate, analysis, u)
                assert located(locate, analysis, u) == want
                n += 1
        assert n == 244

    def test_chord_fold_and_off_curve_points(self, curve):
        points = [(x, y, Fraction(1)) for x, y in
                  TestLocate().chord_points(10)]
        points += [(float(x), float(y), float(z)) for x, y, z in points]
        points += [(Fraction(-5), Fraction(0), Fraction(1)),
                   (Fraction(0), Fraction(0), Fraction(1)),
                   (Fraction(5), Fraction(0), Fraction(1)),
                   (Fraction(1), Fraction(1), Fraction(1)), (1.25, -3.5, 1.0),
                   (0.0, 1.0, 0.0), (Fraction(0), Fraction(1), Fraction(0))]
        # float points next to each fold, on both sides and on each branch
        for fp in curve.folds:
            x = float(refine_root(curve.disc_dense, fp.x,
                                  Fraction(1, 2 ** 70)).mid)
            for step in range(-3, 4):
                xs = x
                for _ in range(abs(step)):
                    xs = math.nextafter(xs, math.copysign(math.inf, step))
                fy = fibre_dense(curve.f, Fraction(xs))
                for r in real_roots(fy):
                    y = float(refine_root(fy, r, Fraction(1, 10 ** 20)).mid)
                    points.append(tuple(
                        float(curve.transform[i][0]) * xs
                        + float(curve.transform[i][1]) * y
                        + float(curve.transform[i][2]) for i in range(3)))
        for point in points:
            assert located(locate, curve, point) == \
                located(curve_reference.locate, curve, point)

    def test_tiny_x(self):
        # over x = 2^-1000 the integer fibre has about 3000 bits, beyond
        # float range unless scaled by a power of two
        analysis = analyze_cubic(Poly.parse(TINY_X_CUBIC, vars=V))
        assert analysis.transform == _IDENTITY
        x = Fraction(1, 2 ** 1000)
        fy = [hom_eval(c, x) for c in analysis.coeffs]
        with pytest.raises(OverflowError):
            [float(t) for t in fy]
        got = []
        for r in real_roots(fy):
            y = float(refine_root(fy, r, Fraction(1, 10 ** 30)).mid)
            for point in ((float(x), y, 1.0), (float(x), y * (1 + 1e-6), 1.0)):
                got.append(located(locate, analysis, point))
                assert got[-1] == located(curve_reference.locate, analysis,
                                          point)
        assert got[::2] == ["oval", "oval", "pseudoline"]


def calls_inside(monkeypatch, outer, inner):
    """Wrap the (module, name) pair outer and each pair in inner; return
    the list of outer calls and the list of inner calls made during one."""
    outer_calls, inner_calls, depth = [], [], []

    def wrap(module, name, fn):
        def wrapper(*args, **kwargs):
            if (module, name) != outer:
                if depth:
                    inner_calls.append(name)
                return fn(*args, **kwargs)
            outer_calls.append(name)
            depth.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                depth.pop()
        monkeypatch.setattr(module, name, wrapper)

    for module, name in (outer,) + tuple(inner):
        wrap(module, name, getattr(module, name))
    return outer_calls, inner_calls


# transformed_entry(witness 8 with plane x, random.Random("issue7 3 7"))
# from perfbench/inputs.py
WITNESS_8_IMAGE = (
    "2*x^3 + (-15)*x^2*y + (-30)*x^2*z + (-24)*x^2*w + (-141/2)*x*y^2"
    " + (-54)*x*y*z + (-96)*x*y*w + 60*x*z^2 + 48*x*z*w + (-179/4)*y^3"
    " + 57*y^2*z + (-159/2)*y^2*w + 132*y*z^2 + 108*y*z*w + (-18)*y*w^2"
    " + (-16)*z^3 + (-24)*z^2*w + (-24)*z*w^2 + (-8)*w^3")


class TestSweepAlgebra:
    def test_closed_form_discriminant_is_the_resultant(self):
        # Res(f, f_y) = -c3 Disc on the sweep chart of each witness section
        for w in load_witnesses():
            F = as_projective_cubic(w["surface"])
            section = restrict_to_plane(form_tensor(F),
                                        parse_plane(w["plane"])).ternary
            analysis = analyze_cubic(section)
            f, c3 = analysis.f, analysis.f.terms[(0, 3)]
            res = _coeffs_in_x(resultant(f, f.derivative("y"), "y"))
            # disc_dense is that of D f, for the tensor's D
            D = analysis.tensor[1]
            assert res == [-c3 * Fraction(t, D ** 4)
                           for t in analysis.disc_dense]

    def test_discriminant_sign_is_the_fibre_count(self):
        # on every cell sample of the witness sections and of nonsingular
        # wall cubics: three real fibre roots exactly where the
        # y-discriminant is positive
        cubics = witness_sections() + [C for _, C in wall_draws(12)
                                       if nonsingular_cubic(C)]
        assert len(cubics) > 20
        for G in cubics:
            analysis = analyze_cubic(G)
            for x0, n in zip(analysis.cell_samples, analysis.cell_counts):
                fy = fibre_dense(analysis.f, x0)
                assert n == len(real_roots(fy))
                assert n == (3 if univ_eval(analysis.disc_dense, x0) > 0
                             else 1)

    def test_sweep_isolates_no_fibre(self, monkeypatch):
        # real_roots sees only y-discriminants of the charts tried, which
        # have degree 6 in x, and the last is that of the sweep chart
        seen = record_real_roots(monkeypatch)
        for G in witness_sections()[:5] + [weierstrass_plane_cubic(-25, 0)]:
            seen.clear()
            out = analyze_cubic(G)
            assert seen and all(univ_degree(c) == 6 for c in seen)
            ratio = Fraction(seen[-1][-1]) / out.disc_dense[-1]
            assert ratio > 0
            assert [Fraction(t) for t in seen[-1]] == \
                [ratio * t for t in out.disc_dense]

    def test_fold_sign_isolates_no_roots(self, monkeypatch):
        # the side of each fold comes from sign_at: no real_roots call
        signs, inner = calls_inside(
            monkeypatch, (curve_module, "_fold_sign"),
            ((algebra_module, "real_roots"), (curve_module, "real_roots")))
        out = analyze_cubic(weierstrass_plane_cubic(-25, 0))
        assert len(signs) == len(out.folds) > 0 and inner == []


def record_real_roots(monkeypatch) -> list:
    """Wrap real_roots where the curve layer calls it; the returned list
    collects the polynomial of each call."""
    seen = []
    for module in (algebra_module, curve_module):
        def counting(c, *args, _fn=module.real_roots):
            seen.append(list(c))
            return _fn(c, *args)
        monkeypatch.setattr(module, "real_roots", counting)
    return seen


def witness_sections() -> list:
    return [restrict_to_plane(form_tensor(as_projective_cubic(w["surface"])),
                              parse_plane(w["plane"])).ternary
            for w in load_witnesses()]


def random_form(rng, degree: int, height: int) -> Poly:
    """A ternary form with integer coefficients uniform in [-height,
    height]: the distribution of the conics and cubics of
    perfbench/inputs.py's wall pairs, unfiltered."""
    monos = [(a, b, degree - a - b) for a in range(degree + 1)
             for b in range(degree + 1 - a)]
    return Poly(V, {e: rng.randint(-height, height) for e in monos})


def wall_draws(count: int) -> list:
    rng = random.Random("walls")
    return [(random_form(rng, 2, h), random_form(rng, 3, h))
            for h in itertools.islice(itertools.cycle((3, 60, 10 ** 4)),
                                      count)]


def chart_image(G: Poly, M) -> Poly:
    """G(M v) by substitution: input variable j becomes row j of M."""
    xs = [Poly.var(v, V) for v in V]
    return substitute(G, {V[j]: sum((xs[k] * M[j][k] for k in range(3)),
                                   Poly(V, {})) for j in range(3)})


class TestIntegerCharts:
    def test_chart_change_is_the_substitution(self):
        # on the witness sections and on conic-cubic draws, for the first
        # 20 candidate charts; the first two columns give the chart's
        # binary form at infinity
        forms = witness_sections() + [G for pair in wall_draws(15)
                                      for G in pair]
        for G in forms:
            d = G.homogeneous_degree()
            T, D = form_tensor(G)
            for M in itertools.islice(_chart_candidates(20), 20):
                image = chart_image(G, M)
                got = {e: Fraction(c, D)
                       for e, c in chart_terms(T, M, d).items()}
                assert got == image.terms
                at_infinity = chart_terms(T, [row[:2] for row in M], d)
                assert {e: Fraction(c, D) for e, c in at_infinity.items()} \
                    == {e[:2]: c for e, c in image.terms.items() if e[2] == 0}
                assert _affine(G, M, chart_terms(T, M, d), D).terms == {
                    e[:2]: c for e, c in substitute(image, {"z": 1}).terms
                    .items()}

    def test_tensor_clears_denominators(self):
        # the shares are 1/2, 1/30 (over 6 slots) and -7/9 (over 3)
        G = Poly.parse("x^3/2 + x*y*z/5 - 7/3*y^2*z", vars=V)
        T, D = form_tensor(G)
        assert all(isinstance(t, int) for t in T) and D == 90
        for v in ((1, 2, 3), (-2, 5, 1), (Fraction(1, 3), 0, 4)):
            assert sum(T[9 * i + 3 * j + k] * v[i] * v[j] * v[k]
                       for i in range(3) for j in range(3)
                       for k in range(3)) / Fraction(D) == G.eval(v)

    def test_screen_at_infinity_is_the_old_test(self):
        # a0 a3 != 0 and a negative discriminant exactly when the binary
        # cubic is squarefree with one real root
        rng = random.Random(11)
        cubics = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(300)]
        for _ in range(100):
            r, s, t = (rng.randint(-5, 5) for _ in range(3))
            k = rng.choice((-3, -1, 1, 2))
            cubics.append([k * c for c in univ_mul(
                univ_mul([-r, 1], [-r, 1]), [-s, 1])])     # repeated root
            cubics.append([k * c for c in univ_mul(
                univ_mul([-r, 1], [-s, 1]), [-t, 1])])     # three real roots
            cubics.append([k * c for c in univ_mul(
                [-r, 1], [s * s + 1, 2 * t, 1])])          # one real root
        outcomes = set()
        for a in cubics:
            G = Poly(V, {(k, 3 - k, 0): c for k, c in enumerate(a)})
            G = G + Poly(V, {(0, 0, 3): 1})
            old = a[0] != 0 and a[3] != 0 and real_roots(a) is not None \
                and len(real_roots(a)) == 1
            got = _one_point_at_infinity(form_tensor(G)[0], _IDENTITY)
            assert got == old, a
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_y_resultant_is_the_sylvester_resultant(self):
        pairs = wall_draws(12) + [
            (Poly.parse("x*y - z^2", vars=V),                 # no y^2
             Poly.parse("y^2*z - x^3 + 3*x*z^2 - z^3", vars=V)),
            (Poly.parse("x^2 + y^2 - 4*z^2", vars=V),
             Poly.parse("x^3 + x*z^2 + y*z^2", vars=V)),     # no y^3
            (Poly.parse("x^2 - z^2", vars=V),                 # no y
             Poly.parse("y^2*z - x^3 + 3*x*z^2 - z^3", vars=V)),
            (Poly.parse("x^2 + y^2 - 4*z^2", vars=V),
             Poly.parse("x^3 - x*z^2", vars=V))]              # no y
        for B, C in pairs:
            (Tb, Db), (Tc, Dc) = form_tensor(B), form_tensor(C)
            for M in _chart_candidates(4):
                bt, ct = chart_terms(Tb, M, 2), chart_terms(Tc, M, 3)
                P, Q = _dense_in_y(bt, 2), _dense_in_y(ct, 3)
                scale = Db ** (len(Q) - 1) * Dc ** (len(P) - 1)
                want = _coeffs_in_x(resultant(_affine(B, M, bt, Db),
                                              _affine(C, M, ct, Dc), "y"))
                got = [Fraction(t, scale) for t in y_resultant(P, Q)]
                assert (got or [Fraction(0)]) == want

    def test_y_resultant_vanishes_on_a_shared_component(self):
        B = Poly.parse("x^2 + y^2 - 4*z^2", vars=V)
        C = Poly.parse("(x^2 + y^2 - 4*z^2)*(y - 3*z)", vars=V)
        (Tb, _), (Tc, _) = form_tensor(B), form_tensor(C)
        for M in _chart_candidates(4):
            assert y_resultant(_dense_in_y(chart_terms(Tb, M, 2), 2),
                                _dense_in_y(chart_terms(Tc, M, 3), 3)) == []

    def test_singularity_test_is_the_triple_resultant(self):
        rng = random.Random(3)
        curves = [Poly.parse(t, vars=V) for t in
                  ("y^2*z - x^3", "y^2*z - x^3 - x^2*z", "x*y*z")]
        curves += witness_sections()
        curves += [random_form(rng, 3, 1) for _ in range(150)]
        seen = set()
        for G in curves:
            if G.homogeneous_degree() != 3:
                continue
            parts = [G.derivative(v) for v in V]
            old = quadric_triple_resultant(*parts, V) != 0
            assert nonsingular_cubic(G) == old
            seen.add(old)
        assert seen == {True, False}
        assert not nonsingular_cubic(Poly(V, {}))


# transformed_entry(witness_pool(root)[14], random.Random("stress 4 14"))
# from perfbench/inputs.py: an affine image of witness 15
STRESS_IMAGE_15 = (
    "(-12216487352983161972211971649/919092576260242984746313728)*x^3"
    " + (703357954696683194630944115/7756055495867029407141888)*x^2*y"
    " + (-4769062443688512409647238505/612728384173495323164209152)*x^2*z"
    " + (4425151084720323495597923167/55702580379408665742200832)*x^2*w"
    " + (17624951897260899439347863/196355835338405807775744)*x*y^2"
    " + (1102258256975777848121137003/7756055495867029407141888)*x*y*z"
    " + (-608765425761389569715142319/7756055495867029407141888)*x*y*w"
    " + (902344328656866186560437741/111405160758817331484401664)*x*z^2"
    " + (44642105379262748070132786013/612728384173495323164209152)*x*z*w"
    " + (47743573626284511646679558279/1225456768346990646328418304)*x*w^2"
    " + (-1339909022484233579575189/14913101418106770210816)*y^3"
    " + (2930270789197941701481775/392711670676811615551488)*y^2*z"
    " + (-99725768458676639126327971/392711670676811615551488)*y^2*w"
    " + (1385262735981797520707263523/31024221983468117628567552)*y*z^2"
    " + (-2130954467822644816473702407/15512110991734058814283776)*y*z*w"
    " + (-2871984851553509355019493989/31024221983468117628567552)*y*w^2"
    " + (31874143742073738779215188871/7352740610081943877970509824)*z^3"
    " + (18428477810941438511620090085/2450913536693981292656836608)*z^2*w"
    " + (2532153757974190722349966495/2450913536693981292656836608)*z*w^2"
    " + (48054457608918867634802546861/7352740610081943877970509824)*w^3")


class TestLongChartSearch:
    def test_stress_image_classifies(self):
        # the first usable chart of its section at infinity is candidate
        # 487 of _chart_candidates
        assert classify_surface(STRESS_IMAGE_15, "w").class_id == 15

    def test_rejected_charts_get_no_full_chart_change(self, monkeypatch):
        screened, changed = [], []
        screen, change = (curve_module._one_point_at_infinity,
                          curve_module.chart_terms)

        def counting_screen(T, M):
            ok = screen(T, M)
            screened.append((M, ok))
            return ok

        def counting_change(T, M, d):
            if len(M[0]) == 3:
                changed.append(M)
            return change(T, M, d)

        monkeypatch.setattr(curve_module, "_one_point_at_infinity",
                            counting_screen)
        monkeypatch.setattr(curve_module, "chart_terms", counting_change)
        F = as_projective_cubic(STRESS_IMAGE_15)
        section = restrict_to_plane(form_tensor(F), parse_plane("w")).ternary
        out = analyze_cubic(section)
        assert len(screened) == 488
        assert out.transform == list(_chart_candidates(488))[487]
        assert changed == [M for M, ok in screened if ok]
        assert len(changed) < len(screened)


class TestConicThroughFive:
    def test_recovers_parabola(self):
        pts = [(t, t * t) for t in map(Fraction, (-2, -1, 0, 1, 3))]
        q = conic_through_five(pts)
        # proportional to y z - x^2
        assert q.terms.keys() == {(2, 0, 0), (0, 1, 1)}
        ratio = -q.terms[(2, 0, 0)] / q.terms[(0, 1, 1)]
        assert ratio == 1

    def test_circle_points_recover_circle(self):
        def circ(t: Fraction):
            d = 1 + t * t
            return ((1 - t * t) / d, 2 * t / d)
        pts = [circ(Fraction(k)) for k in (-2, -1, 0, 1, 3)]
        q = conic_through_five(pts)
        for k in (5, 7):
            x, y = circ(Fraction(1, k))
            assert q.eval({"x": x, "y": y, "z": Fraction(1)}) == 0

    def test_four_collinear_is_degenerate(self):
        pts = [(Fraction(k), Fraction(0)) for k in range(4)]
        pts.append((Fraction(1), Fraction(2)))
        with pytest.raises(DegenerateConfiguration):
            conic_through_five(pts)

    def test_repeated_point_is_degenerate(self):
        pts = [(Fraction(k), Fraction(k * k)) for k in (0, 1, 2, 2)]
        pts.append((Fraction(5), Fraction(1)))
        with pytest.raises(DegenerateConfiguration):
            conic_through_five(pts)


PARABOLA = plane_form("y - x^2", 2, "conic")


def affine_points(meet) -> list:
    return [(u / w, v / w) for u, v, w in meet.real_points]


def cubic_through_parabola_points(ts, rng):
    """A cubic through the points (t, t^2) that does not contain the
    parabola itself."""
    mons = [e for e in itertools.product(range(4), repeat=2) if sum(e) <= 3]
    rows = [[(t ** e[0]) * ((t * t) ** e[1]) for e in mons] for t in ts]
    basis = null_space(rows, len(mons))
    for _ in range(40):
        ws = [rng.randint(-5, 5) for _ in basis]
        vec = [sum(w * b[i] for w, b in zip(ws, basis))
               for i in range(len(mons))]
        f = Poly(AV, {e: c for e, c in zip(mons, vec) if c != 0})
        if f.is_zero() or f.total_degree() != 3:
            continue
        if f.degree("y") == 0:
            continue
        try:
            meet = conic_cubic_meet(PARABOLA, plane_form(f, 3, "cubic"))
        except (SharedComponent, NotTransversal):
            continue
        if len(meet.real_points) == 6:
            return f
    raise AssertionError("could not build a test cubic")


class TestResidualPoint:
    def test_drop_one_round_trip(self):
        rng = random.Random(20240817)
        done = 0
        while done < 100:
            ts = sorted(rng.sample(range(-12, 13), 6))
            ts = [Fraction(t) for t in ts]
            try:
                f = cubic_through_parabola_points(ts, rng)
            except AssertionError:
                continue
            for drop in range(6):
                five = [(t, t * t) for i, t in enumerate(ts) if i != drop]
                try:
                    x6, y6 = residual_point(f, five)
                except DegenerateConfiguration:
                    break
                assert (x6, y6) == (ts[drop], ts[drop] ** 2)
            else:
                done += 1

    def test_rejects_point_off_curve(self):
        f = Poly.parse("y^2 - x^3 + 25*x", vars=AV)
        pts = [(Fraction(-4), Fraction(6)), (Fraction(0), Fraction(0)),
               (Fraction(-5), Fraction(0)), (Fraction(5), Fraction(0)),
               (Fraction(1), Fraction(1))]
        with pytest.raises(NotOnCurve):
            residual_point(f, pts)


class TestConicCubicIntersection:
    def test_transversal_count(self):
        rng = random.Random(7)
        ts = [Fraction(t) for t in (-3, -2, -1, 1, 2, 4)]
        f = cubic_through_parabola_points(ts, rng)
        meet = conic_cubic_meet(PARABOLA, plane_form(f, 3, "cubic"))
        got = sorted(round(x, 6) for x, _ in affine_points(meet))
        assert got == [float(t) for t in ts]

    def test_symmetric_pair_split_by_shear(self):
        # circle and symmetric cubic: the real intersections are one
        # (x, +-y) pair, which the meet's chart puts over distinct x
        conic = plane_form("x^2 + y^2 - 8", 2, "conic")
        cubic = plane_form("y^2 - x^3 + 25*x", 3, "cubic")
        pts = affine_points(conic_cubic_meet(conic, cubic))
        assert len(pts) == 2
        (x1, y1), (x2, y2) = sorted(pts, key=lambda p: p[1])
        assert abs(x1 - x2) < 1e-9
        assert abs(y1 + y2) < 1e-9

    def test_shared_component_detected(self):
        # the circle is a component of the cubic
        conic = plane_form("x^2 + y^2 - 4", 2, "conic")
        cubic = plane_form("(x^2 + y^2 - 4)*(y - 3)", 3, "cubic")
        with pytest.raises(SharedComponent):
            conic_cubic_meet(conic, cubic)

    def test_tangential_contact_is_degenerate(self):
        conic = plane_form("x^2 + y^2 - 25", 2, "conic")
        cubic = plane_form("y^2 - x^3 + 25*x", 3, "cubic")
        with pytest.raises(NotTransversal):
            conic_cubic_meet(conic, cubic)


class TestConicCubicMeet:
    @staticmethod
    def value(form: Poly, p) -> complex:
        scale = max(abs(t) for t in p)
        return complex(form.eval({v: t / scale for v, t in zip(V, p)}))

    @pytest.mark.parametrize("conic,real", [
        ("x^2 + y^2 - 4", 6),
        ("x^2 + y^2 - 100", 2),
        ("x^2 + y^2 + 1", 0),
    ])
    def test_six_points_on_both_curves(self, conic, real):
        C = plane_form("y^2 - x^3 + 3*x - 1", 3, "cubic")
        B = plane_form(conic, 2, "conic")
        meet = conic_cubic_meet(B, C)
        assert len(meet.real_points) == real
        for p in meet.real_points:
            assert all(isinstance(t, float) for t in p)
            assert abs(self.value(B, p)) < 1e-9
            assert abs(self.value(C, p)) < 1e-9
        nonreal = meet.complex_points()
        assert len(nonreal) == 6 - real
        for p in nonreal:
            assert abs(self.value(B, p)) < 1e-9
            assert abs(self.value(C, p)) < 1e-9
            assert max(abs(t.imag) for t in p) > 1e-6

    def test_points_match_the_affine_intersection(self):
        C = plane_form("y^2 - x^3 + 3*x - 1", 3, "cubic")
        B = plane_form("x^2 + y^2 - 4", 2, "conic")
        # y^2 = 4 - x^2 turns the cubic into (x + 1)(x^2 - 3) = 0
        r3 = 3 ** 0.5
        affine = [(-1.0, r3), (-1.0, -r3), (r3, 1.0), (r3, -1.0),
                  (-r3, 1.0), (-r3, -1.0)]
        got = affine_points(conic_cubic_meet(B, C))
        assert len(got) == 6
        for x0, y0 in got:
            assert min(max(abs(x0 - x1), abs(y0 - y1))
                       for x1, y1 in affine) < 1e-9

    @pytest.mark.parametrize("conic,cubic,charts", [
        # a curve pair symmetric in y: the identity chart's resultant,
        # here (x + 1)^2 (x^2 - 3)^2, has degree 6 but repeated roots, so
        # a second chart is isolated
        ("x^2 + y^2 - 4", "y^2 - x^3 + 3*x - 1", 2),
        ("x^2 + x*y + y^2 - 4", "y^2 - x^3 + 3*x - 1", 1),
        # a degree-5 identity resultant is skipped without isolation
        ("2*x*y - 3*x*z + 3*y^2 - y*z - 3*z^2",
         "2*x^2*y - x^2*z + 2*x*y^2 - 3*x*y*z + x*z^2 + 2*y^3 - 2*y^2*z"
         " - 3*y*z^2 + 2*z^3", 1),
    ])
    def test_one_isolation_per_degree_six_chart(self, monkeypatch, conic,
                                                cubic, charts):
        seen = record_real_roots(monkeypatch)
        meet = conic_cubic_meet(plane_form(conic, 2, "conic"),
                                plane_form(cubic, 3, "cubic"))
        assert len(seen) == charts
        assert all(univ_degree(c) == 6 for c in seen)
        assert [Fraction(t) for t in seen[-1]] == \
            [Fraction(seen[-1][-1]) / meet.resultant[-1] * t
             for t in meet.resultant]

    def test_connected_cubics_count_their_meet(self, monkeypatch):
        # on the one-component cubics among the wall draws, the real roots
        # of the meet's resultant number its real points, which all lie on
        # the pseudoline; wall_label reads that count and computes no point
        # and no sweep.  A two-component cubic gets one sweep
        pairs, ovals = [], []
        for B, C in wall_draws(60):
            try:
                meet, analysis = conic_cubic_meet(B, C), analyze_cubic(C)
                classify_module.wall_label(B, C)
            except RealcubicError:
                continue
            if analysis.components == 1:
                assert len(meet.intervals) == len(meet.real_points)
                assert all(locate(analysis, p) == "pseudoline"
                           for p in meet.real_points)
                pairs.append((B, C, len(meet.intervals)))
            else:
                ovals.append((B, C))
        assert len(pairs) > 20 and any(n for _, _, n in pairs) and ovals
        labels, inner = calls_inside(
            monkeypatch, (classify_module, "wall_label"),
            ((classify_module, "analyze_cubic"), (classify_module, "locate"),
             (curve_module, "_real_points_over")))
        for B, C, n in pairs:
            assert classify_module.wall_label(B, C).pseudoline_crossings == n
        assert len(labels) == len(pairs) and inner == []
        for B, C in ovals:
            inner.clear()
            classify_module.wall_label(B, C)
            assert inner.count("analyze_cubic") == 1

    def test_tangent_conic_not_transversal(self):
        C = plane_form("y^2 - x^3 + x", 3, "cubic")
        B = plane_form("(x-2)^2 + y^2 - 1", 2, "conic")
        with pytest.raises(NotTransversal):
            conic_cubic_meet(B, C)

    def test_shared_component_detected(self):
        B = plane_form("y - x^2", 2, "conic")
        C = plane_form("(y - x^2)*(x + 7)", 3, "cubic")
        with pytest.raises(SharedComponent):
            conic_cubic_meet(B, C)


class TestPlaneForm:
    def test_affine_input_is_homogenized(self):
        assert plane_form("y^2 - x^3 + x", 3, "cubic") == \
            Poly.parse("y^2*z - x^3 + x*z^2", vars=V)

    def test_homogeneous_input_kept(self):
        G = Poly.parse("x^2 + y^2 - z^2", vars=V)
        assert plane_form(G, 2, "conic") == G

    @pytest.mark.parametrize("text", ["x^3 + y", "x^2 + y*z^2", "x*y*z*z"])
    def test_wrong_degree_rejected(self, text):
        with pytest.raises(ValueError):
            plane_form(text, 2, "conic")


class TestWeierstrass:
    def curve_through(self, p, q):
        (x1, y1), (x2, y2) = p, q
        a = ((y1 * y1 - x1 ** 3) - (y2 * y2 - x2 ** 3)) / (x1 - x2)
        b = y1 * y1 - x1 ** 3 - a * x1
        return a, b

    def test_chord_points_stay_on_curve(self):
        rng = random.Random(99)
        for _ in range(50):
            x1, x2 = rng.randint(-9, 9), rng.randint(-9, 9)
            if x1 == x2:
                continue
            p = (Fraction(x1), Fraction(rng.randint(1, 9)))
            q = (Fraction(x2), Fraction(rng.randint(1, 9)))
            a, b = self.curve_through(p, q)
            r = weierstrass_chord(a, b, p, q)
            assert r is not None
            x3, y3 = r
            assert y3 * y3 == x3 ** 3 + a * x3 + b

    def test_group_sum_assoc(self):
        rng = random.Random(5)
        done = 0
        while done < 50:
            x1, x2 = rng.randint(-9, 9), rng.randint(-9, 9)
            if x1 == x2:
                continue
            p = (Fraction(x1), Fraction(rng.randint(1, 9)))
            q = (Fraction(x2), Fraction(rng.randint(1, 9)))
            a, b = self.curve_through(p, q)
            r = weierstrass_add(a, b, p, p)      # 2P
            lhs = weierstrass_add(a, b, weierstrass_add(a, b, p, q), r)
            rhs = weierstrass_add(a, b, p, weierstrass_add(a, b, q, r))
            assert lhs == rhs
            done += 1

    def test_identity_and_inverse(self):
        a, b = Fraction(-25), Fraction(0)
        p = (Fraction(-4), Fraction(6))
        assert weierstrass_add(a, b, p, None) == p
        assert weierstrass_add(a, b, None, p) == p
        minus = (p[0], -p[1])
        assert weierstrass_add(a, b, p, minus) is None

    def test_off_curve_rejected(self):
        with pytest.raises(NotOnCurve):
            weierstrass_chord(Fraction(1), Fraction(1),
                              (Fraction(0), Fraction(5)),
                              (Fraction(1), Fraction(2)))
