"""Surface classification pipeline: witnesses, units, rejections."""

from fractions import Fraction

import pytest

from realcubic import classify as classify_module
from realcubic import curve as curve_module
from realcubic import forms
from realcubic import lines as lines_module

from realcubic.algebra import Poly
from realcubic.classify import (
    as_projective_cubic,
    classify_surface,
    homogenize,
    line_discriminant,
    load_witnesses,
    oval_in_sphere,
    oval_interior_point,
    parse_plane,
    projective_class,
    restrict_to_plane,
    wall_label,
)
from realcubic.combinat import load_wall_graph
from realcubic.curve import analyze_cubic
from realcubic.errors import (
    DegenerateConfiguration,
    MathematicalRejection,
    MultiplicityAmbiguity,
    NearDiscriminant,
    NotTransversal,
    SingularCurve,
    Undecided,
)
from realcubic.forms import form_tensor, positive_definite
from realcubic.lines import meet_matrix, solve_lines

import classify_reference
from algebra_reference import substitute
from classify_reference import pool_entries

WITNESSES = load_witnesses()
AMB = ("x", "y", "z", "w")

# the nodal surface w*f2 + f3 lies on the wall between classes 6 and 4;
# its smoothings by +eps*w^3 and -eps*w^3 lie on either side
WALL_F2 = "-x^2-2*x*y+2*x*z+3*z^2"
WALL_F3 = "x^3+2*x^2*y-3*x*y^2-x*y*z+2*x*z^2+2*y^3+3*y^2*z+2*y*z^2+z^3"


def wall_smoothing(eps: str) -> str:
    return f"w*({WALL_F2}) + {WALL_F3} + ({eps})*w^3"


# affine images of witness 9 with the plane sent to w (perfbench/inputs.py
# transformed_entry with the generator keys "map 11 8" and "map 14 8")
WITNESS9_MAP11 = (
    "(-7974/1331)*x^3 + (-11961/1331)*x^2*y + (-2196/1331)*x^2*z"
    " + (-2949/1331)*x^2*w + (-14511/1331)*x*y^2"
    " + (-70440/1331)*x*y*z + (-37071/1331)*x*y*w"
    " + (-133938/1331)*x*z^2 + (-130998/1331)*x*z*w"
    " + (-31071/1331)*x*w^2 + (-5262/1331)*y^3"
    " + (-35397/1331)*y^2*z + (-18615/1331)*y^2*w"
    " + (-72777/1331)*y*z^2 + (-74937/1331)*y*z*w"
    " + (-37605/2662)*y*w^2 + (-6354/1331)*z^3 + (-9177/1331)*z^2*w"
    " + (-1599/2662)*z*w^2 + (1663/1331)*w^3")
WITNESS9_MAP14 = (
    "(-36288/1331)*x^3 + (-125943/1331)*x^2*y + (-47934/1331)*x^2*z"
    " + (-37797/1331)*x^2*w + (-190929/1331)*x*y^2"
    " + (-286788/1331)*x*y*z + (-259227/1331)*x*y*w"
    " + (-105624/1331)*x*z^2 + (-148422/1331)*x*z*w"
    " + (-37605/1331)*x*w^2 + (6354/1331)*y^3 + (84393/1331)*y^2*z"
    " + (14055/1331)*y^2*w + (109449/1331)*y*z^2"
    " + (60099/1331)*y*z*w + (-50673/2662)*y*w^2 + (39384/1331)*z^3"
    " + (43095/1331)*z^2*w + (11469/2662)*z*w^2 + (1663/1331)*w^3")


# affine images of witnesses 2 and 3 (classes 2 and 3) with the plane sent
# to w, from perfbench/inputs.py transformed_entry; CHANGES.md names the
# generator key of each.  A sampled sphere test put "witness 2 a" in class
# 3 at some seeds and refused the others at some or all seeds.
SPHERE_IMAGES = {
    "witness 2 a": (
        "(47/8)*x^3 + (51/16)*x^2*y + (-41/4)*x^2*z + (15/16)*x^2*w"
        " + (-13/32)*x*y^2 + 2*x*y*z + (43/16)*x*y*w + (33/8)*x*z^2"
        " + (17/4)*x*z*w + (-57/32)*x*w^2 + (47/64)*y^3 + (-1/4)*y^2*z"
        " + (445/64)*y^2*w + (-25/16)*y*z^2 + (-17/8)*y*z*w"
        " + (265/64)*y*w^2 + (-3/4)*z^3 + (35/16)*z^2*w + (23/8)*z*w^2"
        " + (75/64)*w^3"
    ),
    "witness 3 a": (
        "(-21)*x^3 + (-63)*x^2*y + (-169/2)*x^2*z + (37/2)*x^2*w"
        " + (-65)*x*y^2 + (-161)*x*y*z + 41*x*y*w + (-235/2)*x*z^2"
        " + 38*x*z*w + (-15/2)*x*w^2 + (-23)*y^3 + (-157/2)*y^2*z"
        " + (47/2)*y^2*w + (-219/2)*y*z^2 + 38*y*z*w + (-19/2)*y*w^2"
        " + (-53)*z^3 + (43/2)*z^2*w + (-5/2)*z*w^2 + 2*w^3"
    ),
    "witness 3 b": (
        "(-1)*x^3 + (41/4)*x^2*y + (-17/4)*x^2*z + 2*x^2*w + (-117/8)*x*y^2"
        " + (-31/4)*x*y*z + (5/2)*x*y*w + (83/8)*x*z^2 + (-13/2)*x*z*w"
        " + (-1)*x*w^2 + (47/8)*y^3 + (61/8)*y^2*z + (-21/8)*y^2*w"
        " + (9/8)*y*z^2 + (-15/4)*y*z*w + (17/4)*y*w^2 + (-53/8)*z^3"
        " + (59/8)*z^2*w + (-9/4)*z*w^2 + 1*w^3"
    ),
    "witness 3 c": (
        "(-3/2)*x^3 + (15/4)*x^2*y + (-43/8)*x^2*z + (39/8)*x^2*w"
        " + (-14)*x*y^2 + (45/2)*x*y*z + (-9)*x*y*w + (-21/2)*x*z^2"
        " + (49/4)*x*z*w + (-25/4)*x*w^2 + (-8)*y^3 + (-2)*y^2*z"
        " + (-7)*y^2*w + (51/4)*y*z^2 + (-3)*y*z*w + (-4)*y*w^2"
        " + (-45/8)*z^3 + (51/8)*z^2*w + (-13/4)*z*w^2 + 2*w^3"
    ),
    "witness 3 d": (
        "(-3/2)*x^3 + (-63/8)*x^2*y + (13/2)*x^2*z + (-1/2)*x^2*w"
        " + (-83/4)*x*y^2 + (79/4)*x*y*z + (-47/4)*x*y*w + (-19/2)*x*z^2"
        " + (-1)*x*z*w + (-9/2)*x*w^2 + (-21)*y^3 + (83/4)*y^2*z"
        " + (-95/4)*y^2*w + (-111/8)*y*z^2 + (31/4)*y*z*w + (-95/8)*y*w^2"
        " + (9/2)*z^3 + (3/2)*z^2*w + (9/2)*z*w^2 + (-1/2)*w^3"
    ),
    "witness 3 e": (
        "1*x^3 + (7/4)*x^2*y + (7/4)*x^2*z + (-9/4)*x^2*w + (-15/8)*x*y^2"
        " + (-23/4)*x*y*z + (-59/4)*x*y*w + (-31/8)*x*z^2 + (-59/4)*x*z*w"
        " + (-23/8)*x*w^2 + (-49/4)*y^3 + (-139/4)*y^2*z + (-23)*y^2*w"
        " + (-135/4)*y*z^2 + (-46)*y*z*w + (-37/4)*y*w^2 + (-45/4)*z^3"
        " + (-23)*z^2*w + (-37/4)*z*w^2 + (-1/2)*w^3"
    ),
    "witness 2 b": (
        "(-53/8)*x^3 + (113/8)*x^2*y + (21/2)*x^2*z + (135/16)*x^2*w"
        " + (-303/32)*x*y^2 + (-137/8)*x*y*z + (-25/2)*x*y*w"
        " + (-29/8)*x*z^2 + (-23/4)*x*z*w + (165/32)*x*w^2 + (61/32)*y^3"
        " + 7*y^2*z + (335/64)*y^2*w + (11/4)*y*z^2 + (13/16)*y*z*w"
        " + (-101/32)*y*w^2 + (3/4)*z^3 + (97/16)*z^2*w + (-9/4)*z*w^2"
        " + (105/64)*w^3"
    ),
}


@pytest.fixture(scope="module")
def reports(witness_reports):
    return {w["class_id"]: rep for w, rep in witness_reports}


class TestWitnessSuite:
    def test_fifteen_witnesses_cover_all_classes(self, reports):
        assert sorted(reports) == list(range(1, 16))
        assert all(reports[cid].class_id == cid for cid in reports)

    @pytest.mark.parametrize("record", WITNESSES,
                             ids=[f"class{w['class_id']:02d}" for w in WITNESSES])
    def test_expected_report_fields(self, reports, record):
        rep = reports[record["class_id"]]
        expected = record["expected"]
        assert rep.nonsingular and rep.transversal
        assert rep.projective_class == expected["projective_class"]
        assert rep.real_lines == expected["real_lines"]
        assert rep.curve_components == expected["curve_components"]
        assert rep.oval_line_count == expected["oval_line_count"]
        assert rep.oval_in_sphere == expected["oval_in_sphere"]
        assert rep.b0_complement == expected["b0_complement"]

    def test_exceptional_pair_separated_by_oval_count(self, reports):
        assert reports[13].oval_line_count == 16
        assert reports[14].oval_line_count == 12

    def test_disconnected_surface_probe_flags(self, reports):
        assert reports[2].oval_in_sphere is False
        assert reports[3].oval_in_sphere is True

    def test_witness_reports_carry_no_warnings(self, reports):
        assert {cid: rep.warnings for cid, rep in reports.items()
                if rep.warnings} == {}

    def test_report_dict_round_trip(self, reports):
        d = reports[15].as_dict()
        assert d["class_id"] == 15
        assert d["oval_line_count"] == 0
        assert isinstance(d["warnings"], list)


class TestInputForms:
    def test_affine_input_homogenized(self):
        F = as_projective_cubic("x^3 + y^3 + z^3 + 1")
        G = as_projective_cubic("x^3 + y^3 + z^3 + w^3")
        assert F == G

    def test_homogenize_rejects_quartic(self):
        with pytest.raises(ValueError):
            homogenize(Poly.parse("x^4 + y", vars=("x", "y", "z")))

    def test_inhomogeneous_quaternary_rejected(self):
        with pytest.raises(ValueError):
            as_projective_cubic("x^3 + w^2")

    def test_parse_plane_forms(self):
        assert parse_plane("w") == (0, 0, 0, 1)
        assert parse_plane("3*x + 3*y + 3*z + 11*w") == (3, 3, 3, 11)
        assert parse_plane((0, 1, 0, 0)) == (0, 1, 0, 0)
        assert parse_plane("x/2 - y") == (Fraction(1, 2), -1, 0, 0)

    def test_parse_plane_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            parse_plane("x^2")
        with pytest.raises(ValueError):
            parse_plane("x + 1")
        with pytest.raises(ValueError):
            parse_plane((0, 0, 0, 0))


class TestRestriction:
    def test_fermat_section_at_infinity(self):
        F = as_projective_cubic("x^3+y^3+z^3+w^3")
        r = restrict_to_plane(form_tensor(F), (0, 0, 0, 1))
        assert r.ternary == Poly.parse("x^3+y^3+z^3", vars=("x", "y", "z"))

    def test_embedding_lands_on_plane(self):
        F = as_projective_cubic("x^3+y^3+z^3+w^3")
        h = (1, 2, 3, 5)
        r = restrict_to_plane(form_tensor(F), h)
        for col in range(3):
            assert sum(h[i] * r.embed[i][col] for i in range(4)) == 0

    def test_restriction_evaluates_like_surface(self):
        F = as_projective_cubic("x^3 - 2*y^3 + z^3 + w^3 + x*y*w")
        h = (1, 1, 1, 2)
        r = restrict_to_plane(form_tensor(F), h)
        pt = (Fraction(2), Fraction(-1), Fraction(3))
        amb = tuple(sum(r.embed[i][k] * pt[k] for k in range(3))
                    for i in range(4))
        assert F.eval(amb) == r.ternary.eval(pt)

    def test_transversality_detects_singular_section(self):
        # the sweep of the section is the pipeline's transversality test
        F = as_projective_cubic("x^3+y^3+z^3+w^3")
        T = form_tensor(F)
        assert analyze_cubic(restrict_to_plane(T, (0, 0, 0, 1)).ternary)
        # the section by x + y = 0 degenerates to z^3 + w^3
        with pytest.raises(SingularCurve):
            analyze_cubic(restrict_to_plane(T, (1, 1, 0, 0)).ternary)

    @pytest.mark.parametrize("entry", range(20))
    def test_section_is_the_substituted_one_on_the_pool(self, entry):
        # witness 15's plane has four fractional coefficients
        surface, plane = pool_entries()[entry]
        F, h = as_projective_cubic(surface), parse_plane(plane)
        r = restrict_to_plane(form_tensor(F), h)
        assert r.ternary == classify_reference.restrict_to_plane(F, h)

    @pytest.mark.parametrize("plane", ["x - 3*w", "-2*x + y + z", "-w",
                                       "(-7/3)*z + (1/2)*x - w",
                                       "3*x + y - 5*z"])
    def test_section_is_the_substituted_one_for_other_pivots(self, plane):
        # negative pivot coefficients, and the section's tensor is the
        # tensor of the section
        F = as_projective_cubic(WITNESSES[14]["surface"])
        h = parse_plane(plane)
        r = restrict_to_plane(form_tensor(F), h)
        assert r.ternary == classify_reference.restrict_to_plane(F, h)
        S, D = r.tensor
        T, E = form_tensor(r.ternary)
        assert D > 0 and all(s * E == t * D for s, t in zip(S, T))

    def test_classify_rejects_non_transversal_plane(self):
        with pytest.raises(NotTransversal):
            classify_surface("x^3+y^3+z^3+w^3", plane=(1, 1, 0, 0))


class TestRejections:
    def test_nodal_surface_rejected(self):
        nodal = "4*(x^3+y^3+z^3+w^3) - (x+y+z+w)^3"
        with pytest.raises(MathematicalRejection):
            classify_surface(nodal, plane=(0, 0, 1, 2))

    def test_reducible_surface_rejected(self):
        with pytest.raises(MathematicalRejection):
            classify_surface("w*(x^2+y^2+z^2-w^2)", plane=(1, 0, 0, 0))



class TestWallCrossing:
    """Each smoothing of a nodal surface on a wall classifies to the end of
    the wall's edge on its side, or is refused; the nodal surface itself is
    refused."""

    def test_pair_lies_on_the_wall_between_six_and_four(self):
        assert wall_label(WALL_F2, WALL_F3).label == 2
        assert load_wall_graph().wall_between(6, 4) == (2,)

    @pytest.mark.parametrize("conic, error, message", [
        (WALL_F2, SingularCurve, "plane section is singular"),
        # the conic is tested first: x*y is a line pair
        ("x*y", DegenerateConfiguration, "conic is degenerate"),
    ])
    def test_bad_pair_refused(self, conic, error, message):
        # a nodal cubic, refused by its discriminant's sign before any meet
        with pytest.raises(error, match=message):
            wall_label(conic, "y^2*z - x^3 - x^2*z")

    def test_pair_with_a_nearly_double_conic_fibre(self):
        # wall_pairs(150)[99] of perfbench/inputs.py.  In the meet's chart
        # the conic's fibre over one real meet x is nearly a double root,
        # so the unpolished common point lay 6e-8 off the cubic.  The exact
        # rational points (1:0:0) and (-1:0:1) lie on the pseudoline and
        # (-1:1:1) on the oval
        conic = "2*x*y + (-3)*x*z + 3*y^2 + (-1)*y*z + (-3)*z^2"
        cubic = ("2*x^2*y + (-1)*x^2*z + 2*x*y^2 + (-3)*x*y*z + 1*x*z^2"
                 " + 2*y^3 + (-2)*y^2*z + (-3)*y*z^2 + 2*z^3")
        assert wall_label(conic, cubic).label == (4, 2)

    def test_pair_with_a_meet_point_next_to_a_fold_fails_closed(self):
        # the same pair after a projective change: one real meet point lies
        # 5e-15 past a fold of the cubic's sweep chart, on its one-branch
        # side, at the double point of the branch pair that meets there
        conic = ("(-18)*x^2 + (-57)*x*y + (-135)*x*z + (-36)*y^2"
                 " + (-122)*y*z + (-22)*z^2")
        cubic = ("18*x^2*y + 126*x^2*z + 18*x*y^2 + 78*x*y*z + (-360)*x*z^2"
                 " + 2*y^3 + (-32)*y^2*z + (-354)*y*z^2 + (-96)*z^3")
        with pytest.raises(MultiplicityAmbiguity):
            wall_label(conic, cubic)

    @pytest.mark.parametrize("eps, class_id",
                             [("1/10000", 4), ("-1/10000", 6)])
    def test_smoothing_classifies_to_its_side(self, eps, class_id):
        rep = classify_surface(wall_smoothing(eps), plane="w")
        assert rep.class_id == class_id

    @pytest.mark.parametrize("eps, class_id", [
        ("1/1000000", 4), ("-1/1000000", 6),
        ("1/100000000", 4), ("-1/100000000", 6),
    ])
    def test_close_smoothing_classifies_to_its_side_or_fails_closed(
            self, eps, class_id):
        try:
            rep = classify_surface(wall_smoothing(eps), plane="w")
        except MathematicalRejection:
            return
        assert rep.class_id == class_id

    def test_surface_on_the_wall_fails_closed(self):
        with pytest.raises(NearDiscriminant):
            classify_surface(wall_smoothing("0"), plane="w")


class TestAffineImagesOfWitness9:
    def test_image_classifies_to_nine(self):
        assert classify_surface(WITNESS9_MAP11, plane="w").class_id == 9

    def test_image_lines_meet_ten_others_and_report_is_clean(self):
        ls = solve_lines(as_projective_cubic(WITNESS9_MAP14))
        assert len(ls.lines) == 27
        assert (meet_matrix(ls.lines).sum(axis=1) == 10).all()
        rep = classify_surface(WITNESS9_MAP14, plane="w")
        assert rep.class_id == 9
        assert rep.warnings == []


class TestStability:
    def _perturbed(self, surface: str) -> Poly:
        F = as_projective_cubic(surface)
        eps = Fraction(1, 10**9)
        terms = {}
        for k, (mono, c) in enumerate(sorted(F.terms.items())):
            sign = 1 if k % 2 else -1
            terms[mono] = Fraction(c) * (1 + sign * eps)
        return Poly(AMB, terms)

    @pytest.mark.parametrize(
        "record", WITNESSES,
        ids=[f"class{w['class_id']:02d}" for w in WITNESSES])
    def test_projective_class_stable_under_1e9_perturbation(self, record):
        G = self._perturbed(record["surface"])
        lineset = solve_lines(G)
        assert projective_class(lineset) == \
            record["expected"]["projective_class"]

    def test_class_invariant_under_affine_map(self):
        # invertible change of affine chart coordinates plus translation
        plane_vars = ("x", "y", "z")
        sub = {
            "x": Poly.parse("x + y - 1", vars=plane_vars),
            "y": Poly.parse("y + 2*z", vars=plane_vars),
            "z": Poly.parse("x + z + 2", vars=plane_vars),
        }
        for cid in (5, 11):
            record = WITNESSES[cid - 1]
            assert record["plane"] == "w"
            F = as_projective_cubic(record["surface"])
            affine_terms: dict = {}
            for mono, c in F.terms.items():
                key = mono[:3]
                affine_terms[key] = affine_terms.get(key, 0) + c
            f = Poly(plane_vars, affine_terms)
            rep = classify_surface(substitute(f, sub))
            assert rep.class_id == cid


def test_classify_builds_the_surface_tensor_once(monkeypatch):
    # the section, the line solver and the sphere flag all take F's
    # tensor from classify_surface: no other form_tensor call, also on the
    # C3b classes whose sphere flag is decided
    built, calls = forms.form_tensor, []

    def counted(G):
        calls.append(G)
        return built(G)

    for module in (forms, classify_module, curve_module, lines_module):
        monkeypatch.setattr(module, "form_tensor", counted)
    flags = []
    for w in WITNESSES:
        calls.clear()
        rep = classify_surface(w["surface"], w["plane"])
        assert calls == [as_projective_cubic(w["surface"])]
        flags.append(rep.oval_in_sphere)
    assert flags.count(True) == 1 and flags.count(False) == 1


class TestSphereFlag:
    @pytest.mark.parametrize("seed", range(8))
    def test_misclassified_image_is_class_2_at_every_seed(self, seed):
        rep = classify_surface(SPHERE_IMAGES["witness 2 a"], "w", seed)
        assert rep.class_id == 2 and rep.oval_in_sphere is False

    @pytest.mark.parametrize("key, class_id", [
        ("witness 3 a", 3), ("witness 3 b", 3), ("witness 3 c", 3),
        ("witness 3 d", 3), ("witness 3 e", 3), ("witness 2 b", 2)])
    def test_refused_images_get_their_source_class(self, key, class_id):
        rep = classify_surface(SPHERE_IMAGES[key], "w")
        assert rep.class_id == class_id
        assert rep.oval_in_sphere is (class_id == 3)

    @pytest.mark.parametrize("cid, plane", [
        (2, "w"), (3, "w"), (5, "w"), (3, "10*w + x"), (3, "x + 2*y - 5*w")])
    def test_interior_point_is_on_the_plane_and_off_the_surface(self, cid,
                                                                plane):
        F = as_projective_cubic(WITNESSES[cid - 1]["surface"])
        h = parse_plane(plane)
        restriction = restrict_to_plane(form_tensor(F), h)
        r = oval_interior_point(restriction,
                                analyze_cubic(restriction.ternary))
        assert sum(a * b for a, b in zip(h, r)) == 0
        assert F.eval(r) != 0

    def test_line_discriminant_matches_sympy(self):
        sp = pytest.importorskip("sympy")
        F = as_projective_cubic(WITNESSES[2]["surface"])
        restriction = restrict_to_plane(form_tensor(F), parse_plane("w"))
        r = oval_interior_point(restriction,
                                analyze_cubic(restriction.ternary))
        k = max(range(4), key=lambda i: abs(r[i]))
        t, *d = sp.symbols("t d0 d1 d2")
        direction = d[:k] + [0] + d[k:]
        point = {sp.Symbol(v): ri + t * di
                 for v, ri, di in zip(AMB, r, direction)}
        expr = sp.sympify(str(F).replace("^", "**")).subs(point,
                                                          simultaneous=True)
        disc = sp.Poly(sp.discriminant(sp.expand(expr), t), *d)
        D = form_tensor(F)[1]
        want = {e: D ** 4 * Fraction(int(c.p), int(c.q))
                for e, c in zip(disc.monoms(), disc.coeffs())}
        assert line_discriminant(form_tensor(F)[0], r).terms == want

    def test_positive_definite_proves_and_refutes(self):
        x, y, z = (Poly.var(v, ("x", "y", "z")) for v in ("x", "y", "z"))
        assert positive_definite((x * x + y * y + z * z) ** 3) is True
        assert positive_definite(x ** 6 + y ** 6 - z ** 6) is False
        # (9x^2 + 25y^2 + 49z^2)^3 >= 27 * 105^2 x^2 y^2 z^2 (AM-GM), so
        # this is positive, with a relative minimum near 4e-14 at
        # 3|x| = 5|y| = 7|z|
        hard = 10 ** 12 * (9 * x * x + 25 * y * y + 49 * z * z) ** 3 \
            - (27 * 10 ** 12 - 1) * 105 ** 2 * x * x * y * y * z * z
        with pytest.raises(Undecided):
            positive_definite(hard)
