"""Surface classification pipeline: witnesses, units, rejections."""

from fractions import Fraction

import pytest

from realcubic.algebra import Poly
from realcubic.classify import (
    as_projective_cubic,
    classify_surface,
    homogenize,
    load_witnesses,
    parse_plane,
    projective_class,
    restrict_to_plane,
    transversal_at_infinity,
)
from realcubic.errors import MathematicalRejection, NotTransversal
from realcubic.lines import solve_lines

WITNESSES = load_witnesses()
AMB = ("x", "y", "z", "w")

# a nodal surface w*f2 + f3 smoothed by 1e-6*w^3: so close to the
# discriminant that one complex line comes out without a conjugate partner
NEAR_WALL = ("w*(-x^2-2*x*y+2*x*z+3*z^2) + x^3+2*x^2*y-3*x*y^2-x*y*z"
             "+2*x*z^2+2*y^3+3*y^2*z+2*y*z^2+z^3 + (1/1000000)*w^3")


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
        r = restrict_to_plane(F, (0, 0, 0, 1))
        assert r.ternary == Poly.parse("x^3+y^3+z^3", vars=("x", "y", "z"))

    def test_embedding_lands_on_plane(self):
        F = as_projective_cubic("x^3+y^3+z^3+w^3")
        h = (1, 2, 3, 5)
        r = restrict_to_plane(F, h)
        for col in range(3):
            assert sum(h[i] * r.embed[i][col] for i in range(4)) == 0

    def test_restriction_evaluates_like_surface(self):
        F = as_projective_cubic("x^3 - 2*y^3 + z^3 + w^3 + x*y*w")
        h = (1, 1, 1, 2)
        r = restrict_to_plane(F, h)
        pt = (Fraction(2), Fraction(-1), Fraction(3))
        amb = tuple(sum(r.embed[i][k] * pt[k] for k in range(3))
                    for i in range(4))
        assert F.eval(amb) == r.ternary.eval(pt)

    def test_transversality_detects_singular_section(self):
        F = as_projective_cubic("x^3+y^3+z^3+w^3")
        assert transversal_at_infinity(F, (0, 0, 0, 1))
        # the section by x + y = 0 degenerates to z^3 + w^3
        assert not transversal_at_infinity(F, (1, 1, 0, 0))

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

    def test_near_wall_surface_fails_closed(self):
        with pytest.raises(MathematicalRejection):
            classify_surface(NEAR_WALL, plane="w")


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
            rep = classify_surface(f.substitute(sub))
            assert rep.class_id == cid
