"""Line solver tests against closed forms and rank-based oracles."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import lines_reference
from algebra_reference import substitute
from realcubic import lines as lines_module
from realcubic.algebra import CANONICAL_VARS, Poly
from realcubic.classify import as_projective_cubic, load_witnesses
from realcubic.errors import LineInPlane, NearDiscriminant
from realcubic.forms import form_tensor
from realcubic.lines import (
    ATTEMPTS,
    DEDUPE_TOL,
    STRAGGLERS,
    LineSet,
    PluckerLine,
    _K,
    _MONOMIAL_INDEX,
    _complete,
    _conjugate_pairs,
    _monomial_values,
    _patch_coordinates,
    _solve_batched,
    balancing_exponents,
    cubic_tensor,
    cubic_values,
    fermat_lines_closed_form,
    fermat_surface,
    input_plucker,
    line_plane_points,
    meet_matrix,
    plucker_distances,
    patch_matrix,
    solve_lines,
    tritangent_triples,
)
from lines_reference import (
    clebsch_surface,
    conjugate_plucker,
    meet_form,
    normalize_plucker,
    plucker_distance,
    plucker_from_basis,
    plucker_residual,
)


# an affine image of witness 12 whose solve at seed 0 needs a second patch
TWO_PATCH_IMAGE = (
    "(37/4)*x^3 + (-219/4)*x^2*y + (-339/2)*x^2*z + (291/4)*x^2*w"
    " + (111/4)*x*y^2 + 285*x*y*z + (-375/2)*x*y*w + 75*x*z^2"
    " + (-111)*x*z*w + (99/4)*x*w^2 + (-57/4)*y^3 + (-27/2)*y^2*z"
    " + (-141/4)*y^2*w + 225*y*z^2 + (-291)*y*z*w + (273/4)*y*w^2"
    " + 150*z^3 + (-249)*z^2*w + (249/2)*z*w^2 + (-75/4)*w^3")


# nonsingular, with coefficients beyond float range: x = 10^(-400/3) x'
# makes it Fermat plus a 10^-133 multiple of x' y z
HUGE_SURFACE = f"{10 ** 400}*x^3 + y^3 + z^3 + w^3 + x*y*z"


def random_cubic(seed: int) -> Poly:
    rng = random.Random(seed)
    mons = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
    terms = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in mons}
    return Poly(CANONICAL_VARS, terms)


def rounded_tensor(F: Poly) -> np.ndarray:
    """The float tensor the line solver uses for F."""
    return cubic_tensor(form_tensor(F)[0])


def tensor_scale(F: Poly) -> float:
    """s with F(x) = s T(x, x, x) for T = rounded_tensor(F)."""
    T, D = form_tensor(F)
    return max(map(abs, T)) / D


def lines_meet_rank_oracle(l1, l2) -> bool:
    """Two lines in P3 meet iff their four spanning points are coplanar."""
    stacked = np.vstack([l1.basis, l2.basis])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return sv[-1] < 1e-7 * sv[0]


def point_on_line(point: np.ndarray, line) -> bool:
    stacked = np.vstack([line.basis, point])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return sv[-1] < 1e-8 * sv[0]


def surface_value(F: Poly, point: np.ndarray) -> float:
    pt = point / np.linalg.norm(point)
    return float(abs(complex(F.eval([complex(t) for t in pt]))))


class TestPluckerBasics:
    def test_plucker_relation_holds_for_spans(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            p = plucker_from_basis(u, v)
            assert plucker_residual(p) < 1e-12

    def test_normalize_makes_largest_coordinate_one(self):
        p = np.array([2j, 1.0, -3.0, 0.5, 0.0, 1.0], dtype=complex)
        q = normalize_plucker(p)
        assert abs(q[2] - 1.0) < 1e-15
        assert np.abs(q).max() <= 1.0 + 1e-12

    def test_distance_is_phase_invariant(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=6) + 1j * rng.normal(size=6)
        phase = np.exp(0.7j)
        assert plucker_distance(p, phase * p) < 1e-14
        q = rng.normal(size=6) + 1j * rng.normal(size=6)
        d1 = plucker_distance(p, q)
        d2 = plucker_distance(phase * p, np.exp(-1.1j) * q)
        assert abs(d1 - d2) < 1e-12

    def test_meet_form_detects_intersecting_spans(self):
        # two lines through a common point
        a = np.array([1.0, 2.0, -1.0, 0.5])
        l1 = plucker_from_basis(a, np.array([0.0, 1.0, 1.0, 0.0]))
        l2 = plucker_from_basis(a, np.array([1.0, 0.0, 0.0, 1.0]))
        assert abs(meet_form(l1, l2)) < 1e-12
        # generic skew pair
        l3 = plucker_from_basis(np.array([1.0, 0, 0, 0]),
                                np.array([0, 1.0, 0, 0]))
        l4 = plucker_from_basis(np.array([0, 0, 1.0, 0]),
                                np.array([0, 0, 0, 1.0]))
        assert abs(meet_form(l3, l4)) > 0.5


@pytest.fixture(scope="module")
def fermat() -> LineSet:
    return solve_lines(fermat_surface())


@pytest.fixture(scope="module")
def clebsch() -> LineSet:
    return solve_lines(clebsch_surface())


class TestFermat:
    def test_count_and_reality(self, fermat):
        assert len(fermat.lines) == 27
        assert fermat.real_count == 3
        assert len(fermat.conj_pairs) == 12

    def test_matches_closed_form(self, fermat):
        closed = [normalize_plucker(plucker_from_basis(b[0], b[1]))
                  for b in fermat_lines_closed_form()]
        assert len(closed) == 27
        for line in fermat.lines:
            best = min(plucker_distance(line.plucker, q) for q in closed)
            assert best < 1e-9
        # and the matching is a bijection
        matched = set()
        for line in fermat.lines:
            k = min(range(27),
                    key=lambda m: plucker_distance(line.plucker, closed[m]))
            matched.add(k)
        assert len(matched) == 27

    def test_residuals(self, fermat):
        assert max(l.residual for l in fermat.lines) < 1e-10

    def test_closed_form_reality_split(self):
        closed = fermat_lines_closed_form()
        real = sum(
            1 for b in closed
            if np.abs(normalize_plucker(
                plucker_from_basis(b[0], b[1])).imag).max() < 1e-12)
        assert real == 3

    def test_three_real_lines_are_coplanar_and_pairwise_meet(self, fermat):
        real = [l for l in fermat.lines if l.real]
        for l1, l2 in itertools.combinations(real, 2):
            assert lines_meet_rank_oracle(l1, l2)
        stacked = np.vstack([l.basis for l in real])
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert sv[-1] < 1e-10 * sv[0]

    def test_tritangent_census(self, fermat):
        trips = tritangent_triples(fermat)
        assert len(trips) == 45
        per_line = [0] * 27
        for t in trips:
            for m in t["lines"]:
                per_line[m] += 1
        assert per_line == [5] * 27

    def test_meet_matrix_is_the_meet_form(self, fermat):
        M = meet_matrix(fermat.lines)
        for i, li in enumerate(fermat.lines):
            for j, lj in enumerate(fermat.lines):
                assert M[i, j] == (i != j and abs(
                    meet_form(li.plucker, lj.plucker)) < 1e-6)

    def test_distances_are_the_projection_residual(self, fermat):
        P = np.array([l.plucker for l in fermat.lines])
        for line in fermat.lines:
            q = conjugate_plucker(line)
            d = plucker_distances(P, q)
            assert d.shape == (27,)
            qh = q / np.linalg.norm(q)
            for k, p in enumerate(P):
                ph = p / np.linalg.norm(p)
                r = np.linalg.norm(ph - np.vdot(qh, ph) * qh)
                assert abs(d[k] - r) < 1e-15

    def test_meet_graph_regular_of_degree_ten(self, fermat):
        M = meet_matrix(fermat.lines)
        assert (M.sum(axis=1) == 10).all()
        assert (M == M.T).all()
        assert not M.diagonal().any()


class TestClebsch:
    def test_all_real(self, clebsch):
        assert len(clebsch.lines) == 27
        assert clebsch.real_count == 27
        assert clebsch.conj_pairs == []

    def test_residuals(self, clebsch):
        assert max(l.residual for l in clebsch.lines) < 1e-10

    def test_tritangent_census(self, clebsch):
        trips = tritangent_triples(clebsch)
        assert len(trips) == 45
        assert all(t["real"] for t in trips)

    def test_lines_lie_on_surface(self, clebsch):
        F = clebsch_surface()
        rng = np.random.default_rng(11)
        for line in clebsch.lines:
            u, v = line.basis
            for _ in range(3):
                s, t = rng.normal(size=2)
                assert surface_value(F, s * u + t * v) < 1e-9


def test_start_system_is_built_once(monkeypatch):
    # the Fermat tensor and start lines come from import time
    def unused():
        raise AssertionError("start system rebuilt in a solve")
    monkeypatch.setattr(lines_module, "fermat_surface", unused)
    monkeypatch.setattr(lines_module, "fermat_lines_closed_form", unused)
    assert len(solve_lines(clebsch_surface()).lines) == 27


class TestTimingBudget:
    def test_reference_surfaces_within_ten_seconds(self):
        t0 = time.time()
        solve_lines(fermat_surface())
        solve_lines(clebsch_surface())
        assert time.time() - t0 < 10.0


class TestRandomSurfaces:
    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_structure(self, seed):
        F = random_cubic(seed)
        ls = solve_lines(F)
        assert len(ls.lines) == 27
        assert ls.real_count in (3, 7, 15, 27)
        assert max(l.residual for l in ls.lines) < 1e-10
        # meet form agrees with the rank oracle on every pair
        M = meet_matrix(ls.lines)
        for i in range(27):
            for j in range(i + 1, 27):
                assert M[i, j] == lines_meet_rank_oracle(
                    ls.lines[i], ls.lines[j])
        assert (M.sum(axis=1) == 10).all()
        assert len(tritangent_triples(ls)) == 45

    def test_conjugate_pairing_covers_complex_lines(self):
        ls = solve_lines(random_cubic(7))
        paired = set()
        for i, j in ls.conj_pairs:
            paired.update((i, j))
            ci = conjugate_plucker(ls.lines[i])
            assert plucker_distance(ci, ls.lines[j].plucker) < 1e-8
        real_idx = {i for i, l in enumerate(ls.lines) if l.real}
        assert paired | real_idx == set(range(27))
        assert 2 * len(ls.conj_pairs) + len(real_idx) == 27

    def test_determinism(self):
        F = random_cubic(19)
        a = solve_lines(F)
        b = solve_lines(F)
        for la, lb in zip(a.lines, b.lines):
            assert np.array_equal(la.plucker, lb.plucker)

    def test_singular_surface_rejected(self):
        # a cone: every line through the vertex lies on it
        F = Poly.parse("x^3 + y^3 + z^3")
        with pytest.raises(NearDiscriminant):
            solve_lines(F)

    def test_line_left_unsettled_by_an_ill_conditioned_patch(self):
        # an affine image of witness 12 (27 real lines): the first patch
        # is so ill-conditioned at one line that Newton leaves it with a
        # small residual but 1.7e-7 off the real line, which then reads
        # as complex; that solution must count as lost, not as a line
        ls = solve_lines(Poly.parse(TWO_PATCH_IMAGE))
        assert ls.real_count == 27

    def test_complex_line_without_partner_rejected(self, fermat):
        # drop the conjugate partner of one complex line
        i, j = fermat.conj_pairs[0]
        lines = [l for m, l in enumerate(fermat.lines) if m != j]
        with pytest.raises(NearDiscriminant, match="no conjugate partner"):
            _conjugate_pairs(lines, 1e-6)

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            solve_lines(Poly.parse("x^2 + y^2"))
        with pytest.raises(ValueError):
            solve_lines(Poly.parse("x^3 + y"))


def random_patch(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


# the six coordinate charts (pivot columns i < j) as permutation patches,
# and one random complex patch
PAIRS = list(itertools.combinations(range(4), 2))
PATCHES = [np.eye(4)[[i, j] + [m for m in range(4) if m not in (i, j)]]
           for i, j in PAIRS] + [random_patch(29)]
PATCH_IDS = [f"chart{i}{j}" for i, j in PAIRS] + ["random"]


# (s : t) nodes at which the restriction of F to a line is sampled; F(s u + t v)
# is the binary cubic sum_m e_m s^(3-m) t^m
ST_NODES = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)])
ST_BASIS = np.array([[s ** (3 - m) * t ** m for m in range(4)]
                     for s, t in ST_NODES])


def patch_equations(F: Poly, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The four patch equations at (a, b, c, d) = x, read off from F.eval on
    the line spanned by A0 + a A2 + b A3 and A1 + c A2 + d A3."""
    u = np.array([1.0, 0.0, x[0], x[1]]) @ A
    v = np.array([0.0, 1.0, x[2], x[3]]) @ A
    vals = [complex(F.eval([complex(c) for c in s * u + t * v]))
            for s, t in ST_NODES]
    return np.linalg.solve(ST_BASIS, vals)


class TestFusedEvaluation:
    """The tracker evaluates each patch's 4 equations and 16 Jacobian
    entries through one monomial basis and the matrix `patch_matrix` builds
    from the cubic's tensor; each column must agree with the polynomial it
    stands for, evaluated here without that matrix."""

    @pytest.mark.parametrize("A", PATCHES, ids=PATCH_IDS)
    @pytest.mark.parametrize("F", [clebsch_surface(), random_cubic(7)],
                             ids=["clebsch", "random7"])
    def test_matches_eval_many(self, F, A):
        rng = np.random.default_rng(17)
        X = (rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))) \
            * rng.uniform(0.1, 3.0, size=(40, 1))
        got = _monomial_values(X) @ patch_matrix(rounded_tensor(F), A) \
            * tensor_scale(F)
        assert got.shape == (40, 20)
        h = 1e-5
        for x, row in zip(X, got):
            eqs = patch_equations(F, A, x)
            assert np.abs(row[:4] - eqs).max() <= 1e-12 * np.abs(eqs).max()
            # column 4 + 4 m + n: derivative of equation m in unknown n
            jac = np.array([(patch_equations(F, A, x + h * e)
                             - patch_equations(F, A, x - h * e)) / (2 * h)
                            for e in np.eye(4)]).T
            err = np.abs(row[4:].reshape(4, 4) - jac).max()
            assert err <= 1e-7 * np.abs(jac).max()

    def test_permutation_patch_is_the_coordinate_chart(self):
        # pivot columns (0, 2): rows e0 + a e1 + b e3 and e2 + c e1 + d e3,
        # so the Fermat equations are 1 + a^3 + b^3, 3 (a^2 c + b^2 d),
        # 3 (a c^2 + b d^2) and 1 + c^3 + d^3
        C = patch_matrix(rounded_tensor(fermat_surface()), PATCHES[1])
        abcd = ("a", "b", "c", "d")
        eqs = [Poly.parse(text, vars=abcd) for text in (
            "1 + a^3 + b^3", "3*a^2*c + 3*b^2*d", "3*a*c^2 + 3*b*d^2",
            "1 + c^3 + d^3")]
        polys = eqs + [eq.derivative(v) for eq in eqs for v in abcd]
        want = np.zeros_like(C)
        for col, poly in enumerate(polys):
            for e, cf in poly.terms.items():
                want[_MONOMIAL_INDEX[e], col] = cf
        assert np.array_equal(C, want)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_sparse_product_is_the_dense_one(self, seed):
        # C(F) = K T_A summed over K's nonzeros, against the dense product
        rng = np.random.default_rng(seed)
        T = rng.normal(size=(4, 4, 4))
        T = sum(T.transpose(p) for p in itertools.permutations(range(3)))
        A = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
        TA = np.einsum("ijk,pi,qj,rk->pqr", T, A, A, A)
        want = (_K @ TA.reshape(64)).reshape(-1, 20)
        got = patch_matrix(T, A)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("seed", [29, 31, 37])
    def test_fermat_start_points_solve_fermat_system(self, seed):
        A = random_patch(seed)
        X = _patch_coordinates(fermat_lines_closed_form(), A)
        assert X.shape == (27, 4)
        C = patch_matrix(rounded_tensor(fermat_surface()), A)
        res = np.abs(_monomial_values(X) @ C[:, :4]).max()
        mag = np.abs(C[:, :4]).max() * max(1.0, np.abs(X).max()) ** 3
        assert res <= 1e-12 * mag


class TestCubicTensor:
    @pytest.mark.parametrize("F", [clebsch_surface(), random_cubic(19)],
                             ids=["clebsch", "random19"])
    def test_symmetric(self, F):
        T = rounded_tensor(F)
        assert T.shape == (4, 4, 4)
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(T, T.transpose(axes))

    @pytest.mark.parametrize("F", [clebsch_surface(), random_cubic(19)],
                             ids=["clebsch", "random19"])
    def test_values_match_eval(self, F):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
        got = cubic_values(rounded_tensor(F), X) * tensor_scale(F)
        want = np.array([complex(F.eval([complex(t) for t in x])) for x in X])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_largest_entry_is_one_past_float_range(self):
        # 10^400 F has the tensor of F, and no entry overflows
        F = random_cubic(19)
        big = F * Poly(CANONICAL_VARS, {(0, 0, 0, 0): 10 ** 400})
        T = rounded_tensor(big)
        assert np.abs(T).max() == 1.0
        assert np.array_equal(T, rounded_tensor(F))

    def test_identity_scaling_within_float_range(self):
        big = random_cubic(19) * Poly(CANONICAL_VARS,
                                      {(0, 0, 0, 0): 10 ** 400})
        for F in witness_surfaces() + [random_cubic(7), big]:
            assert balancing_exponents(form_tensor(F)[0]).tolist() == [0] * 4

    def test_balanced_tensor_is_the_scaled_surface(self):
        # x = 2^-443 x' carries 10^400 x^3 to about x'^3, and x y z to a
        # 10^-133 multiple of x' y z
        T, _ = form_tensor(Poly.parse(HUGE_SURFACE))
        e = balancing_exponents(T)
        assert e.tolist() == [-443, 0, 0, 0]
        shift = [-443 * ijk.count(0) for ijk in
                 itertools.product(range(4), repeat=3)]
        exact = [Fraction(t) * Fraction(2) ** k for t, k in zip(T, shift)]
        top = max(map(abs, exact))
        want = np.array([float(t / top) for t in exact])
        assert cubic_tensor(T, e).tobytes() == want.tobytes()

    def test_huge_surface_lines_in_the_input_coordinates(self):
        F = Poly.parse(HUGE_SURFACE)
        ls = solve_lines(F)
        assert ls.scale.tolist() == [-443, 0, 0, 0] and ls.real_count == 3
        P = input_plucker(ls)
        assert np.abs(np.abs(P).max(axis=1) - 1).max() < 1e-15
        for line, p in zip(ls.lines, P):
            B = np.ldexp(line.basis.real, ls.scale) \
                + 1j * np.ldexp(line.basis.imag, ls.scale)
            assert plucker_distance(p, plucker_from_basis(*B)) < 1e-12
            if not line.real:
                continue
            # the real lines lie on F, evaluated exactly
            for point in line.real_points():
                x = [Fraction(t) for t in np.ldexp(point, ls.scale)]
                size = sum(abs(c * math.prod(t ** k for t, k in zip(x, exps)))
                           for exps, c in F.terms.items())
                assert abs(F.eval(x)) < 1e-12 * size


    def test_rounds_as_the_fraction_route(self):
        # each entry t / top of ints is correctly rounded, as Fraction's is
        huge = Poly.parse(f"{10 ** 400}*x^3 + y^3 + z^3 + w^3 + x*y*z")
        for F in witness_surfaces() + [huge]:
            T, _ = form_tensor(F)
            top = max(map(abs, T))
            want = np.array([float(Fraction(t, top)) for t in T])
            assert rounded_tensor(F).tobytes() == want.tobytes()


class TestPatchAttempts:
    """Each attempt tracks the 27 Fermat lines, mapped into a fresh patch,
    and completes the lines from tritangent planes; lines still missing
    send the solver to the next patch, up to ATTEMPTS."""

    def _lossy_track(self, monkeypatch, keep, lossy_calls):
        starts = []
        track = lines_module._track

        def lossy(C0, C1, gamma, X):
            # the start points are the Fermat lines: they solve C0
            res = np.abs(_monomial_values(X) @ C0[:, :4]).max()
            starts.append((len(X), res))
            out = track(C0, C1, gamma, X)
            return out[keep] if len(starts) <= lossy_calls else out

        monkeypatch.setattr(lines_module, "_track", lossy)
        return starts

    def test_lost_path_is_found_in_the_same_patch(self, monkeypatch):
        starts = self._lossy_track(monkeypatch, slice(1, None), 1)
        ls = solve_lines(clebsch_surface())
        assert len(ls.lines) == 27 and ls.real_count == 27
        assert [n for n, _ in starts] == [27]
        assert max(res for _, res in starts) < 1e-10

    def test_next_patch_when_the_completion_cannot_finish(self, monkeypatch):
        # one line spans no plane with another: nothing to complete from
        starts = self._lossy_track(monkeypatch, slice(0, 1), 1)
        ls = solve_lines(clebsch_surface())
        assert len(ls.lines) == 27 and ls.real_count == 27
        assert [n for n, _ in starts] == [27, 27]

    def test_gives_up_after_fixed_attempts(self, monkeypatch):
        starts = self._lossy_track(monkeypatch, slice(0, 0), ATTEMPTS)
        with pytest.raises(NearDiscriminant, match="found 0 separated lines"):
            solve_lines(clebsch_surface())
        assert [n for n, _ in starts] == [27] * ATTEMPTS


class TestCompletion:
    """Lines left out of a solved set come back as the residual lines of
    tritangent planes, through the endgame and the tests of a tracked
    line."""

    def test_dropped_lines_come_back(self):
        surfaces = [fermat_surface(), clebsch_surface()] + witness_surfaces()
        for n, F in enumerate(surfaces):
            ls = solve_lines(F)
            found = line_arrays(ls)
            T = rounded_tensor(F)
            A = lines_module._start_system(0, 0)[0]
            C1 = patch_matrix(T, A)
            rng = random.Random(f"completion {n}")
            drops = [[k] for k in range(27)] \
                + [rng.sample(range(27), STRAGGLERS) for _ in range(8)]
            for drop in drops:
                keep = np.setdiff1d(np.arange(27), drop)
                got = _complete(tuple(a[keep] for a in found), T, A, C1,
                                float(np.abs(T).sum()))
                assert len(got[0]) == 27
                assert np.array_equal(got[0][:len(keep)], found[0][keep])
                D = plucker_distances(found[0][drop], got[0][len(keep):])
                match = D.argmin(axis=1)
                assert sorted(match.tolist()) == list(range(len(drop)))
                assert D[np.arange(len(drop)), match].max() < 1e-10
                assert got[2][len(keep):][match].tolist() \
                    == found[2][drop].tolist()

    def test_tracking_stops_with_the_stragglers(self, monkeypatch):
        # the tracker hands the endgame all but at most STRAGGLERS paths,
        # and on some witness leaves paths to the completion
        events = []

        def logged(name, f):
            def wrapped(*args):
                events.append((name, len(args[-1])))    # the points X
                return f(*args)
            return wrapped

        for name in ("_track", "_endgame"):
            monkeypatch.setattr(lines_module, name, logged(
                name, getattr(lines_module, name)))
        for F in witness_surfaces():
            solve_lines(F)
        # each track's own endgame is the call logged right after it
        handed = [events[k + 1][1] for k, (name, _) in enumerate(events)
                  if name == "_track"]
        assert min(handed) >= 27 - STRAGGLERS and min(handed) < 27


class TestLinePlanePoint:
    def test_point_lies_on_line_and_plane(self):
        ls = solve_lines(fermat_surface())
        rng = np.random.default_rng(2)
        for line in ls.lines[:8]:
            h = rng.normal(size=4)
            (x,) = line_plane_points(np.array([line.basis]), h)
            assert point_on_line(x, line)
            assert abs(x @ h) < 1e-8 * np.linalg.norm(h)

    def test_line_inside_plane_detected(self):
        ls = solve_lines(clebsch_surface())
        line = ls.lines[0]
        # plane spanned by the line and one outside point
        u, v = line.basis
        outside = np.array([1.0, 2.0, 3.0, 5.0])
        stacked = np.vstack([u, v, outside])
        _, _, vt = np.linalg.svd(stacked)
        h = vt[-1]
        with pytest.raises(LineInPlane):     # one such line refuses all
            line_plane_points(np.array([ls.lines[1].basis, line.basis]), h)

    def test_real_points_span_real_line(self):
        ls = solve_lines(clebsch_surface())
        for line in ls.lines[:5]:
            a, b = line.real_points()
            assert not np.iscomplexobj(a) and not np.iscomplexobj(b)
            p = plucker_from_basis(a.astype(complex), b.astype(complex))
            assert plucker_distance(p, line.plucker) < 1e-8


# ---------------------------------------------------------------------------
# the batched bookkeeping against the per-line loops, and the endgame
# ---------------------------------------------------------------------------

def witness_surfaces() -> list:
    """The 15 witness surfaces: the line solves of the 20 pool entries of
    the benchmark, whose 5 extra entries reuse witness surfaces."""
    return [as_projective_cubic(w["surface"]) for w in load_witnesses()]


def seeded_image(F: Poly, seed: int) -> Poly:
    """F after a seeded integer change of the four coordinates."""
    rng = random.Random(f"image {seed}")
    while True:
        M = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if round(np.linalg.det(np.array(M, dtype=float))):
            break
    return substitute(F, {v: Poly(CANONICAL_VARS, {
        tuple(int(k == j) for k in range(4)): M[i][j] for j in range(4)})
        for i, v in enumerate(CANONICAL_VARS)})


def assert_same_lines(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.real == b.real
        assert np.abs(a.plucker - b.plucker).max() < 1e-12
        assert np.abs(a.basis - b.basis).max() < 1e-12
        # residuals of true lines are rounding noise, near 1e-17
        assert a.residual == pytest.approx(b.residual, rel=1e-6, abs=1e-15)


def as_lines(arrays: tuple) -> list:
    """The line arrays (plucker, basis, real, residual) as PluckerLines."""
    return [PluckerLine(p, b, bool(r), float(res)) for p, b, r, res in
            zip(*arrays)]


def line_arrays(ls: LineSet) -> tuple:
    """A line set's lines as the solver's arrays."""
    return (np.array([l.plucker for l in ls.lines]),
            np.array([l.basis for l in ls.lines]),
            np.array([l.real for l in ls.lines]),
            np.array([l.residual for l in ls.lines]))


@pytest.fixture(scope="module")
def bookkeeping():
    """Solve the witness surfaces and seeded images of five of them, with
    each patch's `_new_lines` checked against the per-line loop, once as
    tracked and once with every solution given twice; returns the line
    sets of the solves that succeed and the number of patches checked."""
    batched = lines_module._new_lines
    patches = []

    def both(S, A, T, norm, found, tol):
        for sols in (S, np.vstack([S, S])):
            assert_same_lines(as_lines(batched(sols, A, T, norm, found, tol)),
                              lines_reference.new_lines(sols, A, T, norm,
                                                        found, tol))
        patches.append(len(found))
        return batched(S, A, T, norm, found, tol)

    surfaces = witness_surfaces()
    surfaces += [seeded_image(surfaces[i], i) for i in range(0, 15, 3)]
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lines_module, "_new_lines", both)
        for F in surfaces:
            try:
                out.append(solve_lines(F))
            except NearDiscriminant:
                pass
    return out, patches


class TestBatchedBookkeeping:
    """The array passes of the solver give what the per-line loops of
    `lines_reference` give."""

    def test_new_lines_match_the_per_line_loop(self, bookkeeping):
        linesets, patches = bookkeeping
        assert len(patches) >= 20 and len(linesets) >= 15

    def test_conjugate_pairs_match_the_per_line_loop(self, bookkeeping):
        for ls in bookkeeping[0]:
            want = lines_reference.conjugate_pairs(ls.lines, DEDUPE_TOL)
            assert ls.conj_pairs == want
            assert _conjugate_pairs(ls.lines, DEDUPE_TOL) == want

    def test_tritangent_triples_match_the_triple_loop(self, bookkeeping):
        for ls in bookkeeping[0]:
            got = tritangent_triples(ls)
            want = lines_reference.tritangent_triples(ls)
            assert [(t["lines"], t["real"]) for t in got] \
                == [(t["lines"], t["real"]) for t in want]
            for a, b in zip(got, want):
                assert np.abs(a["plane"] - b["plane"]).max() < 1e-12


def test_endgame_settles_within_four_newton_steps(monkeypatch):
    # each path leaves the endgame at its noise floor, two or three Newton
    # steps past its tracked point: capped at four steps, the endgame moves
    # no line of a witness surface
    surfaces = witness_surfaces()
    full = [solve_lines(F) for F in surfaces]
    monkeypatch.setattr(lines_module, "NEWTON_STEPS", 4)
    for F, ls in zip(surfaces, full):
        capped = solve_lines(F)
        assert [l.plucker.tolist() for l in capped.lines] \
            == [l.plucker.tolist() for l in ls.lines]


# ---------------------------------------------------------------------------
# the tracker and its start systems against the reference
# ---------------------------------------------------------------------------

def solve_with(F: Poly, track, seed: int = 0) -> tuple:
    """The line set of F solved with `track` as the tracker, and the
    number of patches tracked."""
    patches = []

    def counted(*args):
        patches.append(len(args[3]))
        return track(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lines_module, "_track", counted)
        ls = solve_lines(F, seed)
    return ls, len(patches)


def assert_near_lines(got: list, want: list, tol: float) -> None:
    """The same lines as sets, each within tol and of the same reality."""
    P = np.array([l.plucker for l in got])
    Q = np.array([l.plucker for l in want])
    D = np.abs(P[:, None, :] - Q[None, :, :]).max(axis=2)
    match = D.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(want)))
    assert D[np.arange(len(got)), match].max() < tol
    assert [l.real for l in got] == [want[m].real for m in match]


class TestTracker:
    """Two Newton corrections per step find the lines that three
    corrections and a residual test find, with two evaluations per step."""

    def test_witness_lines_and_patches_match_the_reference(self):
        for F in witness_surfaces():
            got, patches = solve_with(F, lines_module._track)
            want, ref_patches = solve_with(F, lines_reference.track)
            assert patches == ref_patches
            assert_near_lines(got.lines, want.lines, 2e-7)

    def test_seeded_image_lines_match_the_reference(self):
        surfaces = witness_surfaces()
        for i in range(20):
            F = seeded_image(surfaces[i % 15], 100 + i)
            got, _ = solve_with(F, lines_module._track)
            want, _ = solve_with(F, lines_reference.track)
            assert_near_lines(got.lines, want.lines, 2e-7)

    def test_two_evaluations_per_predictor_step(self, monkeypatch):
        # each patch: one evaluation for the start tangents, then each step
        # a prediction and two evaluations of its paths, then the endgame
        events = []

        def logged(kind, f, points):
            def wrapped(*args):
                events.append((kind, len(args[points])))
                return f(*args)
            return wrapped

        for kind, name, points in (("track", "_track", 3),
                                   ("eval", "_monomial_values", 0),
                                   ("predict", "_predict", 0)):
            monkeypatch.setattr(lines_module, name, logged(
                kind, getattr(lines_module, name), points))
        surfaces = witness_surfaces() + [Poly.parse(TWO_PATCH_IMAGE)]
        for F in surfaces:
            solve_lines(F)
        starts = [i for i, (kind, _) in enumerate(events) if kind == "track"]
        assert len(starts) == len(surfaces) + 1
        for a, b in zip(starts, starts[1:] + [len(events)]):
            patch = events[a + 1:b]
            steps = [i for i, (kind, _) in enumerate(patch)
                     if kind == "predict"]
            assert patch[0] == ("eval", 27) and steps[0] == 1
            assert steps == list(range(1, steps[-1] + 1, 3))
            for i in steps:
                assert patch[i + 1:i + 3] == [("eval", patch[i][1])] * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_start_systems_are_the_draws_in_turn(self, seed, monkeypatch):
        # each (seed, attempt) is built once, as drawing the patches in
        # turn from a fresh generator builds it, and solves the same
        draws = list(itertools.islice(lines_reference.start_systems(seed),
                                      ATTEMPTS))
        for k, (A, gamma, C0, X) in enumerate(draws):
            got = lines_module._start_system(seed, k)
            assert got[1] == gamma
            for a, b in zip((got[0], got[2], got[3]), (A, C0, X)):
                assert np.array_equal(a, b) and not a.flags.writeable
        surfaces = [clebsch_surface(), random_cubic(7),
                    Poly.parse(TWO_PATCH_IMAGE)]
        patches = []
        for F in surfaces:
            cached, n = solve_with(F, lines_module._track, seed)
            patches.append(n)
            with monkeypatch.context() as mp:
                mp.setattr(lines_module, "_start_system",
                           lambda s, k: draws[k])
                fresh = solve_lines(F, seed)
            assert [l.plucker.tolist() for l in cached.lines] \
                == [l.plucker.tolist() for l in fresh.lines]
        assert max(patches) == (2 if seed == 0 else 1)


class TestSolveBatched:
    """Right-hand sides that share a factorization give what one solve per
    column gives, in the fallbacks for singular and non-finite systems
    too."""

    @staticmethod
    def systems():
        rng = np.random.default_rng(43)
        J = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        B = rng.normal(size=(6, 4, 2)) + 1j * rng.normal(size=(6, 4, 2))
        J[1, :, 2] = 0              # singular: the whole batch falls back
        J[2, 0, 3] = np.nan         # a non-finite system
        B[3, 1, 1] = np.inf         # one non-finite right-hand side
        return J, B

    @staticmethod
    def assert_columnwise(J, B):
        got = _solve_batched(J, B)
        want = np.stack([_solve_batched(J, B[:, :, k]) for k in range(2)],
                        axis=2)
        assert got.shape == want.shape == B.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        return got

    def test_regular_systems(self):
        J, B = self.systems()
        keep = [0, 4, 5]
        got = self.assert_columnwise(J[keep], B[keep])
        assert np.abs(J[keep] @ got - B[keep]).max() < 1e-12

    def test_singular_and_non_finite_systems(self):
        got = self.assert_columnwise(*self.systems())
        assert np.isnan(got[2]).all() and np.isnan(got[3, :, 1]).all()
        finite = np.isfinite(got).all(axis=1)
        assert finite.tolist() == [[True, True]] * 2 + [[False, False],
                                                          [True, False]] \
            + [[True, True]] * 2

    def test_least_squares_fallback(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        got = self.assert_columnwise(*self.systems())
        assert np.isnan(got[2]).all() and np.isnan(got[3, :, 1]).all()
        assert np.isfinite(got[[0, 1, 4, 5]]).all()
