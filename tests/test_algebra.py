import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realcubic.classify import load_witnesses
from realcubic.algebra import (
    CANONICAL_VARS,
    Interval,
    Poly,
    _flat_terms,
    _parse_poly,
    bareiss_det,
    complex_roots,
    int_gcd,
    real_root_floats,
    real_roots,
    refine_root,
    sign_at,
    squarefree_decomposition,
    strip_high,
    to_int_primitive,
    univ_degree,
    univ_derivative,
    univ_eval,
    univ_mul,
)
from realcubic.errors import InternalInconsistency, NonConvergence

import algebra_reference
import fraction_reference
from algebra_reference import (
    certified_roots,
    from_univariate,
    quadric_triple_resultant,
    resultant,
    substitute,
)
from fraction_reference import univ_divmod, univ_gcd

F = Fraction


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_parse_simple():
    p = Poly.parse("x^3 - 2/3*x*y + 1/2")
    assert p.terms[(3, 0, 0, 0)] == 1
    assert p.terms[(1, 1, 0, 0)] == F(-2, 3)
    assert p.terms[(0, 0, 0, 0)] == F(1, 2)


def test_parse_decimal_exact():
    p = Poly.parse("0.25*x + 1.5")
    assert p.terms[(1, 0, 0, 0)] == F(1, 4)
    assert p.terms[(0, 0, 0, 0)] == F(3, 2)


@pytest.mark.parametrize("c", [0.5, 1.0, 2 + 0j, 1j])
def test_inexact_coefficient_rejected(c):
    with pytest.raises(TypeError):
        Poly(("x", "y"), {(1, 0): c})
    with pytest.raises(TypeError):
        Poly.parse("x + 1", vars=("x", "y")) * c


def test_parse_implicit_mult_and_parens():
    assert Poly.parse("2x") == Poly.parse("2*x")
    assert Poly.parse("(x + y)^2") == Poly.parse("x^2 + 2*x*y + y^2")
    assert Poly.parse("-(x - y)") == Poly.parse("y - x")


def test_parse_double_star():
    assert Poly.parse("x**3 + 1") == Poly.parse("x^3 + 1")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        Poly.parse("x + t")


def test_parse_rejects_garbage():
    for bad in ["x +", "x ^ y", "(x", "x ) y", "x^-2"]:
        with pytest.raises(ValueError):
            Poly.parse(bad)


def same_parse(text, vars=None) -> Poly:
    """Poly.parse of text, checked against the recursive descent: equal
    terms, in the same order, with coefficients of the same type."""
    got, ref = Poly.parse(text, vars), _parse_poly(text, vars)
    assert got == ref and list(got.terms) == list(ref.terms)
    assert [type(c) for c in got.terms.values()] == \
        [type(c) for c in ref.terms.values()]
    return got


def expanded_text(rng, degree: int, vs: tuple) -> str:
    """A sum of terms [coefficient *] monomial, with repeated monomials and
    every coefficient form the flat reader takes: n, n/d and (+-n[/d])."""
    out = []
    for k in range(rng.randint(1, 14)):
        e = [0] * len(vs)
        for _ in range(degree):
            e[rng.randrange(len(vs))] += 1
        mono = "*".join(v if p == 1 else f"{v}{rng.choice(('^', '**'))}{p}"
                        for v, p in zip(vs, e) if p)
        n, d = rng.randint(0, 60), rng.choice((1, 1, 2, 3, 7))
        coef = rng.choice((f"{n}", f"{n}/{d}", f"({rng.choice('+-')}{n}/{d})",
                           f"({rng.choice('+-')}{n})", ""))
        term = f"{coef}*{mono}" if coef and mono else coef or mono or "1"
        out.append((rng.choice("+-") if k or rng.random() < 0.3 else "")
                   + rng.choice(("", " ")) + term)
    return rng.choice((" ", "")).join(out)


def test_flat_reader_equals_the_recursive_descent():
    # every witness surface and plane, and seeded expanded conics, cubics
    # and surfaces, which the flat reader takes without falling back
    for w in load_witnesses():
        same_parse(w["surface"])
        same_parse(w["plane"])
    padded = " x^3+y^3+z^3+1 \t\n"
    assert _flat_terms(padded, CANONICAL_VARS) is not None
    same_parse(padded)
    rng = random.Random("flat reader")
    for degree, vs in ((2, ("x", "y", "z")), (3, ("x", "y", "z")),
                       (3, CANONICAL_VARS)) * 100:
        text = expanded_text(rng, degree, vs)
        assert _flat_terms(text, vs) is not None, text
        same_parse(text, vs)


@pytest.mark.parametrize("text", ["(x+y)^3", "x**2", "2x", "0.5*x", "--x",
                                  "x + x - 2*x", "0*y", "x + y - x + x",
                                  "3/4/5*x", "x*2"])
def test_parse_fallback_agrees(text):
    same_parse(text)


@pytest.mark.parametrize("text, message", [
    ("q", "unknown variables ['q']"),
    ("x^-1", "exponent must be a nonnegative integer"),
    ("(x", "unbalanced parenthesis"),
    ("1/0*x^3 + y^3 + z^3 + 1", "division by zero"),
    ("x/(y - y)", "division by zero"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError, match=message.replace("[", r"\[")):
        Poly.parse(text)


def parsed(parse, text):
    """What parse makes of text: its terms in order, or the error."""
    try:
        return list(parse(text, None).terms.items())
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_descent_equals_the_fraction_reference_on_the_witnesses():
    # the same terms in the same order, all Fractions, as the recursive
    # descent with a Fraction per atom
    for w in load_witnesses():
        for text in (w["surface"], w["plane"]):
            want = parsed(algebra_reference.parse_poly, text)
            assert parsed(_parse_poly, text) == want
            assert parsed(Poly.parse, text) == want
            assert all(type(c) is Fraction for _, c in want)


_atom_st = st.one_of(
    st.sampled_from(CANONICAL_VARS),
    st.integers(0, 99).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 12)),
    st.builds("{}.{}".format, st.integers(0, 99), st.integers(0, 999)),
)


def _nested_st(inner):
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        st.builds("-({})".format, inner),
        st.builds("({})({})".format, inner, inner),      # implicit products
        st.builds("{}{}".format, st.integers(1, 9), inner),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_atom_st, _nested_st, max_leaves=10), st.integers(0, 3))
def test_descent_equals_the_fraction_reference_on_nested_text(text, cut):
    # nested text, and with up to 3 characters cut off its end; the
    # same terms in the same order, or the same error
    for t in (text, text[:len(text) - cut]):
        assert parsed(_parse_poly, t) == parsed(algebra_reference.parse_poly,
                                                t)


coeff_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@st.composite
def poly_st(draw, max_terms=8, max_exp=4):
    n = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(4))
        terms[e] = draw(coeff_st)
    return Poly(("x", "y", "z", "w"), terms)


@settings(max_examples=200, deadline=None)
@given(poly_st())
def test_print_parse_round_trip_bit_exact(p):
    assert Poly.parse(str(p)) == p


def test_arithmetic_identities():
    x = Poly.var("x")
    y = Poly.var("y")
    p = (x + y) ** 3
    q = x ** 3 + 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3
    assert p == q
    assert (p - q).is_zero()
    assert p.derivative("x") == 3 * (x + y) ** 2


def test_substitute_and_eval():
    p = Poly.parse("x^2 + y*z - w")
    v = p.eval({"x": F(2), "y": F(3), "z": F(5), "w": F(1)})
    assert v == 4 + 15 - 1
    q = substitute(p, {"x": Poly.parse("y + 1")})
    assert q == Poly.parse("y^2 + 2*y + 1 + y*z - w")


def test_homogeneous_degree():
    assert Poly.parse("x^3 + y^2*w").homogeneous_degree() == 3
    assert Poly.parse("x^3 + y^2").homogeneous_degree() is None
    assert Poly(CANONICAL_VARS, {}).homogeneous_degree() == 0


def test_coeffs_in_and_univariate():
    p = Poly.parse("x^2*y + x*z + 3")
    cs = p.coeffs_in("x")
    assert len(cs) == 3
    assert cs[0] == Poly.parse("3")
    assert cs[1] == Poly.parse("z")
    assert cs[2] == Poly.parse("y")
    u = Poly.parse("2*x^3 - x + 5").to_univariate("x")
    assert u == [F(5), F(-1), F(0), F(2)]
    with pytest.raises(ValueError):
        p.to_univariate("x")


# ---------------------------------------------------------------------------
# univariate helpers
# ---------------------------------------------------------------------------

def rand_coeffs(rng, deg, lo=-9, hi=9):
    c = [F(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(deg + 1)]
    while c[-1] == 0:
        c[-1] = F(rng.randint(lo, hi), 1)
    return c


def test_divmod_reconstruction():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_coeffs(rng, rng.randint(2, 7))
        b = rand_coeffs(rng, rng.randint(1, 4))
        q, r = univ_divmod(a, b)
        rebuilt = [x + y for x, y in
                   zip(univ_mul(q, b) + [F(0)] * len(a), r + [F(0)] * len(a))]
        assert strip_high(rebuilt) == strip_high([F(t) for t in a])
        assert len(strip_high(r)) - 1 < len(strip_high(b)) - 1


def test_gcd_of_shared_factor():
    rng = random.Random(3)
    for _ in range(30):
        g = rand_coeffs(rng, 2)
        a = univ_mul(g, rand_coeffs(rng, 2))
        b = univ_mul(g, rand_coeffs(rng, 3))
        d = univ_gcd(a, b)
        # gcd must be divisible by g
        _, r = univ_divmod(d, g)
        assert strip_high(r) == []


def test_squarefree_reconstruction():
    rng = random.Random(11)
    for _ in range(30):
        f1 = rand_coeffs(rng, 1)
        f2 = rand_coeffs(rng, 2)
        p = univ_mul(univ_mul(f1, f1), f2)   # f1^2 * f2
        dec = squarefree_decomposition(p)
        rebuilt = [F(1)]
        for fac, m in dec:
            for _ in range(m):
                rebuilt = univ_mul(rebuilt, fac)
        lead = strip_high([F(t) for t in p])[-1]
        assert strip_high(rebuilt) == [t / lead for t in strip_high([F(t) for t in p])]
        assert sum(m * (len(fac) - 1) for fac, m in dec) == len(strip_high(p)) - 1


# ---------------------------------------------------------------------------
# real roots
# ---------------------------------------------------------------------------

def test_real_roots_multiplicity_cubed_factor():
    # (x - 1)^3 (x + 2): oracle checks the multiplicity by derivatives, and
    # real_roots takes squarefree input only
    p = Poly.parse("(x - 1)^3 * (x + 2)")
    c = p.to_univariate("x")
    # derivative oracle at x = 1
    assert univ_eval(c, F(1)) == 0
    d1 = [k * t for k, t in enumerate(c)][1:]
    d2 = [k * t for k, t in enumerate(d1)][1:]
    d3 = [k * t for k, t in enumerate(d2)][1:]
    assert univ_eval(d1, F(1)) == 0 and univ_eval(d2, F(1)) == 0
    assert univ_eval(d3, F(1)) != 0
    assert real_roots(c) is None
    assert real_roots(p, "x") is None


def test_real_roots_repeated_complex_root():
    # (x^2 + 1)^2 (x - 3): the only repeated root is non-real
    c = Poly.parse("(x^2 + 1)^2 * (x - 3)").to_univariate("x")
    assert real_roots(c) is None
    (iv,) = real_roots(univ_mul([F(1), F(0), F(1)], [F(-3), F(1)]))
    assert 3 in iv or iv.lo == 3 == iv.hi


def test_real_roots_sqrt2():
    rts = real_roots([F(-2), F(0), F(1)])
    assert len(rts) == 2
    pos = rts[1]
    tight = refine_root([F(-2), F(0), F(1)], pos, F(1, 10 ** 15))
    assert abs(float(tight.mid) - math.sqrt(2)) < 1e-14


def test_real_roots_exact_rational_root():
    # roots 1/2 and 3; dyadic root can surface as a point interval
    p = univ_mul([F(-1), F(2)], [F(-3), F(1)])
    rts = real_roots(p)
    assert len(rts) == 2
    assert F(1, 2) in rts[0] or rts[0].lo == F(1, 2) == rts[0].hi
    assert 3 in rts[1] or rts[1].is_point() and rts[1].lo == 3


def test_real_roots_no_real():
    assert real_roots([F(1), F(0), F(1)]) == []      # x^2 + 1
    assert len(real_roots([F(1), F(1), F(1)])) == 0  # x^2 + x + 1


def test_real_roots_close_pair_separation():
    # roots at 1/1000 and 1/1001 must land in disjoint intervals
    p = univ_mul([F(-1, 1000), F(1)], [F(-1, 1001), F(1)])
    rts = real_roots(p)
    assert len(rts) == 2
    assert rts[0].hi <= rts[1].lo
    assert F(1, 1001) in rts[0] or rts[0].is_point()
    assert F(1, 1000) in rts[1] or rts[1].is_point()


def test_interval_ordering_and_disjointness_random():
    rng = random.Random(5)
    for _ in range(40):
        roots = sorted(rng.sample(range(-12, 12), rng.randint(1, 5)))
        p = [F(1)]
        for r in roots:
            p = univ_mul(p, [F(-r), F(1)])
        rts = real_roots(p)
        assert len(rts) == len(roots)
        for iv, r in zip(rts, roots):
            assert r in iv or (iv.is_point() and iv.lo == r)
        for a, b in zip(rts, rts[1:]):
            assert a.hi <= b.lo


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2,
                max_size=7),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=2,
                max_size=3).filter(lambda g: g[-1] != 0),
       st.booleans())
def test_integer_squarefree_test_matches_fraction_euclid(f, g, repeat):
    # half the draws get a repeated factor g^2
    c = strip_high(univ_mul(univ_mul(f, g), g) if repeat else f)
    if len(c) < 2:
        return
    ref = univ_gcd(c, univ_derivative(c))
    got = int_gcd(c, univ_derivative(c))
    assert [F(t, got[-1]) for t in got] == ref
    assert (real_roots(c) is None) == (len(ref) > 1)
    if repeat:
        assert len(ref) > 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2,
                max_size=4),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=2,
                max_size=4),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                max_size=4))
def test_integer_sign_at_matches_fraction_reference(f1, f2, h):
    # at each root of c = f1 f2, of p = f1 h (zero at the roots of f1),
    # of h, and of h / 7: the same sign and the same refined interval
    c = strip_high(univ_mul(f1, f2))
    rts = real_roots(c) if len(c) > 1 else None
    if not rts:
        return
    for p in (univ_mul(f1, h), h, [F(t, 7) for t in h]):
        p = strip_high(p)
        for iv in rts:
            assert sign_at(p, c, iv) == fraction_reference.sign_at(
                [F(t) for t in p], [F(t) for t in c], iv)


def test_isolation_deeper_than_the_recursion_limit():
    # (x - N)(3x - 3N - 1) for N = 10^400: its roots N and N + 1/3 part
    # some 1330 halvings below the root bound, and its coefficients are
    # beyond float range, so the float certificate gives way
    N = 10 ** 400
    c = univ_mul([-N, 1], [-3 * N - 1, 3])
    ivs = real_roots(c)
    assert [N in iv for iv in ivs] == [True, False]
    assert [N + F(1, 3) in iv for iv in ivs] == [False, True]
    assert certified_roots(c, 2) is None


def _below(c, bound):
    """Roots of c below bound, each decided by the sign of X - bound."""
    signs = [sign_at([-bound, F(1)], c, iv)[0] for iv in real_roots(c)]
    return signs.count(-1), signs.count(0)


def test_sign_at_counts_roots_below():
    # (x^2 - 2)(x - 5)
    p = univ_mul([F(-2), F(0), F(1)], [F(-5), F(1)])
    assert _below(p, F(2)) == (2, 0)
    assert _below(p, F(-2)) == (0, 0)
    assert _below(p, F(10)) == (3, 0)
    assert _below([F(-3), F(1)], F(3)) == (0, 1)


class TestSignAt:
    # x^2 - 2 and its positive root sqrt(2), isolated in (1, 2)
    C = [F(-2), F(0), F(1)]
    IV = Interval(F(1), F(2))

    def test_point_interval_is_evaluated(self):
        iv = Interval(F(3), F(3))
        assert sign_at([F(-1), F(0), F(1)], [F(-3), F(1)], iv) == (1, iv)
        assert sign_at([F(-3), F(1)], [F(-3), F(1)], iv)[0] == 0
        assert sign_at([F(4), F(-1)], [F(-3), F(1)], iv)[0] == 1

    def test_shared_root_gives_zero(self):
        # (x^2 - 2)(x + 7) vanishes at sqrt(2)
        p = univ_mul(self.C, [F(7), F(1)])
        assert sign_at(p, self.C, self.IV)[0] == 0

    def test_close_root_forces_bisection(self):
        # x - r with r about 2^-60 below sqrt(2): positive there, and the
        # interval must be bisected past r before Descartes can tell
        r = F(math.isqrt(2 << 120), 1 << 60) - F(1, 1 << 60)
        assert r * r < 2 < (r + F(1, 1 << 59)) ** 2
        sign, iv = sign_at([-r, F(1)], self.C, self.IV)
        assert sign == 1
        assert r < iv.lo and iv.hi - iv.lo <= F(1, 1 << 50)
        assert sign_at([r, F(-1)], self.C, self.IV)[0] == -1

    def test_linear_sign_inside_outside_and_on_the_root(self):
        # X - x at sqrt(2) for x inside and outside the interval
        for x, expect in ((F(7, 5), 1), (F(3, 2), -1), (F(1, 2), 1),
                          (F(5), -1)):
            assert sign_at([-x, F(1)], self.C, self.IV)[0] == expect
        # an exact rational root: 1/2 of 2x^2 + x - 1 = (2x - 1)(x + 1)
        c = [F(-1), F(1), F(2)]
        (iv,) = [iv for iv in real_roots(c) if F(1, 2) in iv]
        assert sign_at([F(-1, 2), F(1)], c, iv)[0] == 0
        assert sign_at([F(-1, 3), F(1)], c, iv)[0] == 1


def test_real_root_floats_certified_exact_and_fallback():
    # (x - 1/3)(x - 1/2)(x - 5): certified, with the dyadic root 1/2
    # isolated as a point and kept exact
    c = univ_mul(univ_mul([F(-1, 3), F(1)], [F(-1, 2), F(1)]), [F(-5), F(1)])
    ivs = real_roots(c)
    assert any(iv.is_point() for iv in ivs)
    brackets = certified_roots(c, 3)
    assert [b.lo < r < b.hi for b, r in zip(brackets, (F(1, 3), F(1, 2), 5))] \
        == [True] * 3
    got = real_root_floats(c, 3, ivs)
    assert got[1] == 0.5
    assert max(abs(a - b) for a, b in zip(got, (1 / 3, 0.5, 5.0))) < 1e-15
    # a wrong count refuses the certificate
    assert certified_roots(c, 2) is None
    # roots 1 and 1 + 10^-13: floats cannot separate them, and the exact
    # fallback does
    tight = univ_mul([F(-1), F(1)], [-1 - F(1, 10 ** 13), F(1)])
    assert certified_roots(tight, 2) is None
    lo, hi = real_root_floats(tight, 2)
    assert lo == 1.0 and abs(hi - (1 + 1e-13)) < 2e-16


def test_real_root_floats_past_the_float_ratio_of_the_coefficients():
    # 10^-10 x^2 - 10^300: each coefficient has a float, but their ratio,
    # the companion matrix entry, has none; the exact route takes over
    c = [-10 ** 300, 0, F(1, 10 ** 10)]
    assert certified_roots(c, 2) is None
    assert real_root_floats(c, 2) == [-1e155, 1e155]
    # an integer list beyond float range is scaled, and certifies
    big = univ_mul([-3, 1], [5, 2])
    assert certified_roots([t * 10 ** 400 for t in big], 2) is not None


def test_real_root_floats_refuses_a_repeated_root():
    # (x - 1)^2 (x - 2) has no three sign-changing brackets, and its
    # exact fallback finds the repeated root
    c = univ_mul(univ_mul([F(-1), F(1)], [F(-1), F(1)]), [F(-2), F(1)])
    assert certified_roots(c, 3) is None
    with pytest.raises(InternalInconsistency):
        real_root_floats(c, 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=9))
def test_real_root_count_never_exceeds_degree(c):
    c = strip_high([F(t) for t in c])
    if len(c) < 2:
        return
    rts = real_roots(c)
    repeated = univ_degree(univ_gcd(c, univ_derivative(c))) > 0
    assert (rts is None) == repeated
    if repeated:
        return
    assert len(rts) <= len(c) - 1
    for a, b in zip(rts, rts[1:]):
        assert a.hi <= b.lo
    for r in rts:
        if r.is_point():
            assert univ_eval(c, r.lo) == 0
        else:
            assert univ_eval(c, r.lo) != 0 and univ_eval(c, r.hi) != 0


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------

def test_complex_roots_residual_x6():
    c = [F(1), F(1), F(0), F(0), F(0), F(0), F(1)]   # x^6 + x + 1
    roots = complex_roots(c)
    assert len(roots) == 6
    for z in roots:
        v = univ_eval([complex(float(t)) for t in c], z)
        assert abs(v) < 1e-12
    # conjugation closure
    for z in roots:
        assert any(abs(z.conjugate() - u) < 1e-9 for u in roots)


def test_complex_roots_multiplicity():
    roots = complex_roots([F(1), F(-2), F(1)])   # (x-1)^2
    assert len(roots) == 2
    assert all(abs(z - 1) < 1e-12 for z in roots)


def test_complex_roots_known_quartic():
    # x^4 - 1: roots are the 4th roots of unity
    roots = complex_roots([F(-1), F(0), F(0), F(0), F(1)])
    expected = [complex(-1), complex(0, -1), complex(0, 1), complex(1)]
    assert len(roots) == 4
    for e in expected:
        assert min(abs(e - z) for z in roots) < 1e-12


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=9))
def test_root_census_matches_degree(c):
    c = strip_high([F(t) for t in c])
    if len(c) < 3:
        return
    deg = len(c) - 1
    try:
        cz = complex_roots(c)
    except NonConvergence:
        return
    assert len(cz) == deg
    n_real_isol = sum(m * len(real_roots(factor))
                      for factor, m in squarefree_decomposition(c))
    n_real_num = sum(1 for z in cz if abs(z.imag) < 1e-7)
    n_pairs = sum(1 for z in cz if z.imag > 1e-7)
    assert n_real_num == n_real_isol
    assert n_real_isol + 2 * n_pairs == deg


# ---------------------------------------------------------------------------
# the resultant references of algebra_reference, and bareiss_det
# ---------------------------------------------------------------------------

def test_resultant_linear_symbols():
    vs = ("x", "a", "b")
    x, a, b = (Poly.var(v, vs) for v in vs)
    r = resultant(x - a, x - b, "x")
    assert r == a - b


def test_resultant_quadratic_example():
    p = Poly.parse("x^2 + 1")
    q = Poly.parse("x - 1")
    assert resultant(p, q, "x").constant_value() == 2


def test_resultant_antisymmetry():
    rng = random.Random(2)
    for _ in range(20):
        p = from_univariate(rand_coeffs(rng, rng.randint(1, 4)), "x")
        q = from_univariate(rand_coeffs(rng, rng.randint(1, 4)), "x")
        m, n = p.degree("x"), q.degree("x")
        r1 = resultant(p, q, "x").constant_value()
        r2 = resultant(q, p, "x").constant_value()
        assert r1 == (-1) ** (m * n) * r2


def test_resultant_multiplicative():
    rng = random.Random(9)
    for _ in range(15):
        p = from_univariate(rand_coeffs(rng, 2), "x")
        q1 = from_univariate(rand_coeffs(rng, 2), "x")
        q2 = from_univariate(rand_coeffs(rng, 1), "x")
        lhs = resultant(p, q1 * q2, "x").constant_value()
        rhs = (resultant(p, q1, "x") * resultant(p, q2, "x")).constant_value()
        assert lhs == rhs


def test_resultant_vs_root_product_oracle():
    # Res(p, q) = lc(p)^deg(q) * prod q(alpha) over roots alpha of p
    rng = random.Random(4)
    for _ in range(25):
        cp = rand_coeffs(rng, rng.randint(2, 4))
        cq = rand_coeffs(rng, rng.randint(1, 3))
        p = from_univariate(cp, "x")
        q = from_univariate(cq, "x")
        exact = resultant(p, q, "x").constant_value()
        roots = complex_roots(cp)
        prod = complex(float(cp[-1])) ** (len(cq) - 1)
        for al in roots:
            prod *= univ_eval([complex(float(t)) for t in cq], al)
        if abs(prod) > 1e-8:
            assert abs(complex(float(exact)) - prod) / abs(prod) < 1e-6
        else:
            assert abs(complex(float(exact)) - prod) < 1e-6


def test_resultant_shared_root_vanishes():
    p = Poly.parse("(x - 2)(x + 3)")
    q = Poly.parse("(x - 2)(x - 7)")
    assert resultant(p, q, "x").constant_value() == 0


def test_resultant_bivariate_elimination():
    # eliminate y from the circle and a line: x^2 + y^2 - 1, y - x
    c = Poly.parse("x^2 + y^2 - 1")
    l = Poly.parse("y - x")
    r = resultant(c, l, "y")
    assert r == Poly.parse("2*x^2 - 1")


def test_discriminant_detects_repeated_roots():
    for text, repeated in (("(x-1)(x-1)(x+3)", True), ("x^2 + 1", False)):
        p = Poly.parse(text)
        disc = resultant(p, p.derivative("x"), "x").constant_value()
        assert (disc == 0) == repeated
    # classical: disc(x^2 + bx + c) ~ b^2 - 4c up to sign convention
    vs = ("x", "a", "b")
    x, a, b = (Poly.var(v, vs) for v in vs)
    d = resultant(x * x + a * x + b, 2 * x + a, "x")
    assert d == -(a * a - 4 * b)


def _leibniz_det(m) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]]
                                                 for i in range(n))
    return total


def test_bareiss_det_is_the_leibniz_sum():
    # sparse small matrices hit zero pivots, repeated rows and rank drops
    rng = random.Random(17)
    zero = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9), 10 ** 12))
              for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            m[-1] = list(m[0])
        want = _leibniz_det(m)
        assert bareiss_det(m) == want
        zero += want == 0
    assert zero > 10
    assert bareiss_det([]) == 1


# ---------------------------------------------------------------------------
# three-quadric resultant
# ---------------------------------------------------------------------------

def _q(s):
    return Poly.parse(s)


def test_quadric_triple_no_common_zero():
    r = quadric_triple_resultant(_q("x^2"), _q("y^2"), _q("z^2"), ("x", "y", "z"))
    assert r != 0


def test_quadric_triple_common_zero_vanishes():
    # all three vanish at (0:1:0)
    r = quadric_triple_resultant(_q("x^2"), _q("x*y"), _q("x*z"), ("x", "y", "z"))
    assert r == 0
    # all three vanish at (1:1:1)
    r2 = quadric_triple_resultant(
        _q("x^2 - y*z"), _q("y^2 - x*z"), _q("z^2 - x*y"), ("x", "y", "z"))
    assert r2 == 0


def test_quadric_triple_generic_random_nonzero():
    rng = random.Random(13)
    hits = 0
    for _ in range(10):
        qs = []
        for _ in range(3):
            terms = {}
            for i in range(3):
                for j in range(i, 3):
                    e = [0, 0, 0, 0]
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = F(rng.randint(-5, 5))
            qs.append(Poly(("x", "y", "z", "w"), terms))
        r = quadric_triple_resultant(qs[0], qs[1], qs[2], ("x", "y", "z"))
        if r != 0:
            hits += 1
    assert hits >= 9   # generic triples share no projective zero


def test_quadric_triple_forced_common_zero():
    # q(1,2,3) = 0 for each, built by subtracting the value at the point
    rng = random.Random(21)
    pt = (F(1), F(2), F(3))
    for _ in range(5):
        qs = []
        for _ in range(3):
            terms = {}
            for i in range(3):
                for j in range(i, 3):
                    e = [0, 0, 0, 0]
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = F(rng.randint(-5, 5))
            q = Poly(("x", "y", "z", "w"), terms)
            v = q.eval({"x": pt[0], "y": pt[1], "z": pt[2], "w": F(0)})
            # subtract v/9 * z^2 so the form vanishes at (1,2,3)
            q = q - Poly(("x", "y", "z", "w"), {(0, 0, 2, 0): v / 9})
            qs.append(q)
        r = quadric_triple_resultant(qs[0], qs[1], qs[2], ("x", "y", "z"))
        assert r == 0
