"""Acceptance gate: one test and one printed verdict line per criterion.

Run with -v (or -s to see the verdict lines inline).  Every criterion is
checked at its stated tolerance; nothing here is softened on failure.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from realcubic.algebra import Poly, complex_roots, real_roots, univ_degree
from realcubic.arrangements import load_extremal, polotovsky_closure
from realcubic.classify import (
    as_projective_cubic,
    classify_surface,
    parse_plane,
)
from realcubic.combinat import (
    PROJECTIVE_CLASSES,
    TOTAL_EXTENDED_WALLS,
    TOTAL_ORDINARY_WALLS,
    cremona_orbits,
    line_catalog,
    load_wall_graph,
    oval_line_count,
    oval_line_count_incidence,
    point_labels,
    real_line_total,
    validate_wall_graph,
    wall_table,
)
from realcubic.curve import conic_cubic_meet, plane_form
from realcubic.errors import ComputationFailure, MathematicalRejection
from realcubic.lines import (
    fermat_lines_closed_form,
    fermat_surface,
    solve_lines,
    tritangent_triples,
)
from curve_reference import null_space, residual_point, weierstrass_add
from algebra_reference import substitute
from lines_reference import (
    clebsch_surface,
    normalize_plucker,
    plucker_distance,
    plucker_from_basis,
)

AMB = ("x", "y", "z", "w")
AV = ("x", "y")


def verdict(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1: Cremona orbit partition, exhaustive and fast
# ---------------------------------------------------------------------------

def test_criterion_1_cremona_orbits():
    expected = {
        0: [((0, 6), (3, 3), (4, 2)), ((1, 5), (2, 4), (5, 1)), ((6, 0),)],
        1: [((0, 4), (1, 3), (2, 2), (3, 1)), ((4, 0),)],
        2: [((0, 2), (1, 1)), ((2, 0),)],
        3: [((0, 0),)],
    }
    cremona_orbits(0)                        # warm any lazy import work
    t0 = time.perf_counter()
    got = {mu: cremona_orbits(mu) for mu in range(4)}
    elapsed = time.perf_counter() - t0
    assert got == expected
    assert [len(got[mu]) for mu in range(4)] == [3, 2, 2, 1]
    assert elapsed < 0.001
    verdict(1, f"orbit partitions exact for mu=0..3 in {elapsed*1e6:.0f} us")


# ---------------------------------------------------------------------------
# 2: oval line counts, closed form vs incidence oracle, all 16 labels
# ---------------------------------------------------------------------------

def test_criterion_2_oval_line_counts():
    stated = {}
    for lab in ((0, 6), (3, 3), (4, 2)):
        stated[(lab, 0)] = 12
    for lab in ((1, 5), (2, 4), (5, 1)):
        stated[(lab, 0)] = 16
    stated[((6, 0), 0)] = 0
    for lab in ((0, 4), (1, 3), (2, 2), (3, 1)):
        stated[(lab, 1)] = 8
    stated[((4, 0), 1)] = 0
    for lab in ((0, 2), (1, 1)):
        stated[(lab, 2)] = 4
    stated[((2, 0), 2)] = 0
    stated[((0, 0), 3)] = 0

    checked = 0
    for mu in range(4):
        for lab in point_labels(mu):
            closed = oval_line_count(lab, mu)
            oracle = oval_line_count_incidence(lab, mu)
            assert closed == oracle == stated[(lab, mu)], (lab, mu)
            checked += 1
    assert checked == 16
    verdict(2, "closed form == incidence oracle == stated on all 16 labels")


# ---------------------------------------------------------------------------
# 3: real line totals out of the incidence model
# ---------------------------------------------------------------------------

def test_criterion_3_real_line_totals():
    for mu, want in enumerate((27, 15, 7, 3)):
        from_catalog = sum(1 for ln in line_catalog(mu) if ln["real"])
        assert from_catalog == real_line_total(mu) == want
    verdict(3, "incidence model totals 27/15/7/3 for mu=0..3")


# ---------------------------------------------------------------------------
# 4: line solver against closed forms on Fermat and Clebsch
# ---------------------------------------------------------------------------

def test_criterion_4_fermat_clebsch_lines():
    t0 = time.perf_counter()
    fermat = solve_lines(fermat_surface())
    t_fermat = time.perf_counter() - t0
    assert t_fermat < 10.0
    assert len(fermat.lines) == 27
    assert fermat.real_count == 3

    closed = [normalize_plucker(plucker_from_basis(b[0], b[1]))
              for b in fermat_lines_closed_form()]
    assert len(closed) == 27
    used = set()
    for line in fermat.lines:
        dists = sorted((plucker_distance(line.plucker, q), m)
                       for m, q in enumerate(closed))
        d, m = dists[0]
        assert d < 1e-9
        assert m not in used
        used.add(m)

    t0 = time.perf_counter()
    clebsch = solve_lines(clebsch_surface())
    t_clebsch = time.perf_counter() - t0
    assert t_clebsch < 10.0
    assert len(clebsch.lines) == 27
    assert clebsch.real_count == 27

    for name, ls in (("fermat", fermat), ("clebsch", clebsch)):
        assert all(l.residual < 1e-10 for l in ls.lines), name
        triples = tritangent_triples(ls)
        assert len(triples) == 45, name
        per_line = Counter(i for t in triples for i in t["lines"])
        assert sorted(per_line) == list(range(27)), name
        assert set(per_line.values()) == {5}, name
    verdict(4, f"closed forms matched, 45 tritangents, per-line incidence 5 "
               f"(fermat {t_fermat:.1f}s, clebsch {t_clebsch:.1f}s)")


# ---------------------------------------------------------------------------
# 5: witness suite covers all 15 classes
# ---------------------------------------------------------------------------

def test_criterion_5_witness_suite(witness_reports):
    assert len(witness_reports) >= 15
    ids = sorted(rep.class_id for _, rep in witness_reports)
    assert ids == list(range(1, 16))
    by_id = {rep.class_id: rep for _, rep in witness_reports}
    exceptional = {by_id[13].oval_line_count, by_id[14].oval_line_count}
    assert exceptional == {12, 16}
    verdict(5, "15 witnesses hit all 15 classes; exceptional pair split "
               "by oval counts 12 vs 16")


# ---------------------------------------------------------------------------
# 6: wall-crossing graph validators
# ---------------------------------------------------------------------------

def test_criterion_6_graph_validators():
    g = load_wall_graph()
    assert validate_wall_graph(g) == []
    assert len(g.vertices) == 15

    lines_of = {cid: PROJECTIVE_CLASSES[v["projective"]]["real_lines"]
                for cid, v in g.vertices.items()}
    for e in g.edges:
        delta = abs(lines_of[e["u"]] - lines_of[e["v"]])
        assert delta % 2 == 0 and delta <= 12, e
        assert delta == 2 * sum(e["wall"]), e

    # vertices whose section curve is connected (single-entry label)
    chain = {cid for cid, v in g.vertices.items() if len(v["label"]) == 1}
    assert chain == {12, 9, 6, 4, 1}
    chain_edges = [frozenset((e["u"], e["v"])) for e in g.edges
                   if e["u"] in chain and e["v"] in chain]
    assert sorted(chain_edges) == sorted(
        frozenset(p) for p in ((12, 9), (9, 6), (6, 4), (4, 1)))
    degrees = Counter(i for fe in chain_edges for i in fe)
    assert sorted(degrees.values()) == [1, 1, 2, 2, 2]
    verdict(6, "15 vertices, edge arithmetic |dlines| = 2k <= 12, "
               "connected-section chain is the 5-vertex path")


# ---------------------------------------------------------------------------
# 7: wall-count table and the extended-wall/edge correspondence
# ---------------------------------------------------------------------------

def test_criterion_7_wall_table():
    expected = [
        {"wall": [0], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [2], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [4], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [6], "ordinary_walls": 3, "extended_walls": 1},
        {"wall": [0, 0], "ordinary_walls": 2, "extended_walls": 2},
        {"wall": [0, 2], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [0, 4], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [0, 6], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [2, 0], "ordinary_walls": 2, "extended_walls": 1},
        {"wall": [2, 2], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [2, 4], "ordinary_walls": 2, "extended_walls": 1},
        {"wall": [4, 0], "ordinary_walls": 2, "extended_walls": 1},
        {"wall": [4, 2], "ordinary_walls": 1, "extended_walls": 1},
        {"wall": [6, 0], "ordinary_walls": 3, "extended_walls": 1},
    ]
    rows = wall_table()
    assert rows == expected
    assert sum(r["ordinary_walls"] for r in rows) == TOTAL_ORDINARY_WALLS == 22
    assert sum(r["extended_walls"] for r in rows) == TOTAL_EXTENDED_WALLS == 15

    # each extended wall is crossed by exactly one graph edge
    g = load_wall_graph()
    edge_walls = Counter(tuple(e["wall"]) for e in g.edges)
    table_walls = {tuple(r["wall"]): r["extended_walls"] for r in rows}
    assert edge_walls == Counter(table_walls)
    verdict(7, "table reproduced verbatim; 15 extended walls match the 15 "
               "edges one-to-one")


# ---------------------------------------------------------------------------
# 8: closure of the extremal arrangements
# ---------------------------------------------------------------------------

def test_criterion_8_polotovsky_closure():
    extremal = load_extremal()
    assert len(extremal) == 7
    closure = polotovsky_closure(extremal)
    assert len(closure) == 25
    verdict(8, "closure of the 7 extremal arrangements has 25 classes")


# ---------------------------------------------------------------------------
# 9: property suites
# ---------------------------------------------------------------------------

def _cubic_through_parabola_points(ts, rng):
    mons = [e for e in itertools.product(range(4), repeat=2) if sum(e) <= 3]
    rows = [[(t ** e[0]) * ((t * t) ** e[1]) for e in mons] for t in ts]
    basis = null_space(rows, len(mons))
    for _ in range(40):
        ws = [rng.randint(-5, 5) for _ in basis]
        vec = [sum(w * b[i] for w, b in zip(ws, basis))
               for i in range(len(mons))]
        f = Poly(AV, {e: c for e, c in zip(mons, vec) if c != 0})
        if f.is_zero() or f.total_degree() != 3 or f.degree("y") == 0:
            continue
        try:
            meet = conic_cubic_meet(plane_form("y - x^2", 2, "conic"),
                                    plane_form(f, 3, "cubic"))
        except MathematicalRejection:
            continue
        if len(meet.real_points) == 6:
            return f
    return None


def _residual_round_trip(runs: int) -> int:
    rng = random.Random(0xacce97)
    done = 0
    while done < runs:
        ts = sorted(rng.sample(range(-12, 13), 6))
        ts = [Fraction(t) for t in ts]
        f = _cubic_through_parabola_points(ts, rng)
        if f is None:
            continue
        recovered = 0
        for drop in range(6):
            five = [(t, t * t) for i, t in enumerate(ts) if i != drop]
            try:
                got = residual_point(f, five)
            except MathematicalRejection:
                break
            assert got == (ts[drop], ts[drop] ** 2)
            recovered += 1
        if recovered == 6:
            done += 1
    return done


def _weierstrass_five_tuples(runs: int) -> int:
    rng = random.Random(0xe11)
    done = 0
    while done < runs:
        p = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
        q = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
        if p[0] == q[0]:
            continue
        # Weierstrass curve through both seeds
        a = ((p[1] ** 2 - p[0] ** 3) - (q[1] ** 2 - q[0] ** 3)) / (p[0] - q[0])
        b = p[1] ** 2 - p[0] ** 3 - a * p[0]
        pool = [p, q]
        for _ in range(24):
            r = weierstrass_add(a, b, pool[-1], pool[rng.randrange(len(pool))])
            if r is not None and r not in pool:
                pool.append(r)
            if len(pool) >= 5:
                break
        if len(pool) < 5:
            continue
        five = pool[:5]
        if len({x for x, _ in five}) < 5:
            continue
        f = Poly(AV, {(0, 2): Fraction(1), (3, 0): Fraction(-1),
                      (1, 0): -a, (0, 0): -b})
        try:
            sixth = residual_point(f, five)
        except MathematicalRejection:
            continue
        total = sixth
        for pt in five:
            total = weierstrass_add(a, b, total, pt)
        assert total is None, (a, b, five, sixth)
        done += 1
    return done


def _root_count_consistency(runs: int) -> int:
    rng = random.Random(0x700c5)
    done = 0
    while done < runs:
        deg = rng.randint(1, 8)
        dense = [Fraction(rng.randint(-20, 20)) for _ in range(deg)]
        dense.append(Fraction(rng.randint(1, 20)))
        # squarefree check via discriminant-free root clustering: skip
        # polynomials with a repeated complex root
        roots = complex_roots(dense)
        if len(roots) != univ_degree(dense):
            continue
        if min((abs(r - s) for r in roots for s in roots if r is not s),
               default=1.0) < 1e-6:
            continue
        n_real_exact = len(real_roots(dense))
        n_real_float = sum(1 for r in roots if abs(r.imag) < 1e-8)
        assert n_real_exact == n_real_float, dense
        assert (univ_degree(dense) - n_real_exact) % 2 == 0, dense
        done += 1
    return done


def _plane_adapted(h):
    k = max(range(4), key=lambda i: abs(h[i]))
    cols = []
    for i in range(4):
        if i == k:
            continue
        col = [Fraction(0)] * 4
        col[i] = Fraction(1)
        col[k] = -h[i] / h[k]
        cols.append(col)
    ck = [Fraction(0)] * 4
    ck[k] = 1 / h[k]
    cols.append(ck)
    return [[cols[m][j] for m in range(4)] for j in range(4)]


def _random_affine(rng):
    while True:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
             for _ in range(3)]
        det = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
               - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
               + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
        if det != 0:
            break
    U = [[A[i][j] for j in range(3)] + [Fraction(rng.randint(-1, 1))]
         for i in range(3)]
    U.append([Fraction(0)] * 3 + [Fraction(1)])
    return U


def _transformed(F, N):
    xs = [Poly.var(v, AMB) for v in AMB]
    images = {AMB[j]: sum((xs[m] * N[j][m] for m in range(4)),
                          Poly(AMB, {})) for j in range(4)}
    return substitute(F, images)


# five extra (surface, plane) pairs reusing shipped surfaces with other
# admissible planes, bringing the invariance pool to 20 witnesses
_EXTRA_PLANES = [
    (4, "x"),
    (6, "w"),
    (9, "w"),
    (12, "w"),
    (1, "z + 3*w"),
]


def _affine_invariance(witness_reports, transforms: int) -> tuple:
    """Classify `transforms` affine images of each pool entry; returns the
    number checked and the number of maps redrawn after a typed failure."""
    by_id = {w["class_id"]: (w, rep) for w, rep in witness_reports}
    pool = [(w["surface"], w["plane"], rep.class_id)
            for w, rep in witness_reports]
    for cid, plane in _EXTRA_PLANES:
        w = by_id[cid][0]
        baseline = classify_surface(w["surface"], plane)
        pool.append((w["surface"], plane, baseline.class_id))
    assert len(pool) == 20

    checked = redrawn = 0
    for idx, (surface, plane, want) in enumerate(pool):
        F = as_projective_cubic(surface)
        C = _plane_adapted(parse_plane(plane))
        rng = random.Random(0xaff1 + idx)
        done = 0
        while done < transforms:
            U = _random_affine(rng)
            N = [[sum(C[i][k] * U[k][j] for k in range(4)) for j in range(4)]
                 for i in range(4)]
            try:
                rep = classify_surface(_transformed(F, N), "w")
            except (ComputationFailure, MathematicalRejection):
                # solver budget miss on a skewed chart: draw a fresh map
                redrawn += 1
                continue
            assert rep.class_id == want, (surface, plane, done)
            done += 1
            checked += 1
    return checked, redrawn


def test_criterion_9_property_suites(witness_reports):
    n1 = _residual_round_trip(100)
    assert n1 == 100
    n2 = _weierstrass_five_tuples(50)
    assert n2 == 50
    n3 = _root_count_consistency(1000)
    assert n3 == 1000
    n4, redrawn = _affine_invariance(witness_reports, 5)
    assert n4 == 100
    verdict(9, "drop-one recovery 100/100, group-sum identity 50/50, "
               "root counts 1000/1000, affine invariance 20x5 "
               f"({redrawn} maps redrawn after a typed failure)")
