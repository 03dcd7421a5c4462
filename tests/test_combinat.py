import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from realcubic.combinat import (
    CLASSES,
    CONNECTED_WALL_COUNTS,
    PAIR_WALL_COUNTS,
    PROJECTIVE_CLASSES,
    TOTAL_EXTENDED_WALLS,
    TOTAL_ORDINARY_WALLS,
    apply_move,
    class_id_for,
    cremona_orbits,
    line_catalog,
    load_wall_graph,
    move_images,
    oval_line_count,
    oval_line_count_incidence,
    point_labels,
    real_line_total,
    validate_wall_graph,
    wall_table,
)
from realcubic.errors import InvalidArrangement


# ---------------------------------------------------------------------------
# line totals
# ---------------------------------------------------------------------------

def test_real_line_totals():
    assert [real_line_total(mu) for mu in range(4)] == [27, 15, 7, 3]


def test_line_catalog_reality_census():
    for mu in range(4):
        cat = line_catalog(mu)
        assert len(cat) == 27
        assert sum(1 for l in cat if l["real"]) == real_line_total(mu)
        # reality is involution-invariant: E and Q flags agree pointwise
        e_flags = [l["real"] for l in cat if l["kind"] == "E"]
        q_flags = [l["real"] for l in cat if l["kind"] == "Q"]
        assert e_flags == q_flags


# ---------------------------------------------------------------------------
# Cremona moves and orbits
# ---------------------------------------------------------------------------

def test_moves_preserve_label_space():
    for mu in range(4):
        for lab in point_labels(mu):
            for img in move_images(lab, mu).values():
                assert sum(img) == 6 - 2 * mu
                assert img[0] >= 0 and img[1] >= 0


def test_move_guards():
    assert apply_move((0, 6), 1, 0) == (3, 3)
    assert apply_move((6, 0), 1, 0) is None
    assert apply_move((3, 3), 2, 0) == (4, 2)
    assert apply_move((1, 3), 2, 1) is None     # needs a >= 2
    assert apply_move((1, 3), 3, 1) == (2, 2)
    assert apply_move((1, 5), 3, 0) is None     # needs a conjugate pair


def test_orbits_exact():
    assert cremona_orbits(0) == [
        ((0, 6), (3, 3), (4, 2)),
        ((1, 5), (2, 4), (5, 1)),
        ((6, 0),),
    ]
    assert cremona_orbits(1) == [
        ((0, 4), (1, 3), (2, 2), (3, 1)),
        ((4, 0),),
    ]
    assert cremona_orbits(2) == [((0, 2), (1, 1)), ((2, 0),)]
    assert cremona_orbits(3) == [((0, 0),)]


def test_orbits_fast():
    t0 = time.perf_counter()
    for mu in range(4):
        cremona_orbits(mu)
    assert time.perf_counter() - t0 < 0.001 * 4 + 0.01


def test_orbit_of():
    orbits = cremona_orbits(0)
    assert [o for o in orbits if (2, 4) in o] == [((1, 5), (2, 4), (5, 1))]
    assert not any((1, 1) in o for o in orbits)


def test_orbits_partition_labels():
    for mu in range(4):
        labs = point_labels(mu)
        orbs = cremona_orbits(mu)
        flat = [l for o in orbs for l in o]
        assert sorted(flat) == sorted(labs)
        assert len(flat) == len(set(flat))


# ---------------------------------------------------------------------------
# oval line counts
# ---------------------------------------------------------------------------

def test_oval_counts_constant_on_orbits():
    for mu in range(4):
        for orb in cremona_orbits(mu):
            counts = {oval_line_count(l, mu) for l in orb}
            assert len(counts) == 1


def test_oval_count_formula_equals_incidence_all_labels():
    for mu in range(4):
        for lab in point_labels(mu):
            assert oval_line_count(lab, mu) == oval_line_count_incidence(lab, mu)


def test_oval_count_table():
    # per orbit: 16 and 12 and 0 at mu=0; 8/0; 4/0; 0
    assert oval_line_count((2, 4), 0) == 16
    assert oval_line_count((0, 6), 0) == 12
    assert oval_line_count((6, 0), 0) == 0
    assert oval_line_count((0, 4), 1) == 8
    assert oval_line_count((4, 0), 1) == 0
    assert oval_line_count((0, 2), 2) == 4
    assert oval_line_count((2, 0), 2) == 0
    assert oval_line_count((0, 0), 3) == 0


def test_node_line_counts_by_rule():
    # zero when b = 0; otherwise 4, 8, or the two mu=0 values 12 and 16
    for mu in range(4):
        for (a, b) in point_labels(mu):
            n = oval_line_count((a, b), mu)
            if b == 0:
                assert n == 0
            elif a + b == 2:
                assert n == 4
            elif a + b == 4:
                assert n == 8
            else:
                assert n in (12, 16)


def test_oval_count_rejects_bad_label():
    with pytest.raises(ValueError):
        oval_line_count((1, 1), 0)
    with pytest.raises(ValueError):
        oval_line_count((-1, 7), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.data())
def test_oval_count_bounded_by_total(mu, data):
    lab = data.draw(st.sampled_from(point_labels(mu)))
    n = oval_line_count(lab, mu)
    assert 0 <= n <= real_line_total(mu)


# ---------------------------------------------------------------------------
# class table
# ---------------------------------------------------------------------------

def test_class_table_shape():
    assert sorted(CLASSES) == list(range(1, 16))
    per_proj = {}
    for cid, c in CLASSES.items():
        per_proj.setdefault(c["projective"], []).append(cid)
    assert {k: len(v) for k, v in per_proj.items()} == {
        "C3b": 3, "C3a": 2, "C7": 3, "C15": 3, "C27": 4}


def test_class_labels_sum_to_line_totals():
    for cid, c in CLASSES.items():
        total = PROJECTIVE_CLASSES[c["projective"]]["real_lines"]
        assert sum(c["label"]) == total


def test_class_oval_lines_match_labels():
    for cid, c in CLASSES.items():
        if c["components"] == 2 and c["oval_lines"] is not None:
            assert c["label"][1] == c["oval_lines"]


def test_class_oval_counts_are_orbit_values():
    # every two-component class outside C3b carries an orbit oval count
    for cid, c in CLASSES.items():
        if c["components"] != 2 or c["projective"] == "C3b":
            continue
        mu = PROJECTIVE_CLASSES[c["projective"]]["mu"]
        orbit_counts = {oval_line_count(o[0], mu) for o in cremona_orbits(mu)}
        assert c["oval_lines"] in orbit_counts


def test_class_id_for_decision_table():
    assert class_id_for("C27", 1) == 12
    assert class_id_for("C27", 2, oval_lines=16) == 13
    assert class_id_for("C27", 2, oval_lines=12) == 14
    assert class_id_for("C27", 2, oval_lines=0) == 15
    assert class_id_for("C15", 2, oval_lines=8) == 10
    assert class_id_for("C15", 2, oval_lines=0) == 11
    assert class_id_for("C7", 2, oval_lines=4) == 7
    assert class_id_for("C7", 2, oval_lines=0) == 8
    assert class_id_for("C3a", 2, oval_lines=0) == 5
    assert class_id_for("C3b", 2, oval_in_sphere=True) == 3
    assert class_id_for("C3b", 2, oval_in_sphere=False) == 2
    with pytest.raises(ValueError):
        class_id_for("C27", 2, oval_lines=8)
    with pytest.raises(ValueError):
        class_id_for("C3b", 2)


def test_class_rows_join_their_projective_class():
    row = CLASSES[13]
    projective = PROJECTIVE_CLASSES[row["projective"]]
    assert projective["real_lines"] == 27 and projective["euler"] == -5
    assert row["q"] == 0 and CLASSES[14]["q"] == 2


# ---------------------------------------------------------------------------
# wall graph
# ---------------------------------------------------------------------------

def test_wall_graph_loads_and_validates():
    g = load_wall_graph()
    assert validate_wall_graph(g) == []


def test_wall_graph_counts():
    g = load_wall_graph()
    assert len(g.vertices) == 15
    assert len(g.edges) == 15


def test_wall_graph_decoration_census():
    g = load_wall_graph()
    pair = [tuple(e["wall"]) for e in g.edges if len(e["wall"]) == 2]
    assert pair.count((0, 0)) == 2
    others = [w for w in pair if w != (0, 0)]
    assert len(others) == len(set(others)) == 9


def test_wall_graph_neighbours_and_lookup():
    g = load_wall_graph()
    assert g.wall_between(13, 10) == (2, 4)
    assert g.wall_between(5, 2) == (0, 0)
    assert any({e["u"], e["v"]} == {11, 14} and e["wall"] == [0, 6]
               for e in g.edges)
    with pytest.raises(InvalidArrangement):
        g.wall_between(13, 15)


def test_validator_catches_mutations():
    g = load_wall_graph()
    g.edges[0] = dict(g.edges[0])
    g.edges[0]["wall"] = [5]
    assert validate_wall_graph(g) != []

    g2 = load_wall_graph()
    g2.vertices[13] = dict(g2.vertices[13], label=[12, 15])
    assert validate_wall_graph(g2) != []

    g3 = load_wall_graph()
    g3.edges.pop()
    assert validate_wall_graph(g3) != []

    g4 = load_wall_graph()
    g4.vertices[8] = dict(g4.vertices[8], black=False)
    assert validate_wall_graph(g4) != []


def test_wall_drop_equals_twice_wall_sum():
    # crossing a wall between different line totals kills 2(a+b) lines
    g = load_wall_graph()
    for e in g.edges:
        u, v = g.vertices[e["u"]], g.vertices[e["v"]]
        tu, tv = sum(u["label"]), sum(v["label"])
        if tu != tv:
            assert abs(tu - tv) == 2 * sum(e["wall"])


def test_black_classes():
    g = load_wall_graph()
    blacks = sorted(cid for cid, v in g.vertices.items() if v["black"])
    assert blacks == [2, 5, 8, 11, 15]


# ---------------------------------------------------------------------------
# wall table
# ---------------------------------------------------------------------------

def test_wall_table_totals():
    rows = wall_table()
    assert sum(r["ordinary_walls"] for r in rows) == TOTAL_ORDINARY_WALLS == 22
    assert sum(r["extended_walls"] for r in rows) == TOTAL_EXTENDED_WALLS == 15


def test_wall_table_verbatim():
    assert CONNECTED_WALL_COUNTS == {0: 1, 2: 1, 4: 1, 6: 3}
    assert PAIR_WALL_COUNTS == {
        (0, 0): 2,
        (0, 2): 1, (2, 0): 2,
        (0, 4): 1, (2, 2): 1, (4, 0): 2,
        (0, 6): 1, (2, 4): 2, (4, 2): 1, (6, 0): 3,
    }


def test_wall_table_covers_graph_decorations():
    g = load_wall_graph()
    rows = {tuple(r["wall"]): r for r in wall_table()}
    for e in g.edges:
        assert tuple(e["wall"]) in rows
    # and each row's extended wall count equals its number of graph edges
    from collections import Counter
    per = Counter(tuple(e["wall"]) for e in g.edges)
    for wall, row in rows.items():
        assert per[wall] == row["extended_walls"]
