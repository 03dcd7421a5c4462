"""Combinatorics of real cubic surfaces: Cremona moves on point labels,
line counts through curve components, the wall-crossing graph, and the
wall-count table.

A surface in projective class C27/C15/C7/C3a/C3b is modelled as the plane
blown up in 6 points, mu of whose pairs are complex conjugate
(mu = 0, 1, 2, 3).  A two-component hyperplane section curve splits the
6 - 2mu real points between its components; the pair (a, b) records that
split.  Everything here is exact integer combinatorics and serves as the
independent cross-check for the numeric classifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb

from .errors import InvalidArrangement

Label = tuple  # (a, b)

# ---------------------------------------------------------------------------
# projective classes and the frozen affine class table
# ---------------------------------------------------------------------------

PROJECTIVE_CLASSES = {
    "C27": {"mu": 0, "real_lines": 27, "euler": -5, "topology": "RP2 # 3T2"},
    "C15": {"mu": 1, "real_lines": 15, "euler": -3, "topology": "RP2 # 2T2"},
    "C7":  {"mu": 2, "real_lines": 7,  "euler": -1, "topology": "RP2 # T2"},
    "C3a": {"mu": 3, "real_lines": 3,  "euler": 1,  "topology": "RP2"},
    "C3b": {"mu": 3, "real_lines": 3,  "euler": 3,  "topology": "RP2 + S2"},
}


def real_line_total(mu: int) -> int:
    """Real lines on a surface with mu conjugate pairs: 27, 15, 7, 3."""
    r = 6 - 2 * mu
    return 2 * r + comb(r, 2) + mu


# One row per affine deformation class.  label is the pair
# (lines meeting the pseudoline image, lines meeting the oval image) for
# two-component sections, or the total line count for connected ones.
# oval_lines is None where the section has no oval or (C3b) the theory
# leaves the count open.  black marks the classes drawn filled in the
# wall-crossing graph: two components, no line meets the oval, and the oval
# does not sit on the spherical part.
CLASSES = {
    1:  {"projective": "C3b", "components": 1, "label": (3,),
         "oval_lines": None, "b0": 2, "black": False, "oval_in_sphere": None,
         "q": None, "description": "connected section on the RP2 part, sphere untouched"},
    2:  {"projective": "C3b", "components": 2, "label": (3, 0),
         "oval_lines": None, "b0": 2, "black": True, "oval_in_sphere": False,
         "q": None, "description": "oval and pseudoline both on the RP2 part"},
    3:  {"projective": "C3b", "components": 2, "label": (3, 0),
         "oval_lines": None, "b0": 3, "black": False, "oval_in_sphere": True,
         "q": None, "description": "oval on the sphere, pseudoline on the RP2 part"},
    4:  {"projective": "C3a", "components": 1, "label": (3,),
         "oval_lines": None, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": None, "description": "connected section"},
    5:  {"projective": "C3a", "components": 2, "label": (3, 0),
         "oval_lines": 0, "b0": 2, "black": True, "oval_in_sphere": None,
         "q": None, "description": "oval meets no line"},
    6:  {"projective": "C7", "components": 1, "label": (7,),
         "oval_lines": None, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": None, "description": "connected section"},
    7:  {"projective": "C7", "components": 2, "label": (3, 4),
         "oval_lines": 4, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": None, "description": "oval meets 4 of the 7 lines"},
    8:  {"projective": "C7", "components": 2, "label": (7, 0),
         "oval_lines": 0, "b0": 2, "black": True, "oval_in_sphere": None,
         "q": None, "description": "oval meets no line"},
    9:  {"projective": "C15", "components": 1, "label": (15,),
         "oval_lines": None, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": None, "description": "connected section"},
    10: {"projective": "C15", "components": 2, "label": (7, 8),
         "oval_lines": 8, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": None, "description": "oval meets 8 of the 15 lines"},
    11: {"projective": "C15", "components": 2, "label": (15, 0),
         "oval_lines": 0, "b0": 2, "black": True, "oval_in_sphere": None,
         "q": None, "description": "oval meets no line"},
    12: {"projective": "C27", "components": 1, "label": (27,),
         "oval_lines": None, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": None, "description": "connected section"},
    13: {"projective": "C27", "components": 2, "label": (11, 16),
         "oval_lines": 16, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": 0, "description": "oval meets 16 lines, q(O) = 0"},
    14: {"projective": "C27", "components": 2, "label": (15, 12),
         "oval_lines": 12, "b0": 1, "black": False, "oval_in_sphere": None,
         "q": 2, "description": "oval meets 12 lines, q(O) = 2"},
    15: {"projective": "C27", "components": 2, "label": (27, 0),
         "oval_lines": 0, "b0": 2, "black": True, "oval_in_sphere": None,
         "q": None, "description": "oval meets no line"},
}


def class_id_for(projective: str, components: int,
                 oval_lines: int = None, oval_in_sphere: bool = None) -> int:
    """The frozen class id for a combination of decided invariants."""
    if components == 1:
        return {"C3b": 1, "C3a": 4, "C7": 6, "C15": 9, "C27": 12}[projective]
    if projective == "C3b":
        if oval_in_sphere is None:
            raise ValueError("C3b two-component classes need the sphere flag")
        return 3 if oval_in_sphere else 2
    table = {
        "C27": {16: 13, 12: 14, 0: 15},
        "C15": {8: 10, 0: 11},
        "C7": {4: 7, 0: 8},
        "C3a": {0: 5},
    }[projective]
    if oval_lines not in table:
        raise ValueError(
            f"no {projective} class has oval line count {oval_lines}")
    return table[oval_lines]


# ---------------------------------------------------------------------------
# Cremona moves and orbits
# ---------------------------------------------------------------------------

def point_labels(mu: int) -> list:
    """All splits (a, b) of the 6 - 2mu real points."""
    r = 6 - 2 * mu
    return [(a, r - a) for a in range(r + 1)]


def apply_move(label: Label, move: int, mu: int):
    """One elementary transformation; None when the move does not apply.

    move 1 needs b >= 3, move 2 needs a >= 2 and b >= 1, move 3 needs
    b >= 1 and a conjugate pair to use (mu >= 1).
    """
    a, b = label
    if move == 1 and b >= 3:
        return (b - 3, a + 3)
    if move == 2 and a >= 2 and b >= 1:
        return (b + 1, a - 1)
    if move == 3 and b >= 1 and mu >= 1:
        return (b - 1, a + 1)
    return None


def move_images(label: Label, mu: int) -> dict:
    out = {}
    for m in (1, 2, 3):
        img = apply_move(label, m, mu)
        if img is not None:
            out[m] = img
    return out


class UnionFind:
    """Disjoint sets over hashable items, each a singleton until joined."""

    def __init__(self):
        self.parent = {}

    def find(self, a):
        p = self.parent.setdefault(a, a)
        if p != a:
            self.parent[a] = p = self.find(p)
        return p

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def cremona_orbits(mu: int) -> list:
    """Orbits of point labels under the moves, as sorted tuples of labels,
    ordered by their smallest member."""
    labels = point_labels(mu)
    uf = UnionFind()
    for lab in labels:
        for img in move_images(lab, mu).values():
            uf.union(lab, img)
    groups: dict = {}
    for lab in labels:
        groups.setdefault(uf.find(lab), []).append(lab)
    orbits = [tuple(sorted(g)) for g in groups.values()]
    orbits.sort(key=lambda o: o[0])
    return orbits


# ---------------------------------------------------------------------------
# lines meeting the oval
# ---------------------------------------------------------------------------

def oval_line_count(label: Label, mu: int) -> int:
    """Real lines meeting the oval image, from the closed form.

    For even b the b points sit on the two-sided component and the count is
    2b + ab.  For odd b the blow-down model puts the two-sided plane
    component over the other section component, so the complementary count
    applies.  Constant on Cremona orbits.
    """
    a, b = label
    if a + b != 6 - 2 * mu or a < 0 or b < 0:
        raise ValueError(f"{label} is not a point label for mu={mu}")
    if b % 2 == 0:
        return 2 * b + a * b
    return real_line_total(mu) - ((6 - 2 * mu) + a * b)


def line_catalog(mu: int) -> list:
    """The 27 lines in the blown-up-plane model with reality flags.

    Points 0..5; the first 6 - 2mu are real, the rest form conjugate pairs.
    Returns dicts with kind ('E', 'L', 'Q'), the defining point indices,
    and 'real'.
    """
    r = 6 - 2 * mu
    real = lambda i: i < r
    conj = lambda i, j: i >= r and j == i + 1 and (i - r) % 2 == 0
    lines = []
    for i in range(6):
        lines.append({"kind": "E", "points": (i,), "real": real(i)})
    for i in range(6):
        for j in range(i + 1, 6):
            lines.append({
                "kind": "L", "points": (i, j),
                "real": (real(i) and real(j)) or conj(i, j),
            })
    for i in range(6):
        lines.append({"kind": "Q", "points": (i,), "real": real(i)})
    assert len(lines) == 27
    return lines


def oval_line_count_incidence(label: Label, mu: int) -> int:
    """Independent count by walking the 27-line catalog.

    The b points sit on the two-sided plane component, the a points on the
    one-sided one.  A line meets a component when a leftover intersection
    with the plane cubic (one not blown up) lands there, and parity pins
    every leftover down: intersections with the two-sided component come in
    pairs.  For odd b the two-sided plane component blows down to the
    section's pseudoline, so the oval count is the complement.
    """
    a, b = label
    if a + b != 6 - 2 * mu or a < 0 or b < 0:
        raise ValueError(f"{label} is not a point label for mu={mu}")
    r = 6 - 2 * mu
    on_b = lambda i: i < b          # real points 0..b-1 on the b-component
    meets_b = 0
    for line in line_catalog(mu):
        if not line["real"]:
            continue
        kind, pts = line["kind"], line["points"]
        if kind == "E":
            hit = on_b(pts[0])
        elif kind == "L":
            i, j = pts
            if i < r and j < r:
                # the third intersection point lands on the two-sided
                # component exactly when the blown-up pair is mixed
                hit = on_b(i) != on_b(j)
            else:
                # conjugate-pair line: its one real leftover point must
                # keep the intersection with the two-sided component even,
                # so it lands on the one-sided component
                hit = False
        else:   # Q: conic through the five other points
            i = pts[0]
            hit = (b - (1 if on_b(i) else 0)) % 2 == 1
        if hit:
            meets_b += 1
    if b % 2 == 0:
        return meets_b
    return real_line_total(mu) - meets_b


# ---------------------------------------------------------------------------
# wall-crossing graph
# ---------------------------------------------------------------------------

@dataclass
class WallGraph:
    vertices: dict          # class_id -> vertex record
    edges: list             # {"u", "v", "wall"} with wall [k] or [a, b]

    def wall_between(self, u: int, v: int) -> tuple:
        for e in self.edges:
            if {e["u"], e["v"]} == {u, v}:
                return tuple(e["wall"])
        raise InvalidArrangement(f"classes {u} and {v} share no wall")


def load_wall_graph() -> WallGraph:
    text = resources.files("realcubic.data").joinpath("wall_graph.json").read_text()
    raw = json.loads(text)
    vertices = {v["class_id"]: v for v in raw["vertices"]}
    return WallGraph(vertices=vertices, edges=raw["edges"])


def _vertex_total(v: dict) -> int:
    lab = v["label"]
    return lab[0] if len(lab) == 1 else lab[0] + lab[1]


def validate_wall_graph(g: WallGraph) -> list:
    """Structural and arithmetic checks; returns a list of problems."""
    issues = []

    # census against the class table
    if sorted(g.vertices) != list(range(1, 16)):
        issues.append(f"vertex ids are {sorted(g.vertices)}, expected 1..15")
    for cid, v in sorted(g.vertices.items()):
        want = CLASSES.get(cid)
        if want is None:
            continue
        if tuple(v["label"]) != want["label"]:
            issues.append(f"class {cid}: label {v['label']} != {want['label']}")
        if v.get("black") != want["black"]:
            issues.append(f"class {cid}: black flag mismatch")
        if v.get("b0") != want["b0"]:
            issues.append(f"class {cid}: b0 {v.get('b0')} != {want['b0']}")
        total = _vertex_total(v)
        lines = PROJECTIVE_CLASSES[want["projective"]]["real_lines"]
        if total != lines:
            issues.append(f"class {cid}: label sums to {total}, not {lines}")

    if len(g.edges) != 15:
        issues.append(f"{len(g.edges)} edges, expected 15")
    seen_pairs = set()
    for e in g.edges:
        key = frozenset((e["u"], e["v"]))
        if key in seen_pairs:
            issues.append(f"duplicate edge {e['u']}-{e['v']}")
        seen_pairs.add(key)

    # arithmetic rule per edge
    for e in g.edges:
        u, v = g.vertices.get(e["u"]), g.vertices.get(e["v"])
        if u is None or v is None:
            issues.append(f"edge {e} references a missing vertex")
            continue
        wall = tuple(e["wall"])
        hi, lo = sorted((u, v), key=_vertex_total, reverse=True)
        Th, Tl = _vertex_total(hi), _vertex_total(lo)
        conn_u = len(u["label"]) == 1
        conn_v = len(v["label"]) == 1
        if len(wall) == 1:
            k = wall[0]
            if not (conn_u and conn_v):
                issues.append(f"edge {e}: single wall label on split classes")
            if Th - Tl != 2 * k:
                issues.append(f"edge {e}: line drop {Th - Tl} != 2*{k}")
            continue
        a, b = wall
        if conn_u or conn_v:
            issues.append(f"edge {e}: pair wall label on a connected class")
            continue
        if Th != Tl:
            if Th - Tl != 2 * (a + b):
                issues.append(f"edge {e}: line drop {Th - Tl} != 2(a+b)")
            if hi["label"][0] - lo["label"][0] != 2 * a:
                issues.append(f"edge {e}: pseudoline side drop != 2a")
            if hi["label"][1] - lo["label"][1] != 2 * b:
                issues.append(f"edge {e}: oval side drop != 2b")
        else:
            if a != 0:
                issues.append(f"edge {e}: equal-total wall must have a = 0")
            if {u["label"][1], v["label"][1]} != {0, 2 * b}:
                issues.append(f"edge {e}: oval counts not {{0, 2b}}")

    # decoration census: every even split appears once, (0,0) twice,
    # connected walls 0, 2, 4, 6 once each
    conn_walls = sorted(w[0] for w in
                        (tuple(e["wall"]) for e in g.edges) if len(w) == 1)
    if conn_walls != [0, 2, 4, 6]:
        issues.append(f"connected wall labels {conn_walls} != [0, 2, 4, 6]")
    pair_walls = sorted(tuple(e["wall"]) for e in g.edges
                        if len(e["wall"]) == 2)
    expected = sorted(
        [(a, s - a) for s in (2, 4, 6) for a in range(0, s + 1, 2)]
        + [(0, 0), (0, 0)])
    if pair_walls != expected:
        issues.append(f"pair wall labels {pair_walls} != {expected}")

    # wall labels must be valid point labels at the wall's own mu
    for e in g.edges:
        wall = tuple(e["wall"])
        if len(wall) == 2:
            a, b = wall
            if (a + b) % 2 or not 0 <= a + b <= 6:
                issues.append(f"edge {e}: wall is no point label")
            elif a % 2 or b % 2:
                issues.append(f"edge {e}: wall label has odd parts")

    # component structure: the connected-section chain is separate
    adj: dict = {cid: set() for cid in g.vertices}
    for e in g.edges:
        if e["u"] in adj and e["v"] in adj:
            adj[e["u"]].add(e["v"])
            adj[e["v"]].add(e["u"])

    def component(start):
        seen, todo = set(), [start]
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(adj[c] - seen)
        return seen

    if 12 in adj and component(12) != {12, 9, 6, 4, 1}:
        issues.append("connected-section chain is not 12-9-6-4-1")
    if 13 in adj and component(13) != {2, 3, 5, 7, 8, 10, 11, 13, 14, 15}:
        issues.append("two-component part does not span the other 10 classes")

    # black flag rule
    blacks = {cid for cid, v in g.vertices.items() if v.get("black")}
    rule = {cid for cid, w in CLASSES.items()
            if w["components"] == 2 and w["label"][1] == 0
            and not w["oval_in_sphere"]}
    if blacks != rule:
        issues.append(f"black classes {sorted(blacks)} != {sorted(rule)}")

    return issues


# ---------------------------------------------------------------------------
# wall counts (ordinary walls per label, and walls per graph edge)
# ---------------------------------------------------------------------------

# ordinary walls carrying each label; the (0, 0) label contributes one
# ordinary wall to each of its two graph edges
CONNECTED_WALL_COUNTS = {0: 1, 2: 1, 4: 1, 6: 3}
PAIR_WALL_COUNTS = {
    (0, 0): 2,
    (0, 2): 1, (2, 0): 2,
    (0, 4): 1, (2, 2): 1, (4, 0): 2,
    (0, 6): 1, (2, 4): 2, (4, 2): 1, (6, 0): 3,
}

TOTAL_ORDINARY_WALLS = 22
TOTAL_EXTENDED_WALLS = 15

WALL_ARRANGEMENT_NOTE = (
    "The 22 ordinary walls against the 25 conic-cubic arrangement classes: "
    "no bijection is asserted; matching walls to arrangements beyond the "
    "extremal ones is open."
)


def wall_table() -> list:
    """Rows of the wall-count table, connected labels first."""
    rows = []
    for k in sorted(CONNECTED_WALL_COUNTS):
        rows.append({"wall": [k], "ordinary_walls": CONNECTED_WALL_COUNTS[k],
                     "extended_walls": 1})
    for lab in sorted(PAIR_WALL_COUNTS):
        rows.append({"wall": list(lab), "ordinary_walls": PAIR_WALL_COUNTS[lab],
                     "extended_walls": 2 if lab == (0, 0) else 1})
    assert sum(r["ordinary_walls"] for r in rows) == TOTAL_ORDINARY_WALLS
    assert sum(r["extended_walls"] for r in rows) == TOTAL_EXTENDED_WALLS
    return rows
