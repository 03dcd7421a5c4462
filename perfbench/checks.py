"""Output checks.  None compares against a stored copy of earlier output:
each is computed apart from the program or is a property the method must
have.  Every function returns a list of problems, empty when all hold.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# Segre's real line counts per projective class
SEGRE_LINES = {"C27": 27, "C15": 15, "C7": 7, "C3a": 3, "C3b": 3}

# projective class of each of the 15 affine classes, as the witnesses
# were constructed
CLASS_PROJECTIVE = {1: "C3b", 2: "C3b", 3: "C3b", 4: "C3a", 5: "C3a",
                    6: "C7", 7: "C7", 8: "C7", 9: "C15", 10: "C15",
                    11: "C15", 12: "C27", 13: "C27", 14: "C27", 15: "C27"}


def _ok(out) -> bool:
    return "error" not in out


def _report_problems(where: str, out: dict, witness: int) -> list:
    want = CLASS_PROJECTIVE[witness]
    problems = []
    if out["projective_class"] != want:
        problems.append(f"{where}: projective class {out['projective_class']}"
                        f", the surface of witness {witness} is {want}")
    if out["real_lines"] != SEGRE_LINES.get(out["projective_class"]):
        problems.append(f"{where}: {out['real_lines']} real lines on a "
                        f"{out['projective_class']} surface")
    return problems


def check_pool(pool: list, outputs: list, whole: bool = True) -> list:
    """Witnesses get their constructed class, which for a whole pool
    covers 1..15; extra-plane entries keep their surface's
    projective class; every report's real line count is Segre's for its
    projective class."""
    problems = []
    if len(outputs) != len(pool):
        return [f"{len(outputs)} reports for {len(pool)} inputs"]
    constructed = sorted(e["class_id"] for e in pool
                         if e["class_id"] is not None)
    if whole and constructed != list(range(1, 16)):
        problems.append(f"witness classes {constructed} do not cover 1..15")
    for entry, out in zip(pool, outputs):
        if not _ok(out):
            continue
        where = entry["source"]
        if entry["class_id"] is not None and out["class_id"] != entry["class_id"]:
            problems.append(f"{where}: class {out['class_id']}, constructed "
                            f"as class {entry['class_id']}")
        problems += _report_problems(where, out, entry["witness"])
    return problems


def check_batch(pool: list, entries: list, outputs: list) -> list:
    """Each entry's report has the class of its pool source: the
    constructed class for a witness, and for an extra plane the class the
    same batch reports for the untransformed entry.  A report out of input
    order breaks this unless it is interchangeable with the right one."""
    if len(outputs) != len(entries):
        return [f"{len(outputs)} results for {len(entries)} batch lines"]
    problems = []
    by_src = {}
    for entry, out in zip(entries, outputs):
        if not _ok(out):
            continue
        src = pool[entry["src"]]
        problems += _report_problems(entry["source"], out, src["witness"])
        want = src["class_id"]
        if want is not None and out["class_id"] != want:
            problems.append(f"{entry['source']}: class {out['class_id']}, "
                            f"source constructed as class {want}")
        by_src.setdefault(entry["src"], set()).add(out["class_id"])
    for src, classes in sorted(by_src.items()):
        if len(classes) != 1:
            problems.append(f"{pool[src]['source']} and its affine image "
                            f"disagree: classes {sorted(classes)}")
    return problems


def plucker_separation(p, q) -> float:
    """Sine of the angle between two Pluecker vectors (phase-invariant)."""
    p = p / np.linalg.norm(p)
    q = q / np.linalg.norm(q)
    return float(np.linalg.norm(p - np.vdot(q, p) * q))


def check_lines(linesets: list, triples_per_call: list,
                sep: float = 1e-6) -> list:
    """27 pairwise distinct lines per solve; 45 tritangent triples with
    every line in exactly 5 of them."""
    problems = []
    for k, data in enumerate(linesets):
        P = [np.array([complex(re, im) for re, im in line]) for line in data]
        if len(P) != 27:
            problems.append(f"line set {k}: {len(P)} lines")
            continue
        closest = min(plucker_separation(P[i], P[j])
                      for i in range(27) for j in range(i + 1, 27))
        if closest < sep:
            problems.append(f"line set {k}: two lines {closest:.1e} apart")
    for k, triples in enumerate(triples_per_call):
        if len(triples) != 45:
            problems.append(f"tritangent call {k}: {len(triples)} triples")
        per_line = Counter(i for t in triples for i in t)
        if sorted(per_line) != list(range(27)) or \
                set(per_line.values()) != {5}:
            problems.append(f"tritangent call {k}: per-line incidence "
                            f"{sorted(Counter(per_line.values()).items())}")
    return problems


def _label_key(label):
    return tuple(label) if isinstance(label, list) else (label,)


def check_walls(pairs: list, outputs: list, wall_types: set) -> list:
    """Crossings equal the independently counted real common points, both
    counts are even, and the label is a wall type of the wall table."""
    if len(outputs) != len(pairs):
        return [f"{len(outputs)} labels for {len(pairs)} pairs"]
    problems = []
    for k, (pair, out) in enumerate(zip(pairs, outputs)):
        if not _ok(out):
            continue
        p, o = out["pseudoline_crossings"], out["oval_crossings"]
        if out["real_crossings"] != pair["real_points"]:
            problems.append(f"pair {k}: {out['real_crossings']} crossings, "
                            f"{pair['real_points']} real common points")
        if p + (o or 0) != out["real_crossings"]:
            problems.append(f"pair {k}: crossings {p} + {o} do not sum to "
                            f"{out['real_crossings']}")
        if p % 2 or (o is not None and o % 2):
            problems.append(f"pair {k}: odd crossing count {p}, {o}")
        if (o is None) != (out["curve_components"] == 1):
            problems.append(f"pair {k}: oval count {o} with "
                            f"{out['curve_components']} components")
        if _label_key(out["label"]) not in wall_types:
            problems.append(f"pair {k}: label {out['label']} is no wall type")
    return problems


def check_invariance(indices: list, before: list, after: list) -> list:
    """The label survives a projective change of both curves."""
    problems = []
    for k, old, new in zip(indices, before, after):
        if not (_ok(old) and _ok(new)):
            continue
        if old["label"] != new["label"]:
            problems.append(f"pair {k}: label {old['label']} becomes "
                            f"{new['label']} after a projective change")
    return problems


def check_same_bytes(what: str, a: bytes, b: bytes) -> list:
    return [] if a == b else [f"{what}: outputs differ"]
