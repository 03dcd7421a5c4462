"""Self-test of the benchmark: every workload at a tiny size, and every
output check shown to reject a deliberately corrupted result.

    python3 perfbench/selftest.py

Exits 0 when all pass.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys

import run

SEED = 7


def bench_tiny(workload: str, trace: bool) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.bench(workload, SEED, 1, trace, run.TINY)
    assert code == 0, f"{workload}: exit {code}"
    return json.loads(buf.getvalue().splitlines()[-1])


def test_workloads(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, want in ((False, e2e), (True, layers)):
            res = bench_tiny(w["name"], trace)
            assert res["correct"] is True, (w["name"], trace)
            assert res["failed"] == 0 and res["attempted"] >= 1, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            if not trace:
                assert all(v["value"] > 0 for v in res["metrics"].values())
            print(f"ok  {w['name']} trace={int(trace)}: "
                  f"{res['attempted']} operations")


def rejects(what: str, problems: list) -> None:
    assert problems, f"check accepted a corrupted result: {what}"
    print(f"ok  rejects {what}: {problems[0]}")


def test_pool_checks() -> None:
    import checks
    import inputs

    pool = [inputs.witness_pool(run.ROOT)[i] for i in run.TINY["pool"]]
    texts = [{"surface": e["surface"], "plane": e["plane"]} for e in pool]
    res, _ = run.in_process("classify", texts, 0, True, "selftest-pool")
    good = res["outputs"]
    assert checks.check_pool(pool, good, whole=False) == []
    assert checks.check_pool(inputs.witness_pool(run.ROOT)[:15],
                             [{"error": {}}] * 15) == []

    bad = copy.deepcopy(good)
    bad[0]["class_id"] += 1
    rejects("a class id off by one", checks.check_pool(pool, bad, False))
    bad = copy.deepcopy(good)
    bad[2]["projective_class"] = "C3a"
    rejects("an extra plane changing the projective class",
            checks.check_pool(pool, bad, False))
    bad = copy.deepcopy(good)
    bad[1]["real_lines"] = 7
    rejects("a real line count off Segre's",
            checks.check_pool(pool, bad, False))
    rejects("a pool without all 15 witnesses",
            checks.check_pool(pool, good, whole=True))

    t = res["trace"]
    assert checks.check_lines(t["linesets"], t["triples"]) == []
    sets = copy.deepcopy(t["linesets"])
    sets[0][5] = sets[0][4]
    rejects("a repeated line", checks.check_lines(sets, t["triples"]))
    sets = copy.deepcopy(t["linesets"])
    sets[0].pop()
    rejects("26 lines", checks.check_lines(sets, t["triples"]))
    triples = copy.deepcopy(t["triples"])
    triples[0].pop()
    rejects("44 tritangent triples", checks.check_lines(t["linesets"],
                                                        triples))
    triples = copy.deepcopy(t["triples"])
    triples[0][0] = [triples[0][0][0], triples[0][0][1], triples[0][1][2]]
    rejects("a line in 6 tritangent planes",
            checks.check_lines(t["linesets"], triples))


def test_wall_checks() -> None:
    import checks
    import inputs
    from realcubic.combinat import wall_table

    types = {tuple(r["wall"]) for r in wall_table()}
    pairs = inputs.wall_pairs(4)
    texts = [{"conic": p["conic"], "cubic": p["cubic"]} for p in pairs]
    res, _ = run.in_process("wall_label", texts, 0, False, "selftest-walls")
    good = res["outputs"]
    assert checks.check_walls(pairs, good, types) == []

    bad = copy.deepcopy(good)
    bad[0]["pseudoline_crossings"] += 2
    bad[0]["real_crossings"] += 2
    if isinstance(bad[0]["label"], list):
        bad[0]["label"][0] += 2
    else:
        bad[0]["label"] += 2
    rejects("a crossing count plus two", checks.check_walls(pairs, bad, types))
    bad = copy.deepcopy(good)
    bad[1]["pseudoline_crossings"] += 1
    bad[1]["real_crossings"] += 1
    pairs_odd = copy.deepcopy(pairs)
    pairs_odd[1]["real_points"] += 1
    rejects("an odd crossing count", checks.check_walls(pairs_odd, bad, types))
    bad = copy.deepcopy(good)
    bad[2]["label"] = [8, 0]
    rejects("a label outside the wall table",
            checks.check_walls(pairs, bad, types))
    after = copy.deepcopy(good)
    after[3]["label"] = [0, 2] if after[3]["label"] != [0, 2] else [2, 0]
    rejects("a label changed by a projective change",
            checks.check_invariance([0, 1, 2, 3], good, after))

    # the independent count agrees with a hand-checked pair: the unit
    # circle meets y = x^3 in two real points
    B = inputs.parse("x^2 + y^2 - z^2", inputs.PLANE)
    C = inputs.parse("y*z^2 - x^3", inputs.PLANE)
    assert inputs.real_intersections(B, C, random.Random(0)) == 2
    # and refuses a tangency: both curves touch y = 0 at the origin
    B = inputs.parse("y*z - x^2", inputs.PLANE)
    C = inputs.parse("y*z^2 + x^3 + y^3", inputs.PLANE)
    assert inputs.real_intersections(B, C, random.Random(0)) is None
    assert not inputs.cubic_nonsingular(inputs.parse("y^2*z - x^3",
                                                     inputs.PLANE))
    assert not inputs.conic_nondegenerate(inputs.parse("x*y", inputs.PLANE))
    print("ok  independent conic-cubic count and draw filters")


def test_batch_checks() -> None:
    import checks
    import inputs

    pool = inputs.witness_pool(run.ROOT)
    keep = set(run.TINY["pool"][:2])
    entries = [e for e in inputs.batch_entries(pool, SEED) if e["src"] in keep]
    path = run.OUT / "selftest-batch.txt"
    run._batch_file(entries, path)
    raw, good, _ = run._batch_call(path, 2, "selftest-batch")
    assert checks.check_batch(pool, entries, good) == []

    bad = copy.deepcopy(good)
    i = next(k for k, e in enumerate(entries) if e["source"].startswith("aff"))
    bad[i]["class_id"] += 1
    rejects("an affine image changing class",
            checks.check_batch(pool, entries, bad))
    j = next(k for k in range(len(good))
             if good[k]["class_id"] != good[0]["class_id"])
    bad = copy.deepcopy(good)
    bad[0], bad[j] = bad[j], bad[0]
    rejects("results out of input order",
            checks.check_batch(pool, entries, bad))
    rejects("different bytes", checks.check_same_bytes("j", raw, raw + b" "))


def test_refuses_without_program() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command fails at once and prints no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walls", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok  refuses without the program: exit {proc.returncode}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    test_refuses_without_program()
    test_pool_checks()
    test_wall_checks()
    test_batch_checks()
    test_workloads(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
