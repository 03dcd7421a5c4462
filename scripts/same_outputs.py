#!/usr/bin/env python3
"""Check that two source trees print the same outputs on the usual inputs.

    python3 scripts/same_outputs.py PARENT CHANGE

PARENT and CHANGE are source checkouts, each run with its own `src/` and
`--jobs 1`, on inputs from this checkout's `perfbench/inputs.py`:
`classify --batch` and `lines --batch` on the 30 `batch` entries of seed 0
and 80 affine images of the 20 pool entries, `wall-label --batch` and
`curve --batch` on `wall_pairs(150)`, and `curve --batch` once more on
their 150 cubics alone, with no conic: the component count by itself.
Prints each set's verdict, with the first differing output line, and exits
1 on any difference.  Needs sympy, as perfbench does.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402


def input_sets(pool: list) -> dict:
    surfaces = inputs.batch_entries(pool, 0) + [
        inputs.transformed_entry(pool[i], random.Random(f"same {k} {i}"))
        for k in range(4) for i in range(len(pool))]
    pairs = inputs.wall_pairs(150)
    return {
        "classify": [{"surface": e["surface"], "plane": e["plane"]}
                     for e in surfaces],
        "lines": [{"surface": e["surface"]} for e in surfaces],
        "wall-label": [{"conic": p["conic"], "cubic": p["cubic"]}
                       for p in pairs],
        "curve": [{"cubic": p["cubic"], "conic": p["conic"]} for p in pairs],
        "curve (no conic)": [{"cubic": p["cubic"]} for p in pairs],
    }


def run(tree: str, cmd: str, entries: list) -> tuple:
    """(exit code, stdout lines) of `cmd --batch` on the entries in tree."""
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as fh:
        fh.write("".join(json.dumps(e) + "\n" for e in entries))
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "realcubic.cli", cmd, "--batch", fh.name,
             "--jobs", "1"], env=env, capture_output=True, text=True)
    finally:
        os.unlink(fh.name)
    return done.returncode, done.stdout.splitlines()


def compare(parent: str, change: str, sets: dict) -> bool:
    """Run each set, named by its subcommand and an optional remark, in
    both trees and print its verdict."""
    same = True
    for name, entries in sets.items():
        cmd = name.split()[0]
        (code_a, a), (code_b, b) = (run(parent, cmd, entries),
                                    run(change, cmd, entries))
        if (code_a, a) == (code_b, b):
            print(f"{name}: {len(entries)} inputs, same output "
                  f"(exit {code_a})")
            continue
        same = False
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        print(f"{name}: DIFFERS, exit {code_a} / {code_b}, line {k + 1}:\n"
              f"  parent: {a[k] if k < len(a) else '<end>'}\n"
              f"  change: {b[k] if k < len(b) else '<end>'}")
    return same


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    pool = inputs.witness_pool(ROOT)
    sys.exit(0 if compare(*sys.argv[1:], input_sets(pool)) else 1)
