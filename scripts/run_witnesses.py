#!/usr/bin/env python3
"""Re-derive the full report for every shipped witness surface.

Prints one line per witness comparing the computed report against the
expected fields stored alongside it, then every warning the report
carries, and exits nonzero on any mismatch or warning: a warning means the
classifier found something suspect.
Useful after touching the classifier: the witness file is the frozen
ground truth, this script is the fast way to re-check all 15 classes.
"""

import argparse
import sys
import time

from realcubic.classify import classify_surface, load_witnesses


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--class-id", type=int, default=None,
                    help="only run the witness for this class")
    ap.add_argument("--verbose", action="store_true",
                    help="print the full computed report")
    ns = ap.parse_args()

    failures = 0
    for w in load_witnesses():
        if ns.class_id is not None and w["class_id"] != ns.class_id:
            continue
        t0 = time.perf_counter()
        rep = classify_surface(w["surface"], w["plane"])
        dt = time.perf_counter() - t0
        got = rep.as_dict()
        bad = []
        if rep.class_id != w["class_id"]:
            bad.append(f"class_id {rep.class_id} != {w['class_id']}")
        for key, want in w["expected"].items():
            if key in got and got[key] != want:
                bad.append(f"{key} {got[key]!r} != {want!r}")
        if rep.warnings:
            bad.append(f"{len(rep.warnings)} warning(s)")
        status = "ok" if not bad else "FAIL " + "; ".join(bad)
        print(f"class {w['class_id']:2d}  {w['name']:45s} {dt:5.1f}s  {status}")
        if ns.verbose:
            for k in sorted(got):
                print(f"    {k}: {got[k]}")
        for msg in rep.warnings:
            print(f"    warning: {msg}")
        failures += bool(bad)
    if failures:
        print(f"{failures} witness(es) disagree or warn", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
