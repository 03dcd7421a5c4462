#!/usr/bin/env python3
"""Re-run the calibration behind REAL_TRITANGENT_PLANES.

The classifier separates the two 3-line projective classes by the number
of real tritangent planes, a count frozen in classify.REAL_TRITANGENT_PLANES
after being measured on explicit witnesses.  This script repeats that
measurement: for one witness per projective class it solves the 27 lines,
counts the real tritangent triples, and prints the measured value next to
the frozen one.  For the two 3-line classes it also runs the independent
sphere probe so the two discriminating tests can be compared side by side.
"""

import sys
import time

from realcubic.classify import (
    REAL_TRITANGENT_PLANES,
    _SurfaceProbe,
    _find_sphere_interior,
    as_projective_cubic,
    load_witnesses,
    real_tritangent_count,
)
from realcubic.config import DEFAULT
from realcubic.lines import solve_lines

# one witness per projective class; the frozen constants were measured
# on exactly these surfaces
REPRESENTATIVES = {"C27": 12, "C15": 9, "C7": 6, "C3a": 4, "C3b": 1}


def main() -> int:
    by_id = {w["class_id"]: w for w in load_witnesses()}
    mismatches = 0
    print(f"{'class':5s} {'witness':3s} {'real lines':>10s} "
          f"{'tritangent':>10s} {'frozen':>6s} {'sphere':>7s} {'time':>6s}")
    for cls, cid in REPRESENTATIVES.items():
        w = by_id[cid]
        F = as_projective_cubic(w["surface"])
        t0 = time.perf_counter()
        ls = solve_lines(F, DEFAULT.lines)
        nreal = real_tritangent_count(ls)
        sphere = "-"
        if cls in ("C3a", "C3b"):
            probe = _SurfaceProbe(F, DEFAULT.classify.seed)
            found = _find_sphere_interior(probe)
            sphere = "yes" if found is not None else "no"
        dt = time.perf_counter() - t0
        frozen = REAL_TRITANGENT_PLANES[cls]
        mark = "" if nreal == frozen else "  <- MISMATCH"
        print(f"{cls:5s} {cid:3d} {ls.real_count:10d} {nreal:10d} "
              f"{frozen:6d} {sphere:>7s} {dt:5.1f}s{mark}")
        mismatches += nreal != frozen
        if cls == "C3a" and sphere == "yes":
            print("      sphere probe found an interior on C3a", file=sys.stderr)
            mismatches += 1
        if cls == "C3b" and sphere == "no":
            print("      sphere probe missed the C3b sphere", file=sys.stderr)
            mismatches += 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
