#!/usr/bin/env python3
"""Re-run the calibration behind REAL_TRITANGENT_PLANES.

The classifier separates the two 3-line projective classes by the number
of real tritangent planes, a count frozen in classify.REAL_TRITANGENT_PLANES
after being measured on explicit witnesses.  This script repeats that
measurement: for one witness per projective class it solves the 27 lines,
counts the real tritangent triples, and prints the measured value next to
the frozen one.

It then runs the exact sphere flag, `oval_in_sphere`, on the three 3-line
witnesses whose section has an oval.  Witness 3 has its oval on the
sphere and witness 2 off it.  Witness 5 is a C3a surface, with no sphere:
a point off it where every line meets it in three distinct real points
would make its real part a 3-sheeted cover of the plane of lines through
that point, that is RP2 and a sphere, so the flag must come out False
there too.  Any mismatch exits 1.
"""

import sys
import time

from realcubic.classify import (
    REAL_TRITANGENT_PLANES,
    as_projective_cubic,
    load_witnesses,
    oval_in_sphere,
    parse_plane,
    real_tritangent_count,
    restrict_to_plane,
)
from realcubic.curve import analyze_cubic
from realcubic.forms import form_tensor
from realcubic.lines import solve_lines

# one witness per projective class; the frozen constants were measured
# on exactly these surfaces
REPRESENTATIVES = {"C27": 12, "C15": 9, "C7": 6, "C3a": 4, "C3b": 1}

# the sphere flag each 3-line witness with an oval must get
SPHERE_FLAGS = {2: False, 3: True, 5: False}


def main() -> int:
    by_id = {w["class_id"]: w for w in load_witnesses()}
    mismatches = 0
    print(f"{'class':5s} {'witness':3s} {'real lines':>10s} "
          f"{'tritangent':>10s} {'frozen':>6s} {'time':>6s}")
    for cls, cid in REPRESENTATIVES.items():
        F = as_projective_cubic(by_id[cid]["surface"])
        t0 = time.perf_counter()
        ls = solve_lines(F)
        nreal = real_tritangent_count(ls)
        dt = time.perf_counter() - t0
        frozen = REAL_TRITANGENT_PLANES[cls]
        mark = "" if nreal == frozen else "  <- MISMATCH"
        print(f"{cls:5s} {cid:3d} {ls.real_count:10d} {nreal:10d} "
              f"{frozen:6d} {dt:5.1f}s{mark}")
        mismatches += nreal != frozen

    print(f"\n{'witness':7s} {'sphere':>6s} {'want':>6s} {'time':>6s}")
    for cid, want in SPHERE_FLAGS.items():
        w = by_id[cid]
        T = form_tensor(as_projective_cubic(w["surface"]))
        t0 = time.perf_counter()
        restriction = restrict_to_plane(T, parse_plane(w["plane"]))
        got = oval_in_sphere(T[0], restriction,
                             analyze_cubic(restriction.ternary,
                                           restriction.tensor))
        dt = time.perf_counter() - t0
        mark = "" if got == want else "  <- MISMATCH"
        print(f"{cid:7d} {str(got):>6s} {str(want):>6s} {dt:5.2f}s{mark}")
        mismatches += got != want
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
