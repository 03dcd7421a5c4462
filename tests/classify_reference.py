"""The restriction of a surface to a plane by substituting Polys for the
ambient variables: the reference for `realcubic.classify.restrict_to_plane`,
which contracts the surface's integer tensor instead.  Also the benchmark's
pool of 20 (surface, plane) entries."""

from fractions import Fraction

from algebra_reference import substitute
from realcubic.algebra import Poly
from realcubic.classify import AMBIENT_VARS, load_witnesses
from realcubic.curve import PLANE_VARS


def restrict_to_plane(F: Poly, h) -> Poly:
    """The section cubic of F by h.x = 0 in plane coordinates: plane
    coordinate k rides in the k-th ambient slot other than the pivot, h's
    largest coefficient, whose slot gets -h_j / h_pivot times them."""
    hq = tuple(Fraction(c) for c in h)
    pivot = max(range(4), key=lambda i: (abs(hq[i]), i))
    free = [i for i in range(4) if i != pivot]
    xs = [Poly.parse(v, vars=AMBIENT_VARS) for v in AMBIENT_VARS[:3]]
    images = {AMBIENT_VARS[j]: xs[k] for k, j in enumerate(free)}
    images[AMBIENT_VARS[pivot]] = sum(
        (xs[k] * (-hq[j] / hq[pivot]) for k, j in enumerate(free)),
        Poly(AMBIENT_VARS, {}))
    G4 = substitute(F, images)
    assert G4.degree("w") <= 0
    return Poly(PLANE_VARS, {e[:3]: c for e, c in G4.terms.items()})


# the five extra planes of the pool, on the surfaces of these witnesses
EXTRA_PLANES = ((4, "x"), (6, "w"), (9, "w"), (12, "w"), (1, "z + 3*w"))


def pool_entries() -> list:
    """(surface, plane) of the 15 witnesses and the 5 extra planes."""
    ws = load_witnesses()
    by_id = {w["class_id"]: w["surface"] for w in ws}
    return [(w["surface"], w["plane"]) for w in ws] + [
        (by_id[cid], plane) for cid, plane in EXTRA_PLANES]
