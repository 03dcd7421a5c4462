"""Deformation classification of real affine cubic surfaces, with the
combinatorics (Cremona orbits, wall-crossing graph, line counts, conic-cubic
arrangements) rebuilt and cross-checked independently of the classifier."""

__version__ = "0.1.0"

from .algebra import Poly, Interval, real_roots, complex_roots
from .arrangements import polotovsky_closure
from .classify import (
    SurfaceReport, WallLabel, classify_surface, load_witnesses, wall_label,
)
from .combinat import (
    class_id_for, cremona_orbits, line_catalog, load_wall_graph,
    oval_line_count, validate_wall_graph, wall_table,
)
from .curve import (
    analyze_cubic, conic_cubic_meet, locate, plane_form,
)
from .lines import solve_lines, tritangent_triples

__all__ = [
    "Poly", "Interval", "real_roots", "complex_roots",
    "SurfaceReport", "WallLabel", "classify_surface", "load_witnesses",
    "wall_label",
    "class_id_for", "cremona_orbits", "line_catalog", "load_wall_graph",
    "oval_line_count", "polotovsky_closure", "validate_wall_graph",
    "wall_table",
    "analyze_cubic", "conic_cubic_meet", "locate", "plane_form",
    "solve_lines", "tritangent_triples",
    "__version__",
]
