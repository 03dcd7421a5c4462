"""Layer tracing from outside the program.

The pipeline reaches its stages through module-level names
(`realcubic.classify.solve_lines`, `realcubic.curve.real_roots`, ...).
`Tracer.install` replaces each of those names with a wrapper that records a
span (metric, request, parent, start, end) or bumps a counter, and
`uninstall` puts the originals back.  Spans stay in memory; a layer's self
time is its spans' durations minus the part covered by their child spans.

One module-level function can be reachable under several names, one per
importing module: every name the pipeline looks up is wrapped, and each
call is seen once because callers look up exactly one of them.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span metric); spans nest through the live call stack
SPANS = (
    ("realcubic.classify", "classify_surface", "classify.self"),
    ("realcubic.classify", "wall_label", "classify.self"),
    ("realcubic.classify", "restrict_to_plane", "classify.restrict"),
    ("realcubic.classify", "transversal_at_infinity", "classify.transversal"),
    ("realcubic.classify", "projective_class", "classify.projective"),
    ("realcubic.classify", "_line_section_tally", "classify.tally"),
    ("realcubic.classify", "_find_sphere_interior", "classify.sphere_probe"),
    ("realcubic.classify", "oval_curve_points", "classify.sphere_probe"),
    ("realcubic.classify", "oval_in_sphere", "classify.sphere_probe"),
    ("realcubic.classify", "complement_components_estimate",
     "classify.sampler"),
    ("realcubic.classify", "solve_lines", "lines.solve"),
    ("realcubic.classify", "tritangent_triples", "lines.tritangent"),
    ("realcubic.classify", "analyze_cubic", "curve.sweep"),
    ("realcubic.classify", "locate", "curve.locate"),
    ("realcubic.classify", "conic_cubic_intersection", "curve.intersection"),
    ("realcubic.classify", "resultant", "algebra.resultant"),
    ("realcubic.curve", "resultant", "algebra.resultant"),
    ("realcubic.algebra", "resultant", "algebra.resultant"),
    ("realcubic.classify", "real_roots", "algebra.real_roots"),
    ("realcubic.curve", "real_roots", "algebra.real_roots"),
    ("realcubic.algebra", "real_roots", "algebra.real_roots"),
    ("realcubic.classify", "quadric_triple_resultant",
     "algebra.triple_resultant"),
    ("realcubic.curve", "quadric_triple_resultant",
     "algebra.triple_resultant"),
)

# (module, attribute, tally): counted without a span, because these run
# tens of thousands of times per classification; tally(args, result) gives
# the increments
COUNTERS = (
    ("realcubic.lines", "eval_many",
     lambda args, out: {"lines.eval_calls": 1,
                        "lines.eval_points": len(args[2])}),
    ("realcubic.lines", "_start_points",
     lambda args, out: {"lines.paths_tracked": len(out)}),
    ("realcubic.lines", "_track_chart",
     lambda args, out: {"lines.charts": 1, "lines.paths_returned": len(out)}),
)


class Tracer:
    def __init__(self):
        self.spans = []          # (request, metric, parent, t0, t1)
        self.counts = {}
        self.request = 0
        self.missing = []
        self.results = {}        # metric -> list of returned values kept
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _span(self, metric, fn, keep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.request, metric, parent, t0, t1)
            if keep:
                self.results.setdefault(metric, []).append(out)
            return out
        return wrapper

    def _counter(self, tally, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            for key, n in tally(args, out).items():
                counts[key] = counts.get(key, 0) + n
            return out
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, keep=("lines.solve", "lines.tritangent")):
        for modname, attr, metric in SPANS:
            self._patch(modname, attr,
                        lambda fn, m=metric: self._span(m, fn, m in keep))
        for modname, attr, tally in COUNTERS:
            self._patch(modname, attr,
                        lambda fn, t=tally: self._counter(t, fn))

    def _patch(self, modname, attr, make):
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{modname}.{attr}")
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Per metric: total self time and number of spans."""
        child = [0.0] * len(self.spans)
        for request, metric, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for sid, (request, metric, parent, t0, t1) in enumerate(self.spans):
            rec = out.setdefault(metric, {"self_s": 0.0, "calls": 0})
            rec["self_s"] += (t1 - t0) - child[sid]
            rec["calls"] += 1
        return out

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts), "missing": list(self.missing)}
