"""Command-line front end.

Subcommands map one-to-one onto the library surface: `classify`, `lines`,
`curve` and `wall-label` run the numeric pipelines on user input, while
`graph`, `orbits`, `counts`, `walls` and `polotovsky` serialize the
combinatorial tables.  Data goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 2 mathematical rejection (singular or non-transversal
input), 1 computation failure, 64 usage error.

Output is deterministic: a fixed argv (including --seed, which `classify`
and `lines` take for the line solver) produces byte-identical bytes on
stdout.  JSON is rendered with sorted keys and a two-space indent;
`classify`, `lines` and `curve` also write `--format text`, and `graph`
writes `--format dot`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .arrangements import load_extremal, polotovsky_closure
from .classify import as_projective_cubic, classify_surface, wall_label
from .combinat import (
    TOTAL_EXTENDED_WALLS,
    TOTAL_ORDINARY_WALLS,
    WALL_ARRANGEMENT_NOTE,
    cremona_orbits,
    load_wall_graph,
    oval_line_count,
    oval_line_count_incidence,
    point_labels,
    real_line_total,
    validate_wall_graph,
    wall_table,
)
from .curve import (
    analyze_cubic,
    component_count,
    conic_cubic_meet,
    locate,
    plane_form,
)
from .errors import MathematicalRejection, NotTransversal, RealcubicError
from .lines import input_plucker, solve_lines

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_REJECTED = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract reserves 2 for
    # mathematical rejection, so route usage trouble to 64 instead
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------

# the input flags of each numeric subcommand, and how many of them, from
# the first, every input needs
_INPUTS = {
    "classify": (("surface", "plane"), 1),
    "lines": (("surface",), 1),
    "curve": (("cubic", "conic"), 1),
    "wall-label": (("conic", "cubic"), 2),
}


def entry_payload(cmd: str, entry: dict, seed: int):
    """The output of a numeric subcommand on one input, given as a dict of
    its input flags: what a single run prints and a batch worker returns."""
    if cmd == "classify":
        return classify_surface(entry["surface"], entry.get("plane", "w"),
                                seed).as_dict()
    if cmd == "lines":
        return lines_payload(entry["surface"], seed)
    if cmd == "curve":
        return curve_payload(entry["cubic"], entry.get("conic"))
    return wall_label(entry["conic"], entry["cubic"]).as_dict()


def lines_payload(surface: str, seed: int = 0) -> list:
    """The 27 lines as records, in the input's coordinates
    (`input_plucker`).  Real lines and conjugate pairs are sorted
    as units by their rounded real parts, a pair by the mean of its two
    (then by the mean moduli of its imaginary parts), and a pair lists
    first the member whose largest imaginary coordinate is positive.  So
    an ill-conditioned pair, whose real parts differ by float noise, keeps
    both its place and its order."""
    lineset = solve_lines(as_projective_cubic(surface), seed)
    records = [{
        "plucker": [[float(c.real), float(c.imag)] for c in plucker],
        "real": bool(line.real),
        "residual": float(line.residual),
    } for line, plucker in zip(lineset.lines, input_plucker(lineset))]
    units = [[i] for i, line in enumerate(lineset.lines) if line.real]
    for i, j in lineset.conj_pairs:
        # the first imaginary part within a whisker of the largest, so
        # that moduli tied up to noise pick the same coordinate each run
        ims = [im for _, im in records[i]["plucker"]]
        big = max(abs(im) for im in ims)
        top = next(im for im in ims if abs(im) >= big * (1 - 1e-8))
        units.append([i, j] if top > 0 else [j, i])

    def key(unit):
        coords = zip(*(records[i]["plucker"] for i in unit))
        return _rounded([(sum(re for re, _ in c) / len(unit),
                          sum(abs(im) for _, im in c) / len(unit))
                         for c in coords])

    units.sort(key=key)
    return [records[i] for unit in units for i in unit]


def _rounded(coords) -> tuple:
    """Sort key of a list of [re, im] pairs, rounded to 9 digits so that
    last-bit noise cannot swap two points; conjugates then differ only in
    the sign of their imaginary parts."""
    return tuple((round(re, 9), round(im, 9)) for re, im in coords)


def _normalized_triple(v) -> list:
    vals = [complex(t) for t in v]
    pivot = max(vals, key=abs)
    vals = [t / pivot for t in vals]
    return [[float(t.real), float(t.imag)] for t in vals]


def curve_payload(cubic: str, conic=None) -> dict:
    C = plane_form(cubic, 3, "cubic")
    components, tensor = component_count(C)
    # only a two-component cubic needs the sweep to locate a point
    analysis = analyze_cubic(C, tensor) if components == 2 else None
    payload = {
        "components": components,
        "oval_present": components == 2,
        "transversal": None,
        "intersections": [],
    }
    if conic is None:
        return payload
    try:
        meet = conic_cubic_meet(plane_form(conic, 2, "conic"), C,
                                cubic_tensor=tensor)
    except NotTransversal:
        payload["transversal"] = False
        return payload
    payload["transversal"] = True

    entries = [{"point": _normalized_triple(p),
                "component": "pseudoline" if analysis is None
                else locate(analysis, p),
                "real": True} for p in meet.real_points]
    entries += [{"point": _normalized_triple(p),
                 "component": None,
                 "real": False} for p in meet.complex_points()]
    entries.sort(key=lambda rec: (not rec["real"], _rounded(rec["point"])))
    payload["intersections"] = entries
    return payload


def graph_payload() -> dict:
    g = load_wall_graph()
    issues = validate_wall_graph(g)
    return {
        "vertices": [g.vertices[cid] for cid in sorted(g.vertices)],
        "edges": sorted(g.edges, key=lambda e: (e["u"], e["v"])),
        "issues": issues,
    }


def graph_dot() -> str:
    g = load_wall_graph()
    out = ["graph wall_crossing {"]
    out.append("  node [shape=circle];")
    for cid in sorted(g.vertices):
        v = g.vertices[cid]
        lab = ",".join(str(t) for t in v["label"])
        style = " style=filled fillcolor=gray80" if v.get("black") else ""
        out.append(f'  {cid} [label="{cid}\\n({lab})"{style}];')
    for e in sorted(g.edges, key=lambda e: (e["u"], e["v"])):
        w = ",".join(str(t) for t in e["wall"])
        out.append(f'  {e["u"]} -- {e["v"]} [label="({w})"];')
    out.append("}")
    return "\n".join(out) + "\n"


def orbits_payload(mu) -> dict:
    def table(m: int) -> dict:
        return {
            "mu": m,
            "orbits": [[list(lab) for lab in orbit]
                       for orbit in cremona_orbits(m)],
        }
    if mu is None:
        return {"tables": [table(m) for m in range(4)]}
    return table(mu)


def counts_payload() -> dict:
    tables = []
    for m in range(4):
        total = real_line_total(m)
        rows = []
        for lab in sorted(point_labels(m)):
            n = oval_line_count(lab, m)
            rows.append({
                "label": list(lab),
                "oval_lines": n,
                "oval_lines_incidence": oval_line_count_incidence(lab, m),
                "pseudoline_lines": total - n,
            })
        tables.append({"mu": m, "real_line_total": total, "labels": rows})
    return {"tables": tables}


def walls_payload() -> dict:
    return {
        "rows": wall_table(),
        "total_ordinary": TOTAL_ORDINARY_WALLS,
        "total_extended": TOTAL_EXTENDED_WALLS,
        "note": WALL_ARRANGEMENT_NOTE,
    }


def polotovsky_payload() -> dict:
    closure = polotovsky_closure(load_extremal())
    levels: dict = {}
    ordered = [arr for _, arr in sorted(closure.items())]
    for arr in ordered:
        levels[str(arr.crossings())] = levels.get(str(arr.crossings()), 0) + 1
    return {
        "count": len(ordered),
        "levels": levels,
        "arrangements": [arr.as_dict() for arr in ordered],
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _classify_text(rep: dict) -> str:
    lines = [f"class {rep['class_id']} ({rep['projective_class']}): "
             f"{rep['real_lines']} real lines"]
    lines.append(f"  section components: {rep['curve_components']}")
    if rep["oval_line_count"] is not None:
        lines.append(f"  lines meeting the oval: {rep['oval_line_count']}")
    lines.append(f"  complement components: {rep['b0_complement']}")
    if rep["oval_in_sphere"] is not None:
        lines.append(f"  oval on the spherical part: {rep['oval_in_sphere']}")
    for w in rep["warnings"]:
        lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"


def _lines_text(records: list) -> str:
    n_real = sum(1 for r in records if r["real"])
    worst = max(r["residual"] for r in records)
    out = [f"{len(records)} lines, {n_real} real, max residual {worst:.3g}"]
    for i, r in enumerate(records):
        kind = "real   " if r["real"] else "complex"
        head = ", ".join(f"{c[0]:+.6f}{c[1]:+.6f}j" for c in r["plucker"][:3])
        out.append(f"  {i:2d} {kind} [{head}, ...]")
    return "\n".join(out) + "\n"


def _curve_text(payload: dict) -> str:
    out = [f"components: {payload['components']}"
           + (" (oval + pseudoline)" if payload["oval_present"] else "")]
    if payload["transversal"] is None:
        return out[0] + "\n"
    out.append(f"transversal: {payload['transversal']}")
    for rec in payload["intersections"]:
        where = rec["component"] or "complex"
        pt = ", ".join(f"{c[0]:.6f}{c[1]:+.6f}j" for c in rec["point"])
        out.append(f"  {where}: [{pt}]")
    return "\n".join(out) + "\n"


_TEXT = {"classify": _classify_text, "lines": _lines_text,
         "curve": _curve_text}


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------

def _parse_batch_line(cmd: str, line: str) -> dict:
    if line.lstrip().startswith("{"):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad batch line: {exc}")
        if not isinstance(entry, dict):
            raise UsageError("batch JSON lines must be objects")
        return entry
    flags, needed = _INPUTS[cmd]
    if needed > 1:
        raise UsageError(f"{cmd} batch lines must be JSON objects")
    return {flags[0]: line.strip()}


def _batch_worker(job) -> dict:
    cmd, entry, seed = job
    try:
        out = entry_payload(cmd, entry, seed)
        return {"ok": True,
                "result": {"lines": out} if cmd == "lines" else out}
    except MathematicalRejection as exc:
        return {"ok": False, "rejected": True,
                "error": {"type": type(exc).__name__, "message": str(exc)}}
    except (RealcubicError, ValueError, TypeError, KeyError) as exc:
        return {"ok": False, "rejected": False,
                "error": {"type": type(exc).__name__, "message": str(exc)}}


def run_batch(cmd: str, path: str, seed: int, jobs) -> tuple:
    try:
        if path == "-":
            raw = [ln.rstrip("\n") for ln in sys.stdin]
        else:
            with open(path) as fh:
                raw = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise UsageError(f"cannot read batch file: {exc}")
    entries = [_parse_batch_line(cmd, ln) for ln in raw
               if ln.strip() and not ln.lstrip().startswith("#")]
    if not entries:
        raise UsageError("batch file holds no inputs")
    # the pool starts all its workers at once: never more than there are
    # entries to hand out or cores to run them
    workers = min(jobs or 8, len(entries), os.cpu_count() or 1)
    jobs_arg = [(cmd, e, seed) for e in entries]
    if workers == 1:
        results = [_batch_worker(j) for j in jobs_arg]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_worker, jobs_arg))
    code = EXIT_OK
    if any(not r["ok"] and not r.get("rejected") for r in results):
        code = EXIT_FAILURE
    elif any(not r["ok"] for r in results):
        code = EXIT_REJECTED
    payload = [r["result"] if r["ok"] else {"error": r["error"]}
               for r in results]
    return payload, code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="realcubic",
                description="deformation classes of real affine cubic "
                            "surfaces and their combinatorics")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def numeric(name, helptext, text=False, seed=False):
        sp = sub.add_parser(name, help=helptext)
        if text:
            sp.add_argument("--format", choices=("json", "text"),
                            default="json")
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="random seed for the line solver's patches")
        sp.add_argument("--batch", metavar="FILE",
                        help="file of inputs, one per line ('-' for "
                             "stdin); results come back in input order")
        sp.add_argument("--jobs", type=_positive_int, default=None,
                        help="parallel workers for --batch (at most "
                             "one per entry and per core)")
        return sp

    sp = numeric("classify", "deformation class of a surface", text=True,
                 seed=True)
    sp.add_argument("--surface", help="cubic in x,y,z (affine) or x,y,z,w")
    sp.add_argument("--plane", help="plane at infinity (default w)")

    sp = numeric("lines", "the 27 lines of a cubic surface", text=True,
                 seed=True)
    sp.add_argument("--surface")

    sp = numeric("curve", "plane cubic topology and conic-cubic "
                          "intersections", text=True)
    sp.add_argument("--cubic", help="plane cubic in x,y[,z]")
    sp.add_argument("--conic", help="optional conic to intersect with")

    sp = numeric("wall-label", "crossing label of a nodal wall")
    sp.add_argument("--conic")
    sp.add_argument("--cubic")

    sp = sub.add_parser("graph", help="wall-crossing graph (json or dot)")
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp = sub.add_parser("orbits", help="Cremona orbits of point labels")
    sp.add_argument("--mu", type=int, choices=(0, 1, 2, 3), default=None)
    sub.add_parser("counts", help="oval line counts for all labels")
    sub.add_parser("walls", help="wall-count table")
    sub.add_parser("polotovsky", help="closure of the extremal conic-cubic "
                                      "arrangements")
    return p


def _dispatch(ns) -> tuple:
    """Run one subcommand; returns (stdout text, exit code)."""
    fmt = getattr(ns, "format", "json")
    seed = getattr(ns, "seed", 0)

    if ns.cmd in _INPUTS:
        flags, needed = _INPUTS[ns.cmd]
        given = {f: getattr(ns, f) for f in flags
                 if getattr(ns, f) is not None}
        if ns.batch:
            if given:
                raise UsageError(f"--batch excludes --{next(iter(given))}")
            if fmt != "json":
                raise UsageError("--batch output is json only")
            payload, code = run_batch(ns.cmd, ns.batch, seed, ns.jobs)
            return render_json(payload), code
        if not all(f in given for f in flags[:needed]):
            raise UsageError(f"{ns.cmd} needs "
                             + " and ".join(f"--{f}" for f in flags[:needed])
                             + ", or --batch")
        payload = entry_payload(ns.cmd, given, seed)
        if fmt == "text":
            return _TEXT[ns.cmd](payload), EXIT_OK
        return render_json(payload), EXIT_OK
    if ns.cmd == "graph":
        if fmt == "dot":
            return graph_dot(), EXIT_OK
        payload = graph_payload()
        code = EXIT_OK if not payload["issues"] else EXIT_FAILURE
        return render_json(payload), code
    if ns.cmd == "orbits":
        return render_json(orbits_payload(ns.mu)), EXIT_OK
    tables = {"counts": counts_payload, "walls": walls_payload,
              "polotovsky": polotovsky_payload}
    return render_json(tables[ns.cmd]()), EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        out, code = _dispatch(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MathematicalRejection as exc:
        print(f"rejected ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (ValueError, TypeError) as exc:
        # input coercion trouble: bad polynomial text, wrong variables
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RealcubicError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_FAILURE
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
