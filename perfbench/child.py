"""The measured process: runs one workload's operations in-process.

    python3 child.py setup JOB    set up as a measured run would, then exit
    python3 child.py run JOB OUT  run the job, write results to OUT

JOB is a JSON file {"op": "classify" | "wall_label", "inputs": [...],
"seconds": s, "trace": bool, "trace_out": path}.  The process imports only
the program and numpy, so its peak RSS is the program's.  Untraced, it runs
whole rounds over the inputs while the next round still fits in `seconds`
(at least one); traced, exactly one round.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _setup(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import realcubic.classify as classify  # the package imports every layer
    return job, classify


def _lineset_data(lineset) -> list:
    return [[[float(c.real), float(c.imag)] for c in line.plucker]
            for line in lineset.lines]


def _wall_record(wl) -> dict:
    d = wl.as_dict()
    d.pop("surface")
    return d


def run(job, classify) -> dict:
    op = job["op"]
    inputs = job["inputs"]
    tracer = None
    if job["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    def call(entry):
        if op == "classify":
            rep = classify.classify_surface(entry["surface"], entry["plane"])
            return rep.as_dict()
        return _wall_record(classify.wall_label(entry["conic"],
                                                entry["cubic"]))

    latencies, round_s = [], []
    outputs, mismatches = [], 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for i, entry in enumerate(inputs):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                out = call(entry)
            except Exception as exc:  # recorded per operation, run goes on
                out = {"error": {"type": type(exc).__name__,
                                 "message": str(exc)}}
            latencies.append(time.perf_counter() - t0)
            if not round_s:
                outputs.append(out)
            elif out != outputs[i]:
                mismatches += 1
        round_s.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed + round_s[-1] > job["seconds"]:
            break

    result = {"latencies": latencies, "round_s": round_s, "outputs": outputs,
              "mismatches": mismatches}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "layers": tracer.self_times(),
            "counts": tracer.counts,
            "missing": tracer.missing,
            "linesets": [_lineset_data(ls) for ls in
                         tracer.results.get("lines.solve", [])],
            "triples": [[list(t["lines"]) for t in triples] for triples in
                        tracer.results.get("lines.tritangent", [])],
        }
        with open(job["trace_out"], "w") as fh:
            json.dump(tracer.dump(), fh)
    return result


def main(argv) -> int:
    mode, job_path = argv[1], argv[2]
    job, classify = _setup(job_path)
    if mode == "setup":
        return 0
    result = run(job, classify)
    tmp = argv[3] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
