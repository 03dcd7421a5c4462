"""Benchmark of classify_surface, wall_label and `classify --batch`.

    python3 perfbench/run.py --workload {witnesses,walls,batch}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics untraced, per-layer
metrics traced); the line before it holds details of the run.  Raw outputs
and traces go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# program processes run with one BLAS thread, so that `--jobs 2` on two
# cores measures the process pool and not thread oversubscription
BLAS_THREADS = 1
SETUP_REPEATS = 9
TIMEOUT_S = 170

# batch entries run again with --jobs 1 and --jobs 2 to compare bytes
BATCH_SUBSET = 2

# workload sizes: FULL for measured runs, TINY for selftest.py; "pool"
# picks pool entries (None: all 20), "moved_every" spaces the invariance
# subsample of `walls`
FULL = {"pool": None, "wall_pairs": 150, "moved_every": 10}
TINY = {"pool": [1, 2, 19], "wall_pairs": 6, "moved_every": 3}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_proc(cmd: list, stdout_path: Path, tag: str,
             peak: bool = False) -> dict:
    """Run cmd to completion: exit code and wall time, and with `peak` the
    peak RSS over the command and its waited-for descendants, measured by
    launch.py."""
    err_path = OUT / f"{tag}.stderr"
    report = OUT / f"{tag}.peak.json"
    if peak:
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "launch.py"), str(report), *cmd]
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=program_env(), start_new_session=True)
        timer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"wall_s": wall, "code": proc.returncode,
           "stderr": err_path.read_text(errors="replace")[-2000:]}
    if peak and proc.returncode == 0 and report.exists():
        res.update(json.loads(report.read_text()))
    elif peak:
        res["code"] = res["code"] or 1
    return res


def in_process(op: str, inputs: list, seconds: float, trace: bool,
               tag: str) -> tuple:
    """Run the operations in a fresh measured process (child.py)."""
    job = {"op": op, "inputs": inputs, "seconds": seconds, "trace": trace,
           "trace_out": str(OUT / f"{tag}.trace.json")}
    job_path = OUT / f"{tag}.job.json"
    res_path = OUT / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    res_path.unlink(missing_ok=True)
    proc = run_proc([sys.executable, str(HERE / "child.py"), "run",
                     str(job_path), str(res_path)], OUT / f"{tag}.stdout", tag,
                    peak=True)
    if proc["code"] != 0 or not res_path.exists():
        raise BenchError(f"measured process failed ({proc['code']}): "
                         f"{proc['stderr']}")
    return json.loads(res_path.read_text()), proc


def setup_seconds(cmd: list, tag: str) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_proc(cmd, OUT / f"{tag}.setup.stdout", f"{tag}.setup")
        if proc["code"] != 0:
            raise BenchError(f"set-up failed: {proc['stderr']}")
        times.append(proc["wall_s"])
    return times


def cli_cmd(*args) -> list:
    return [sys.executable, "-m", "realcubic.cli", *args]


def cli_import_seconds() -> float:
    """Median time to import the CLI module in a fresh interpreter: the
    program's own share of CLI start-up."""
    code = ("import time; t = time.perf_counter(); import realcubic.cli; "
            "print(time.perf_counter() - t)")
    path = OUT / "cli_import.stdout"
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_proc([sys.executable, "-c", code], path, "cli_import")
        if proc["code"] != 0:
            raise BenchError(f"CLI import failed: {proc['stderr']}")
        times.append(float(path.read_text()))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def failures(outputs: list) -> int:
    return sum(1 for o in outputs if "error" in o)


def e2e_metrics(setup: list, rss_mb: float, latencies: list, ops: int,
                busy_s: float) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "latency_iqm_s": metric(interquartile_mean(latencies), "s"),
        "throughput_per_s": metric(ops / busy_s, "1/s"),
    }


def layer_metrics(trace: dict, ops: int, round_s: float,
                  efficiency: float = 0.0) -> dict:
    """Per-layer metrics of one traced round; `efficiency` is the batch
    pool's parallel efficiency, 0 for workloads that run no batch."""
    layers, counts = trace["layers"], trace["counts"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    solve_calls = calls("lines.solve")
    tracked = counts.get("lines.paths_tracked", 0)
    m = {
        "lines.solve_s": metric(self_s("lines.solve"), "s"),
        "lines.solve_calls": metric(solve_calls, "count"),
        "lines.charts": metric(counts.get("lines.charts", 0), "count"),
        "lines.paths_tracked": metric(tracked, "count"),
        "lines.paths_returned": metric(counts.get("lines.paths_returned", 0),
                                       "count"),
        "lines.kept_ratio": metric(27 * solve_calls / tracked if tracked
                                   else 0.0, "ratio"),
        "lines.eval_calls": metric(counts.get("lines.eval_calls", 0),
                                   "count"),
        "lines.eval_points": metric(counts.get("lines.eval_points", 0),
                                    "count"),
        "lines.tritangent_s": metric(self_s("lines.tritangent"), "s"),
        "classify.sampler_s": metric(self_s("classify.sampler"), "s"),
        "classify.sampler_calls": metric(calls("classify.sampler"), "count"),
    }
    for name in ("restrict", "transversal", "projective", "tally",
                 "sphere_probe", "self"):
        m[f"classify.{name}_s"] = metric(self_s(f"classify.{name}"), "s")
    for name in ("sweep", "locate"):
        m[f"curve.{name}_s"] = metric(self_s(f"curve.{name}"), "s")
        m[f"curve.{name}_calls"] = metric(calls(f"curve.{name}"), "count")
    m["curve.intersection_s"] = metric(self_s("curve.intersection"), "s")
    for name in ("resultant", "real_roots"):
        m[f"algebra.{name}_s"] = metric(self_s(f"algebra.{name}"), "s")
        m[f"algebra.{name}_calls"] = metric(calls(f"algebra.{name}"),
                                            "count")
    m["algebra.triple_resultant_s"] = metric(
        self_s("algebra.triple_resultant"), "s")
    m["cli.startup_s"] = metric(cli_import_seconds(), "s")
    m["cli.parallel_efficiency"] = metric(efficiency, "ratio")
    m["trace.ops_per_s"] = metric(ops / round_s, "1/s")
    return m


def interquartile_mean(values: list) -> float:
    """Mean of the middle half of the values (all of them when there are
    fewer than four).  The host's speed drifts within a run; a median of
    20 classifications rests on two of them, while the middle half spreads
    over the run and is as steady as the throughput."""
    ranked = sorted(values)
    cut = len(ranked) // 4
    return statistics.fmean(ranked[cut:len(ranked) - cut])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def child_setup_seconds(op, inputs, tag):
    job_path = OUT / f"{tag}.job.json"
    job_path.write_text(json.dumps({"op": op, "inputs": inputs}))
    return setup_seconds([sys.executable, str(HERE / "child.py"), "setup",
                          str(job_path)], tag)


def witnesses(seed, seconds, trace, size):
    import inputs as gen
    import checks

    pool = gen.witness_pool(ROOT)
    if size["pool"] is not None:
        pool = [pool[i] for i in size["pool"]]
    random.Random(f"witnesses {seed}").shuffle(pool)
    texts = [{"surface": e["surface"], "plane": e["plane"]} for e in pool]
    tag = f"witnesses-{seed}-{int(trace)}"

    setup = None if trace else child_setup_seconds("classify", texts, tag)
    res, proc = in_process("classify", texts, seconds, trace, tag)
    outputs = res["outputs"]
    problems = checks.check_pool(pool, outputs, size["pool"] is None)
    if res["mismatches"]:
        problems.append(f"{res['mismatches']} reports changed between rounds")
    ops = len(res["latencies"])
    failed = failures(outputs) * len(res["round_s"])
    detail = {"ops_per_round": len(pool), "rounds": len(res["round_s"]),
              "suite_s": res["round_s"], "samples": ops,
              "p50_s": statistics.median(res["latencies"]),
              "warnings": sum(len(o.get("warnings", [])) for o in outputs)}
    if trace:
        t = res["trace"]
        problems += checks.check_lines(t["linesets"], t["triples"])
        metrics = layer_metrics(t, ops, sum(res["round_s"]))
        detail["trace_missing"] = t["missing"]
    else:
        metrics = e2e_metrics(setup, proc["rss_mb"], res["latencies"], ops,
                              sum(res["round_s"]))
        detail["setup_s"] = setup
    return ops, failed, problems, metrics, detail


def walls(seed, seconds, trace, size):
    import inputs as gen
    import checks
    from realcubic.combinat import wall_table

    # the pairs do not depend on the seed, so the first run in a checkout
    # draws them and later runs reuse the draw
    cache = OUT / f"wall_pairs_{size['wall_pairs']}.json"
    if cache.exists():
        pairs = json.loads(cache.read_text())
    else:
        pairs = gen.wall_pairs(size["wall_pairs"])
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(pairs))
        os.replace(tmp, cache)
    random.Random(f"walls {seed}").shuffle(pairs)
    texts = [{"conic": p["conic"], "cubic": p["cubic"]} for p in pairs]
    tag = f"walls-{seed}-{int(trace)}"

    setup = None if trace else child_setup_seconds("wall_label", texts, tag)
    res, proc = in_process("wall_label", texts, seconds, trace, tag)
    outputs = res["outputs"]
    types = {tuple(r["wall"]) for r in wall_table()}
    problems = checks.check_walls(pairs, outputs, types)
    if res["mismatches"]:
        problems.append(f"{res['mismatches']} labels changed between rounds")

    # untimed: the label survives a projective change of both curves
    picked = list(range(0, len(pairs), size["moved_every"]))
    moved = [gen.moved_pair(pairs[k], random.Random(f"moved {seed} {k}"))
             for k in picked]
    mres, _ = in_process("wall_label", moved, 0, False, tag + "-moved")
    problems += checks.check_invariance(
        picked, [outputs[k] for k in picked], mres["outputs"])

    ops = len(res["latencies"])
    lat = res["latencies"]
    failed = failures(outputs) * len(res["round_s"])
    detail = {"pairs": len(pairs), "rounds": len(res["round_s"]),
              "samples": ops, "p50_s": statistics.median(lat),
              "p90_s": percentile(lat, 0.9),
              "beyond_p90": sum(1 for v in lat if v > percentile(lat, 0.9)),
              "labels": sorted({json.dumps(o.get("label")) for o in outputs})}
    if trace:
        metrics = layer_metrics(res["trace"], ops, sum(res["round_s"]))
        detail["trace_missing"] = res["trace"]["missing"]
    else:
        metrics = e2e_metrics(setup, proc["rss_mb"], lat, ops,
                              sum(res["round_s"]))
        detail["setup_s"] = setup
    return ops, failed, problems, metrics, detail


def _batch_file(entries: list, path: Path) -> None:
    lines = [json.dumps({"surface": e["surface"], "plane": e["plane"]})
             for e in entries]
    path.write_text("\n".join(lines) + "\n")


def _batch_call(path: Path, jobs: int, tag: str) -> tuple:
    out_path = OUT / f"{tag}.stdout"
    proc = run_proc(cli_cmd("classify", "--batch", str(path),
                            "--jobs", str(jobs)), out_path, tag, peak=True)
    raw = out_path.read_bytes()
    if proc["code"] not in (0, 1, 2):
        raise BenchError(f"batch run failed ({proc['code']}): "
                         f"{proc['stderr']}")
    return raw, json.loads(raw), proc


def batch(seed, seconds, trace, size):
    import inputs as gen
    import checks

    pool = gen.witness_pool(ROOT)
    entries = gen.batch_entries(pool, seed)
    if size["pool"] is not None:
        keep = set(size["pool"][:2])
        entries = [e for e in entries if e["src"] in keep]
    tag = f"batch-{seed}-{int(trace)}"
    path = OUT / f"{tag}.in.txt"
    _batch_file(entries, path)

    setup = None if trace else setup_seconds(cli_cmd("--version"), tag)
    walls_s, rss, results, problems = [], [], None, []
    start = time.perf_counter()
    while True:
        raw, payload, proc = _batch_call(path, 2, f"{tag}-j2")
        walls_s.append(proc["wall_s"])
        rss.append(proc["rss_mb"])
        if results is None:
            results, first_raw = payload, raw
        elif raw != first_raw:
            problems.append("batch output changed between rounds")
        elapsed = time.perf_counter() - start
        if trace or elapsed + walls_s[-1] > seconds:
            break
    problems += checks.check_batch(pool, entries, results)

    # untimed: --jobs 2 and --jobs 1 give the same bytes on a seeded subset,
    # and the subset's reports are those of the full run
    subset = sorted(random.Random(f"subset {seed}").sample(
        range(len(entries)), BATCH_SUBSET))
    sub_path = OUT / f"{tag}.subset.txt"
    _batch_file([entries[i] for i in subset], sub_path)
    raw2, sub2, _ = _batch_call(sub_path, 2, f"{tag}-subset-j2")
    raw1, _, _ = _batch_call(sub_path, 1, f"{tag}-subset-j1")
    problems += checks.check_same_bytes("--jobs 2 against --jobs 1", raw2, raw1)
    if sub2 != [results[i] for i in subset]:
        problems.append("subset reports differ from the full batch")

    calls = len(walls_s)
    attempted = len(entries) * calls
    failed = failures(results) * calls
    detail = {"entries": len(entries), "calls": calls, "batch_s": walls_s,
              "subset": subset}
    if trace:
        texts = [{"surface": e["surface"], "plane": e["plane"]}
                 for e in entries]
        res, _ = in_process("classify", texts, 0, True, tag)
        t = res["trace"]
        problems += checks.check_lines(t["linesets"], t["triples"])
        if res["outputs"] != results:
            problems.append("in-process reports differ from the CLI batch")
        metrics = layer_metrics(t, len(entries), sum(res["round_s"]),
                                sum(res["latencies"]) / (2 * walls_s[0]))
        detail["trace_missing"] = t["missing"]
    else:
        metrics = e2e_metrics(setup, max(rss), walls_s, attempted,
                              sum(walls_s))
        detail["setup_s"] = setup
    return attempted, failed, problems, metrics, detail


WORKLOADS = {"witnesses": witnesses, "walls": walls, "batch": batch}


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    return bench(ns.workload, ns.seed, ns.seconds, bool(ns.trace), FULL)


def bench(workload, seed, seconds, trace, size) -> int:
    if not (SRC / "realcubic" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    try:
        attempted, failed, problems, metrics, detail = WORKLOADS[workload](
            seed, seconds, trace, size)
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    detail.update(workload=workload, seed=seed, trace=trace,
                  problems=problems[:20], environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
