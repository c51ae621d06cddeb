"""End-to-end and per-layer benchmark of the arcurves command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from the root of a checkout: the package is imported from ``src/``.
The workloads are fixed lists of CLI jobs (workloads.py).  The seed
shuffles the job order within each pass and is passed to every job as
``--seed``; reports do not depend on it.

``--trace 0`` measures what a user waits for.  Set-up is timed first: the
median over several fresh interpreters that each run ``import
arcurves``.  Then the workload is run pass after pass for S seconds and
at least two passes, each job as a fresh ``python -m arcurves.cli``
process, one at a time, from this process.  Every report is checked against
``golden.json``.  Each metric is the median over the passes:

    setup_s      median wall time of ``import arcurves`` in a fresh interpreter
    wall_s       sum of job wall times in a pass
    wall_q_s     the part of wall_s spent on rings over Q
    wall_fp_s    the part of wall_s spent on rings over F_p
    job_p50_s    median job wall time
    job_max_s    the slowest job
    peak_rss_mb  the largest peak RSS of any job, from os.wait4
    fail_ratio   failed jobs / attempted jobs

A job fails on a nonzero exit code, a traceback, a timeout, or a report
that differs from its golden.  Known-defect jobs are attempted and count
as failed while the defect lasts, but are not timed.

``--trace 1`` gives the per-layer numbers, from three in-process passes
(traced.py) in fresh interpreters: one untraced, two traced.  Layer
metrics come from the first traced pass; the second must repeat its call
counts exactly.  ``trace.overhead_s`` is traced minus untraced wall time.
The import layer comes from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import workloads
from workloads import HERE, ROOT

SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 5
JOB_TIMEOUT_S = 60.0
# Runs must end within 180 s: no pass starts that could end after this.
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AR_CURVE_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, timeout):
    """Run one process from the checkout root and wait for it.

    Returns (exit code or None on timeout, stdout, stderr, wall seconds,
    peak RSS in KiB).  The peak comes from ``os.wait4`` on this child
    alone; RUSAGE_CHILDREN would be a running maximum over all children.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    rc = None if proc.returncode < 0 else proc.returncode
    return rc, stdout, stderr, wall, usage.ru_maxrss


def check_checkout() -> None:
    if not (SRC / "arcurves" / "__init__.py").is_file():
        raise BenchError("no arcurves package under %s" % SRC)
    OUT.mkdir(exist_ok=True)
    probe = [sys.executable, "-c", "import arcurves; print(arcurves.__file__)"]
    rc, stdout, stderr, _, _ = run_child(probe, JOB_TIMEOUT_S)
    if rc != 0 or not stdout.strip().startswith(str(SRC)):
        raise BenchError("arcurves does not import from %s: %s"
                         % (SRC, (stdout + stderr).strip()))


def cli_argv(job, seed) -> list:
    return [sys.executable, "-m", "arcurves.cli"] + job.argv(seed)


# ----------------------------------------------------------------------
# end-to-end run


def time_setup() -> float:
    """Median wall time of a fresh interpreter running ``import arcurves``.
    check_checkout has imported it once already, so the bytecode cache is
    warm, as it is for a user after the first run."""
    argv = [sys.executable, "-c", "import arcurves"]
    walls = []
    for _ in range(SETUP_REPEATS):
        rc, _, stderr, wall, _ = run_child(argv, JOB_TIMEOUT_S)
        if rc != 0:
            raise BenchError("import arcurves failed: " + stderr.strip())
        walls.append(wall)
    return statistics.median(walls)


def timed_pass(jobs, seed, golden, deadline) -> list:
    results = []
    for job in jobs:
        timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - perf_counter()))
        rc, stdout, stderr, wall, rss = run_child(cli_argv(job, seed), timeout)
        status = workloads.check(job, golden, rc, stdout, stderr)
        if status == "fail":
            print("FAIL %s: exit %s %s" % (job.id, rc, stderr.strip()[-300:]))
        results.append({"job": job, "status": status, "wall_s": wall,
                        "rss_kib": rss})
    return results


def pass_metrics(results) -> dict:
    timed = [r for r in results if not r["job"].known_defect]
    walls = [r["wall_s"] for r in timed]
    failed = sum(r["status"] != "pass" for r in results)
    return {
        "wall_s": sum(walls),
        "wall_q_s": sum(r["wall_s"] for r in timed if r["job"].over_q),
        "wall_fp_s": sum(r["wall_s"] for r in timed if not r["job"].over_q),
        "job_p50_s": statistics.median(walls),
        "job_max_s": max(walls),
        "peak_rss_mb": max(r["rss_kib"] for r in timed) / 1024.0,
        "fail_ratio": failed / len(results),
    }


UNITS = {"setup_s": "s", "wall_s": "s", "wall_q_s": "s", "wall_fp_s": "s",
         "job_p50_s": "s", "job_max_s": "s", "peak_rss_mb": "MB",
         "fail_ratio": "ratio"}


def end_to_end(workload, seed, seconds, started) -> dict:
    golden = workloads.load_golden()
    metrics = {"setup_s": time_setup()}
    rng = random.Random(seed)
    passes = []
    t_measure = perf_counter()
    deadline = started + RUN_BUDGET_S
    while True:
        t_pass = perf_counter()
        jobs = workloads.shuffled(workloads.WORKLOADS[workload], rng)
        passes.append(timed_pass(jobs, seed, golden, deadline))
        now = perf_counter()
        if now + (now - t_pass) > deadline:
            break
        if len(passes) >= 2 and now - t_measure >= seconds:
            break
    per_pass = [pass_metrics(results) for results in passes]
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    results = [r for results in passes for r in results]
    # A known-defect job that fails as recorded does not make the run wrong.
    correct = all(r["status"] != "fail" for r in results)
    print("%s: %d passes, %d jobs" % (workload, len(passes), len(results)))
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r["status"] != "pass" for r in results),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


# ----------------------------------------------------------------------
# traced run

# Per-layer metrics read straight from the traced summary: layer and the
# fields reported for it.  Ratios and argument sums are added in
# layer_metrics.
LAYER_METRICS = [
    ("traceoracle.stably_zero_trace", ("calls", "self_s", "total_s")),
    ("traceoracle.trace_Q", ("calls", "self_s")),
    ("traceoracle.end_generators", ("calls", "self_s")),
    ("branches.Branch.evaluate", ("calls", "self_s")),
    ("modmat.stably_zero_bruteforce", ("calls", "self_s")),
    ("modmat.solve_graded_system", ("calls", "self_s")),
    ("modmat.HomSpace", ("calls", "self_s")),
    ("modmat.hom_graded", ("calls",)),
    ("modmat.GradedHom.compose", ("calls", "self_s")),
    ("linalg.SparseRREF.insert", ("calls", "self_s")),
    ("linalg.SparseRREF.reduce", ("calls", "self_s")),
    ("linalg.solve_sparse_system", ("calls",)),
    ("linalg.rank_dense", ("calls",)),
    ("modmat.decompose", ("calls", "self_s")),
    ("modmat.iso_up_to_shift", ("calls", "self_s")),
    ("arengine.push", ("calls", "self_s")),
    ("quiver.classify_fragment", ("self_s",)),
    ("quiver.orbit_collapse", ("self_s",)),
    ("quiver.check_subadditive", ("self_s",)),
    ("ring.HypersurfaceRing.normal_form", ("calls", "self_s")),
    ("ring.HypersurfaceRing.graded_piece", ("calls",)),
    ("ring.HypersurfaceRing.q_membership", ("calls", "self_s")),
    ("branches.factor_hypersurface", ("calls",)),
    ("arengine.gamma_for", ("self_s",)),
    ("cli.main", ("self_s",)),
]


def _ratio(num, den) -> float:
    """num / den, and 0.0 when the layer was never called."""
    return num / den if den else 0.0


def import_times() -> tuple:
    """Median cumulative import time of arcurves and of sympy, in seconds,
    from ``python -X importtime``.  sympy counts 0 when arcurves no longer
    imports it."""
    argv = [sys.executable, "-X", "importtime", "-c", "import arcurves"]
    arcurves_s, sympy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        rc, _, stderr, _, _ = run_child(argv, JOB_TIMEOUT_S)
        if rc != 0:
            raise BenchError("import arcurves failed: " + stderr.strip())
        cumulative = {}
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        if "arcurves" not in cumulative:
            raise BenchError("no arcurves line in -X importtime output")
        arcurves_s.append(cumulative["arcurves"])
        sympy_s.append(cumulative.get("sympy", 0.0))
    return statistics.median(arcurves_s), statistics.median(sympy_s)


def in_process_pass(workload, seed, trace, tag, golden, deadline) -> dict:
    out = OUT / ("%s-%s.json" % (workload, tag))
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    rc, _, stderr, _, _ = run_child(argv, max(1.0, deadline - perf_counter()))
    if rc != 0:
        raise BenchError("%s pass failed: %s" % (tag, stderr.strip()[-2000:]))
    doc = json.loads(out.read_text(encoding="utf-8"))
    by_id = {job.id: job for job in workloads.WORKLOADS[workload]}
    doc["status"] = []
    for r in doc["jobs"]:
        status = workloads.check(by_id[r["id"]], golden, r["rc"], r["stdout"],
                                 r["stderr"])
        if status != "pass":
            print("FAIL %s (%s): exit %s %s"
                  % (r["id"], tag, r["rc"], r["stderr"].strip()[-300:]))
        doc["status"].append(status)
    doc["wall_s"] = sum(r["wall_s"] for r in doc["jobs"])
    return doc


def counts(doc) -> dict:
    out = {name: v["calls"] for name, v in doc["layers"].items()}
    out.update(doc["counters"])
    return out


def report_claims(workload, traced) -> None:
    """Print the fact the workload was chosen for, as measured now."""
    if workload == "trace_sweep":
        share = _ratio(traced["layers"]["traceoracle.stably_zero_trace"]
                       ["total_s"], traced["wall_s"])
        print("traceoracle.stably_zero_trace: %.1f%% of traced wall"
              % (100 * share))
        return
    walk = dict(traced["under_explore_component"])
    walk.pop("arengine.explore_component", None)
    top = max(walk, key=walk.get, default=None)
    if top is not None:
        print("largest total time under arengine.explore_component: %s"
              " %.3f s" % (top, walk[top]))


def layer_metrics(traced) -> dict:
    """Metric name -> (value, unit) for the layers of one traced pass."""
    layers, counters = traced["layers"], traced["counters"]
    metrics = {}
    for layer, fields in LAYER_METRICS:
        for field in fields:
            unit = "count" if field == "calls" else "s"
            metrics["%s.%s" % (layer, field)] = (layers[layer][field], unit)
    for key in ("rows", "unknowns"):
        name = "linalg.solve_sparse_system." + key
        metrics[name] = (counters.get(name, 0), "count")
    hom = layers["modmat.hom_graded"]["calls"]
    built = layers["modmat.HomSpace"]["calls"]
    metrics["modmat.hom_graded.hit_ratio"] = (
        1.0 - built / hom if hom else 0.0, "ratio")
    metrics["linalg.SparseRREF.insert.useful_ratio"] = (_ratio(
        counters.get("linalg.SparseRREF.insert.pivots", 0),
        layers["linalg.SparseRREF.insert"]["calls"]), "ratio")
    metrics["modmat.iso_up_to_shift.match_ratio"] = (_ratio(
        counters.get("modmat.iso_up_to_shift.matches", 0),
        layers["modmat.iso_up_to_shift"]["calls"]), "ratio")
    return metrics


def per_layer(workload, seed, started) -> dict:
    golden = workloads.load_golden()
    deadline = started + RUN_BUDGET_S
    arcurves_s, sympy_s = import_times()
    plain = in_process_pass(workload, seed, 0, "untraced", golden, deadline)
    traced = in_process_pass(workload, seed, 1, "traced", golden, deadline)
    again = in_process_pass(workload, seed, 1, "traced-again", golden,
                            deadline)
    (OUT / ("%s-traced-again.json.spans" % workload)).unlink()
    first, second = counts(traced), counts(again)
    repeatable = first == second
    for key in sorted(first):
        if first[key] != second.get(key):
            print("call counts differ between two traced passes: %s %s %s"
                  % (key, first[key], second.get(key)))
    report_claims(workload, traced)

    metrics = layer_metrics(traced)
    metrics["import.arcurves_s"] = (arcurves_s, "s")
    metrics["import.sympy_s"] = (sympy_s, "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")

    docs = (plain, traced, again)
    statuses = [s for doc in docs for s in doc["status"]]
    from_src = all(doc["arcurves_file"].startswith(str(SRC)) for doc in docs)
    return {
        "correct": repeatable and from_src and all(s == "pass" for s in statuses),
        "attempted": len(statuses),
        "failed": sum(s != "pass" for s in statuses),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


# ----------------------------------------------------------------------
# golden reports


def record_golden() -> None:
    """Run every job once with seed 0 and write golden.json.  Only run this
    on a commit whose reports are known to be right."""
    jobs = {job.id: job for jobs in workloads.WORKLOADS.values() for job in jobs}
    golden = {}
    for job_id in sorted(jobs):
        job = jobs[job_id]
        rc, stdout, stderr, wall, _ = run_child(cli_argv(job, 0), JOB_TIMEOUT_S)
        if rc is None or (rc != 0) != job.known_defect:
            raise BenchError("%s: exit %s %s" % (job_id, rc, stderr.strip()))
        golden[job_id] = workloads.golden_entry(rc, stdout, stderr)
        print("%-45s exit %d  %.2f s" % (job_id, rc, wall))
    workloads.GOLDEN_PATH.write_text(
        json.dumps(golden, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    try:
        check_checkout()
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            result = per_layer(args.workload, args.seed, started)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, started)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print("%-45s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
