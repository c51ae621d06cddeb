"""Run one workload pass in a single process, optionally traced by layer.

    python3 perfbench/traced.py --workload NAME --seed N --trace 0|1 --out FILE

Every job of the workload (known-defect jobs excepted) is run by calling
``arcurves.cli.main`` with its arguments, in the order the seed gives.
With ``--trace 1`` the public functions and methods named in ``LAYERS``
are wrapped from outside before the first job: nothing under ``src/``
changes.  Each call records a span (layer, start, end, parent span, job)
in memory; the spans are written next to FILE when the pass ends, and FILE
receives the job results and the per-layer aggregates.  run.py starts
this script as a child process and turns its output into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import random
import sys
import traceback
from array import array
from time import perf_counter

import workloads

# (module, attribute) of every wrapped callable.  A class stands for its
# constructor.  The layers are the modules of the package.
LAYERS = (
    ("ring", "HypersurfaceRing.normal_form"),
    ("ring", "HypersurfaceRing.graded_piece"),
    ("ring", "HypersurfaceRing.q_membership"),
    ("linalg", "SparseRREF.insert"),
    ("linalg", "SparseRREF.reduce"),
    ("linalg", "solve_sparse_system"),
    ("linalg", "rank_dense"),
    ("branches", "Branch.evaluate"),
    ("branches", "factor_hypersurface"),
    ("modmat", "HomSpace"),
    ("modmat", "hom_graded"),
    ("modmat", "GradedHom.compose"),
    ("modmat", "solve_graded_system"),
    ("modmat", "stably_zero_bruteforce"),
    ("modmat", "decompose"),
    ("modmat", "iso_up_to_shift"),
    ("traceoracle", "stably_zero_trace"),
    ("traceoracle", "trace_Q"),
    ("traceoracle", "end_generators"),
    ("arengine", "gamma_for"),
    ("arengine", "push"),
    ("arengine", "explore_component"),
    ("quiver", "classify_fragment"),
    ("quiver", "orbit_collapse"),
    ("quiver", "check_subadditive"),
    ("cli", "main"),
)


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _outcome_counters(name, fn):
    """Counters bumped when a call returns: key -> f(args, kwargs, result)."""
    if name == "linalg.SparseRREF.insert":
        return {"pivots": lambda a, k, r: r is not None}
    if name == "modmat.iso_up_to_shift":
        return {"matches": lambda a, k, r: r is not None}
    if name == "linalg.solve_sparse_system":
        rows, nvars = _arg(fn, "rows"), _arg(fn, "nvars")
        return {"rows": lambda a, k, r: len(rows(a, k)),
                "unknowns": lambda a, k, r: nvars(a, k)}
    return {}


class Tracer:
    """Span store: one row per call, in call-entry order, so a parent
    span always precedes its children."""

    def __init__(self):
        self.names: list = []
        self.layer = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}
        self.open: list = []
        self.job_index = -1

    def wrap(self, name, fn):
        layer = len(self.names)
        self.names.append(name)
        counters = _outcome_counters(name, fn)
        for key in counters:
            self.counters[name + "." + key] = 0
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tr.layer)
            tr.layer.append(layer)
            tr.parent.append(tr.open[-1] if tr.open else -1)
            tr.job.append(tr.job_index)
            tr.end.append(0.0)
            tr.open.append(sid)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[sid] = perf_counter()
                tr.open.pop()
            for key, count in counters.items():
                tr.counters[name + "." + key] += count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer.  A function is replaced in every module of the
        package that bound the same object (``from .modmat import
        hom_graded`` makes a second binding); a method on its class.  A
        layer the package no longer has is reported with no calls."""
        package = [m for n, m in sys.modules.items()
                   if n == "arcurves" or n.startswith("arcurves.")]
        for modname, path in LAYERS:
            name = modname + "." + path
            owner = sys.modules.get("arcurves." + modname)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except AttributeError:
                print("perfbench: layer %s not found" % name, file=sys.stderr)
                self.names.append(name)
                continue
            if isinstance(target, type):
                owner, attr = target, "__init__"
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per-layer calls, self time and total time, and the total time of
        each layer inside arengine.explore_component.

        Self time is a span's duration minus the time its child spans
        cover.  Total time counts only the outermost span of a layer, so
        recursion is not counted twice."""
        n = len(self.layer)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        # Bit k of ancestors[i] is set when a span of layer k encloses span i.
        ancestors = array("Q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << self.layer[p])
        walk_bit = 1 << self.names.index("arengine.explore_component")
        layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                  for name in self.names}
        under_walk: dict = {}
        for i in range(n):
            name = self.names[self.layer[i]]
            own = dur[i] - child[i]
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += own
            if not ancestors[i] >> self.layer[i] & 1:
                entry["total_s"] += dur[i]
                if ancestors[i] & walk_bit:
                    under_walk[name] = under_walk.get(name, 0.0) + dur[i]
        return {"layers": layers, "counters": dict(self.counters),
                "under_explore_component": under_walk}

    def write_spans(self, path, job_ids) -> None:
        """Write the spans as one JSON header line followed by the raw
        columns, each an ``array`` of ``count`` items in native byte
        order.  A trace_sweep pass records a few million spans, too many
        for a text format."""
        columns = (("layer", self.layer), ("parent", self.parent),
                   ("job", self.job), ("start", self.start),
                   ("end", self.end))
        header = {"count": len(self.layer), "layers": self.names,
                  "jobs": job_ids, "byteorder": sys.byteorder,
                  "columns": [[name, col.typecode] for name, col in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, col in columns:
                col.tofile(fh)


def run_pass(jobs, seed, tracer=None) -> list:
    import arcurves.cli

    results = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_index = index
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = arcurves.cli.main(job.argv(seed))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = 1
        wall = perf_counter() - t0
        results.append({"id": job.id, "rc": rc, "wall_s": wall,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(workloads.ROOT / "src"))
    import arcurves.cli  # imported before wrapping, not timed

    jobs = [job for job in workloads.shuffled(
        workloads.WORKLOADS[args.workload], random.Random(args.seed))
        if not job.known_defect]
    job_ids = [job.id for job in jobs]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    results = run_pass(jobs, args.seed, tracer)
    doc = {"jobs": results, "arcurves_file": arcurves.__file__}
    if tracer is not None:
        doc.update(tracer.summary())
        tracer.write_spans(args.out + ".spans", job_ids)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
