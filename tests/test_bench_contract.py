"""The benchmark's view of the package: the layers it wraps and the
known-defect jobs it classifies against the golden reports.

perfbench/ is read, never changed: a renamed function or a reworded
error message shows here instead of as a benchmark failure.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcurves.homs import HomSpace
from arcurves.linalg import SparseRREF
from arcurves.modmat import GradedMatrix, TopAlgebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("traced")


def test_every_traced_layer_resolves(bench):
    _, traced = bench
    assert len(traced.LAYERS) == 26
    for modname, path in traced.LAYERS:
        owner = importlib.import_module("arcurves." + modname)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (modname, path)


def test_known_defect_jobs_match_the_golden_reports(bench, monkeypatch):
    workloads, traced = bench
    jobs = [workloads.SECTION7_DEFECT, workloads.EXPLORE_DEFECT]
    golden = workloads.load_golden()
    monkeypatch.chdir(workloads.ROOT)
    for job, result in zip(jobs, traced.run_pass(jobs, seed=0)):
        verdict = workloads.check(job, golden, result["rc"],
                                  result["stdout"], result["stderr"])
        assert verdict in ("known", "pass"), (job.id, result["stderr"])


def test_component_walk_jobs_match_the_golden_reports(bench, monkeypatch):
    # The four timed walks split middle terms on the way: their reports
    # must stay byte-identical to the recorded ones.  A split part whose
    # indecomposability its parent's minimal polynomial proves builds no
    # top algebra of its own: 24 in all, 6 per walk.  A factorization
    # derived from a certified one, or proved where it is built as the
    # ideal's is, is not multiplied out: 172 matrix products in all.
    workloads, traced = bench
    jobs = [job for job in workloads.WORKLOADS["component_walk"]
            if not job.known_defect]
    assert len(jobs) == 4
    golden = workloads.load_golden()
    monkeypatch.chdir(workloads.ROOT)
    built = []
    init = TopAlgebra.__init__
    monkeypatch.setattr(TopAlgebra, "__init__",
                        lambda self, M: built.append(M) or init(self, M))
    products = []
    mul = GradedMatrix.mul
    monkeypatch.setattr(GradedMatrix, "mul",
                        lambda self, other: products.append(1)
                        or mul(self, other))
    for job, result in zip(jobs, traced.run_pass(jobs, seed=0)):
        verdict = workloads.check(job, golden, result["rc"],
                                  result["stdout"], result["stderr"])
        assert verdict == "pass", (job.id, result["stderr"])
    assert len(built) == 24
    assert len(products) == 172


def test_trace_sweep_jobs_match_the_golden_reports(bench, monkeypatch):
    # The four timed trace-oracle sweeps read every hom through the
    # modules' monomial tables: their reports must stay byte-identical to
    # the recorded ones.  A sweep drops each degree's hom space once it is
    # tested, but never one it reads again: 616 spaces are built in all,
    # none of them twice.  A space is one elimination, the kernel of its
    # precomposition map, beside the monomial tables it fills: 3118 rows
    # are inserted while spaces are built.
    workloads, traced = bench
    jobs = [job for job in workloads.WORKLOADS["trace_sweep"]
            if not job.known_defect]
    assert len(jobs) == 4
    golden = workloads.load_golden()
    monkeypatch.chdir(workloads.ROOT)
    built, building, inserted = [], [], []
    init = HomSpace.__init__

    def counted_init(self, *args):
        built.append(1)
        building.append(1)
        try:
            init(self, *args)
        finally:
            building.pop()

    monkeypatch.setattr(HomSpace, "__init__", counted_init)
    insert = SparseRREF.insert
    monkeypatch.setattr(SparseRREF, "insert",
                        lambda self, row: inserted.extend(building[:1])
                        or insert(self, row))
    for job, result in zip(jobs, traced.run_pass(jobs, seed=0)):
        verdict = workloads.check(job, golden, result["rc"],
                                  result["stdout"], result["stderr"])
        assert verdict == "pass", (job.id, result["stderr"])
    assert len(built) == 616
    assert len(inserted) == 3118


def test_import_loads_no_heavy_modules():
    # setup_s is the time of a fresh `import arcurves`: dataclasses (and
    # the inspect module it pulls in) and sympy must stay out of it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, arcurves; "
            "print(sorted({'dataclasses', 'sympy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
