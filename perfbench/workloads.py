"""Workload definitions and the golden-report check, shared by run.py and
the in-process runner traced.py.

A workload is a fixed list of CLI jobs.  Each job is one
``python -m arcurves.cli <subcommand> <config>`` invocation on one of the
rings in ``configs/``.  The rings, all with b = 1, m = 1, n = 2:

    cusp          p=3 q=4 f=1          over Q and over F101
    two_branch    p=3 q=4 f=y          over Q and over F101
    p5q7          p=5 q=7 f=1          over Q
    three_branch  p=3 q=5 f=y^5-x^3    over Q

The short subcommands (ring-info, push, decompose, verify main-theorem,
section7, syz-gamma) have no workload of their own: each is a 0.5-1.1 s
process, mostly interpreter start and ``import arcurves``, whose time
swings by half with the host's load, too noisy for the bounds.  setup_s
measures the import they all pay.

Every workload mixes Q and F_p rings, so a change that speeds one field's
arithmetic and slows the other's shows as wall_q_s and wall_fp_s moving
in opposite directions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG_DIR = HERE / "configs"
GOLDEN_PATH = HERE / "golden.json"

@dataclass(frozen=True)
class Job:
    """One CLI invocation.  A known-defect job is run and counted as
    attempted, but never timed: a later fix must not read as a slowdown."""

    command: tuple
    ring: str
    flags: tuple = ()
    known_defect: bool = False

    @property
    def id(self) -> str:
        return " ".join(self.command + self.flags + (self.ring,))

    @property
    def config(self) -> Path:
        return CONFIG_DIR / (self.ring + ".cfg")

    @property
    def over_q(self) -> bool:
        return field_of(self.config) == "Q"

    def argv(self, seed: int) -> list:
        """Arguments after ``python -m arcurves.cli``.  The config path is
        relative to the checkout root, the working directory of every job."""
        return (list(self.command) + [str(self.config.relative_to(ROOT))]
                + ["--seed", str(seed)] + list(self.flags))


def field_of(config: Path) -> str:
    for line in config.read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition("=")
        if key.strip() == "field":
            return val.strip()
    return "Q"


DEPTH3 = ("--depth", "3")
SECTION7_DEFECT = Job(("verify", "section7"), "cusp_q", known_defect=True)
EXPLORE_DEFECT = Job(("explore",), "cusp_q", DEPTH3, known_defect=True)

WORKLOADS = {
    # verify trace-oracle: about 80% of the traced time is in
    # traceoracle.stably_zero_trace, the rest the lifting oracle and
    # HomSpace construction (Fraction arithmetic on the Q rings).  This is
    # where a faster trace oracle must show.  The three-branch (~45 s) and
    # p5q7 (~15 s) sweeps are too slow to repeat, so they stay out.  The
    # section7 defect job is here only so that fail_ratio is never 0.
    "trace_sweep": [
        Job(("verify", "trace-oracle"), "two_branch_q"),
        Job(("verify", "trace-oracle"), "two_branch_f101"),
        Job(("verify", "trace-oracle"), "cusp_q"),
        Job(("verify", "trace-oracle"), "cusp_f101"),
        SECTION7_DEFECT,
    ],
    # explore --depth 3: iterated push, modmat.decompose (random idempotent
    # search plus sympy factoring), iso_up_to_shift and the quiver passes,
    # never the trace oracle.  SparseRREF is the next biggest cost, so this
    # shows elimination and decompose changes that trace_sweep would hide.
    "component_walk": [
        Job(("explore",), "three_branch_q", DEPTH3),
        Job(("explore",), "p5q7_q", DEPTH3),
        Job(("explore",), "two_branch_q", DEPTH3),
        Job(("explore",), "two_branch_f101", DEPTH3),
        EXPLORE_DEFECT,
    ],
}


def shuffled(jobs, rng: random.Random) -> list:
    order = list(jobs)
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# golden reports


def canonical_report(stdout: str) -> str:
    """The report as sorted compact JSON without its ``seed`` field, the
    only field that depends on ``--seed``."""
    doc = json.loads(stdout)
    doc.pop("seed", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_entry(rc: int, stdout: str, stderr: str) -> dict:
    """What the golden file records for one job: its exit code, and either
    its canonical report or its stderr error document."""
    entry = {"exit": rc}
    if rc == 0:
        entry["report"] = json.loads(canonical_report(stdout))
    else:
        entry["stderr"] = json.loads(stderr.strip().splitlines()[-1])
    return entry


def check(job: Job, golden: dict, rc, stdout: str, stderr: str) -> str:
    """Classify one finished job: "pass", "known" (a known-defect job that
    failed exactly as recorded) or "fail".  ``rc`` is None on a timeout.

    A known-defect job that starts to pass is "pass": there is no golden
    report to compare it with.
    """
    if rc is None or "Traceback (most recent call last)" in stderr:
        return "fail"
    want = golden.get(job.id)
    if want is None:
        return "fail"
    if job.known_defect:
        if rc == 0:
            return "pass"
        try:
            same = golden_entry(rc, stdout, stderr) == want
        except (ValueError, IndexError):
            same = False
        return "known" if same else "fail"
    if rc != 0:
        return "fail"
    try:
        got = canonical_report(stdout)
    except ValueError:
        return "fail"
    return "pass" if got == json.dumps(want["report"], sort_keys=True,
                                       separators=(",", ":")) else "fail"
