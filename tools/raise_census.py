"""Which `raise` sites in src/arcurves does the test suite reach?

Runs the tier-1 suite in this process under a `sys.settrace` hook and
lists every `raise` statement of src/arcurves (found with `ast`) as
reached or unreached, then the counts.  A site counts as reached when
the line of its `raise` keyword runs at least once.  Only the code
objects that hold a `raise` line are traced line by line; every other
frame costs one call event.

    python tools/raise_census.py               # the whole suite
    python tools/raise_census.py tests/test_ring.py -k input_exits

Extra arguments go to pytest as they are.  The census exits with
pytest's status, so a failing test shows, but the listing is printed
either way.

It does not see the tests that run the CLI in a subprocess (the
import and hashing checks of test_cli.py, the demos and the bench
contract); a site that only those reach is listed as unreached.  Cost: on two
cores of an Intel Xeon the traced suite took 3 min 0 s, against 33 s
untraced.  No package is needed beyond pytest, and pytest does not
collect this file (testpaths = ["tests"]).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arcurves"


def raise_sites() -> dict[str, list[int]]:
    """File name -> sorted line numbers of its raise statements."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites[str(path)] = sorted({node.lineno for node in ast.walk(tree)
                                   if isinstance(node, ast.Raise)})
    return sites


def run(pytest_args) -> tuple[dict, set, int]:
    """Run pytest under the tracer; (sites, reached, pytest status)."""
    import pytest

    sites = raise_sites()
    wanted = {name: set(lines) for name, lines in sites.items()}
    reached: set = set()
    per_code: dict = {}

    def lines_of(code):
        lines = per_code.get(code)
        if lines is None:
            file_lines = wanted.get(code.co_filename, ())
            lines = per_code[code] = frozenset(
                line for _, _, line in code.co_lines() if line in file_lines)
        return lines

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code)
        if not lines:
            return None
        name = frame.f_code.co_filename

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.add((name, frame.f_lineno))
            return local
        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return sites, reached, int(status)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sites, reached, status = run(args or [str(ROOT / "tests")])
    total = unreached = 0
    for name, lines in sites.items():
        text = Path(name).read_text().splitlines()
        rel = Path(name).relative_to(ROOT)
        for line in lines:
            hit = (name, line) in reached
            total += 1
            unreached += not hit
            print("%-10s %s:%d  %s" % ("reached" if hit else "UNREACHED",
                                       rel, line, text[line - 1].strip()))
    print("%d raise sites, %d reached, %d unreached"
          % (total, total - unreached, unreached))
    return status


if __name__ == "__main__":
    sys.exit(main())
