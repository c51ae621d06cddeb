"""Fingerprint the command line's reports on the bench and demo configs.

    python tools/report_digest.py [CHECKOUT] > digest.txt
    diff digest-before.txt digest-after.txt

Runs every command below as a fresh `python -m arcurves.cli` process,
with the package taken from CHECKOUT/src and the working directory at
CHECKOUT (default: the checkout that holds this script), on the six
configs of perfbench/configs and the two of demos.  Prints one line per
run: the subcommand, the config and the flags, then the exit code and
the SHA-256 of standard output and of standard error.  Two checkouts
print the same lines exactly when every report, error message and exit
code is byte-identical, so `diff` compares them.  The 112 runs go one
at a time and took about 15 s on two cores of an Intel Xeon.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ([["ring-info"], ["push"], ["decompose"]]
            + [["verify", suite] for suite in ("main-theorem", "syz-gamma",
                                               "trace-oracle", "section7")]
            + [["explore", "--depth", str(d)] for d in range(6)]
            + [["explore", "--depth", "2", "--format", "dot"]])


def configs(root: Path) -> list[str]:
    found = (sorted(root.glob("perfbench/configs/*.cfg"))
             + sorted(root.glob("demos/*.cfg")))
    return [str(path.relative_to(root)) for path in found]


def digest(root: Path, command: list[str], config: str) -> str:
    argv = command + [config]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "arcurves.cli", *argv],
                         cwd=root, env=env, capture_output=True)
    return "%s %d %s %s" % (" ".join(argv), run.returncode,
                            hashlib.sha256(run.stdout).hexdigest(),
                            hashlib.sha256(run.stderr).hexdigest())


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    root = root.resolve()
    for config in configs(root):
        for command in COMMANDS:
            print(digest(root, command, config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
