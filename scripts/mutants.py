#!/usr/bin/env python3
"""Run the mutation checks listed in ``tests/mutants.py``.

For each mutant: copy ``src/`` and ``tests/`` into a fresh temporary directory,
apply the mutant's edits to the copy, and run the tests that must kill it
there.  A mutant is killed when those tests fail, and survives when they pass;
any other pytest outcome (a snippet not found once, no tests collected) is an
error, and so is a run that takes longer than ``TIMEOUT_S``.  The working tree
is never edited.

Usage (from anywhere; stdlib only besides pytest and hypothesis):

    python scripts/mutants.py

Exit status: 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS, apply_edits  # noqa: E402

TIMEOUT_S = 600  # a mutated loop that never ends is reported, not waited on


def run_mutant(mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="boundarylab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        package = work / "src" / "boundarylab"
        names = {name for name, _, _ in mutant.edits}
        try:
            mutated = apply_edits({n: (package / n).read_text(encoding="utf-8") for n in names},
                                  mutant.edits)
        except ValueError as exc:
            return f"error: {exc}"
        for name, text in mutated.items():
            (package / name).write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error: timed out after {TIMEOUT_S} s"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"error: pytest exited {done.returncode}: {done.stdout.strip()[-300:]}"


def main() -> int:
    started = time.perf_counter()
    bad = []
    for mutant in MUTANTS:
        outcome = run_mutant(mutant)
        print(f"{outcome.split(':')[0]:8}  {mutant.name}", flush=True)
        if outcome != "killed":
            bad.append((mutant.name, outcome))
    elapsed = time.perf_counter() - started
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - len(bad)} killed, "
          f"{len(bad)} not killed, in {elapsed:.1f} s")
    for name, outcome in bad:
        print(f"  {name}: {outcome}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
