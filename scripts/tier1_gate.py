#!/usr/bin/env python3
"""Tier-1 gate: run the full test suite and pass only when the known
red-by-design acceptance tests are the sole failures.

Two acceptance tests assert identities that are false for the coset cocycle
as stated; they are kept failing on purpose (see tests/test_acceptance.py).
Any other failure, any error (collection errors included), or either of the
two starting to pass fails the gate.

Usage (from anywhere; stdlib only besides pytest itself):

    python scripts/tier1_gate.py

Exit status: 0 when the gate holds, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_01_cocycle_identity_as_stated",
    "tests.test_acceptance::test_criterion_02b_quotient_element_cocycle_as_stated",
}


def run_suite(junit_path: Path) -> int:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--junitxml={junit_path}"]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def outcomes(junit_path: Path) -> tuple[int, set[str], set[str]]:
    """(test cases run, failed ids, errored ids) from a JUnit XML report."""
    total = 0
    failed: set[str] = set()
    errored: set[str] = set()
    for case in ET.parse(junit_path).getroot().iter("testcase"):
        total += 1
        test_id = f"{case.get('classname', '')}::{case.get('name', '')}"
        if case.find("error") is not None:
            errored.add(test_id)
        elif case.find("failure") is not None:
            failed.add(test_id)
    return total, failed, errored


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        junit_path = Path(tmp) / "tier1.xml"
        code = run_suite(junit_path)
        if code not in (0, 1) or not junit_path.is_file():
            print(f"tier1 gate: pytest exited {code} without a usable report", file=sys.stderr)
            return 1
        total, failed, errored = outcomes(junit_path)
    problems = []
    if total == 0:
        problems.append("no tests ran")
    problems += [f"errored: {t}" for t in sorted(errored)]
    problems += [f"unexpected failure: {t}" for t in sorted(failed - EXPECTED_FAILURES)]
    problems += [f"red-by-design test did not fail: {t}"
                 for t in sorted(EXPECTED_FAILURES - failed)]
    if problems:
        print("tier1 gate: FAIL", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"tier1 gate: PASS ({total} tests; only the {len(EXPECTED_FAILURES)} "
          "red-by-design tests failed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
