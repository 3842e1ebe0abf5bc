#!/usr/bin/env python3
"""Run every bundled scenario and write the reports to a directory.

Usage: python scripts/run_all_scenarios.py [--out-dir reports]
"""

import argparse
import pathlib

from boundarylab.scenario import (
    bundled_scenario_names,
    load_bundled_scenario,
    report_json_text,
    run_scenario,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="reports")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    any_fail = False
    for name in bundled_scenario_names():
        report = run_scenario(load_bundled_scenario(name))
        path = out_dir / f"{name}.report.json"
        path.write_text(report_json_text(report), encoding="utf-8")
        verdicts = ", ".join(
            f"{e['id']}={e['report'].verdict}" for e in report.checks
        )
        print(f"{name}: {verdicts} -> {path}")
        any_fail = any_fail or report.has_fail()
    return 1 if any_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
