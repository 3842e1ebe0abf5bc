"""Command-line front end.

Exit codes: 0 when no check FAILs (INCONCLUSIVE results are flagged but do
not fail the run), 1 when some check FAILs or a replay mismatches, 2 for
usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import contract_measure, replay as replay_steps
from .measures import measure_from_json, point_to_json
from .scenario import (
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    replay_certificate,
    report_json_text,
    run_scenario,
)
from .spaces import boundary_point
from .words import BudgetExceededError, Word


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundarylab",
        description="Scenario-driven checks for induced actions on coset spaces "
        "and measure-contraction certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file's check suite")
    p_run.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    p_run.add_argument("--out", help="write the JSON report here")

    p_replay = sub.add_parser("replay", help="re-verify a stored certificate")
    p_replay.add_argument("report", help="report JSON path")
    p_replay.add_argument("--check", required=True, help="check id, e.g. 03-sp-extension")
    p_replay.add_argument("--cert", required=True, type=int, help="evidence index")

    p_enum = sub.add_parser("enumerate-cosets", help="print the coset table")
    p_enum.add_argument("scenario")

    p_induce = sub.add_parser(
        "induce", help="dump the coset table, basis, and sample induced moves"
    )
    p_induce.add_argument("scenario")

    p_contract = sub.add_parser("contract", help="contract one measure from a file to "
                                "the scenario's depths.target within budgets.steps")
    p_contract.add_argument("scenario")
    p_contract.add_argument("--measure", required=True, help="measure JSON path")

    sub.add_parser("list-scenarios", help="list bundled scenarios")
    return parser


def _load(path_or_name: str):
    if os.path.exists(path_or_name):
        return load_scenario(path_or_name)
    return load_bundled_scenario(path_or_name)


def _cmd_run(args) -> int:
    scenario = _load(args.scenario)
    report = run_scenario(scenario)
    for entry in report.checks:
        rep = entry["report"]
        flag = " (flagged)" if rep.verdict == "INCONCLUSIVE" else ""
        print(f"check {entry['id']}: {rep.verdict}{flag} [{entry['wall_clock_s']:.3f}s]")
    text = report_json_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    verdict = "FAIL" if report.has_fail() else "PASS"
    print(f"scenario {scenario.name}: {verdict}")
    return 1 if report.has_fail() else 0


def _cmd_replay(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    verdict, detail = replay_certificate(data, args.check, args.cert)
    print(json.dumps({"verdict": verdict, "detail": detail}, indent=2, sort_keys=True))
    return 0 if verdict == "PASS" else 1


def _cmd_enumerate(args) -> int:
    print(json.dumps(_load(args.scenario).table.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_induce(args) -> int:
    scenario = _load(args.scenario)
    space = scenario.induced
    y0 = boundary_point((), (1,))
    samples = []
    for x in range(1, scenario.group.rank + 1):
        gamma = Word(scenario.group, (x,))
        for i in range(1, space.size + 1):
            image = space.act(gamma, (i, y0))
            samples.append(
                {
                    "gamma": gamma.to_str(),
                    "point": point_to_json((i, y0)),
                    "image": point_to_json(image),
                }
            )
    out = {
        "table": scenario.table.to_json(),
        "schreier_rank": scenario.basis.rank,
        "basis": [g.to_str() for g in scenario.basis.generators],
        "action_samples": samples,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_contract(args) -> int:
    scenario = _load(args.scenario)
    with open(args.measure, "r", encoding="utf-8") as fh:
        mdata = json.load(fh)
    if not isinstance(mdata, dict) or "atoms" not in mdata:
        raise ScenarioError("measure: must be an object with an 'atoms' list")
    space_name = mdata.get("space", "induced")  # it alone picks the contraction strategy
    if space_name not in ("induced", "fiber"):
        raise ScenarioError("measure.space: must be 'induced' or 'fiber'")
    space = scenario.induced if space_name == "induced" else scenario.induced.fiber
    nu = measure_from_json(space, mdata["atoms"], "measure.atoms")
    target, steps = scenario.depths["target"], scenario.budgets["steps"]
    cert = contract_measure(nu, target, steps)
    if cert is None:
        print(json.dumps({"verdict": "INCONCLUSIVE", "target_depth": target,
                          "budget_steps": steps}, indent=2, sort_keys=True))
        return 0
    ok, detail, _ = replay_steps(nu, cert)
    print(json.dumps({"verdict": "PASS" if ok else "FAIL",
                      "certificate": cert.to_json(), "replay": detail},
                     indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_list(_args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "run": _cmd_run,
        "replay": _cmd_replay,
        "enumerate-cosets": _cmd_enumerate,
        "induce": _cmd_induce,
        "contract": _cmd_contract,
        "list-scenarios": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (ScenarioError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
