import json
import time

import pytest

from boundarylab import scenario as scenario_module
from boundarylab.checks import CheckReport
from boundarylab.cli import main
from boundarylab.scenario import (
    KNOWN_CHECKS,
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    replay_certificate,
    report_json_text,
    run_scenario,
    scenario_from_dict,
)

SMALL_SCENARIO = {
    "name": "tiny",
    "group": {"kind": "free", "rank": 2},
    "subgroup": ["aa", "b", "abA"],
    "depths": {"cylinder": 1, "target": 8},
    "budgets": {"ball_radius": 3, "steps": 32, "samples": 4, "max_cosets": 16},
    "seed": 99,
    "checks": [
        {"check": "minimal-finite"},
        {"check": "sp-extension", "samples": 4, "target_depth": 8},
    ],
}


@pytest.fixture()
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(SMALL_SCENARIO))
    return str(path)


def test_bundled_scenarios_present():
    assert bundled_scenario_names() == [
        "f2-index2", "f2-index3", "s3-amenable", "z4-amenable",
    ]
    for name in bundled_scenario_names():
        load_bundled_scenario(name)


def test_validation_messages():
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict({"name": "x", "group": {"kind": "free", "rank": 2},
                            "subgroup": ["a"], "checks": [{"check": "minimal-finite"}]})
    with pytest.raises(ScenarioError, match="group.kind"):
        scenario_from_dict({"name": "x", "seed": 1, "group": {"kind": "nope"},
                            "checks": [{"check": "minimal-finite"}]})
    with pytest.raises(ScenarioError, match="checks\\[0\\].check"):
        scenario_from_dict({**SMALL_SCENARIO, "checks": [{"check": "bogus"}]})
    with pytest.raises(ScenarioError, match="subgroup"):
        scenario_from_dict({**SMALL_SCENARIO, "subgroup": []})
    with pytest.raises(ScenarioError, match="subgroup"):
        scenario_from_dict({**SMALL_SCENARIO, "subgroup": ["a?"]})


def test_run_scenario_deterministic_evidence():
    scenario = scenario_from_dict(SMALL_SCENARIO)
    t1 = report_json_text(run_scenario(scenario), include_timing=False)
    t2 = report_json_text(run_scenario(scenario), include_timing=False)
    assert t1 == t2


def test_run_report_shape():
    scenario = scenario_from_dict(SMALL_SCENARIO)
    data = json.loads(report_json_text(run_scenario(scenario)))
    assert data["schema"] == "boundarylab-report/1"
    assert data["scenario"]["name"] == "tiny"
    assert [c["id"] for c in data["checks"]] == ["01-minimal-finite", "02-sp-extension"]
    assert all("wall_clock_s" in c for c in data["checks"])


def test_replay_certificate_from_report_and_tamper():
    scenario = scenario_from_dict(SMALL_SCENARIO)
    data = json.loads(report_json_text(run_scenario(scenario)))
    ev = next(c for c in data["checks"] if c["id"] == "02-sp-extension")["evidence"]
    idx = next(i for i, e in enumerate(ev) if e["certificate"]
               and len(e["certificate"]["steps"]) > 1)
    verdict, detail = replay_certificate(data, "02-sp-extension", idx)
    assert verdict == "PASS" and detail["match"]
    ev[idx]["certificate"]["steps"] = ev[idx]["certificate"]["steps"][:-1]
    verdict, _ = replay_certificate(data, "02-sp-extension", idx)
    assert verdict == "FAIL"
    with pytest.raises(ScenarioError):
        replay_certificate(data, "09-no-such-check", 0)
    with pytest.raises(ScenarioError):
        replay_certificate(data, "02-sp-extension", 10_000)


def test_replay_certificate_id_must_be_exact_or_unique():
    spec = {"check": "sp-extension", "samples": 2, "target_depth": 6}
    scenario = scenario_from_dict({**SMALL_SCENARIO, "checks": [spec, spec]})
    data = json.loads(report_json_text(run_scenario(scenario)))
    assert [c["id"] for c in data["checks"]] == ["01-sp-extension", "02-sp-extension"]
    for check_id in ("01-sp-extension", "02-sp-extension"):
        assert replay_certificate(data, check_id, 0)[0] == "PASS"
    with pytest.raises(ScenarioError, match="ambiguous.*01-sp-extension, 02-sp-extension"):
        replay_certificate(data, "sp-extension", 0)
    with pytest.raises(ScenarioError, match="not found.*01-sp-extension"):
        replay_certificate(data, "extension", 0)
    single = json.loads(report_json_text(run_scenario(scenario_from_dict(
        {**SMALL_SCENARIO, "checks": [spec]}))))
    assert replay_certificate(single, "sp-extension", 0)[0] == "PASS"


@pytest.fixture(scope="module")
def index_reports():
    """Timing-free report text of the bundled f2-index2 and f2-index3 runs."""
    return {name: report_json_text(run_scenario(load_bundled_scenario(name)),
                                   include_timing=False)
            for name in ("f2-index2", "f2-index3")}


def _certificates(data):
    """(check id, evidence index) of every stored certificate in a report."""
    return [(entry["id"], k) for entry in data["checks"]
            for k, item in enumerate(entry["evidence"]) if item.get("certificate")]


def _outcome(data, check_id, k):
    try:
        return replay_certificate(data, check_id, k)
    except ScenarioError as exc:
        return str(exc)


def test_replay_memo_matches_a_fresh_build(index_reports):
    # a fresh build before each call is the oracle; the memo serves runs of one
    # report, then switches report on every call
    reports = [json.loads(text) for text in index_reports.values()]
    one, two = ([(data, *c) for c in _certificates(data)] for data in reports)
    assert one and two
    calls = one + two + [c for pair in zip(one, two) for c in pair]
    want = []
    for call in calls:
        scenario_module._echo_space.cache_clear()
        want.append(replay_certificate(*call))
    assert all(verdict == "PASS" for verdict, _ in want)
    scenario_module._echo_space.cache_clear()
    assert [replay_certificate(*call) for call in calls] == want


def test_replay_builds_a_report_once(index_reports, monkeypatch):
    data = json.loads(index_reports["f2-index2"])
    calls = []
    engine = scenario_module.enumerate_cosets
    monkeypatch.setattr(scenario_module, "enumerate_cosets",
                        lambda *args, **kwargs: calls.append(1) or engine(*args, **kwargs))
    scenario_module._echo_space.cache_clear()
    certificates = _certificates(data)
    assert len(certificates) > 1
    assert all(replay_certificate(data, *c)[0] == "PASS" for c in certificates)
    assert len(calls) == 1


@pytest.mark.parametrize("edit", [{"budgets": {"max_cosets": 1}},
                                  {"subgroup": ["aaa", "b", "abA", "aabAA"]}])
def test_replay_rebuilds_an_edited_echo(index_reports, edit):
    # after a replay of the report as stored, a replay of the edited report
    # gives what a fresh build of the edit gives, and some of it differs
    data = json.loads(index_reports["f2-index2"])
    echo = data["scenario"]
    edited = {**data, "scenario": {**echo, **{
        key: {**echo[key], **val} if isinstance(val, dict) else val
        for key, val in edit.items()}}}
    differs = []
    for check_id, k in _certificates(data)[:5]:
        before = replay_certificate(data, check_id, k)
        got = _outcome(edited, check_id, k)
        scenario_module._echo_space.cache_clear()
        assert got == _outcome(edited, check_id, k)
        differs.append(got != before)
    assert any(differs)


def test_replay_never_caches_a_malformed_echo(index_reports):
    data = json.loads(index_reports["f2-index2"])
    check_id, k = _certificates(data)[0]
    good = replay_certificate(data, check_id, k)
    bad = {**data, "scenario": {key: val for key, val in data["scenario"].items()
                                if key != "seed"}}
    for _ in range(2):
        with pytest.raises(ScenarioError, match=r"^scenario\.seed: "):
            replay_certificate(bad, check_id, k)
    assert replay_certificate(data, check_id, k) == good


@pytest.mark.parametrize("echo", [{"seed": {1, 2}}, {1: "one", "name": "x"}])
def test_replay_names_an_echo_that_is_not_json(echo):
    data = json.loads(report_json_text(run_scenario(scenario_from_dict(SMALL_SCENARIO))))
    data["scenario"] = {**data["scenario"], **echo}
    with pytest.raises(ScenarioError, match=r"^scenario: "):
        replay_certificate(data, "02-sp-extension", 0)


def test_budget_exceeded_surfaces_as_inconclusive(capsys):
    scenario = scenario_from_dict({
        **SMALL_SCENARIO,
        "checks": [{"check": "minimal-symbolic", "radius": 30, "samples": 1}],
    })
    report = run_scenario(scenario)
    assert report.checks[0]["report"].verdict == "INCONCLUSIVE"
    assert "budget_exceeded" in report.checks[0]["report"].evidence[0]
    assert not report.has_fail()
    # the fallback reports the seed the check would have used: its own, or
    # none for a check that draws nothing
    scenario = scenario_from_dict({**SMALL_SCENARIO, "checks": [
        {"check": "minimal-symbolic", "depth": 40, "samples": 1, "seed": 7}]})
    assert run_scenario(scenario).checks[0]["report"].seed == 7
    for budgets in ({}, {"max_cosets": 1}):
        scenario = scenario_from_dict({**SMALL_SCENARIO, "budgets": budgets,
                                       "checks": [{"check": "minimal-finite"}]})
        report = run_scenario(scenario).checks[0]["report"]
        assert report.verdict == ("INCONCLUSIVE" if budgets else "PASS")
        assert report.seed is None
        if budgets:
            assert report.evidence[0]["budget_exceeded"].startswith("budgets.max_cosets: ")
            assert report.parameters == {}


ENGINES = {"minimal-symbolic": "check_minimal_symbolic", "sp-extension": "check_sp_extension",
           "contraction-lifting": "check_contraction_lifting",
           "decompose-fibers": "decompose_fibers"}


def test_run_check_forwards_every_field_under_its_own_name(monkeypatch):
    # each engine gets the fields KNOWN_CHECKS lists, by keyword and under the
    # scenario's names: the spec's value, else the scenario-wide one
    seen = {}
    for check, engine in ENGINES.items():
        def record(_space, _check=check, **fields):
            seen[_check] = fields
            return CheckReport(_check, "PASS", {}, None, [], {})
        monkeypatch.setattr(scenario_module, engine, record)
    specs = [{"check": check, **{key: 100 + pos for pos, key in enumerate(KNOWN_CHECKS[check][1])}}
             for check in ENGINES]
    run_scenario(scenario_from_dict({**SMALL_SCENARIO, "checks": specs}))
    assert seen == {spec["check"]: {k: v for k, v in spec.items() if k != "check"}
                    for spec in specs}
    seen.clear()
    run_scenario(scenario_from_dict({**SMALL_SCENARIO, "checks": [{"check": c} for c in ENGINES]}))
    contraction = {"max_atoms": 5, "samples": 4, "seed": 99, "target_depth": 8, "steps": 32}
    assert seen == {
        "minimal-symbolic": {"depth": 1, "radius": 3, "samples": 10, "seed": 99},
        "sp-extension": contraction,
        "contraction-lifting": {**contraction, "depth": 1, "radius": 3},
        "decompose-fibers": {"depth": 1, "radius": 3, "samples": 3, "seed": 99},
    }


def test_deep_cylinders_are_inconclusive_before_enumeration():
    # 4 * 3^39 depth-40 cylinders: the cap is checked before any is built
    scenario = scenario_from_dict({**SMALL_SCENARIO, "checks": [
        {"check": "minimal-symbolic", "depth": 40, "samples": 1},
        {"check": "contraction-lifting", "depth": 40, "samples": 2},
        {"check": "decompose-fibers", "depth": 40},
    ]})
    started = time.perf_counter()
    report = run_scenario(scenario)
    assert time.perf_counter() - started < 10
    for entry in report.checks:
        assert entry["report"].verdict == "INCONCLUSIVE"
        assert "cylinders exceed cap" in entry["report"].evidence[0]["budget_exceeded"]
        assert entry["report"].seed == 99
    # the fields each check would have run with, under the scenario's names
    assert [entry["report"].parameters for entry in report.checks] == [
        {"depth": 40, "radius": 3, "samples": 1},
        {"depth": 40, "max_atoms": 5, "radius": 3, "samples": 2, "steps": 32,
         "target_depth": 8},
        {"depth": 40, "radius": 3, "samples": 3},
    ]


def test_scenario_objects_lazy_build(monkeypatch):
    scenario = scenario_from_dict(SMALL_SCENARIO)
    assert scenario.table.size == 2
    assert scenario.basis.rank == 3
    assert scenario.induced.size == 2
    # one enumeration and one basis per run, shared by all its checks; a
    # permutation group builds no basis
    calls = dict.fromkeys(("enumerate_cosets", "schreier_basis"), 0)
    for name in calls:
        def counted(*args, _name=name, _engine=getattr(scenario_module, name), **kwargs):
            calls[_name] += 1
            return _engine(*args, **kwargs)
        monkeypatch.setattr(scenario_module, name, counted)
    run_scenario(load_bundled_scenario("f2-index2"))
    assert calls == {"enumerate_cosets": 1, "schreier_basis": 1}
    calls.update(enumerate_cosets=0, schreier_basis=0)
    run_scenario(load_bundled_scenario("s3-amenable"))
    assert calls == {"enumerate_cosets": 1, "schreier_basis": 0}


# -- CLI ------------------------------------------------------------------------------


def test_cli_run_and_exit_codes(tiny_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", tiny_path, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "scenario tiny: PASS" in captured
    data = json.loads(out.read_text())
    assert data["schema"] == "boundarylab-report/1"


def test_cli_run_bundled_by_name(capsys):
    assert main(["run", "s3-amenable"]) == 0
    assert "amenable-size: PASS" in capsys.readouterr().out


def test_cli_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad)]) == 2
    assert "parse error: line" in capsys.readouterr().err


def test_cli_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"name": "x", "group": {"kind": "free", "rank": 2},
                               "subgroup": ["a"],
                               "checks": [{"check": "minimal-finite"}]}))
    assert main(["run", str(bad)]) == 2
    assert "seed" in capsys.readouterr().err


S3_SCENARIO = {
    "name": "s3-tiny",
    "group": {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "subgroup": ["a"],
    "seed": 5,
    "checks": [{"check": "amenable-size"}],
    "extensions": [
        {"name": "cover", "size": 6,
         "action": {"a": [1, 3, 2, 4, 6, 5], "b": [2, 3, 1, 5, 6, 4]},
         "projection": [1, 2, 3, 1, 2, 3]},
    ],
}


def _with_extension(**changes):
    return {**S3_SCENARIO, "extensions": [{**S3_SCENARIO["extensions"][0], **changes}]}


@pytest.mark.parametrize("scenario, fieldname", [
    ({**SMALL_SCENARIO, "subgroup": [1, "b"]}, "subgroup"),
    ({**SMALL_SCENARIO, "checks": [{"check": "minimal-symbolic", "radius": "4"}]},
     "checks[0].radius"),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "samples": "3"}]},
     "checks[0].samples"),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "max_atoms": True}]},
     "checks[0].max_atoms"),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "target_depth": 0}]},
     "checks[0].target_depth"),
    (_with_extension(projection=[1, 2, 3]), "extensions[0].projection"),
    (_with_extension(size="6"), "extensions[0].size"),
    (_with_extension(projection=[1, 2, 3, 1, 2, 4]), "extensions[0].projection"),
    ({**S3_SCENARIO, "group": {**S3_SCENARIO["group"], "generators": [None, [1, 2, 0]]}},
     "group.generators"),
    ({**S3_SCENARIO, "group": {**S3_SCENARIO["group"], "degree": True}}, "group.degree"),
    ({**SMALL_SCENARIO, "group": {"kind": "free", "rank": True}}, "group.rank"),
    ({**SMALL_SCENARIO, "seed": True}, "seed"),
    ({**SMALL_SCENARIO, "depths": [1]}, "depths"),
    ({**SMALL_SCENARIO, "budgets": "x"}, "budgets"),
    (_with_extension(action="ab"), "extensions[0].action"),
    (_with_extension(action={"a": None, "b": [2, 3, 1, 5, 6, 4]}), "extensions[0].action.a"),
    (_with_extension(action={"a": [1, 3, 2, 4, 6, 5], "b": [2, 3, None, 5, 6, 4]}),
     "extensions[0].action.b"),
    (_with_extension(action={"a": [1.0, 3, 2, 4, 6, 5], "b": [2, 3, 1, 5, 6, 4]}),
     "extensions[0].action.a"),
    (_with_extension(action={"a": [[1], 3, 2, 4, 6, 5], "b": [2, 3, 1, 5, 6, 4]}),
     "extensions[0].action.a"),
    (_with_extension(action={"a": [True, 3, 2, 4, 6, 5], "b": [2, 3, 1, 5, 6, 4]}),
     "extensions[0].action.a"),
    (_with_extension(action={"a": [1, 3, 2, 4, 6, 5]}), "extensions[0].action.b"),
    ({**S3_SCENARIO, "checks": [{"check": "minimal-finite"}, {"check": "minimal-symbolic"}]},
     "checks[1].check"),
    ({**S3_SCENARIO, "checks": [{"check": "sp-extension"}]}, "checks[0].check"),
    ({**S3_SCENARIO, "checks": [{"check": "contraction-lifting"}]}, "checks[0].check"),
    ({**S3_SCENARIO, "checks": [{"check": "decompose-fibers"}]}, "checks[0].check"),
    ({**SMALL_SCENARIO, "checks": [{"check": "minimal-finite"}, {"check": "amenable-size"}]},
     "checks[1].check"),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "strategy": "nope"}]},
     "checks[0].strategy"),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "strategy": "axis-power"}]},
     "checks[0].strategy"),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "strategy": 3}]},
     "checks[0].strategy"),
    ({**SMALL_SCENARIO, "checks": [{"check": ["sp-extension"]}]}, "checks[0].check"),
    ({**SMALL_SCENARIO, "subgroup": ["aa", "b"]}, "subgroup: "),
    ({**SMALL_SCENARIO, "checks": [{"check": "sp-extension", "strategy": "greedy-ball"}]},
     "checks[0].strategy"),
    ({**SMALL_SCENARIO, "checks": [{"check": "minimal-symbolic", "sampels": 1}]},
     "checks[0].sampels"),
    ({**SMALL_SCENARIO, "checks": [{"check": "minimal-finite"}, {"check": "sp-extension",
                                                                 "budget": 8}]},
     "checks[1].budget"),
    ({**SMALL_SCENARIO, "depths": {"cylinder": 1, "targte": 8}}, "depths.targte"),
    ({**SMALL_SCENARIO, "budgets": {"ball_radius": 3, "step": 32}}, "budgets.step"),
    ({**SMALL_SCENARIO, "budgets": {"samples": 0}}, "budgets.samples"),
    ({**SMALL_SCENARIO, "depths": {"target": 0}}, "depths.target"),
    ({**S3_SCENARIO, "group": {**S3_SCENARIO["group"], "degree": 0}}, "group.degree"),
    ({**SMALL_SCENARIO, "name": ["tiny"]}, "name: "),
    ({k: v for k, v in SMALL_SCENARIO.items() if k != "name"}, "name: "),
    (_with_extension(name=["cover"]), "extensions[0].name"),
    ({**SMALL_SCENARIO, "checks": [{"check": "minimal-finite"}],
      "extensions": [{"name": "x", "size": 1, "action": {"a": [1], "b": [1]},
                      "projection": [5]}]}, "extensions: "),
])
def test_cli_malformed_field_exits_2(tmp_path, capsys, scenario, fieldname):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert fieldname in err
    assert "Traceback" not in err


def _first_certificate(report):
    return next(e for e in report["checks"][1]["evidence"] if e["certificate"])


def _tamper_certificate(key, value):
    def tamper(report):
        entry = _first_certificate(report)
        (entry if key == "measure" else entry["certificate"])[key] = value
        return report
    return tamper


def _tamper_point(point):
    def tamper(report):
        entry = _first_certificate(report)
        assert entry["certificate"]["steps"]  # so that replay acts on the point
        entry["measure"][0]["point"] = point
        return report
    return tamper


ATOMS = [{"point": "(2, |a)", "weight": "1/2"}, {"point": "(2, |b)", "weight": "1/2"}]


@pytest.mark.parametrize("command, tamper, fieldname", [
    ("replay", lambda r: [r], "<root>"),
    ("replay", lambda r: {k: v for k, v in r.items() if k != "scenario"}, "scenario"),
    ("replay", lambda r: {k: v for k, v in r.items() if k != "checks"}, "checks"),
    ("replay", _tamper_certificate("steps", 3), "steps"),
    ("replay", _tamper_certificate("measure", "(2, |a)"), "measure"),
    ("replay", _tamper_certificate("achieved_depth", "8"), "achieved_depth"),
    ("replay", lambda r: {**r, "scenario": {k: v for k, v in r["scenario"].items()
                                            if k != "seed"}}, "error: scenario.seed: missing"),
    ("replay", lambda r: {**r, "scenario": {**r["scenario"], "subgroup": ["a"]}},
     "error: scenario.subgroup: "),
    ("replay", lambda r: {**r, "scenario": {**r["scenario"], "budgets": {
        **r["scenario"]["budgets"], "max_cosets": 1}}}, "error: scenario.budgets.max_cosets: "),
    ("contract", lambda _: ATOMS, "measure"),
    ("contract", lambda _: {"space": "induced"}, "atoms"),
    ("contract", lambda _: {"atoms": [{"point": "(2, |a)"}]}, "measure"),
    ("contract", lambda _: {"atoms": "(2, |a)"}, "measure"),
    ("contract", lambda _: {"atoms": [{"point": "(5, |a)", "weight": "1"}]}, "point"),
    ("replay", _tamper_point("(9, |a)"), "point"),
    ("replay", _tamper_point("(-1, |a)"), "point"),
    ("contract", lambda _: {"atoms": [{"point": "(2, 5)", "weight": "1"}]}, "point"),
    ("contract", lambda _: {"atoms": [{"point": "(2, |a)", "weight": "1/0"}]}, "weight"),
    ("contract", lambda _: {"atoms": [{"point": "(1, |z)", "weight": "1/2"},
                                      {"point": "(1, |b)", "weight": "1/2"}]}, "rank 3"),
    ("contract", lambda _: {"space": "fiber",
                            "atoms": [{"point": "d|a", "weight": "1/2"},
                                      {"point": "|b", "weight": "1/2"}]}, "rank 3"),
    ("contract", lambda _: {"atoms": [{"point": "(2, |a)", "weight": "1/2"},
                                      {"point": "(2, |b)", "weight": "1/4"}]},
     "measure: atom weights sum to 3/4, not 1"),
    ("contract", lambda _: {"atoms": [{"point": p, "weight": 0.3333333333333333}
                                      for p in ("(2, |a)", "(2, |b)", "(2, |c)")]},
     "measure: atom weights sum to 9999999999999999/10000000000000000, not 1"),
    ("contract", lambda _: {"atoms": [{"point": "(x, |a)", "weight": "1"}]}, "point:"),
    ("contract", lambda _: {"atoms": [{"point": "(2, |a!)", "weight": "1"}]}, "point:"),
    ("replay", _tamper_certificate("achieved_depth", -2), "certificate.achieved_depth"),
    ("replay", _tamper_certificate("achieved_depth", 0), "certificate.achieved_depth"),
    ("replay", _tamper_certificate("steps", ["a", "x"]),
     "error: certificate.steps[1]: letter 24 out of range for rank-2 context"),
    ("replay", _tamper_certificate("steps", ["1"]),
     "error: certificate.steps[0]: invalid word character '1'"),
    ("replay", _tamper_certificate("limit_coset", "x"),
     "error: certificate.limit_coset: must be an integer or null"),
    ("replay", _tamper_certificate("limit_cylinder", "1"),
     "error: certificate.limit_cylinder: invalid word character '1'"),
    ("replay", _tamper_certificate("limit_cylinder", "x"),
     "error: certificate.limit_cylinder: letter 24 out of range for rank-3 context"),
    ("replay", _tamper_certificate("limit_cylinder", "aA"), "error: certificate.limit_cylinder"),
    ("replay", _tamper_certificate("limit_cylinder", "aA" * 4),
     "error: certificate.limit_cylinder: must be a reduced word of length achieved_depth"),
    ("replay", _tamper_certificate("limit_cylinder", "a"),
     "error: certificate.limit_cylinder: must be a reduced word of length achieved_depth"),
    ("replay", _tamper_certificate("limit_coset", 9),
     "error: certificate.limit_coset: must be a coset in 1..2"),
    ("replay", _tamper_certificate("limit_coset", 0),
     "error: certificate.limit_coset: must be a coset in 1..2"),
    ("replay", _tamper_certificate("limit_coset", None),
     "error: certificate.limit_coset: must be a coset in 1..2"),
], ids=["report-list", "no-scenario", "no-checks", "int-steps", "str-measure",
        "str-achieved-depth", "scenario-without-seed", "scenario-infinite-index",
        "scenario-index-above-max-cosets", "bare-atom-list", "no-atoms", "atom-without-weight",
        "str-atoms", "coset-above-index", "replay-coset-above-index",
        "replay-negative-coset", "integer-fiber-point", "zero-denominator-weight",
        "induced-letter-above-fiber-rank", "fiber-letter-above-rank",
        "weights-sum-below-one", "float-thirds-inexact", "non-integer-coset",
        "bad-word-character", "negative-achieved-depth", "zero-achieved-depth",
        "step-letter-above-rank", "step-bad-character", "str-limit-coset",
        "cylinder-bad-character", "cylinder-letter-above-fiber-rank",
        "cylinder-not-reduced", "cylinder-not-reduced-at-full-length", "cylinder-too-short",
        "limit-coset-above-index", "limit-coset-zero", "limit-coset-null"])
def test_cli_tampered_input_exits_2(tiny_path, tmp_path, capsys, command, tamper, fieldname):
    report = json.loads(report_json_text(run_scenario(scenario_from_dict(SMALL_SCENARIO))))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tamper(report)))
    if command == "replay":
        idx = report["checks"][1]["evidence"].index(_first_certificate(report))
        argv = ["replay", str(path), "--check", "02-sp-extension", "--cert", str(idx)]
    else:
        argv = ["contract", tiny_path, "--measure", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert fieldname in err
    assert "Traceback" not in err


def _one_error_line(err: str) -> str:
    """The only line of ``err``, which must be an ``error:`` line."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


FIBER_MEASURE = {"space": "fiber", "atoms": [{"point": "|a", "weight": "1/2"},
                                             {"point": "b|aB", "weight": "1/2"}]}


@pytest.mark.parametrize("command", ["contract", "enumerate-cosets", "induce"])
def test_cli_index_above_max_cosets_names_the_budget(tmp_path, capsys, command):
    scenario = load_bundled_scenario("f2-index2").raw
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({**scenario, "budgets": {**scenario["budgets"],
                                                        "max_cosets": 1}}))
    mpath = tmp_path / "measure.json"
    mpath.write_text(json.dumps(FIBER_MEASURE))
    argv = [command, str(path)] + (["--measure", str(mpath)] if command == "contract" else [])
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr().err).startswith("error: budgets.max_cosets: ")


@pytest.mark.parametrize("command", ["contract", "induce"])
def test_cli_induced_space_on_a_permutation_group_names_the_group_kind(tmp_path, capsys,
                                                                      command):
    mpath = tmp_path / "measure.json"
    mpath.write_text(json.dumps(FIBER_MEASURE))
    argv = [command, "s3-amenable"] + (["--measure", str(mpath)] if command == "contract" else [])
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr().err).startswith("error: group.kind: ")


def test_cli_usage_error():
    assert main(["run"]) == 2
    assert main(["no-such-command"]) == 2


def test_cli_fail_exit_code(tmp_path, capsys):
    # a full-size candidate with a non-equivariant projection breaks the dichotomy
    scenario = {
        "name": "broken-dichotomy",
        "group": {"kind": "permutation", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "subgroup": ["a"],
        "seed": 5,
        "checks": [{"check": "amenable-size"}],
        "extensions": [
            {"name": "scrambled", "size": 3,
             "action": {"a": [1, 3, 2], "b": [2, 3, 1]},
             "projection": [2, 1, 3]},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_replay_roundtrip(tiny_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", tiny_path, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    ev = next(c for c in data["checks"] if c["id"] == "02-sp-extension")["evidence"]
    idx = next(i for i, e in enumerate(ev) if e["certificate"])
    capsys.readouterr()
    assert main(["replay", str(out), "--check", "02-sp-extension",
                 "--cert", str(idx)]) == 0
    assert '"verdict": "PASS"' in capsys.readouterr().out
    # tamper on disk: a well-formed false claim FAILs, a malformed one exits 2
    cert = ev[idx]["certificate"]
    cert["limit_coset"] = 3 - cert["limit_coset"]
    out.write_text(json.dumps(data))
    assert main(["replay", str(out), "--check", "02-sp-extension",
                 "--cert", str(idx)]) == 1
    cert["achieved_depth"] += 5
    out.write_text(json.dumps(data))
    assert main(["replay", str(out), "--check", "02-sp-extension",
                 "--cert", str(idx)]) == 2


def test_cli_replay_on_a_permutation_group_names_the_group_kind(tmp_path, capsys):
    # certificates live on induced spaces, which a permutation group has none of
    entry = _first_certificate(json.loads(report_json_text(
        run_scenario(scenario_from_dict(SMALL_SCENARIO)))))
    report = json.loads(report_json_text(run_scenario(load_bundled_scenario("s3-amenable"))))
    assert report["checks"][0]["id"] == "01-minimal-finite"
    report["checks"][0]["evidence"][0].update(measure=entry["measure"],
                                              certificate=entry["certificate"])
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(report))
    assert main(["replay", str(path), "--check", "01-minimal-finite", "--cert", "0"]) == 2
    err = capsys.readouterr().err
    assert "scenario.group.kind" in err
    assert "Traceback" not in err


def test_cli_rank_one_free_group_names_group_rank(tmp_path, capsys):
    # every finite-index subgroup of Z has rank 1, so it has no fiber boundary
    scenario = {**SMALL_SCENARIO, "group": {"kind": "free", "rank": 1}, "subgroup": ["aa"]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "group.rank" in err and "'sp-extension'" in err
    assert "Traceback" not in err
    # without an induced-space check the scenario loads and runs
    path.write_text(json.dumps({**scenario, "checks": [{"check": "minimal-finite"}]}))
    assert main(["run", str(path)]) == 0
    assert "01-minimal-finite: PASS" in capsys.readouterr().out


def test_cli_high_index_kernel_scenario(tmp_path, capsys):
    # kernel of F2 -> Z/30: Schreier rank 31, so fiber letters above 26 are
    # serialized as {n} tokens in the report and parsed back on replay
    n = 30
    scenario = {
        "name": "f2-kernel-z30",
        "group": {"kind": "free", "rank": 2},
        "subgroup": ["a" * n] + ["A" * i + "b" + "a" * i for i in range(n)],
        "depths": {"cylinder": 1, "target": 6},
        "budgets": {"ball_radius": 2, "steps": 16, "samples": 2, "max_cosets": 64},
        "seed": 5,
        "checks": [{"check": "sp-extension", "samples": 2, "max_atoms": 2,
                    "target_depth": 6}],
    }
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    measure = json.loads(out.read_text())["checks"][0]["evidence"][0]["measure"]
    assert any("{" in atom["point"] for atom in measure)
    capsys.readouterr()
    assert main(["replay", str(out), "--check", "sp-extension", "--cert", "0"]) == 0
    assert '"verdict": "PASS"' in capsys.readouterr().out


def test_cli_enumerate_cosets(tiny_path, capsys):
    assert main(["enumerate-cosets", tiny_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["index"] == 2
    assert data["transversal"] == ["", "a"]
    assert set(data["action"]) == {"a", "A", "b", "B"}


def test_cli_induce(tiny_path, capsys):
    assert main(["induce", tiny_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schreier_rank"] == 3
    assert data["basis"] == ["aa", "b", "Aba"]
    assert {s["gamma"] for s in data["action_samples"]} == {"a", "b"}


def test_cli_contract(tiny_path, tmp_path, capsys):
    measure = {
        "space": "induced",
        "atoms": [
            {"point": "(2, |a)", "weight": "1/2"},
            {"point": "(2, |b)", "weight": "1/2"},
        ],
    }
    mpath = tmp_path / "measure.json"
    mpath.write_text(json.dumps(measure))
    assert main(["contract", tiny_path, "--measure", str(mpath)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "PASS"
    assert data["certificate"]["limit_coset"] == 2

    # a fiber-space measure takes axis-power, the strategy its space fixes
    measure = {
        "space": "fiber",
        "atoms": [
            {"point": "|a", "weight": "1/3"},
            {"point": "|b", "weight": "2/3"},
        ],
    }
    mpath2 = tmp_path / "measure2.json"
    mpath2.write_text(json.dumps(measure))
    assert main(["contract", tiny_path, "--measure", str(mpath2)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "PASS"


def test_cli_contract_reads_target_and_steps_from_the_scenario(tmp_path, capsys):
    # depths.target and budgets.steps are the only settings: the command has no flags for them
    assert main(["contract", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--measure" in usage and "--target-depth" not in usage and "--steps" not in usage
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**SMALL_SCENARIO, "depths": {"target": 30},
                                "budgets": {"steps": 2}}))
    mpath = tmp_path / "measure.json"
    mpath.write_text(json.dumps({"atoms": ATOMS}))
    assert main(["contract", str(path), "--measure", str(mpath)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "INCONCLUSIVE", "target_depth": 30, "budget_steps": 2}


def test_cli_contract_decimal_weights_are_exact(tiny_path, tmp_path, capsys):
    # JSON numbers are read as the decimals they spell: 0.1 + 0.2 + 0.7 == 1
    atoms = [{"point": p, "weight": w}
             for p, w in (("(2, |a)", 0.1), ("(2, |b)", 0.2), ("(2, |c)", 0.7))]
    mpath = tmp_path / "decimal.json"
    mpath.write_text(json.dumps({"atoms": atoms}))
    assert main(["contract", tiny_path, "--measure", str(mpath)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"


def test_group_kind_and_strategy_rejected_at_load():
    # a check that does not fit the group kind never starts the run
    for check in ("minimal-symbolic", "sp-extension", "contraction-lifting", "decompose-fibers"):
        with pytest.raises(ScenarioError, match=f"checks\\[1\\].check: '{check}' needs a free"):
            scenario_from_dict({**S3_SCENARIO, "checks": [{"check": "amenable-size"},
                                                          {"check": check}]})
    with pytest.raises(ScenarioError, match="checks\\[0\\].check: 'amenable-size' needs a perm"):
        scenario_from_dict({**SMALL_SCENARIO, "checks": [{"check": "amenable-size"}]})
    scenario_from_dict({**SMALL_SCENARIO,
                        "checks": [{"check": "sp-extension", "strategy": "fiber-lift"}]})
    scenario_from_dict({**S3_SCENARIO, "checks": [{"check": "minimal-finite"}], "extensions": []})


# per check: a field it reads, and one that it never reads (at the parent each
# of these loaded, and the run ignored the field)
UNREAD_FIELDS = [
    ("minimal-finite", "free", None, "samples"),
    ("minimal-finite", "free", None, "seed"),
    ("minimal-symbolic", "free", "radius", "strategy"),
    ("minimal-symbolic", "free", "depth", "steps"),
    ("sp-extension", "free", "target_depth", "radius"),
    ("sp-extension", "free", "steps", "depth"),
    ("contraction-lifting", "free", "radius", "strategy"),
    ("decompose-fibers", "free", "radius", "max_atoms"),
    ("decompose-fibers", "free", "samples", "steps"),
    ("amenable-size", "permutation", None, "depth"),
]


@pytest.mark.parametrize("check, kind, read, unread", UNREAD_FIELDS)
def test_check_fields_it_never_reads_are_rejected(tmp_path, capsys, check, kind, read, unread):
    base = SMALL_SCENARIO if kind == "free" else S3_SCENARIO
    spec = {"check": check, **({read: 2} if read else {})}
    scenario_from_dict({**base, "checks": [spec]})
    path = tmp_path / "unread.json"
    path.write_text(json.dumps({**base, "checks": [{**spec, unread: 3}]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"checks[0].{unread}: not a field of '{check}'" in err
    assert "Traceback" not in err


def test_cli_inconclusive_flagged_but_passes(tmp_path, capsys):
    scenario = {
        **SMALL_SCENARIO,
        "checks": [{"check": "minimal-symbolic", "radius": 0, "samples": 1}],
    }
    path = tmp_path / "inconclusive.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "INCONCLUSIVE (flagged)" in out
    assert "scenario tiny: PASS" in out


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    names = capsys.readouterr().out.split()
    assert "f2-index2" in names and "z4-amenable" in names
