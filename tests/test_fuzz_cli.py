"""Malformed input never crashes the command line.

Each example takes a bundled scenario (with small budgets, so that it runs
fast), a stored f2-index2 report or a measure file, deletes one key or sets it
to a small JSON value (a list of word strings among them), and drives
``cli.main`` with ``run``, ``replay``, ``enumerate-cosets``, ``induce`` or
``contract``.  The exit code must be 0, 1 or
2 with nothing raised; a scenario ``scenario_from_dict`` rejects must exit 2;
and every exit 2 prints one ``error:`` line that starts with the field it is
about.
"""

import contextlib
import copy
import io
import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundarylab.cli import main
from boundarylab.scenario import KNOWN_CHECKS, ScenarioError, scenario_from_dict

#: Check fields set on every bundled check that reads them, and the budgets of
#: the free-group scenarios, so that one example runs in well under a second.
#: With 3 atoms and 4 samples some stored sp-extension certificate has steps,
#: so a fuzzed replay pushes its measure through them.
SMALL_FIELDS = {"samples": 4, "radius": 2, "steps": 8, "target_depth": 4, "max_atoms": 3}
SMALL_BUDGETS = {"ball_radius": 2, "steps": 8, "samples": 2, "max_cosets": 64}

WORDISH = st.text(alphabet="abAB|(1, )/{}x", max_size=4)
SMALL_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), WORDISH,
    st.lists(st.integers(-2, 4), max_size=3), st.lists(WORDISH, max_size=2),
    st.dictionaries(st.sampled_from(["a", "b", "point", "weight"]), st.integers(-2, 4),
                    max_size=2),
)

#: One exit-2 line: ``error: <field>: ...``, or a JSON parse error.
NAMED = re.compile(r"(error: [^\s:]+|parse error: line \d+, column \d+): \S")


def _small(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    if doc["group"]["kind"] == "free":
        doc["budgets"] = dict(SMALL_BUDGETS)
    for check in doc["checks"]:
        for key in KNOWN_CHECKS[check["check"]][1]:
            if key in SMALL_FIELDS:
                check[key] = SMALL_FIELDS[key]
    return doc


ROOT = resources.files("boundarylab") / "scenarios"
SCENARIOS = {p.name[:-len(".json")]: _small(json.loads(p.read_text(encoding="utf-8")))
             for p in ROOT.iterdir() if p.name.endswith(".json")}
MEASURES = [
    {"space": "fiber", "atoms": [{"point": "|a", "weight": "1/2"},
                                 {"point": "b|aB", "weight": "1/2"}]},
    {"space": "induced", "atoms": [{"point": "(2, |a)", "weight": "1/3"},
                                   {"point": "(2, b|c)", "weight": "2/3"}]},
]


def mutate(data, doc):
    """``doc`` with one key deleted or set to a small JSON value, or (rarely)
    the whole document replaced by one."""
    if data.draw(st.integers(0, 19)) == 19:
        return data.draw(SMALL_JSON)
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(SMALL_JSON)
    return doc


def rejected(doc) -> bool:
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        return True
    return False


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of ``cli.main``; anything it raises fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), code
    err = err.getvalue()
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and NAMED.match(lines[0]), err
    return code, err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the small f2-index2 scenario and its stored report,
    with the evidence indices of 03-sp-extension that carry a certificate; at
    least one of those certificates has steps."""
    root = tmp_path_factory.mktemp("fuzz")
    scenario = root / "f2-index2.json"
    scenario.write_text(json.dumps(SCENARIOS["f2-index2"]))
    assert run_cli(["run", str(scenario), "--out", str(root / "report.json")])[0] == 0
    report = json.loads((root / "report.json").read_text())
    entries = next(c for c in report["checks"] if c["id"] == "03-sp-extension")["evidence"]
    certs = [k for k, e in enumerate(entries) if e["certificate"]]
    assert any(entries[k]["certificate"]["steps"] for k in certs)
    return root, report, certs


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@settings(max_examples=200)
@given(data=st.data())
def test_run_survives_a_mutated_scenario(work, data):
    root = work[0]
    doc = mutate(data, SCENARIOS[data.draw(st.sampled_from(sorted(SCENARIOS)))])
    code, _ = run_cli(["run", _write(root / "run.json", doc)])
    if rejected(doc):
        assert code == 2


@settings(max_examples=200)
@given(data=st.data())
def test_replay_survives_a_mutated_report(work, data):
    root, report, certs = work
    k = data.draw(st.sampled_from(certs))
    doc = copy.deepcopy(report)
    where = data.draw(st.sampled_from(["report", "entry", "steps"]))
    if where == "report":
        doc = mutate(data, doc)
    else:  # most fields of a report are not read by one replay
        entries = next(c for c in doc["checks"] if c["id"] == "03-sp-extension")["evidence"]
        if where == "entry":
            entries[k] = mutate(data, entries[k])
        else:  # one key set would rarely write a list of words into the steps
            entries[k]["certificate"]["steps"] = data.draw(st.lists(WORDISH, max_size=3))
    code, _ = run_cli(["replay", _write(root / "replay.json", doc),
                       "--check", "03-sp-extension", "--cert", str(k)])
    if isinstance(doc, dict) and "scenario" in doc and rejected(doc["scenario"]):
        assert code == 2


@pytest.mark.parametrize("command", ["enumerate-cosets", "induce"])
@settings(max_examples=100)
@given(data=st.data())
def test_table_commands_survive_a_mutated_scenario(work, command, data):
    doc = mutate(data, SCENARIOS[data.draw(st.sampled_from(sorted(SCENARIOS)))])
    code, _ = run_cli([command, _write(work[0] / f"{command}.json", doc)])
    if rejected(doc):
        assert code == 2


@settings(max_examples=200)
@given(data=st.data())
def test_contract_survives_a_mutated_scenario_or_measure(work, data):
    root = work[0]
    scenario, measure = SCENARIOS["f2-index2"], data.draw(st.sampled_from(MEASURES))
    if data.draw(st.booleans()):
        scenario = mutate(data, scenario)
    else:
        measure = mutate(data, measure)
    code, _ = run_cli(["contract", _write(root / "contract.json", scenario),
                       "--measure", _write(root / "measure.json", measure)])
    if rejected(scenario):
        assert code == 2
