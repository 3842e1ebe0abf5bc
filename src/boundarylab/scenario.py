"""Scenario files: declarative group/subgroup/check suites with one seed.

A scenario is a single JSON document; every word is a string in the package
serialization ("abA" = a.b.a^-1).  All randomness flows from the scenario
seed, so two runs of the same file produce identical evidence; wall-clock
fields are the only nondeterministic part of a report.  A parsed
:class:`Scenario` also builds, once and only when a check asks, the coset
table, Schreier basis and induced space that all its checks share.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

from . import __version__
from .checks import (
    CheckReport,
    ContractionCertificate,
    FAIL,
    amenable_size_check,
    check_contraction_lifting,
    check_minimal_finite,
    check_minimal_symbolic,
    check_sp_extension,
    decompose_fibers,
    replay as replay_steps,
)
from .cosets import (CosetTable, InfiniteIndexError, SchreierBasis, enumerate_cosets,
                     schreier_basis, subgroup)
from .measures import measure_from_json
from .spaces import (
    ExtensionMap,
    FiniteSpace,
    InducedSpace,
    induced_extension,
    induced_space,
)
from .words import (BudgetExceededError, FreeGroup, PermutationGroup, Word, is_int,
                    letters_to_str, parse_word)

REPORT_SCHEMA = "boundarylab-report/1"

_CONTRACTION = {"max_atoms": 1, "samples": 1, "seed": None, "target_depth": 1, "steps": 1}
_COVERAGE = {"depth": 0, "radius": 0, "samples": 1, "seed": None}

#: Each known check: the group kind it needs (None: either kind), the integer
#: fields its engine takes with their minimums (None: any integer), the string
#: fields it echoes with the one value each may take, and its engine call on
#: the scenario and the resolved integer fields.  The induced-space checks need
#: a free group, the size dichotomy a finite one; an induced fiber measure fixes
#: the ``sp-extension`` strategy.  Each call looks its engine up by module name
#: when it runs, so a rebinding of that name is seen.
KNOWN_CHECKS = {
    "minimal-finite": (None, {}, {}, lambda sc, _: check_minimal_finite(sc.table)),
    "minimal-symbolic": ("free", _COVERAGE, {},
                         lambda sc, f: check_minimal_symbolic(sc.induced, **f)),
    "sp-extension": ("free", _CONTRACTION, {"strategy": "fiber-lift"},
                     lambda sc, f: check_sp_extension(sc.extension, **f)),
    "contraction-lifting": ("free", {**_CONTRACTION, "depth": 0, "radius": 0}, {},
                            lambda sc, f: check_contraction_lifting(sc.extension, **f)),
    "decompose-fibers": ("free", _COVERAGE, {}, lambda sc, f: decompose_fibers(sc.extension, **f)),
    "amenable-size": ("permutation", {}, {},
                      lambda sc, _: amenable_size_check(sc.table, sc.candidate_spaces())),
}


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field."""


#: The fields ``depths`` and ``budgets`` may set, with their defaults; those
#: in ``_POSITIVE`` must be >= 1 (a zero target or sample count proves nothing).
_DEPTH_DEFAULTS = {"cylinder": 1, "target": 20}
_BUDGET_DEFAULTS = {"ball_radius": 4, "steps": 64, "samples": 20, "max_cosets": 1024}
_POSITIVE = ("target", "steps", "samples", "max_cosets")


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{fieldname}: {message}")


def _known_fields(data: dict, prefix: str, known) -> None:
    """Refuse a key of ``data`` that ``known`` does not list, named as ``prefix + key``."""
    for key in data:
        _require(key in known, f"{prefix}{key}", f"unknown field; known: {', '.join(known)}")


@dataclass
class Scenario:
    """A validated scenario file and the spaces its checks share: the coset
    table of H in the group, and for a free group the Schreier basis, the
    induced space Γ ×_H ∂H and its extension onto Γ/H.  Each is built on first
    use and kept; a build that raises is retried on the next use."""

    name: str
    group: FreeGroup | PermutationGroup
    subgroup_words: tuple[Word, ...]
    depths: dict
    budgets: dict
    seed: int
    checks: list
    extensions: list
    raw: dict = field(repr=False)

    @cached_property
    def table(self) -> CosetTable:
        handle = subgroup(self.group, self.subgroup_words)
        try:
            return enumerate_cosets(handle, max_cosets=self.budgets["max_cosets"])
        except InfiniteIndexError as exc:
            raise ScenarioError(f"subgroup: {exc}") from exc
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"budgets.max_cosets: {exc}") from exc

    @cached_property
    def basis(self) -> SchreierBasis:
        if not isinstance(self.group, FreeGroup):
            raise ScenarioError("group.kind: a Schreier basis and an induced space "
                                "need a free group")
        return schreier_basis(self.table)

    @cached_property
    def induced(self) -> InducedSpace:
        return induced_space(self.table, self.basis)

    @property
    def extension(self) -> ExtensionMap:
        return induced_extension(self.induced)

    def candidate_spaces(self) -> list:
        out = []
        for pos, cand in enumerate(self.extensions):
            perms = [cand["action"][letters_to_str((x,))] for x in range(1, self.group.rank + 1)]
            space = FiniteSpace.make(self.group, cand["size"], perms)
            n = self.table.size
            if not all(is_int(v) and 1 <= v <= n for v in cand["projection"]):
                raise ScenarioError(
                    f"extensions[{pos}].projection: values must lie in 1..{n}"
                )
            out.append(
                {"name": cand["name"], "space": space,
                 "projection": tuple(cand["projection"])}
            )
        return out


def scenario_from_dict(data: dict) -> Scenario:
    _require(isinstance(data, dict), "<root>", "scenario must be a JSON object")
    _known_fields(data, "", ("name", "seed", "group", "subgroup", "depths", "budgets", "checks",
                             "extensions"))
    _require(isinstance(data.get("name"), str), "name", "must be a string")
    _require("seed" in data, "seed", "missing (no implicit randomness)")
    _require(is_int(data["seed"]), "seed", "must be an integer")

    gspec = data.get("group")
    _require(isinstance(gspec, dict), "group", "must be an object")
    kind = gspec.get("kind")
    if kind == "free":
        _known_fields(gspec, "group.", ("kind", "rank"))
        _require(is_int(gspec.get("rank")) and gspec["rank"] >= 1,
                 "group.rank", "must be an integer >= 1")
        group = FreeGroup(gspec["rank"])
    elif kind == "permutation":
        _known_fields(gspec, "group.", ("kind", "degree", "generators"))
        _require(is_int(gspec.get("degree")) and gspec["degree"] >= 1,
                 "group.degree", "must be an integer >= 1")
        gens = gspec.get("generators")
        _require(isinstance(gens, list) and gens, "group.generators", "must be a nonempty list")
        _require(all(isinstance(g, list) and all(is_int(v) for v in g) for g in gens),
                 "group.generators", "each generator must be a list of integers")
        try:
            group = PermutationGroup(gspec["degree"], tuple(tuple(g) for g in gens))
        except ValueError as exc:
            raise ScenarioError(f"group.generators: {exc}") from exc
    else:
        raise ScenarioError("group.kind: must be 'free' or 'permutation'")

    subs = data.get("subgroup", [])
    _require(isinstance(subs, list) and all(isinstance(s, str) for s in subs),
             "subgroup", "must be a list of word strings")
    try:
        sub_words = tuple(parse_word(group, s) for s in subs)
    except ValueError as exc:
        raise ScenarioError(f"subgroup: {exc}") from exc
    if isinstance(group, FreeGroup):
        _require(bool(sub_words), "subgroup",
                 "free-group scenarios need a nontrivial subgroup")

    for fieldname, defaults in (("depths", _DEPTH_DEFAULTS), ("budgets", _BUDGET_DEFAULTS)):
        given = data.get(fieldname, {})
        _require(isinstance(given, dict), fieldname, "must be an object")
        _known_fields(given, f"{fieldname}.", defaults)
        for key, val in given.items():
            low = 1 if key in _POSITIVE else 0
            _require(is_int(val) and val >= low, f"{fieldname}.{key}",
                     f"must be an integer >= {low}")
    depths = {**_DEPTH_DEFAULTS, **data.get("depths", {})}
    budgets = {**_BUDGET_DEFAULTS, **data.get("budgets", {})}

    checks = data.get("checks", [])
    _require(isinstance(checks, list) and checks, "checks", "must be a nonempty list")
    for pos, c in enumerate(checks):
        _require(isinstance(c, dict) and "check" in c, f"checks[{pos}]",
                 "must be an object with a 'check' field")
        _require(isinstance(c["check"], str) and c["check"] in KNOWN_CHECKS,
                 f"checks[{pos}].check",
                 f"unknown check {c['check']!r}; known: {', '.join(KNOWN_CHECKS)}")
        need, fields, fixed, _ = KNOWN_CHECKS[c["check"]]
        _require((need or kind) == kind, f"checks[{pos}].check",
                 f"{c['check']!r} needs a {need} group")
        _require(need != "free" or group.rank >= 2, "group.rank",
                 f"must be >= 2 for {c['check']!r}: its fiber, a subgroup of Z, has rank 1")
        for key, val in c.items():
            if key in fixed:
                _require(val == fixed[key], f"checks[{pos}].{key}", f"must be {fixed[key]!r}")
            elif key in fields:
                low = fields[key]
                _require(is_int(val) and (low is None or val >= low), f"checks[{pos}].{key}",
                         "must be an integer" + ("" if low is None else f" >= {low}"))
            else:
                _require(key == "check", f"checks[{pos}].{key}", f"not a field of "
                         f"{c['check']!r}; known: {', '.join(('check', *fixed, *fields))}")

    extensions = data.get("extensions", [])
    _require(isinstance(extensions, list), "extensions", "must be a list")
    _require(not extensions or any(c["check"] == "amenable-size" for c in checks),
             "extensions", "no check of this scenario reads them; only 'amenable-size' does")
    letters = [letters_to_str((x,)) for x in range(1, group.rank + 1)]
    for pos, e in enumerate(extensions):
        for fieldname in ("name", "size", "action", "projection"):
            _require(isinstance(e, dict) and fieldname in e,
                     f"extensions[{pos}].{fieldname}", "missing")
        _known_fields(e, f"extensions[{pos}].", ("name", "size", "action", "projection"))
        _require(isinstance(e["name"], str), f"extensions[{pos}].name", "must be a string")
        _require(is_int(e["size"]) and e["size"] >= 1, f"extensions[{pos}].size",
                 "must be an integer >= 1")
        _require(isinstance(e["projection"], list) and len(e["projection"]) == e["size"],
                 f"extensions[{pos}].projection", "must be a list of length size")
        _require(isinstance(e["action"], dict), f"extensions[{pos}].action",
                 "must be an object with one permutation per generator letter")
        _known_fields(e["action"], f"extensions[{pos}].action.", letters)
        for key in letters:
            perm = e["action"].get(key)
            _require(isinstance(perm, list) and all(is_int(v) for v in perm)
                     and sorted(perm) == list(range(1, e["size"] + 1)),
                     f"extensions[{pos}].action.{key}", "must list a permutation of 1..size")

    return Scenario(
        name=data["name"],
        group=group,
        subgroup_words=sub_words,
        depths=depths,
        budgets=budgets,
        seed=data["seed"],
        checks=checks,
        extensions=extensions,
        raw=data,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data)


# -- running a scenario ---------------------------------------------------------------

def _check_fields(scenario: Scenario, spec: dict) -> dict:
    """The integer fields ``KNOWN_CHECKS`` lists for the check, each set to
    the spec's value, else to the scenario-wide one."""
    depths, budgets = scenario.depths, scenario.budgets
    wide = {"max_atoms": 5, "samples": budgets["samples"], "seed": scenario.seed,
            "target_depth": depths["target"], "steps": budgets["steps"],
            "depth": depths["cylinder"], "radius": budgets["ball_radius"]}
    if spec["check"] == "minimal-symbolic":
        wide["samples"] = 10
    if spec["check"] == "decompose-fibers":
        wide.update(samples=3, radius=min(3, budgets["ball_radius"]))
    return {key: spec.get(key, wide[key]) for key in KNOWN_CHECKS[spec["check"]][1]}


@dataclass
class RunReport:
    scenario: dict
    checks: list

    def to_json(self, include_timing: bool = True) -> dict:
        checks = []
        for entry in self.checks:
            item = {
                "id": entry["id"],
                **entry["report"].to_json(),
            }
            if include_timing:
                item["wall_clock_s"] = entry["wall_clock_s"]
            checks.append(item)
        return {
            "schema": REPORT_SCHEMA,
            "package_version": __version__,
            "scenario": self.scenario,
            "checks": checks,
        }

    def has_fail(self) -> bool:
        return any(e["report"].verdict == FAIL for e in self.checks)


def run_scenario(scenario: Scenario) -> RunReport:
    """Execute the declared checks in order; deterministic except wall clocks.

    A check that exhausts an enumeration budget is reported INCONCLUSIVE,
    with the fields it would have run with, rather than aborting the run.
    """
    entries = []
    for pos, spec in enumerate(scenario.checks, start=1):
        started = time.perf_counter()
        fields = _check_fields(scenario, spec)
        try:
            report = KNOWN_CHECKS[spec["check"]][3](scenario, fields)
        except BudgetExceededError as exc:
            report = CheckReport(
                check=spec["check"],
                verdict="INCONCLUSIVE",
                parameters={key: val for key, val in fields.items() if key != "seed"},
                seed=fields.get("seed"),
                evidence=[{"budget_exceeded": str(exc)}],
                truncation={"budgets": scenario.budgets},
            )
        elapsed = time.perf_counter() - started
        entries.append(
            {
                "id": f"{pos:02d}-{spec['check']}",
                "report": report,
                "wall_clock_s": round(elapsed, 6),
            }
        )
    return RunReport(scenario=scenario.raw, checks=entries)


def report_json_text(report: RunReport, include_timing: bool = True) -> str:
    return json.dumps(
        report.to_json(include_timing=include_timing),
        indent=2,
        sort_keys=True,
    ) + "\n"


# -- certificate replay from a serialized report ---------------------------------------

@lru_cache(maxsize=1)
def _echo_space(echo: str) -> InducedSpace:
    """The induced space of the scenario whose canonical JSON text is ``echo``.
    The last one built is kept, so the certificates of one report share it."""
    return scenario_from_dict(json.loads(echo)).induced


def replay_certificate(report_data: dict, check_id: str, cert_index: int):
    """Re-verify one stored certificate using only the serialized report.

    Builds the scenario's induced space from the report's scenario echo (an
    error there is named under ``scenario.``), restores the measure and
    certificate, replays the steps, and compares against the stored claim.
    Returns (verdict, detail).  The space of the last echo is kept, keyed on
    the echo's canonical JSON text, so replaying many certificates of one
    report builds its coset table and induced space once; an edited echo is
    a new key and is built afresh.

    ``check_id`` is a full id such as ``03-sp-extension``, or the part after
    the ``NN-`` prefix when exactly one check in the report has it.
    """
    _require(isinstance(report_data, dict), "<root>", "report must be a JSON object")
    _require("scenario" in report_data, "scenario", "missing")
    entries = report_data.get("checks")
    _require(isinstance(entries, list)
             and all(isinstance(e, dict) and isinstance(e.get("id"), str) for e in entries),
             "checks", "must be a list of objects with a string 'id'")
    try:
        echo = json.dumps(report_data["scenario"], sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"scenario: must be JSON data ({exc})") from exc
    try:
        space = _echo_space(echo)
    except (ScenarioError, BudgetExceededError) as exc:
        raise ScenarioError(f"scenario.{exc}") from exc
    matches = [e for e in entries if e["id"] == check_id]
    if not matches:
        matches = [e for e in entries if e["id"].partition("-")[2] == check_id]
    if len(matches) != 1:
        problem = "is ambiguous" if matches else "not found"
        ids = ", ".join(e["id"] for e in entries)
        raise ScenarioError(f"checks: id {check_id!r} {problem} in report; ids: {ids}")
    target = matches[0]
    evidence = target.get("evidence", [])
    _require(isinstance(evidence, list), f"checks[{check_id}].evidence", "must be a list")
    if not 0 <= cert_index < len(evidence):
        raise ScenarioError(
            f"checks[{check_id}].evidence: certificate index {cert_index} out of range "
            f"(evidence has {len(evidence)})"
        )
    item = evidence[cert_index]
    if not isinstance(item, dict) or item.get("certificate") is None:
        raise ScenarioError(f"checks[{check_id}].evidence[{cert_index}]: carries no certificate")
    try:
        nu = measure_from_json(space, item.get("measure"), "measure")
        cert = ContractionCertificate.from_json(space, item["certificate"])
    except ValueError as exc:
        raise ScenarioError(f"checks[{check_id}].evidence[{cert_index}].{exc}") from exc
    ok, detail, _ = replay_steps(nu, cert)
    return ("PASS" if ok else "FAIL"), detail


# -- bundled scenarios -------------------------------------------------------------------

def bundled_scenario_names() -> list[str]:
    root = resources.files("boundarylab") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> Scenario:
    root = resources.files("boundarylab") / "scenarios"
    path = root / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(bundled_scenario_names())}"
        )
    return scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
