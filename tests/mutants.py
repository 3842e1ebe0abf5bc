"""Mutants of the package source that named tests must kill.

Each mutant is a name, the tests that must fail once it is applied, and its
edits: (file under ``src/boundarylab/``, exact snippet, replacement), applied
in order by ``apply_edits``.  ``scripts/mutants.py`` applies one mutant at a
time to a copy of the tree and runs its tests there.  ``tests/test_hygiene.py``
checks only that every edit applies, so a refactor has to move its mutants along.
Add the mutants of a change here rather than describing them in prose.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    tests: tuple[str, ...]
    edits: tuple[tuple[str, str, str], ...]


def apply_edits(sources: dict[str, str], edits) -> dict[str, str]:
    """``sources`` (file name -> text) with each (file, snippet, replacement)
    applied in order; ValueError unless each snippet occurs exactly once in its
    file as the edits before it leave it."""
    out = dict(sources)
    for name, snippet, replacement in edits:
        if out[name].count(snippet) != 1:
            raise ValueError(f"{name}: snippet occurs {out[name].count(snippet)} times: "
                             f"{snippet!r}")
        out[name] = out[name].replace(snippet, replacement)
    return out


SEAM = ("tests/test_spaces.py::test_act_matches_padded_oracle",)
REWRITE = ("tests/test_cosets.py::test_rewrite_from_every_coset_against_word_products",)
RANGE = ("tests/test_spaces.py::test_coset_out_of_range_is_named",)
KEYS = ("tests/test_measures.py::test_cylinder_keys_are_checked_at_construction",)
WALK = ("tests/test_measures.py::test_walk_matches_per_word_oracle",)
FIBERS = ("tests/test_checks.py::test_decompose_fibers_reads_invariance_from_every_basis_letter",)
TAMPERED = ("tests/test_scenario_cli.py::test_cli_tampered_input_exits_2",)
STABILIZER = ("tests/test_checks.py::"
              "test_decompose_fibers_reads_a_wrong_stabilizer_as_a_mismatch",)
FORWARD = ("tests/test_scenario_cli.py::test_run_check_forwards_every_field_under_its_own_name",)
FALLBACK = ("tests/test_scenario_cli.py::test_deep_cylinders_are_inconclusive_before_enumeration",)
LAZY = ("tests/test_scenario_cli.py::test_scenario_objects_lazy_build",)
FOLD = ("tests/test_cosets.py::test_fold_cases_match_merge_oracle",
        "tests/test_cosets.py::test_fold_matches_merge_oracle")
PUSH = ("tests/test_measures.py::test_pushforward_per_coset_matches_four_step_oracle",)
IMAGE = ("tests/test_measures.py::test_push_image_matches_the_validating_constructor",)
ECHO = ("tests/test_scenario_cli.py::test_replay_rebuilds_an_edited_echo",)
RUNS = ("tests/test_checks.py::test_certificate_element_matches_flat_reduction",)
AXIS = ("tests/test_checks.py::test_axis_power_search_matches_stepwise_oracle",)
LIFTING = ("tests/test_checks.py::test_contraction_lifting_flags_a_fiber_supported_spread_sample",)
CAPPED = ("tests/test_checks.py::test_decompose_fibers_caps_its_coverage_ball",)
SETTINGS = ("tests/test_checks.py::test_engines_refuse_settings_that_check_nothing",)
CYLINDERS = ("tests/test_words.py::test_ball_sizes_free",)
DIAGONAL = ("tests/test_census.py::test_induced_action_is_the_diagonal_action",
            "tests/test_census.py::test_push_commutes_with_the_ambient_push")
SWEEP = ("tests/test_checks.py::test_minimal_symbolic_induced",
         "tests/test_checks.py::test_decompose_fibers_index2")
SWEEP_INVARIANCE = ("tests/test_checks.py::"
                    "test_decompose_fibers_reads_invariance_off_the_coverage_sweep",)
FIBER_SAMPLE = ("tests/test_checks.py::test_fiber_lift_conjugated_steps",)
POINT_TEXT = ("tests/test_spaces.py::test_induced_point_serialization",)
REPORT_SHAPE = ("tests/test_checks.py::test_check_report_json_shape",)
LIFTS = ("tests/test_checks.py::test_replay_rewrites_once_per_coset",)

_ROOT = """    n = len(period)
    for d in _divisors(n):
        if period == period[:d] * (n // d):
            period = period[:d]
            break
"""

MUTANTS = (
    # boundary_act moves the seam only
    Mutant("act: prefix dropped from the join", SEAM, (
        ("spaces.py", "join_reduced(list(g_letters), point.prefix)",
         "join_reduced(list(g_letters), ())"),
    )),
    Mutant("seat: period index not taken mod n", SEAM, (
        ("spaces.py", "-period[c % n]", "-period[c]"),
    )),
    Mutant("seat: strip stage skipped", SEAM, (
        ("spaces.py", "while t < len(prefix) and prefix[-1 - t] == period[-1 - t % n]:",
         "while False:"),
    )),
    Mutant("normal form: primitive root after the rotation, strip with the old n", SEAM, (
        ("spaces.py", _ROOT + "    return _seat(prefix, period)", "    return _seat(prefix, period)"),
        ("spaces.py", "    period = period[c:] + period[:c]\n",
         "    period = period[c:] + period[:c]\n" + _ROOT.replace("    n = len(period)\n", "")),
    )),
    Mutant("normal form: primitive root not taken", SEAM, (
        ("spaces.py", "            period = period[:d]\n", ""),
    )),
    # one Schreier scan from any coset
    Mutant("rewrite: emitted letters not reversed", REWRITE, (
        ("cosets.py", "tuple(out[::-1])", "tuple(out)"),
    )),
    Mutant("rewrite: wrong sign on inverse steps", REWRITE, (
        ("cosets.py", "(j, b), (i, -b)", "(j, b), (i, b)"),
    )),
    Mutant("rewrite: scan always starts at coset 1", REWRITE, (
        ("cosets.py", "    steps = basis.steps\n", "    steps, i = basis.steps, 1\n"),
    )),
    Mutant("rep: range check removed", RANGE, (
        ("cosets.py", "        if not 1 <= i <= self.size:\n"
                      "            raise ValueError(f\"coset index {i} out of range 1..{self.size}\")\n",
         ""),
    )),
    Mutant("rewrite: range check removed", RANGE, (
        ("cosets.py", "    if not 1 <= i <= table.size:\n"
                      "        raise ValueError(f\"coset index {i} out of range 1..{table.size}\")\n",
         ""),
    )),
    Mutant("cylinder keys: reducedness not checked", KEYS, (
        ("measures.py", " and l != -m for l, m in", " for l, m in"),
    )),
    Mutant("cylinder keys: coset not checked", KEYS, (
        ("measures.py", "ok = (1 <= i <= (self.cosets or 1) and len(w)", "ok = (len(w)"),
    )),
    # the isometry defect as one walk of the reduced-word tree
    Mutant("walk: cancelling branch removed", WALK, (
        ("measures.py", "y = y[1:] if y[0] == -e[0] else e + y", "y = e + y"),
    )),
    Mutant("walk: atoms summed in reverse", WALK, (
        ("measures.py", "for (c, y), w in zip(states, weights):",
         "for (c, y), w in reversed(list(zip(states, weights))):"),
    )),
    Mutant("walk: ball look-ahead one letter short", WALK, (
        ("measures.py", "y.expand(d + radius)", "y.expand(d + radius - 1)"),
    )),
    Mutant("walk: probe look-ahead one letter short", WALK, (
        ("measures.py", "y.expand(d + len(s))", "y.expand(d + len(s) - 1)"),
    )),
    Mutant("walk: induced step keeps the old coset", WALK, (
        ("measures.py", "c, e = row[c]", "_, e = row[c]"),
    )),
    Mutant("walk: induced move emits the basis letter, never its inverse", WALK, (
        ("measures.py", "(j, (b,) if b else ())", "(j, (abs(b),) if b else ())"),
    )),
    # Stallings folding reads each generator from both ends, builds the middle
    Mutant("fold: unread middle joined by a plain edge", FOLD, (
        ("cosets.py", "        for l in loop[f:g]:\n", "        for l in loop[f:g - 1]:\n"),
        ("cosets.py", "        _fold(parent, adj, u, v)\n",
         "        if f == g:\n"
         "            _fold(parent, adj, u, v)\n"
         "        else:\n"
         "            adj[u][loop[g - 1]], adj[v][-loop[g - 1]] = v, u\n"),
    )),
    Mutant("fold: middle folded into the base", FOLD, (
        ("cosets.py", "        _fold(parent, adj, u, v)\n",
         "        _fold(parent, adj, u, _find(parent, 0))\n"),
    )),
    Mutant("fold: backward read follows the letter, not its inverse", FOLD, (
        ("cosets.py", "adj[v].get(-loop[g - 1])", "adj[v].get(loop[g - 1])"),
    )),
    # a push rewrites gamma once per coset; a run of steps is u v^k u^-1; two
    # reduced words cancel only at their seam; the least power is a candidate
    Mutant("push: the first coset's beta reused for every atom", PUSH, (
        ("measures.py", "rewrite_in_basis(space.table, space.basis, gamma, i)",
         "rewrite_in_basis(space.table, space.basis, gamma, nu.atoms[0][0][0])"),
    )),
    Mutant("push image: atoms left unsorted", IMAGE, (
        ("measures.py", "tuple(sorted(merged.items(), key=lambda kv: kv[0]))",
         "tuple(merged.items())"),
    )),
    Mutant("runs: power taken without the cyclic-core strip", RUNS, (
        ("checks.py", "w[:c] + w[c:len(w) - c] * k + w[len(w) - c:]", "w * k"),
    )),
    Mutant("join: seam stops after one cancellation", RUNS + SEAM, (
        ("words.py", "    while k < len(letters) and out", "    if k < len(letters) and out"),
    )),
    Mutant("axis power: the equal-exponent threshold not a candidate", AXIS, (
        ("checks.py", "cands.add(target - d + abs(e0) - e0)", "pass"),
    )),
    # a stored certificate names the field it fails on
    Mutant("certificate: a bad step not named", TAMPERED, (
        ("checks.py", 'raise ValueError(f"certificate.steps[{k}]: {exc}") from exc', "raise"),
    )),
    Mutant("certificate: an unreduced limit cylinder accepted", TAMPERED, (
        ("checks.py", "if reduced != cylinder or len(", "if len("),
    )),
    Mutant("certificate: a limit coset outside the table accepted", TAMPERED, (
        ("checks.py", "range(1, space.size + 1) if induced", "range(0, 99) if induced"),
    )),
    # the stabilizer of fiber i equals t_i H t_i^-1: membership read both ways
    Mutant("fibers: stabilizer generators not conjugated back into H", STABILIZER, (
        ("checks.py", "\n            and all(table.coset_of(t_inv * s * t_i) == 1 for s in stab.generators))",
         ")"),
    )),
    Mutant("fibers: H's generators not conjugated into the stabilizer", STABILIZER, (
        ("checks.py", "all(stab_table.coset_of(t_i * h * t_inv) == 1 for h in sub.generators)\n"
                      "            and ", ""),
    )),
    # each check setting has one source: the spec, else the scenario
    Mutant("check fields: the spec value ignored", FORWARD, (
        ("scenario.py", "spec.get(key, wide[key])", "wide[key]"),
    )),
    Mutant("check fields: the spec value ignored for steps only", FORWARD, (
        ("scenario.py", "spec.get(key, wide[key])",
         'wide[key] if key == "steps" else spec.get(key, wide[key])'),
    )),
    Mutant("the budget fallback echoes the raw spec", FALLBACK, (
        ("scenario.py", 'parameters={key: val for key, val in fields.items() if key != "seed"}',
         "parameters=dict(spec)"),
    )),
    # a scenario builds its table once, a report's replays share one build of
    # its echo, and a report names its scenario's errors
    Mutant("Scenario.table rebuilt on each access", LAZY, (
        ("scenario.py", "    @cached_property\n    def table", "    @property\n    def table"),
    )),
    Mutant("replay memo ignores the scenario echo", ECHO, (
        ("scenario.py", "@lru_cache(maxsize=1)\ndef _echo_space(",
         "def _first_build(build):\n"
         "    kept = []\n\n"
         "    def get(echo):\n"
         "        if not kept:\n"
         "            kept.append(build(echo))\n"
         "        return kept[0]\n\n"
         "    get.cache_clear = kept.clear\n"
         "    return get\n\n\n"
         "@_first_build\ndef _echo_space("),
    )),
    Mutant("a report's scenario errors are not prefixed", TAMPERED, (
        ("scenario.py", 'raise ScenarioError(f"scenario.{exc}") from exc', "raise"),
    )),
    # setwise invariance read from the lifts of the fiber basis letters
    Mutant("fibers: invariance read from the first basis letter only", FIBERS, (
        ("checks.py", "for k in range(1, rank + 1))", "for k in range(1, 2))"),
    )),
    # one push-forward answers both halves of contraction-lifting; the
    # perturbation search builds no more of the ball than it reads
    Mutant("lifting: a Dirac spread sample not flagged", LIFTING, (
        ("checks.py", "if dirac != fiber:", "if fiber and not dirac:"),
    )),
    Mutant("axis power: perturbation searched in the whole capped radius-3 ball", AXIS, (
        ("checks.py", "for layer in reduced_layers(ctx, 3) for ls in layer",
         "for ls in (w.letters for w in cached_ball(ctx, 3, 1_000_000))"),
    )),
    # coverage balls are capped, and no engine passes on settings that check nothing
    Mutant("fibers: coverage ball uncapped", CAPPED, (
        ("checks.py", "cached_ball(fiber_ctx, radius, COVERAGE_BALL_CAP)",
         "cached_ball(fiber_ctx, radius, 1_000_000)"),
    )),
    Mutant("sp-extension: settings unchecked", SETTINGS, (
        ("checks.py", '    if max_atoms < 1 or samples < 1:\n'
                      '        raise ValueError("max_atoms and samples >= 1 required")\n', ""),
    )),
    Mutant("contraction-lifting: settings unchecked", SETTINGS, (
        ("checks.py", "    if depth < 0 or radius < 0 or max_atoms < 1 or samples < 1:\n", "    if False:\n"),
    )),
    Mutant("decompose-fibers: settings unchecked", SETTINGS, (
        ("checks.py", 'induced source")\n    if depth < 0 or radius < 0 or samples < 1:\n',
         'induced source")\n    if False:\n'),
    )),
    Mutant("cylinders: a negative depth accepted", CYLINDERS, (
        ("spaces.py", "        if depth < 0:\n", "        if False:\n"),
    )),
    # the induced action is the diagonal action on the cosets times the
    # ambient boundary (oracles.ambient_point)
    Mutant("diagonal oracle: rewrite without the reversal of its emitted letters", DIAGONAL, (
        ("cosets.py", "tuple(out[::-1])", "tuple(out)"),
    )),
    Mutant("diagonal oracle: schreier_basis stores (i, b) for the inverse step", DIAGONAL, (
        ("cosets.py", "(j, b), (i, -b)", "(j, b), (i, b)"),
    )),
    # one coverage sweep, one walk-and-weight sampler, one induced-point
    # parser and printer, report keys read off the fields
    Mutant("sweep: images expanded one letter too deep", SWEEP, (
        ("checks.py", "{(j, y.expand(depth)) for x in starts", "{(j, y.expand(depth + 1)) for x in starts"),
    )),
    Mutant("fibers: invariance not read off the sweep", SWEEP_INVARIANCE, (
        ("checks.py", "        invariance_ok = invariance_ok and all(j == i for j, _ in images)\n", ""),
    )),
    Mutant("fiber sampler: every atom placed over coset 1", FIBER_SAMPLE, (
        ("checks.py", "tuple(((coset, y), w) for y, w in nu.atoms)",
         "tuple(((1, y), w) for y, w in nu.atoms)"),
    )),
    Mutant("induced point: printed without the space after the comma", POINT_TEXT, (
        ("measures.py", 'return f"({i}, {y.to_str()})"', 'return f"({i},{y.to_str()})"'),
    )),
    Mutant("induced point: coset range not checked", TAMPERED, (
        ("measures.py", "if not 1 <= point[0] <= space.size:", "if False:"),
    )),
    Mutant("check report: the last field left out of its JSON", REPORT_SHAPE, (
        ("checks.py", "for f in fields(self)}", "for f in fields(self)[:-1]}"),
    )),
    Mutant("fiber lift: every step lifted as the first", LIFTS, (
        ("checks.py", "{ls: space.lift(i, w) for ls, w in", "{ls: space.lift(i, fsteps[0]) for ls, w in"),
    )),
    # replay and contract name a bad measure or certificate by its full path
    Mutant("measure: the atom index not named", TAMPERED, (
        ("measures.py", 'raise ValueError(f"{name}[{k}].{exc}")', 'raise ValueError(f"{name}.{exc}")'),
    )),
    Mutant("replay: the evidence path not named", TAMPERED, (
        ("scenario.py", 'raise ScenarioError(f"checks[{check_id}].evidence[{cert_index}].{exc}") from exc',
         "raise"),
    )),
)
