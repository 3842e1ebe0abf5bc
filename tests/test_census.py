"""Every subgroup of small index of F2 and F3, as the acceptance test of the
checks: a census instead of the two bundled subgroups.

An index-n subgroup of F_k is the stabiliser of 1 in a transitive action of k
permutations of 1..n, and its coset table determines it, so listing the
actions and deduplicating the tables lists the subgroups.  Their numbers are
Hall's (M. Hall, "Subgroups of finite index in free groups", Canad. J. Math.
1, 1949).
"""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import conjugate_subgroup, same_subgroup

from boundarylab import (FiniteSpace, FreeGroup, decompose_fibers, enumerate_cosets,
                         induced_extension, induced_space, schreier_basis, stabilizer_subgroup,
                         subgroup, word)
from boundarylab.scenario import report_json_text, run_scenario, scenario_from_dict


def small_subgroups(rank: int, max_index: int) -> list:
    """The coset tables of all subgroups of F_rank of index <= max_index, in
    order of index, each the stabiliser of 1 in a transitive action of rank
    permutations, deduplicated by table JSON."""
    ctx = FreeGroup(rank)
    tables = {}
    for n in range(1, max_index + 1):
        perms = list(itertools.permutations(range(1, n + 1)))
        for action in itertools.product(perms, repeat=rank):
            space = FiniteSpace.make(ctx, n, action)
            if space.is_transitive():
                table = enumerate_cosets(stabilizer_subgroup(space, 1), max_cosets=n)
                tables.setdefault(json.dumps(table.to_json(), sort_keys=True), table)
    return list(tables.values())


@pytest.fixture(scope="module")
def census():
    return {2: small_subgroups(2, 4), 3: small_subgroups(3, 2)}


@pytest.mark.parametrize("rank, counts", [
    (2, {1: 1, 2: 3, 3: 13, 4: 71}),
    (3, {1: 1, 2: 7}),
])
def test_census_counts_are_halls(census, rank, counts):
    tables = census[rank]
    assert {n: sum(t.size == n for t in tables) for n in counts} == counts
    assert all(t.coset_of(h) == 1 for t in tables for h in t.subgroup.generators)


# small sample counts, so that the sweep over all 96 subgroups takes seconds
CENSUS_CHECKS = [
    {"check": "minimal-finite"},
    {"check": "minimal-symbolic", "depth": 1, "radius": 2, "samples": 1},
    {"check": "sp-extension", "max_atoms": 3, "samples": 2, "target_depth": 6, "steps": 32},
    {"check": "contraction-lifting", "max_atoms": 2, "samples": 1, "target_depth": 4,
     "radius": 2},
    {"check": "decompose-fibers", "radius": 2, "depth": 1, "samples": 1},
]


def test_every_check_on_every_census_subgroup(census):
    verdicts = {}
    for rank, tables in census.items():
        for table in tables:
            gens = [h.to_str() for h in table.subgroup.generators]
            scenario = scenario_from_dict({
                "name": f"F{rank} > <{', '.join(gens)}>",
                "group": {"kind": "free", "rank": rank},
                "subgroup": gens,
                "seed": table.size,
                "checks": CENSUS_CHECKS,
            })
            report = json.loads(report_json_text(run_scenario(scenario), include_timing=False))
            for entry in report["checks"]:
                verdicts[(scenario.name, entry["id"])] = entry["verdict"]
    assert len(verdicts) == len(CENSUS_CHECKS) * sum(map(len, census.values()))
    assert [k for k, v in verdicts.items() if v == "FAIL"] == []
    assert [k for k, v in verdicts.items()
            if k[1].endswith(("sp-extension", "decompose-fibers")) and v != "PASS"] == []


def _report_without_scenario(rank: int, gens: list) -> str:
    """The timing-free report of CENSUS_CHECKS on <gens>, its scenario echo deleted."""
    scenario = scenario_from_dict({"name": "H", "group": {"kind": "free", "rank": rank},
                                   "subgroup": [g.to_str() for g in gens], "seed": 7,
                                   "checks": CENSUS_CHECKS})
    report = json.loads(report_json_text(run_scenario(scenario), include_timing=False))
    del report["scenario"]
    return json.dumps(report, indent=2, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_report_depends_only_on_the_subgroup(census, data):
    # the coset table is H's folded Stallings graph numbered in shortlex
    # order, and the report is a function of the table, so Nielsen moves on
    # the listed generators (Lyndon-Schupp I.2) leave its bytes unchanged.
    # H is a census subgroup or the kernel of F_rank -> Z/n, a -> 1 (n <= 8 in
    # rank 3, where decompose-fibers takes a second at n = 16).
    if data.draw(st.booleans()):
        rank = data.draw(st.sampled_from([2, 3]))
        gens = data.draw(st.sampled_from(census[rank])).subgroup.generators
    else:
        rank = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 16 if rank == 2 else 8))
        shifts = [1] + [data.draw(st.integers(0, n - 1)) for _ in range(rank - 1)]
        space = FiniteSpace.make(FreeGroup(rank), n,
                                 [[(p + k) % n + 1 for p in range(n)] for k in shifts])
        gens = stabilizer_subgroup(space, 1).generators
    # moves act on a basis of H; each added product of two of its members is
    # redundant whatever later moves do, so it may be dropped at any time
    basis, extra = list(gens), []
    moves = st.sampled_from(["permute", "invert", "multiply", "add", "drop"])
    for move in data.draw(st.lists(moves, min_size=1, max_size=6)):
        if move == "drop" and extra:
            extra.pop(data.draw(st.integers(0, len(extra) - 1)))
        elif move == "permute":
            basis = data.draw(st.permutations(basis))
        elif move == "invert":
            k = data.draw(st.integers(0, len(basis) - 1))
            basis[k] = basis[k].inverse()
        elif move in ("multiply", "add"):
            i, j = data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=2, max_size=2,
                                      unique=True))
            if move == "multiply":
                basis[i] = basis[i] * basis[j]
            else:
                extra.append(basis[i] * basis[j])
    rewritten = data.draw(st.permutations(basis + extra))
    assert _report_without_scenario(rank, rewritten) == _report_without_scenario(rank, gens)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_membership_rule_matches_table_equality(census, data):
    # decompose-fibers reads Stab(i) == t_i H t_i^-1 as membership both ways;
    # the oracle compares the canonical coset tables.  The stabilizer of fiber
    # i is swapped for the true one, one with a word added or a generator and
    # its inverse dropped, or another census subgroup.
    table = data.draw(st.sampled_from(census[2]))
    i = data.draw(st.integers(1, table.size))
    gens = stabilizer_subgroup(table, i).generators
    change = data.draw(st.sampled_from(["none", "add", "drop", "census"]))
    if change == "add":
        gens += (word(table.ambient, data.draw(st.lists(st.sampled_from([1, -1, 2, -2]),
                                                         max_size=4))),)
    elif change == "drop":
        gone = data.draw(st.sampled_from(gens))
        gens = tuple(g for g in gens if g not in (gone, gone.inverse()))
    elif change == "census":
        gens = data.draw(st.sampled_from(census[2])).subgroup.generators
    candidate = subgroup(table.ambient, gens)
    expected = same_subgroup(candidate, conjugate_subgroup(table.subgroup, table.rep(i)), 64)

    def stabilizer(space, x):
        return candidate if x == i else stabilizer_subgroup(space, x)

    phi = induced_extension(induced_space(table, schreier_basis(table)))
    with mock.patch("boundarylab.checks.stabilizer_subgroup", stabilizer):
        report = decompose_fibers(phi, radius=0, depth=1, samples=1, seed=0)
    assert report.evidence[i - 1]["matches_conjugate"] == expected
