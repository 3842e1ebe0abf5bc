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
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ambient_point, conjugate_subgroup, random_induced_space, same_subgroup

from boundarylab import (BoundarySpace, FiniteSpace, FreeGroup, atomic_measure,
                         boundary_point, contract_measure, decompose_fibers, enumerate_cosets,
                         induced_extension, induced_space, pushforward_group, schreier_basis,
                         stabilizer_subgroup, subgroup, word)
from boundarylab.checks import certificate_element, sample_fiber_measure, sample_spread_measure
from boundarylab.spaces import boundary_act
from boundarylab.words import reduce_letters
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


# -- the diagonal-action oracle ---------------------------------------------------------------
# pi(i, y) = t_i . iota(y) (oracles.ambient_point) carries the induced action
# to the diagonal one on the cosets times the ambient boundary, through code
# that shares nothing with the Schreier rewriting the package acts by.

LETTERS = st.lists(st.integers(-1000, 1000).filter(bool), max_size=12)


def _in_rank(letters, rank: int) -> tuple:
    """Each drawn letter folded onto one of ``rank`` generators, its sign kept."""
    return tuple((1 + (abs(l) - 1) % rank) * (1 if l > 0 else -1) for l in letters)


def _draw_space(census, data):
    """A census subgroup's induced space, or a random subgroup's of index <= 64."""
    if data.draw(st.booleans()):
        table = data.draw(st.sampled_from(census[2] + census[3]))
        return induced_space(table, schreier_basis(table))
    return random_induced_space(random.Random(data.draw(st.integers(0, 2**32))), 64)


def _draw_point(space, data):
    """(i, y) with y an eventually periodic fiber point (period a when the
    drawn one reduces to nothing)."""
    rank = space.fiber.rank
    period = reduce_letters(_in_rank(data.draw(LETTERS), rank)) or (1,)
    y = boundary_point(_in_rank(data.draw(LETTERS), rank), period)
    return data.draw(st.integers(1, space.size)), y


@settings(max_examples=100)
@given(data=st.data())
def test_induced_action_is_the_diagonal_action(census, data):
    space = _draw_space(census, data)
    i, y = _draw_point(space, data)
    g = word(space.ambient, _in_rank(data.draw(LETTERS), space.ambient.rank))
    j, _ = image = space.act(g, (i, y))
    assert ambient_point(space, image) == boundary_act(g.letters, ambient_point(space, (i, y)))
    assert j == space.table.coset_of(g * space.table.rep(i))


@given(data=st.data())
def test_ambient_point_is_injective_on_each_fiber(census, data):
    space = _draw_space(census, data)
    i, _ = _draw_point(space, data)
    ys = {_draw_point(space, data)[1] for _ in range(6)}
    assert len({ambient_point(space, (i, y)) for y in ys}) == len(ys)


def _ambient_measure(nu):
    """The image of an induced measure under pi, on the ambient boundary."""
    space = nu.space
    return atomic_measure(BoundarySpace(space.ambient.rank),
                          [(ambient_point(space, p), w) for p, w in nu.atoms])


@given(data=st.data())
def test_push_commutes_with_the_ambient_push(census, data):
    # a certificate's element on a fiber measure, a random word on a measure
    # spread over several cosets
    space = _draw_space(census, data)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if space.size < 2 or data.draw(st.booleans()):
        nu = sample_fiber_measure(space, rng.randint(1, space.size), rng, 4)
        cert = contract_measure(nu, 8, 64)
        assert cert is not None
        g = certificate_element(cert.steps) if cert.steps else word(space.ambient, ())
    else:
        nu = sample_spread_measure(space, rng, 4)
        g = word(space.ambient, _in_rank(data.draw(LETTERS), space.ambient.rank))
    assert pushforward_group(g, _ambient_measure(nu)) == _ambient_measure(pushforward_group(g, nu))
