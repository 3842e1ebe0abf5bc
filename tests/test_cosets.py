import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (closure, conjugate_subgroup, four_step_act, merge_fold_enumerate,
                     random_induced_space, shortlex_key)

from boundarylab import (
    BudgetExceededError,
    FiniteSpace,
    FreeGroup,
    InfiniteIndexError,
    PermutationGroup,
    cocycle,
    enumerate_cosets,
    eval_in_ambient,
    induced_space,
    parse_word,
    permutation_of,
    rewrite_in_basis,
    schreier_basis,
    stabilizer_subgroup,
    subgroup,
    word,
)
from boundarylab import cosets
from boundarylab.checks import finite_contractible, sample_boundary_point
from boundarylab.measures import atomic_measure
from boundarylab.words import (Word, alphabet, ball, compose_perms, identity_perm, invert_perm,
                               reduce_letters, reduced_layers)

F2 = FreeGroup(2)


def a_exponent(w):
    return sum(1 if l == 1 else -1 for l in w.letters if abs(l) == 1)


def test_index2_table(index2_table):
    assert index2_table.size == 2
    assert [t.to_str() for t in index2_table.transversal] == ["", "a"]


def test_index2_coset_oracle(index2_table):
    # independent oracle: the coset is decided by the parity of the a-exponent
    for w in ball(F2, 5):
        expected = 1 if a_exponent(w) % 2 == 0 else 2
        assert index2_table.coset_of(w) == expected


def test_index3_table(index3_table):
    assert index3_table.size == 3
    assert [t.to_str() for t in index3_table.transversal] == ["", "a", "A"]
    # oracle: a-exponent mod 3, with representatives e, a, a^-1
    rep_of = {0: 1, 1: 2, 2: 3}
    for w in ball(F2, 5):
        assert index3_table.coset_of(w) == rep_of[a_exponent(w) % 3]


def test_index1_table(index1_table):
    assert index1_table.size == 1
    assert index1_table.transversal[0].is_identity


def test_left_action_compatibility(index2_table):
    # coset_of is compatible with multiplication: evaluating the product
    # agrees with acting letterwise on the second factor's coset
    space = index2_table
    for u in ball(F2, 3):
        for v in ball(F2, 2):
            assert index2_table.coset_of(u * v) == space.act(
                u, index2_table.coset_of(v)
            )


def test_s3_enumeration(s3_ctx, s3_table):
    assert s3_table.size == 3
    # permutation membership oracle: coset 1 iff the word evaluates into <(01)>
    lam = {(0, 1, 2), (1, 0, 2)}
    for w in (Word(s3_ctx, ls) for layer in reduced_layers(s3_ctx, 5) for ls in layer):
        assert (s3_table.coset_of(w) == 1) == (permutation_of(w) in lam)


def test_trivial_subgroup_finite_ambient(z4_ctx):
    table = enumerate_cosets(subgroup(z4_ctx, []))
    assert table.size == 4
    assert [t.to_str() for t in table.transversal] == ["", "a", "A", "aa"]


def test_infinite_index_detected():
    for gens in (("abA",), ("b",)):
        with pytest.raises(InfiniteIndexError):
            enumerate_cosets(subgroup(F2, [parse_word(F2, s) for s in gens]))
    with pytest.raises(InfiniteIndexError):
        enumerate_cosets(subgroup(F2, []))


def test_budget_exhausted(index2_table):
    with pytest.raises(BudgetExceededError):
        enumerate_cosets(index2_table.subgroup, max_cosets=1)


def test_kernel_index_512():
    # kernel of F2 -> Z/512, a -> 1, b -> 0: a^512 and the conjugates a^-i b a^i
    n = 512
    conjugates = [word(F2, (-1,) * i + (2,) + (1,) * i) for i in range(n)]
    table = enumerate_cosets(subgroup(F2, [word(F2, (1,) * n)] + conjugates))
    assert table.size == n
    assert schreier_basis(table).rank == n + 1
    with pytest.raises(InfiniteIndexError):
        enumerate_cosets(subgroup(F2, conjugates))


ALL_MODES = ("stabilizer", "extended", "dropped", "random")


@st.composite
def generator_sets(draw, min_rank=1, modes=ALL_MODES):
    """(subgroup, max_cosets): the stabilizer of point 0 under a random action
    of F_k on at most 6 points (Schreier generators, finite index), as is, with
    random words added, with generators dropped (often infinite index), or
    random words only; max_cosets is sometimes below the orbit size.  The
    first two modes always give a subgroup of finite index."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ctx = FreeGroup(rng.randint(min_rank, 3))
    m = rng.randint(1, 6)
    perms = [rng.sample(range(m), m) for _ in range(ctx.rank)]

    def act(l, i):
        return perms[l - 1][i] if l > 0 else perms[-l - 1].index(i)

    reps = {0: ()}
    orbit = [0]
    for i in orbit:  # BFS over the orbit of point 0; reps[i] sends 0 to i
        for l in alphabet(ctx):
            j = act(l, i)
            if j not in reps:
                reps[j] = (l,) + reps[i]
                orbit.append(j)
    gens = [
        reduce_letters(tuple(-l for l in reversed(reps[act(x, i)])) + (x,) + reps[i])
        for i in orbit
        for x in range(1, ctx.rank + 1)
    ]
    mode = rng.choice(modes)
    if mode == "dropped":
        gens = rng.sample(gens, max(0, len(gens) - rng.randint(1, 2)))
    elif mode == "random":
        gens = []
    if mode in ("extended", "random"):
        for _ in range(rng.randint(1, 3)):
            gens.append([rng.choice(alphabet(ctx)) for _ in range(rng.randint(1, 12))])
    max_cosets = rng.choice((1024, rng.randint(1, max(1, len(orbit) - 1))))
    return subgroup(ctx, [word(ctx, g) for g in gens]), max_cosets


def _fold_outcome(enumerate_fn, sub, max_cosets):
    try:
        table = enumerate_fn(sub, max_cosets)
    except (InfiniteIndexError, BudgetExceededError) as exc:
        return type(exc)
    return table.letter_perms, table.inverse_perms, table.transversal


@settings(max_examples=300)
@given(generator_sets())
def test_fold_matches_merge_oracle(case):
    sub, max_cosets = case
    assert _fold_outcome(enumerate_cosets, sub, max_cosets) == _fold_outcome(
        merge_fold_enumerate, sub, max_cosets
    )


def _vertices_created(monkeypatch, gens):
    """Vertices the free fold creates for ``gens``: the graph size, less the
    base, at its last ``_fold``."""
    sizes = [0]
    fold = cosets._fold

    def spy(parent, adj, a, b):
        sizes.append(len(parent) - 1)
        fold(parent, adj, a, b)

    monkeypatch.setattr(cosets, "_fold", spy)
    try:
        enumerate_cosets(subgroup(F2, gens))
    except InfiniteIndexError:
        pass
    monkeypatch.undo()
    return sizes[-1]


@pytest.mark.parametrize("gens, max_cosets", [
    # b^-1 a b on an empty graph: both reads stop at the missing b-edge of the
    # base, so the middle's end is folded into the base, not joined to it
    (("Bab", "b"), 1024),
    (("Bab", "aaba", "b"), 1024),
    (("Bab",), 1024),
    # aab reads fully through the edges aa and b built; aa reads fully to a
    # vertex that is then folded into the base
    (("aa", "b", "aab"), 1024),
    (("aaaa", "b", "aa", "abA"), 1024),
    # aba: the forward read stops at once, the backward read reaches its start
    (("ab", "aba"), 1024),
    (("abA", "bb"), 1024),
    (("aaa", "b", "abA", "aabAA"), 2),
])
def test_fold_cases_match_merge_oracle(gens, max_cosets):
    sub = subgroup(F2, [parse_word(F2, s) for s in gens])
    assert _fold_outcome(enumerate_cosets, sub, max_cosets) == _fold_outcome(
        merge_fold_enumerate, sub, max_cosets
    )


def test_fold_builds_nothing_for_a_loop_read_from_both_ends(monkeypatch):
    # after ab, the forward read of aba stops at once and the backward read
    # reaches its start
    words = [parse_word(F2, s) for s in ("ab", "aba")]
    assert _vertices_created(monkeypatch, words) == _vertices_created(monkeypatch, words[:-1])


@pytest.mark.parametrize("n", [64, 128, 512])
def test_fold_builds_linearly_many_vertices_for_a_kernel(monkeypatch, n):
    # kernel of F2 -> Z/n: each conjugate a^-i b a^i reads a^i from both ends
    # and builds one vertex; read from one end, it built i + 1
    gens = [word(F2, (1,) * n)] + [word(F2, (-1,) * i + (2,) + (1,) * i) for i in range(n)]
    assert _vertices_created(monkeypatch, gens) <= 4 * n


def test_table_export_format(index2_table):
    data = index2_table.to_json()
    assert data["index"] == 2
    assert data["transversal"] == ["", "a"]
    assert data["action"]["a"] == [2, 1]
    assert data["action"]["b"] == [1, 2]


# -- cocycle ------------------------------------------------------------------


def test_cocycle_identity_element(index2_table, index3_table):
    for table in (index2_table, index3_table):
        for i in range(1, table.size + 1):
            assert cocycle(table, Word(F2, ()), i).is_identity


def test_cocycle_worked_examples(index2_table):
    a = word(F2, (1,))
    assert cocycle(index2_table, a, 1).is_identity
    assert cocycle(index2_table, a, 2) == word(F2, (-1, -1))


def test_cocycle_defining_property(index2_table, index3_table):
    # gamma * t_i * alpha lands exactly on a transversal word
    for table in (index2_table, index3_table):
        transversal = set(table.transversal)
        for g in ball(F2, 3):
            for i in range(1, table.size + 1):
                lam = cocycle(table, g, i)
                assert table.coset_of(lam) == 1
                assert g * table.rep(i) * lam in transversal


def test_cocycle_uniqueness_brute_force(index2_table, index2_basis):
    # oracle: search the subgroup ball for any lam with g * t_i * lam in T
    table = index2_table
    members = [w for w in ball(F2, 6) if table.coset_of(w) == 1]
    transversal = set(table.transversal)
    for g in ball(F2, 2):
        for i in (1, 2):
            hits = [lam for lam in members if g * table.rep(i) * lam in transversal]
            expected = cocycle(table, g, i)
            if len(expected) <= 6:
                assert hits == [expected] or expected in hits
                assert len([h for h in hits]) == 1


def test_cocycle_composition_order(index2_table, index3_table, index1_table, s3_table):
    # the product rule the implemented cocycle satisfies, exactly
    for table in (index2_table, index3_table, index1_table, s3_table):
        base = table
        words = [Word(table.ambient, ls) for layer in reduced_layers(table.ambient, 2)
                 for ls in layer]
        for g1 in words:
            for g2 in words:
                for i in range(1, table.size + 1):
                    lhs = cocycle(table, g1 * g2, i)
                    rhs = cocycle(table, g2, i) * cocycle(table, g1, base.act(g2, i))
                    assert lhs == rhs


# -- conjugation -----------------------------------------------------------------


def test_conjugate_by_identity(index2_table):
    sub = index2_table.subgroup
    assert conjugate_subgroup(sub, Word(F2, ())) == sub


def test_conjugate_preserves_index(index2_table, index3_table):
    a = word(F2, (1,))
    for table in (index2_table, index3_table):
        conj = conjugate_subgroup(table.subgroup, a)
        assert enumerate_cosets(conj).size == table.size


def test_conjugate_membership(index2_table):
    t = word(F2, (1,))
    conj_table = enumerate_cosets(conjugate_subgroup(index2_table.subgroup, t))
    for h in index2_table.subgroup.generators:
        assert conj_table.coset_of(t * h * t.inverse()) == 1


# -- Schreier basis and rewriting ---------------------------------------------------


def test_schreier_rank_fixtures(index2_table, index3_table, index1_table):
    assert schreier_basis(index2_table).rank == 3
    assert schreier_basis(index3_table).rank == 4
    basis1 = schreier_basis(index1_table)
    assert basis1.rank == 2
    assert [g.to_str() for g in basis1.generators] == ["a", "b"]


def test_schreier_basis_words(index2_basis, index2_table):
    assert [g.to_str() for g in index2_basis.generators] == ["aa", "b", "Aba"]
    for g in index2_basis.generators:
        assert index2_table.coset_of(g) == 1
    assert len(set(index2_basis.generators)) == index2_basis.rank


def test_schreier_requires_free_ambient(s3_table):
    with pytest.raises(ValueError):
        schreier_basis(s3_table)


def test_rewrite_fixed_points(index2_table, index2_basis):
    r3 = index2_basis.free_group
    for i in index2_table.points():
        assert rewrite_in_basis(index2_table, index2_basis, Word(F2, ()), i) == (i, Word(r3, ()))
    for j, g in enumerate(index2_basis.generators, start=1):
        assert rewrite_in_basis(index2_table, index2_basis, g, 1) == (1, word(r3, (j,)))


def test_rewrite_rejects_non_members(index2_table, index2_basis):
    # a is not in the subgroup: its scan from coset 1 ends at coset 2, and the
    # fiber factor t_2^-1 a is trivial
    j, beta = rewrite_in_basis(index2_table, index2_basis, word(F2, (1,)), 1)
    assert (j, beta.is_identity) == (2, True)


def test_rewrite_round_trip_on_ball(index2_table, index2_basis):
    members = [w for w in ball(F2, 6) if index2_table.coset_of(w) == 1]
    for lam in members:
        j, beta = rewrite_in_basis(index2_table, index2_basis, lam, 1)
        assert j == 1 and eval_in_ambient(index2_basis, beta) == lam


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8),
       st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8))
def test_rewrite_homomorphism(ls1, ls2):
    # rewrite(l1 * l2) == reduce(rewrite(l1) * rewrite(l2)), via basis-word evaluation
    table = enumerate_cosets(
        subgroup(F2, [parse_word(F2, s) for s in ("aa", "b", "abA")])
    )
    basis = schreier_basis(table)
    r3 = FreeGroup(3)
    lam1 = eval_in_ambient(basis, word(r3, ls1))
    lam2 = eval_in_ambient(basis, word(r3, ls2))
    lhs = rewrite_in_basis(table, basis, lam1 * lam2, 1)
    rhs = rewrite_in_basis(table, basis, lam1, 1)[1] * rewrite_in_basis(table, basis, lam2, 1)[1]
    assert lhs == (1, rhs)


def _random_word(rng, ctx, max_len=12):
    return word(ctx, [rng.choice(alphabet(ctx)) for _ in range(rng.randint(0, max_len))])


def _f2_subgroup(*gens):
    return subgroup(F2, [parse_word(F2, s) for s in gens]), 1024


@settings(max_examples=200)
@given(st.one_of(st.sampled_from((_f2_subgroup("aa", "b", "abA"),
                                  _f2_subgroup("aaa", "b", "abA", "aabAA"))),
                 generator_sets(min_rank=2, modes=("stabilizer", "extended"))),
       st.integers(0, 2**32))
def test_act_matches_four_step_oracle(case, seed):
    # f2-index2, f2-index3 and random finite-index subgroups of F2/F3: the
    # one-pass action equals the cocycle route, for words of length <= 12
    table = enumerate_cosets(case[0])
    space = induced_space(table, schreier_basis(table))
    rng = random.Random(seed)
    for _ in range(20):
        gamma = _random_word(rng, table.ambient)
        point = (rng.randint(1, table.size), sample_boundary_point(rng, space.basis.rank))
        assert space.act(gamma, point) == four_step_act(space, gamma, point)


@settings(max_examples=200)
@given(generator_sets(modes=("stabilizer", "extended")), st.integers(0, 2**32))
def test_rewrite_ends_at_coset_1_iff_a_member(case, seed):
    table = enumerate_cosets(case[0])
    basis = schreier_basis(table)
    rng = random.Random(seed)
    for _ in range(20):
        w = _random_word(rng, table.ambient)
        if rng.random() < 0.5:  # a member, as a product of basis words
            w = eval_in_ambient(basis, _random_word(rng, basis.free_group))
        j, beta = rewrite_in_basis(table, basis, w, 1)
        assert (j == 1) == (table.coset_of(w) == 1)
        if j == 1:
            assert eval_in_ambient(basis, beta) == w


@settings(max_examples=200)
@given(generator_sets(min_rank=2, modes=("stabilizer", "extended")), st.integers(0, 2**32))
def test_rewrite_from_every_coset_against_word_products(case, seed):
    # the one-scan rewrite from coset i against the definition of beta, built
    # from Word products and the basis substitution only
    table = enumerate_cosets(case[0])
    basis = schreier_basis(table)
    rng = random.Random(seed)
    for _ in range(10):
        gamma = _random_word(rng, table.ambient)
        for i in table.points():
            j, beta = rewrite_in_basis(table, basis, gamma, i)
            assert j == table.coset_of(gamma * table.rep(i))
            assert eval_in_ambient(basis, beta) == table.rep(j).inverse() * gamma * table.rep(i)
        assert (rewrite_in_basis(table, basis, gamma, 1)[0] == 1) == (table.coset_of(gamma) == 1)


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_rewrite_output_is_reduced_from_every_coset(seed):
    # the scan emits a reduced basis word from every coset, with no reduction
    # pass, for reduced words on random subgroups of index <= 16
    rng = random.Random(seed)
    space = random_induced_space(rng, 16)
    table, basis = space.table, space.basis
    for _ in range(5):
        gamma = _random_word(rng, table.ambient, 40)
        for i in table.points():
            beta = rewrite_in_basis(table, basis, gamma, i)[1]
            assert beta.letters == reduce_letters(beta.letters)


def test_cocycle_against_independent_form(index2_table, index3_table):
    # independent route: the unique lam satisfies t_j = gamma t_i lam, so
    # lam must equal the inverse of t_j^-1 gamma t_i computed from scratch
    for table in (index2_table, index3_table):
        for g in ball(F2, 3):
            for i in range(1, table.size + 1):
                j = table.coset_of(g * table.rep(i))
                other = (table.rep(j).inverse() * g * table.rep(i)).inverse()
                assert cocycle(table, g, i) == other


def test_random_point_stabilizers_round_trip():
    # stabilizers of a point under random transitive F2 -> Sym(m) images:
    # enumeration must reproduce the orbit size, membership must match the
    # fixed-point oracle, and the Schreier basis must have the free rank
    rng = random.Random(1729)
    built = 0
    while built < 12:
        m = rng.randint(2, 6)
        perms = []
        for _ in range(2):
            p = list(range(1, m + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
        space = FiniteSpace.make(F2, m, perms)
        if not space.is_transitive():
            continue
        built += 1
        stab = stabilizer_subgroup(space, 1)
        table = enumerate_cosets(stab, max_cosets=m + 1)
        assert table.size == m
        for w in ball(F2, 4):
            assert (table.coset_of(w) == 1) == (space.act(w, 1) == 1)
        basis = schreier_basis(table)
        assert basis.rank == 1 + m * (2 - 1)
        members = [w for w in ball(F2, 5) if table.coset_of(w) == 1]
        for lam in members[:: max(1, len(members) // 40)]:
            j, beta = rewrite_in_basis(table, basis, lam, 1)
            assert j == 1 and eval_in_ambient(basis, beta) == lam
        # transversal words are shortlex-minimal representatives
        for i in range(1, table.size + 1):
            rep = table.rep(i)
            for w in ball(F2, len(rep)):
                if table.coset_of(w) == i:
                    assert not shortlex_key(w) < shortlex_key(rep)


def test_non_normal_subgroup_round_trip():
    # stabilizer of a point under a -> (01), b -> (12): non-normal, index 3
    space = FiniteSpace.make(F2, 3, ((2, 1, 3), (1, 3, 2)))
    stab = stabilizer_subgroup(space, 1)
    table = enumerate_cosets(stab)
    assert table.size == 3
    # membership oracle: fixing the point is the same as sitting in coset 1
    for w in ball(F2, 5):
        assert (table.coset_of(w) == 1) == (space.act(w, 1) == 1)
    basis = schreier_basis(table)
    assert basis.rank == 1 + 3 * (2 - 1)
    rng = random.Random(3)
    members = [w for w in ball(F2, 6) if table.coset_of(w) == 1]
    for _ in range(100):
        lam = rng.choice(members)
        j, beta = rewrite_in_basis(table, basis, lam, 1)
        assert j == 1 and eval_in_ambient(basis, beta) == lam


@settings(max_examples=200)
@given(generator_sets(), st.integers(0, 2**32))
def test_coset_table_is_a_transitive_finite_space(case, seed):
    # the coset table is the base space: point i is the coset t_i H, and the
    # table's action is the left action on cosets
    try:
        table = enumerate_cosets(*case)
    except (InfiniteIndexError, BudgetExceededError):
        return
    assert isinstance(table, FiniteSpace) and table.is_transitive()
    rng = random.Random(seed)
    for _ in range(10):
        w = _random_word(rng, table.ambient)
        for i in table.points():
            assert table.act(w, i) == table.coset_of(w * table.rep(i))


@given(rank=st.integers(1, 3), size=st.integers(1, 6), degree=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_finite_orbits_match_closure_oracle(rank, size, degree, seed):
    # FiniteSpace.orbit, the orbit finite_contractible enumerates, and the
    # permutation closure all search with shortlex_bfs; a plain depth-first
    # closure must find the same nodes
    rng = random.Random(seed)
    ctx = FreeGroup(rank)
    space = FiniteSpace.make(ctx, size, [rng.sample(range(1, size + 1), size) for _ in range(rank)])
    letters = alphabet(ctx)
    x = rng.randint(1, size)
    assert space.orbit(x) == closure(x, lambda p: (space.act_letter(l, p) for l in letters))

    pts = rng.sample(range(1, size + 1), rng.randint(1, size))
    raw = [rng.randint(1, 9) for _ in pts]
    nu = atomic_measure(space, [(p, Fraction(k, sum(raw))) for p, k in zip(pts, raw)])
    seen = closure(nu.atoms, lambda atoms: (
        tuple(sorted((space.act_letter(l, p), w) for p, w in atoms)) for l in letters))
    evidence = finite_contractible(space, nu).evidence[0]
    assert evidence["orbit_size"] == len(seen)
    assert evidence["orbit"] == [[{"point": p, "weight": str(w)} for p, w in atoms]
                                 for atoms in sorted(seen)][:50]

    perms = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
    gens = perms + [invert_perm(p) for p in perms]
    assert cosets._perm_closure(perms) == closure(
        identity_perm(degree), lambda p: (compose_perms(p, g) for g in gens))


def test_perm_closure_overflow_names_the_closure():
    s3 = [(1, 0, 2), (1, 2, 0)]
    assert len(cosets._perm_closure(s3, cap=6)) == 6
    with pytest.raises(BudgetExceededError, match="^subgroup closure exceeds 5 permutations$"):
        cosets._perm_closure(s3, cap=5)
