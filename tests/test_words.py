import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import shortlex_key, sorted_shortlex_bfs

from boundarylab import (
    BoundarySpace,
    BudgetExceededError,
    FreeGroup,
    PermutationGroup,
    Word,
    ball,
    parse_word,
    permutation_of,
    word,
)
from boundarylab.words import (
    alphabet,
    check_ball_size,
    compose_perms,
    identity_perm,
    letters_from_str,
    letters_to_str,
    reduce_letters,
    reduced_layers,
    shortlex_bfs,
)

F2 = FreeGroup(2)
letters2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=14)


def naive_reduce(letters):
    """Independent oracle: rescan for cancelling pairs until a fixed point."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def test_reduce_examples():
    assert reduce_letters((1, -1)) == ()
    assert reduce_letters((1, 2, -2, 1)) == (1, 1)
    assert reduce_letters((1, 2)) == (1, 2)


@given(letters2)
def test_reduce_matches_naive_oracle(ls):
    assert reduce_letters(ls) == naive_reduce(ls)


@given(letters2)
def test_reduce_idempotent_and_scan_clean(ls):
    red = reduce_letters(ls)
    assert reduce_letters(red) == red
    assert len(red) <= len(ls)
    for x, y in zip(red, red[1:]):
        assert x != -y


def test_multiply_laws():
    a, b = word(F2, (1,)), word(F2, (2,))
    w = a * b * a.inverse()
    assert Word(F2, ()) * w == w
    assert w * Word(F2, ()) == w
    assert (a * b) * parse_word(F2, "Ba") == word(F2, (1, 1))
    assert w * w.inverse() == Word(F2, ())


@given(letters2, letters2)
def test_multiply_is_reduce_of_concatenation(ls1, ls2):
    u, v = word(F2, ls1), word(F2, ls2)
    assert (u * v).letters == reduce_letters(u.letters + v.letters)


def test_associativity_on_ball_samples():
    import random

    B = ball(F2, 3)
    rng = random.Random(12)
    for _ in range(400):
        u, v, w = rng.choice(B), rng.choice(B), rng.choice(B)
        assert (u * v) * w == u * (v * w)


def test_inverse():
    assert Word(F2, ()).inverse() == Word(F2, ())
    assert parse_word(F2, "aB").inverse() == parse_word(F2, "bA")


@given(letters2)
def test_inverse_involution(ls):
    w = word(F2, ls)
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity


def test_mismatched_contexts_raise():
    with pytest.raises(ValueError):
        word(F2, (1,)) * word(FreeGroup(3), (1,))


def test_letter_out_of_range():
    with pytest.raises(ValueError):
        word(F2, (3,))
    with pytest.raises(ValueError):
        word(F2, (0,))


def test_ball_sizes_free():
    assert len(ball(F2, 0)) == 1
    assert [w.to_str() for w in ball(F2, 1)] == ["", "a", "A", "b", "B"]
    assert len(ball(F2, 2)) == 17
    for rank in (2, 3):
        for radius in range(4):
            # closed form 1 + sum_{l=1..R} 2k(2k-1)^(l-1) for rank k
            size = 1 + sum(2 * rank * (2 * rank - 1) ** (l - 1) for l in range(1, radius + 1))
            assert len(ball(FreeGroup(rank), radius)) == size
        for depth in range(5):
            sphere = [w.letters for w in ball(FreeGroup(rank), depth) if len(w) == depth]
            assert BoundarySpace(rank).cylinders(depth, len(sphere)) == sphere
            with pytest.raises(BudgetExceededError):  # counted, not built
                BoundarySpace(rank).cylinders(depth, len(sphere) - 1)
        with pytest.raises(BudgetExceededError):
            BoundarySpace(rank).cylinders(10**9, 10**6)
        with pytest.raises(ValueError, match="depth"):
            BoundarySpace(rank).cylinders(-1, 10**6)


def test_ball_cap_is_counted_before_building():
    # the cap holds at exactly the ball's size, and one below it raises
    for rank in (1, 2, 3):
        ctx = FreeGroup(rank)
        for radius in range(4):
            size = len(ball(ctx, radius))
            assert len(ball(ctx, radius, size)) == size
            check_ball_size(ctx, radius, size)
            with pytest.raises(BudgetExceededError,
                               match=f"^ball of radius {radius} exceeds cap {size - 1}$"):
                ball(ctx, radius, size - 1)
    with pytest.raises(BudgetExceededError):  # counted, so a huge radius costs nothing
        ball(F2, 10**9)
    with pytest.raises(BudgetExceededError):
        check_ball_size(FreeGroup(1), 10**6, 10**6)
    with pytest.raises(ValueError, match="radius"):
        check_ball_size(F2, -1, 10)


def test_ball_is_shortlex_sorted_and_reduced():
    B = ball(F2, 3)
    keys = [shortlex_key(w) for w in B]
    assert keys == sorted(keys)
    assert len(set(B)) == len(B)
    for w in B:
        assert w.letters == reduce_letters(w.letters)


def test_ball_budget():
    with pytest.raises(BudgetExceededError):
        ball(F2, 10, max_size=100)


def test_ball_refuses_a_permutation_group():
    # finite groups are decided by exhaustive orbits, never by word balls
    s3 = PermutationGroup(3, ((1, 0, 2), (1, 2, 0)))
    with pytest.raises(ValueError, match="PermutationGroup"):
        ball(s3, 2)


def test_permutation_of():
    s3 = PermutationGroup(3, ((1, 0, 2), (1, 2, 0)))
    assert permutation_of(Word(s3, ())) == (0, 1, 2)
    assert permutation_of(word(s3, (1,))) == (1, 0, 2)
    w = parse_word(s3, "abAB")
    assert permutation_of(w * w.inverse()) == (0, 1, 2)


def test_permutation_homomorphism():
    import random

    s3 = PermutationGroup(3, ((1, 0, 2), (1, 2, 0)))
    B = [Word(s3, ls) for layer in reduced_layers(s3, 3) for ls in layer]
    rng = random.Random(5)
    for _ in range(200):
        u, v = rng.choice(B), rng.choice(B)
        assert permutation_of(u * v) == compose_perms(
            permutation_of(u), permutation_of(v)
        )


def test_permutation_of_rejects_free_context():
    with pytest.raises(ValueError):
        permutation_of(word(F2, (1,)))


@given(letters2)
def test_string_round_trip(ls):
    w = word(F2, ls)
    assert parse_word(F2, w.to_str()) == w


def test_string_format():
    assert letters_to_str((1, 2, -1)) == "abA"
    assert letters_from_str("abA") == (1, 2, -1)
    assert letters_to_str(()) == ""
    with pytest.raises(ValueError):
        letters_from_str("a1")
    assert letters_to_str((26, -26, 27, -1, -30)) == "zZ{27}A{-30}"
    assert letters_from_str("zZ{27}A{-30}") == (26, -26, 27, -1, -30)
    for bad in ("{", "{}", "{0}", "{-0}", "{26}", "{-5}", "{027}", "{+27}",
                "{27", "27}", "{ 27}", "{27}}", "{a}"):
        with pytest.raises(ValueError):
            letters_from_str(bad)


@given(st.lists(st.integers(1, 40).flatmap(lambda i: st.sampled_from((i, -i))), max_size=12))
def test_string_round_trip_any_index(ls):
    s = letters_to_str(ls)
    assert letters_from_str(s) == tuple(ls)
    # indices up to 26 keep their one-character form
    small = [l for l in ls if abs(l) <= 26]
    assert letters_to_str(small) == "".join(
        chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1) for l in small
    )


@st.composite
def functional_graphs(draw):
    """(ctx, step, max_nodes): a random map node x letter -> node on at most
    12 nodes, with a node budget on either side of the reachable count."""
    ctx = FreeGroup(draw(st.integers(1, 3)))
    n = draw(st.integers(1, 12))
    targets = {
        l: draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        for l in alphabet(ctx)
    }
    max_nodes = draw(st.one_of(st.none(), st.integers(1, n + 1)))
    return ctx, lambda u, l: targets[l][u], max_nodes


def _bfs_outcome(bfs, ctx, step, max_nodes):
    try:
        return list(bfs(ctx, 0, step, max_nodes).items())
    except BudgetExceededError as exc:
        return BudgetExceededError, str(exc)


@settings(max_examples=300)
@given(functional_graphs())
def test_shortlex_bfs_matches_sorting_oracle(graph):
    assert _bfs_outcome(shortlex_bfs, *graph) == _bfs_outcome(sorted_shortlex_bfs, *graph)


def test_perm_group_validation():
    with pytest.raises(ValueError):
        PermutationGroup(3, ((0, 0, 2),))
    with pytest.raises(ValueError):
        PermutationGroup(3, ())
    with pytest.raises(ValueError):
        FreeGroup(0)
    assert identity_perm(3) == (0, 1, 2)
