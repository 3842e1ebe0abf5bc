import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boundarylab import (
    EQUAL,
    BoundaryPoint,
    ExtensionMap,
    FiniteSpace,
    FreeGroup,
    boundary_point,
    common_prefix_depth,
    enumerate_cosets,
    generator,
    identity,
    induced_extension,
    induced_space,
    parse_boundary_point,
    parse_induced_point,
    parse_word,
    rewrite_in_basis,
    schreier_basis,
    stabilizer_subgroup,
    word,
)
from boundarylab.cosets import cocycle, eval_in_ambient
from boundarylab.checks import sample_boundary_point
from boundarylab.spaces import (
    boundary_act,
    cylinder_after,
    induced_point_to_str,
)
from boundarylab.words import ball, cached_ball, reduce_letters
from oracles import (conjugate_subgroup, frozen_fiber_space, padded_boundary_act,
                     sliced_boundary_point)

F2 = FreeGroup(2)
letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8)


point_strategy = st.builds(
    lambda pre, per: (pre, per), letters, st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6)
)


def make_point(pre, per):
    try:
        return boundary_point(pre, per)
    except ValueError:
        return None


# -- normal form -----------------------------------------------------------------


def test_normal_form_examples():
    assert boundary_point((), (2,)).to_str() == "|b"
    assert boundary_point((), (1, 2, 1, 2)).to_str() == "|ab"   # primitive root
    assert boundary_point((1,), (1,)).to_str() == "|a"          # prefix absorbed
    assert boundary_point((1,), (-1, 2)).to_str() == "|bA"      # seam cancellation
    # ba.(Abba)^inf: the cyclic shell cancels the seam and the whole word is b^inf
    assert boundary_point((2, 1), (-1, 2, 2, 1)).to_str() == "|b"
    assert boundary_point((2, 1), (2, -1, -1, 2)).to_str() == "ba|bAAb"
    with pytest.raises(ValueError):
        boundary_point((), (1, -1))
    with pytest.raises(ValueError):
        boundary_point((), ())


@st.composite
def tail_heavy_pair(draw):
    """A (prefix, period) pair whose prefix ends in many copies of the period
    or of its inverse, after a partial copy."""
    alph = st.sampled_from([1, -1, 2, -2, 3, -3])
    period = draw(st.lists(alph, min_size=1, max_size=5))
    copy = period if draw(st.booleans()) else [-l for l in reversed(period)]
    head = draw(st.lists(alph, max_size=6))
    cut = draw(st.integers(0, len(copy)))
    prefix = head + copy[cut:] + copy * draw(st.integers(0, 12))
    return prefix, period


def _normal_form_or_error(normalize, pair):
    try:
        return normalize(*pair)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(st.one_of(tail_heavy_pair(), point_strategy))
@example(((3, 2, 1, 2, 1, 2), (1, 2)))           # 5 tail letters: rotate by 1
@example(((3, -2, -1, -3, -2, -1), (1, 2, 3)))  # 5 seam cancellations: rotate by 2
def test_normal_form_matches_sliced_oracle(pair):
    assert _normal_form_or_error(boundary_point, pair) == \
        _normal_form_or_error(sliced_boundary_point, pair)


@given(point_strategy)
def test_normalization_idempotent(pair):
    p = make_point(*pair)
    assume(p is not None)
    again = boundary_point(p.prefix, p.period)
    assert again == p


@given(point_strategy)
def test_normal_form_preserves_expansion(pair):
    pre, per = pair
    p = make_point(pre, per)
    assume(p is not None)
    # raw expansion oracle: freely reduce prefix + many periods
    raw = reduce_letters(tuple(pre) + tuple(per) * 12)
    n = min(len(raw), 10)
    assert p.expand(n) == raw[:n]


@given(point_strategy)
def test_expansion_is_reduced(pair):
    p = make_point(*pair)
    assume(p is not None)
    exp = p.expand(12)
    for x, y in zip(exp, exp[1:]):
        assert x != -y


@given(point_strategy, point_strategy)
def test_equality_matches_expansion_oracle(pair1, pair2):
    p = make_point(*pair1)
    q = make_point(*pair2)
    assume(p is not None and q is not None)
    import math

    bound = max(len(p.prefix), len(q.prefix)) + math.lcm(len(p.period), len(q.period))
    assert (p == q) == (p.expand(bound) == q.expand(bound))


# -- boundary action -----------------------------------------------------------------


def test_act_boundary_examples():
    b_inf = boundary_point((), (2,))
    assert boundary_act((), b_inf) == b_inf
    ab = boundary_act((1,), b_inf)
    assert ab.to_str() == "a|b"
    assert boundary_act((-1,), ab) == b_inf


def test_act_boundary_cancellation_oracle():
    # one-step cancellation, cross-checked against a depth-10 expansion
    ab = boundary_point((1,), (2,))
    image = boundary_act((-1,), ab)
    expected = reduce_letters((-1,) + ab.expand(11))[:10]
    assert image.expand(10) == expected == boundary_point((), (2,)).expand(10)


@given(letters, point_strategy)
def test_act_boundary_expansion_oracle(g, pair):
    p = make_point(*pair)
    assume(p is not None)
    g = reduce_letters(g)
    image = boundary_act(g, p)
    oracle = reduce_letters(g + p.expand(len(g) + 10))[:10]
    assert image.expand(10) == oracle


@given(letters, letters, point_strategy)
def test_act_boundary_action_axiom(g1, g2, pair):
    p = make_point(*pair)
    assume(p is not None)
    u, v = word(F2, g1), word(F2, g2)
    lhs = boundary_act((u * v).letters, p)
    rhs = boundary_act(u.letters, boundary_act(v.letters, p))
    assert lhs == rhs


def _inverse(w):
    return tuple(-l for l in reversed(w))


@st.composite
def seam_act_case(draw):
    """(g, p): p a normal-form point of rank 2 or 3, built from a possibly
    non-primitive period, and g of one of four kinds: g cancels nothing, g
    cancels into p's prefix, g cancels up to 40 letters through the periods
    (after a random head or not), or g cancels p's whole prefix and k periods."""
    rank = draw(st.sampled_from([2, 3]))
    alph = st.sampled_from([l for l in range(-rank, rank + 1) if l])
    period = draw(st.lists(alph, min_size=1, max_size=5)) * draw(st.integers(1, 3))
    p = make_point(draw(st.lists(alph, max_size=8)), period)
    assume(p is not None)
    kind = draw(st.sampled_from(["none", "prefix", "periods", "whole"]))
    if kind == "none":
        g = reduce_letters(draw(st.lists(alph, max_size=10)))
        assume(not g or g[-1] != -p.expand(1)[0])
    elif kind == "prefix":
        assume(p.prefix)
        g = _inverse(p.prefix[:draw(st.integers(1, len(p.prefix)))])
    elif kind == "periods":
        cut = _inverse(p.expand(len(p.prefix) + draw(st.integers(1, 40))))
        g = reduce_letters(tuple(draw(st.lists(alph, max_size=6))) + cut)
    else:
        g = _inverse(p.expand(len(p.prefix) + draw(st.integers(0, 4)) * len(p.period)))
    return g, p


@settings(max_examples=400)
@given(seam_act_case())
def test_act_matches_padded_oracle(case):
    g, p = case
    assert boundary_act(g, p) == padded_boundary_act(g, p)


@given(letters, point_strategy, st.integers(min_value=0, max_value=8))
def test_cylinder_after_matches_full_action(g, pair, depth):
    p = make_point(*pair)
    assume(p is not None)
    g = reduce_letters(g)
    assert cylinder_after(g, p, depth) == boundary_act(g, p).expand(depth)


# -- common prefix depth ------------------------------------------------------------


def test_common_prefix_depth_examples():
    a_inf = boundary_point((), (1,))
    assert common_prefix_depth(a_inf, boundary_point((), (1,))) == EQUAL
    assert common_prefix_depth(a_inf, boundary_point((1, 1), (2,))) == 2
    assert common_prefix_depth(boundary_point((), (2,)), a_inf) == 0


@given(point_strategy, point_strategy)
def test_common_prefix_depth_symmetric(pair1, pair2):
    p, q = make_point(*pair1), make_point(*pair2)
    assume(p is not None and q is not None)
    assert common_prefix_depth(p, q) == common_prefix_depth(q, p)


# -- finite spaces ----------------------------------------------------------------------


def test_act_finite(index2_table):
    space = index2_table
    a = generator(F2, 1)
    assert space.act(identity(F2), 1) == 1
    assert space.act(a, 1) == 2
    assert space.act(a * a, 1) == 1
    for g1 in ball(F2, 2):
        for g2 in ball(F2, 2):
            for x in (1, 2):
                assert space.act(g1 * g2, x) == space.act(g1, space.act(g2, x))


def test_finite_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace.make(F2, 3, ((1, 1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        FiniteSpace.make(F2, 3, ((1, 2, 3),))


# -- induced action -----------------------------------------------------------------------


def test_act_induced_examples(index2_induced):
    a = generator(F2, 1)
    y = boundary_point((), (2,))
    assert index2_induced.act(identity(F2), (1, y)) == (1, y)
    assert index2_induced.act(a, (1, y)) == (2, y)
    # over coset 2 the cocycle is a^-2, whose inverse rewrites to fiber letter 1
    assert index2_induced.act(a, (2, y)) == (1, boundary_act((1,), y))


def test_act_induced_axioms(index2_induced):
    rng = random.Random(9)
    B = cached_ball(F2, 3)
    for _ in range(300):
        g1, g2 = rng.choice(B), rng.choice(B)
        p = (rng.randint(1, 2), sample_boundary_point(rng, 3))
        assert index2_induced.act(identity(F2), p) == p
        assert index2_induced.act(g1 * g2, p) == index2_induced.act(
            g1, index2_induced.act(g2, p)
        )


@pytest.fixture(scope="module", params=["index2", "index3"])
def induced(request):
    table = request.getfixturevalue(f"{request.param}_table")
    return induced_space(table, schreier_basis(table))


def test_subgroup_acts_on_the_fiber_over_coset_1(induced):
    # a subgroup element moves the fiber over coset 1 by its Schreier rewriting
    table, basis = induced.table, induced.basis
    rng = random.Random(3)
    lams = [w for w in cached_ball(F2, 4) if table.coset_of(w) == 1]
    assert len(lams) > 10
    for lam in lams:
        y = sample_boundary_point(rng, basis.rank)
        j, beta = rewrite_in_basis(table, basis, lam, 1)
        assert j == 1 and eval_in_ambient(basis, beta) == lam
        assert induced.act(lam, (1, y)) == (1, boundary_act(beta.letters, y))


def test_subgroup_fiber_action_hand_oracle(index2_induced):
    # rewrite by hand: aab = (aa)(b) = fiber letters (1, 2)
    y = boundary_point((), (2,))
    assert index2_induced.act(parse_word(F2, "aab"), (1, y)) == (1, boundary_act((1, 2), y))
    # a is not in the subgroup: it leaves the fiber over coset 1
    a = generator(F2, 1)
    assert rewrite_in_basis(index2_induced.table, index2_induced.basis, a, 1)[0] == 2
    assert index2_induced.act(a, (1, y)) == (2, y)


@pytest.mark.parametrize("i", [0, -1, 3])
def test_coset_out_of_range_is_named(index2_induced, i):
    # at coset 0, act used to read transversal[-1] and answer silently
    ab, y = parse_word(F2, "ab"), boundary_point((), (1,))
    calls = (lambda: index2_induced.act(ab, (i, y)),
             lambda: index2_induced.lift(i, word(FreeGroup(3), (1,))),
             lambda: cocycle(index2_induced.table, ab, i))
    for call in calls:
        with pytest.raises(ValueError, match=rf"^coset index {i} out of range 1\.\.2$"):
            call()


@given(fiber_letters=st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8),
       pair=point_strategy)
def test_lift_moves_its_fiber_by_the_fiber_word(induced, fiber_letters, pair):
    y = make_point(*pair)
    assume(y is not None)
    w = word(FreeGroup(induced.basis.rank), fiber_letters)
    for i in range(1, induced.size + 1):
        assert induced.act(induced.lift(i, w), (i, y)) == (i, boundary_act(w.letters, y))


def test_fiber_transport(index2_induced):
    # the transversal words carry the fiber over coset 1 onto each fiber
    rng = random.Random(4)
    for i in (1, 2):
        t_i = index2_induced.table.rep(i)
        for _ in range(20):
            y = sample_boundary_point(rng, 3)
            assert index2_induced.act(t_i, (1, y))[0] == i


def test_fiber_stabilizer_invariance(index2_induced, index2_basis):
    # conjugated subgroup elements fix their own fiber setwise
    rng = random.Random(8)
    r3 = FreeGroup(3)
    for i in (1, 2):
        t_i = index2_induced.table.rep(i)
        for w in cached_ball(r3, 2):
            lam_i = t_i * eval_in_ambient(index2_basis, w) * t_i.inverse()
            for _ in range(3):
                y = sample_boundary_point(rng, 3)
                assert index2_induced.act(lam_i, (i, y))[0] == i


def test_fiber_invariance_ambient_ball(index2_induced):
    # stabilizer elements drawn literally from the ambient radius-4 ball
    base = index2_induced.table
    rng = random.Random(14)
    for i in (1, 2):
        movers = [w for w in cached_ball(F2, 4) if base.act(w, i) == i]
        assert movers
        for w in movers[::7]:
            y = sample_boundary_point(rng, 3)
            assert index2_induced.act(w, (i, y))[0] == i


def test_disabled_fiber_action_is_still_an_action(index2_table, index2_basis):
    frozen = frozen_fiber_space(index2_table, index2_basis)
    rng = random.Random(2)
    B = cached_ball(F2, 3)
    for _ in range(100):
        g1, g2 = rng.choice(B), rng.choice(B)
        p = (rng.randint(1, 2), sample_boundary_point(rng, 3))
        assert frozen.act(g1 * g2, p) == frozen.act(g1, frozen.act(g2, p))
        # fiber coordinate never moves
        assert frozen.act(g1, p)[1] == p[1]


# -- extension map --------------------------------------------------------------------------


def test_extension_apply_and_equivariance(index2_phi):
    rng = random.Random(5)
    B = cached_ball(F2, 3)
    seen_targets = set()
    for _ in range(200):
        g = rng.choice(B)
        p = (rng.randint(1, 2), sample_boundary_point(rng, 3))
        assert index2_phi.apply(p) == p[0]
        lhs = index2_phi.apply(index2_phi.source.act(g, p))
        rhs = index2_phi.target.act(g, index2_phi.apply(p))
        assert lhs == rhs
        seen_targets.add(index2_phi.apply(p))
    assert seen_targets == {1, 2}  # surjective on sampled points


def test_finite_extension_point_map(s3_space):
    phi = ExtensionMap(s3_space, s3_space, tuple(s3_space.points()))
    assert phi.apply(2) == 2


# -- stabilizers ------------------------------------------------------------------------------


def test_stabilizer_reproduces_subgroup(index2_table):
    space = index2_table
    stab = stabilizer_subgroup(space, 1)
    table = enumerate_cosets(stab)
    assert table.size == index2_table.size
    assert table.letter_perms == index2_table.letter_perms
    assert table.transversal == index2_table.transversal


def test_stabilizer_trivial_space():
    space = FiniteSpace.make(F2, 1, ((1,), (1,)))
    stab = stabilizer_subgroup(space, 1)
    assert enumerate_cosets(stab).size == 1


def test_stabilizers_conjugate(index3_table):
    space = index3_table
    a = generator(F2, 1)
    j = space.act(a, 1)
    stab1 = stabilizer_subgroup(space, 1)
    stabj = stabilizer_subgroup(space, j)
    tj = enumerate_cosets(stabj)
    # conjugating the stabilizer of 1 by any mover gives the stabilizer of j
    conj = enumerate_cosets(conjugate_subgroup(stab1, a))
    assert tj.letter_perms == conj.letter_perms and tj.transversal == conj.transversal


def test_stabilizer_requires_transitive():
    space = FiniteSpace.make(F2, 2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        stabilizer_subgroup(space, 1)


# -- serialization ----------------------------------------------------------------------------


def test_boundary_point_serialization():
    p = boundary_point((1, 2), (2, 1))
    assert parse_boundary_point(p.to_str()) == p
    assert parse_boundary_point("|a") == boundary_point((), (1,))
    assert parse_boundary_point("ab|ba").to_str() == "ab|ba"
    with pytest.raises(ValueError):
        parse_boundary_point("ab")


def test_induced_point_serialization():
    p = (2, boundary_point((1,), (2,)))
    s = induced_point_to_str(p)
    assert s == "(2, a|b)"
    assert parse_induced_point(s) == p
    with pytest.raises(ValueError):
        parse_induced_point("2, a|b")


@given(g=letters, pair1=point_strategy, pair2=point_strategy)
def test_induced_coset_ignores_the_fiber_point(induced, g, pair1, pair2):
    # the coset of g.(i, y) is the coset of g t_i, whatever y is
    y1, y2 = make_point(*pair1), make_point(*pair2)
    assume(y1 is not None and y2 is not None)
    gamma = word(F2, g)
    for i in range(1, induced.size + 1):
        assert induced.act(gamma, (i, y1))[0] == induced.act(gamma, (i, y2))[0]
