import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    atom_sort_key,
    cylinder_key,
    cylinder_value,
    four_step_act,
    per_word_defect,
    per_word_poisson_transform,
    per_word_value,
    random_induced_space,
)

from boundarylab import (
    BoundarySpace,
    CylinderFunction,
    FreeGroup,
    atomic_measure,
    boundary_point,
    dirac,
    generator,
    identity,
    induced_space,
    is_fiber_supported,
    isometry_defect,
    parse_word,
    poisson_transform,
    pushforward_group,
    pushforward_map,
    schreier_basis,
)
from boundarylab.checks import random_walk_letters, sample_boundary_point, sample_fiber_measure
from boundarylab.measures import (
    _poisson_walk,
    measure_from_json,
    measure_to_json,
    point_from_json,
    weight_from_json,
)
from boundarylab.spaces import BoundaryPoint, boundary_act
from boundarylab.words import DEFAULT_BALL_CAP, BudgetExceededError, Word, cached_ball

F2 = FreeGroup(2)
Y2 = BoundarySpace(2)

A_INF = boundary_point((), (1,))
B_INF = boundary_point((), (2,))


def half_half():
    return atomic_measure(Y2, [(A_INF, Fraction(1, 2)), (B_INF, Fraction(1, 2))])


def walk_point(rng, rank, walk_len):
    """The point a random walk of at most walk_len letters moves a^inf to."""
    return boundary_act(random_walk_letters(rng, rank, walk_len), A_INF)


# -- measure construction --------------------------------------------------------


def test_atoms_merge_and_sort():
    nu = atomic_measure(Y2, [(B_INF, Fraction(1, 4)), (A_INF, Fraction(1, 2)),
                             (B_INF, Fraction(1, 4))])
    assert len(nu.atoms) == 2
    assert sum(w for _, w in nu.atoms) == 1
    assert nu.support() == (A_INF, B_INF)


fiber_points = st.builds(
    boundary_point,
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5),
    st.sampled_from([(1,), (-1,), (2,), (-2,), (1, 2), (2, -1), (1, 1, -2)]),
)


@given(st.lists(st.tuples(st.integers(1, 2), fiber_points), min_size=1, max_size=8))
def test_atoms_sort_as_the_old_key(index2_induced, points):
    # boundary and induced atoms come out exactly in the old explicit key's order
    for space, pts in ((Y2, [y for _, y in points]), (index2_induced, points)):
        nu = atomic_measure(space, [(p, Fraction(1, len(pts))) for p in pts])
        assert list(nu.support()) == sorted(set(pts), key=atom_sort_key)


def test_mass_validation():
    with pytest.raises(ValueError):
        atomic_measure(Y2, [(A_INF, Fraction(1, 2))])
    with pytest.raises(ValueError):
        atomic_measure(Y2, [(A_INF, Fraction(-1, 2)), (B_INF, Fraction(3, 2))])
    with pytest.raises(ValueError):
        atomic_measure(Y2, [])
    # weights are exact: a float counts at its exact binary value, no tolerance
    assert sum(w for _, w in atomic_measure(Y2, [(A_INF, 0.5), (B_INF, 0.5)]).atoms) == 1
    with pytest.raises(ValueError):
        atomic_measure(Y2, [(A_INF, 0.5), (B_INF, 0.5 + 1e-13)])
    with pytest.raises(ValueError):
        atomic_measure(Y2, [(A_INF, 0.5), (B_INF, 0.6)])


def test_dirac():
    nu = dirac(Y2, A_INF)
    assert nu.is_dirac and sum(w for _, w in nu.atoms) == 1
    assert nu.support() == (A_INF,)
    a = generator(F2, 1)
    assert pushforward_group(a, nu) == dirac(Y2, Y2.act(a, A_INF))


# -- push-forward -----------------------------------------------------------------


def test_pushforward_group_examples():
    nu = half_half()
    assert pushforward_group(identity(F2), nu) == nu
    a = generator(F2, 1)
    image = pushforward_group(a, nu)
    assert image.support() == (A_INF, boundary_point((1,), (2,)))
    assert sum(w for _, w in image.atoms) == 1


def test_pushforward_is_action():
    rng = random.Random(17)
    B = cached_ball(F2, 3)
    for _ in range(60):
        nu = atomic_measure(
            Y2,
            [(sample_boundary_point(rng, 2), Fraction(1, 3)),
             (walk_point(rng, 2, 5), Fraction(1, 3)),
             (boundary_point((), (2, 1)), Fraction(1, 3))],
        )
        g1, g2 = rng.choice(B), rng.choice(B)
        assert pushforward_group(g1 * g2, nu) == pushforward_group(
            g1, pushforward_group(g2, nu)
        )


@given(space_pos=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_pushforward_per_coset_matches_four_step_oracle(walk_spaces, space_pos, seed):
    # one rewrite per coset and the fiber action per atom, against the cocycle
    # route per atom, on index 2 and 3 and random subgroups of index <= 16,
    # with several atoms in each of up to three cosets
    rng = random.Random(seed)
    space = walk_spaces[space_pos] if space_pos < 4 else random_induced_space(rng, 16)
    ctx, rank = space.ambient, space.fiber.rank
    cosets = rng.sample(range(1, space.size + 1), min(space.size, 3))
    pts = list(dict.fromkeys((rng.choice(cosets), walk_point(rng, rank, rng.randint(0, 8)))
                             for _ in range(rng.randint(1, 8))))
    raw = [rng.randint(1, 9) for _ in pts]
    nu = atomic_measure(space, [(p, Fraction(k, sum(raw))) for p, k in zip(pts, raw)])
    for _ in range(5):
        gamma = Word(ctx, random_walk_letters(rng, ctx.rank, 16))
        expected = atomic_measure(space, [(four_step_act(space, gamma, p), w)
                                          for p, w in nu.atoms])
        assert pushforward_group(gamma, nu) == expected


@given(induced=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_push_image_matches_the_validating_constructor(induced, seed):
    # the push builds its image without re-checking the weights; the checking
    # constructor on the pointwise images gives the same atoms, tuple for
    # tuple, in strictly increasing point order
    rng = random.Random(seed)
    space = random_induced_space(rng, 8) if induced else BoundarySpace(rng.randint(2, 3))
    rank = space.fiber.rank if induced else space.rank

    def point():
        y = walk_point(rng, rank, rng.randint(0, 8))
        return (rng.randint(1, space.size), y) if induced else y

    pts = list(dict.fromkeys(point() for _ in range(rng.randint(1, 8))))
    raw = [rng.randint(1, 9) for _ in pts]
    nu = atomic_measure(space, [(p, Fraction(k, sum(raw))) for p, k in zip(pts, raw)])
    for _ in range(3):
        gamma = Word(space.ambient, random_walk_letters(rng, space.ambient.rank, 12))
        image = pushforward_group(gamma, nu)
        expected = atomic_measure(space, [(space.act(gamma, p), w) for p, w in nu.atoms])
        assert image.space == space and image.atoms == expected.atoms
        support = image.support()
        assert all(p < q for p, q in zip(support, support[1:]))


def test_pushforward_map_and_fiber_support(index2_induced, index2_phi):
    y1 = boundary_point((), (1,))
    y2 = boundary_point((), (2,))
    fiber_nu = atomic_measure(
        index2_induced, [((2, y1), Fraction(1, 3)), ((2, y2), Fraction(2, 3))]
    )
    down = pushforward_map(index2_phi, fiber_nu)
    assert down.is_dirac and down.atoms[0] == (2, Fraction(1))
    assert is_fiber_supported(index2_phi, fiber_nu) == 2

    spread = atomic_measure(
        index2_induced, [((1, y1), Fraction(1, 2)), ((2, y2), Fraction(1, 2))]
    )
    assert is_fiber_supported(index2_phi, spread) is None
    assert not pushforward_map(index2_phi, spread).is_dirac

    assert is_fiber_supported(index2_phi, dirac(index2_induced, (1, y1))) == 1


def test_pushforward_map_merges_weights(index2_induced, index2_phi):
    y1 = boundary_point((), (1,))
    y2 = boundary_point((), (2,))
    nu = atomic_measure(
        index2_induced,
        [((1, y1), Fraction(1, 4)), ((1, y2), Fraction(1, 4)),
         ((2, y1), Fraction(1, 2))],
    )
    down = pushforward_map(index2_phi, nu)
    assert down.atoms == ((1, Fraction(1, 2)), (2, Fraction(1, 2)))


def test_equivariance_square(index2_induced, index2_phi):
    rng = random.Random(23)
    B = cached_ball(F2, 3)
    for idx in range(40):
        nu = sample_fiber_measure(index2_induced, 1 + idx % 2, rng, 4)
        g = rng.choice(B)
        lhs = pushforward_map(index2_phi, pushforward_group(g, nu))
        rhs = pushforward_group(g, pushforward_map(index2_phi, nu))
        assert lhs == rhs


# -- cylinder functions and the Poisson transform ------------------------------------


def test_cylinder_function_norm():
    f = CylinderFunction(rank=2, depth=1, values={(1,): 0.5, (2,): -2.0})
    assert f.norm() == 2.0
    total = CylinderFunction(rank=2, depth=1,
                             values={(1,): 1.0, (-1,): 1.0, (2,): 1.0, (-2,): 1.0})
    assert total.norm() == 1.0
    assert CylinderFunction(rank=2, depth=2, values={}).norm() == 0.0  # unlisted is 0


def test_poisson_dirac_matches_direct_evaluation():
    xi = boundary_point((1,), (2,))
    nu = dirac(Y2, xi)
    f = CylinderFunction(rank=2, depth=2, values={(1, 2): 1.0, (2, 1): -0.5})
    bf = poisson_transform(nu, f, 2)
    for s in cached_ball(F2, 2):
        assert bf[s] == cylinder_value(f, Y2.act(s, xi))


def test_poisson_unital_and_bounded():
    nu = half_half()
    const = CylinderFunction(rank=2, depth=1, values={c: 1.0 for c in Y2.cylinders(1, 4)})
    bf = poisson_transform(nu, const, 3)
    assert set(bf.values()) == {1.0}
    f = CylinderFunction(rank=2, depth=1, values={(1,): 1.0})
    bf = poisson_transform(nu, f, 2)
    assert set(bf.values()) == {0.0, 0.5, 1.0}
    assert all(abs(v) <= f.norm() for v in bf.values())


def test_poisson_affine_in_measure_linear_in_function():
    rng = random.Random(31)
    xi1, xi2 = A_INF, boundary_point((2,), (1,))
    nu1, nu2 = dirac(Y2, xi1), dirac(Y2, xi2)
    mix = atomic_measure(Y2, [(xi1, Fraction(1, 4)), (xi2, Fraction(3, 4))])
    f = CylinderFunction(rank=2, depth=1,
                         values={(1,): rng.random(), (2,): -rng.random()})
    g = CylinderFunction(rank=2, depth=1, values={(-1,): rng.random()})
    fg = CylinderFunction(
        rank=2, depth=1,
        values={k: f.values.get(k, 0.0) + g.values.get(k, 0.0)
                for k in set(f.values) | set(g.values)},
    )
    for s in cached_ball(F2, 2):
        p1 = poisson_transform(nu1, f, 0)
        p2 = poisson_transform(nu2, f, 0)
        pm = poisson_transform(mix, f, 0)
        e = identity(F2)
        assert abs(pm[e] - (0.25 * p1[e] + 0.75 * p2[e])) < 1e-12
        pf = poisson_transform(nu1, f, 2)
        pg = poisson_transform(nu1, g, 2)
        pfg = poisson_transform(nu1, fg, 2)
        assert abs(pfg[s] - (pf[s] + pg[s])) < 1e-12


# -- isometry defect ---------------------------------------------------------------------


def test_defect_zero_cases():
    xi = boundary_point((1, 2), (1,))
    nu = dirac(Y2, xi)
    f = CylinderFunction(rank=2, depth=2, values={xi.expand(2): 1.0})
    assert isometry_defect(nu, f, 0) == 0.0  # identity already attains the norm
    const = CylinderFunction(rank=2, depth=1, values={c: 0.7 for c in Y2.cylinders(1, 4)})
    assert isometry_defect(half_half(), const, 0) == 0.0
    # a float sum in atom order: ten atoms of 1/10 where f = 1 reach ||f|| up to rounding
    tenths = atomic_measure(Y2, [(boundary_point((1,) + (2, 1) * k, (2,)), Fraction(1, 10))
                                 for k in range(10)])
    assert len(tenths.atoms) == 10
    assert 0.0 <= isometry_defect(tenths, CylinderFunction(2, 1, {(1,): 1.0}), 0) <= 2e-16


def test_defect_monotone_in_radius():
    rng = random.Random(41)
    for _ in range(5):
        nu = atomic_measure(
            Y2,
            [(sample_boundary_point(rng, 2), Fraction(1, 2)),
             (walk_point(rng, 2, 6), Fraction(1, 4)),
             (boundary_point((), (-2,)), Fraction(1, 4))],
        )
        f = CylinderFunction(rank=2, depth=3,
                             values={(1, 2, 1): 1.0, (2, 1, 2): -0.4})
        defects = [isometry_defect(nu, f, R) for R in (0, 2, 4, 6)]
        assert all(x >= y - 1e-15 for x, y in zip(defects, defects[1:]))


def test_defect_counts_a_probe_longer_than_the_ball():
    nu = half_half()
    f = CylinderFunction(rank=2, depth=2, values={(2, 1): 1.0})
    long_probe = parse_word(F2, "babababa")
    assert isometry_defect(nu, f, 0) == 1.0
    assert isometry_defect(nu, f, 0, probes=[long_probe]) == 0.0  # length 8 > radius 0


@pytest.fixture(scope="session")
def walk_spaces(index2_induced, index3_table):
    return [Y2, BoundarySpace(3), index2_induced,
            induced_space(index3_table, schreier_basis(index3_table))]


@given(space_pos=st.integers(0, 3), depth=st.integers(0, 4), radius=st.integers(0, 5),
       natoms=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_walk_matches_per_word_oracle(walk_spaces, space_pos, depth, radius, natoms, seed):
    # the tree walk gives the very floats of one whole-word evaluation per ball word
    space = walk_spaces[space_pos]
    boundary = isinstance(space, BoundarySpace)
    rank = space.rank if boundary else space.fiber.rank
    rng = random.Random(seed)
    pts = [walk_point(rng, rank, rng.randint(0, 8)) for _ in range(natoms)]
    if not boundary:
        pts = [(rng.randint(1, space.size), y) for y in pts]
    raw = [rng.randint(1, 9) for _ in pts]
    nu = atomic_measure(space, [(p, Fraction(k, sum(raw))) for p, k in zip(pts, raw)])
    # values on cylinders the walk visits, so that the sums are not all 0
    ctx = space.ambient
    keys = {cylinder_key(space.act(s, p), depth)
            for s in cached_ball(ctx, min(radius, 2)) for p in nu.support()}
    values = {k: rng.uniform(-1, 1) for k in sorted(keys, key=repr) if rng.random() < 0.7}
    f = CylinderFunction(rank, depth, values, cosets=None if boundary else space.size)
    probes = [rng.choice(cached_ball(ctx, radius + 2)) for _ in range(3)]
    assert poisson_transform(nu, f, radius) == per_word_poisson_transform(nu, f, radius)
    # each probe, over the radius or not, by the same one-letter step
    assert (list(_poisson_walk(nu, f, 0, probes))[1:]
            == [(s.letters, per_word_value(nu, f, s)) for s in probes])
    if f.norm() > 0:
        assert (isometry_defect(nu, f, radius, probes)
                == per_word_defect(nu, f, radius, probes))


def test_defect_cap_checked_before_walking(monkeypatch):
    # |ball(F2, 12)| = 1 + 2 (3^12 - 1) = 1,062,881 > DEFAULT_BALL_CAP >= |ball(F2, 11)|
    assert DEFAULT_BALL_CAP == 1_000_000
    nu = half_half()
    f = CylinderFunction(rank=2, depth=1, values={(1,): 1.0})

    def walked(self, n):
        raise AssertionError("a point was expanded before the cap check")

    monkeypatch.setattr(BoundaryPoint, "expand", walked)
    for call in (lambda: isometry_defect(nu, f, 12),
                 lambda: poisson_transform(nu, f, 12)):
        with pytest.raises(BudgetExceededError, match="^ball of radius 12 exceeds cap 1000000$"):
            call()
    monkeypatch.undo()
    assert isometry_defect(nu, f, 1) == 0.0


def test_cylinder_keys_are_checked_at_construction():
    # a stray key counted toward norm(): on the Dirac at ab|a it turned a
    # radius-3 defect of 0.0 into 4.0
    nu = dirac(BoundarySpace(2), boundary_point((1, 2), (1,)))
    assert isometry_defect(nu, CylinderFunction(2, 2, {(1, 2): 1.0}), 3) == 0.0
    for stray in [(1,), (1, 3), (1, -1), (0, 1), (1, "b"), 5]:
        with pytest.raises(ValueError, match=rf"^values: key {re.escape(repr(stray))} is not"):
            CylinderFunction(2, 2, {(1, 2): 1.0, stray: 5.0})
    # on an induced space a key is (coset in 1..cosets, reduced depth-d tuple)
    CylinderFunction(3, 2, {(1, (2, -3)): 1.0, (2, (-1, -1)): 0.5}, cosets=2)
    for stray in [(0, (1, 2)), (3, (1, 2)), (-1, (1, 2)), (1, (4, 1)), (1, (1, -1)),
                  (1, (1,)), (1, 2), ((1, 2), 1), (1, (1, 2), 3)]:
        with pytest.raises(ValueError, match=rf"^values: key {re.escape(repr(stray))} is not"):
            CylinderFunction(3, 2, {stray: 1.0}, cosets=2)


def test_function_must_fit_the_measure_space(index2_induced, index2_table):
    nu = half_half()
    fiber_nu = dirac(index2_induced, (1, A_INF))
    cases = [
        (nu, CylinderFunction(2, 1, {(1, (1,)): 1.0}, cosets=2), "f.cosets"),
        (nu, CylinderFunction(3, 1, {(3,): 1.0}), "f.rank"),
        (fiber_nu, CylinderFunction(3, 1, {(1,): 1.0}), "f.cosets"),
        (fiber_nu, CylinderFunction(3, 1, {(1, (1,)): 1.0}, cosets=3), "f.cosets"),
        (fiber_nu, CylinderFunction(2, 1, {(1, (1,)): 1.0}, cosets=2), "f.rank"),
    ]
    for measure, f, fieldname in cases:
        with pytest.raises(ValueError, match=rf"^{fieldname}: "):
            isometry_defect(measure, f, 2)
        with pytest.raises(ValueError, match=rf"^{fieldname}: "):
            poisson_transform(measure, f, 2)
    # a finite space has no cylinder functions
    f = CylinderFunction(2, 1, {(1,): 1.0})
    with pytest.raises(ValueError, match="^nu.space: a CosetTable"):
        isometry_defect(dirac(index2_table, 1), f, 2)
    # a probe from another free group is refused when it is evaluated
    with pytest.raises(ValueError, match="probe"):
        isometry_defect(nu, f, 2, probes=[parse_word(FreeGroup(3), "c")])


def test_defect_requires_nonzero_norm():
    with pytest.raises(ValueError):
        isometry_defect(half_half(), CylinderFunction(rank=2, depth=1, values={}), 2)


def test_defect_probe_attains_norm():
    nu = half_half()
    f = CylinderFunction(rank=2, depth=1, values={(2,): 1.0})
    probe = parse_word(F2, "b")  # b sends both atoms into the b-cylinder? only a^inf
    # b.a^inf = ba..., b.b^inf = b...: both start with b -> probe attains 1
    assert isometry_defect(nu, f, 0, probes=[probe]) == 0.0


# -- serialization --------------------------------------------------------------------------


def test_measure_serialization_round_trip(index2_induced):
    rng = random.Random(7)
    nu = sample_fiber_measure(index2_induced, 2, rng, 4)
    data = measure_to_json(nu)
    assert all(isinstance(e["weight"], str) for e in data)  # exact rationals as "p/q"
    back = measure_from_json(index2_induced, data)
    assert back == nu
    nub = half_half()
    assert measure_from_json(Y2, measure_to_json(nub)) == nub


@pytest.mark.parametrize("fiber, data", [
    (True, "(1, |z)"), (True, "(2, d|a)"), (True, "(1, a|{27})"), (False, "c|a"), (False, "|bC"),
])
def test_point_letters_above_rank_rejected(index2_induced, fiber, data):
    space = index2_induced if fiber else Y2
    rank = 3 if fiber else 2
    with pytest.raises(ValueError, match=rf"^point: .* above rank {rank}$"):
        point_from_json(space, data)


def test_point_letters_up_to_rank_accepted(index2_induced):
    assert point_from_json(index2_induced, "(2, cA|C)")[1].to_str() == "cA|C"
    assert point_from_json(Y2, "Ab|a").to_str() == "Ab|a"


def test_poisson_on_induced_space(index2_induced):
    y = boundary_point((), (2,))
    nu = dirac(index2_induced, (1, y))
    f = CylinderFunction(rank=3, depth=1, values={(1, (2,)): 1.0, (2, (2,)): -1.0},
                         cosets=2)
    bf = poisson_transform(nu, f, 1)
    e = identity(F2)
    a = generator(F2, 1)
    assert bf[e] == 1.0          # (1, b...) cylinder
    assert bf[a] == -1.0         # a moves to coset 2, fiber unchanged
    assert abs(isometry_defect(nu, f, 1)) == 0.0


def test_json_weights_read_as_exact_decimals():
    assert weight_from_json(0.1) == Fraction(1, 10)
    assert weight_from_json(2) == 2 and weight_from_json("3/4") == Fraction(3, 4)
    for bad in (True, None, "1/0", float("inf"), float("nan"), [1]):
        with pytest.raises(ValueError, match="weight"):
            weight_from_json(bad)
    nu = measure_from_json(Y2, [{"point": "|a", "weight": 0.1},
                                {"point": "|b", "weight": 0.9}])
    assert [w for _, w in nu.atoms] == [Fraction(1, 10), Fraction(9, 10)]
    assert measure_to_json(nu)[0]["weight"] == "1/10"
