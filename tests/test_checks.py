import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import boundarylab
from boundarylab import (
    BoundarySpace,
    ExtensionMap,
    FiniteSpace,
    FreeGroup,
    InducedSpace,
    SubgroupHandle,
    amenable_size_check,
    atomic_measure,
    boundary_point,
    check_contraction_lifting,
    check_finite_extension,
    check_minimal_finite,
    check_minimal_symbolic,
    check_sp_extension,
    contract_measure,
    decompose_fibers,
    dirac,
    finite_contractible,
    generator,
    induced_space,
    parse_word,
    pushforward_group,
    replay,
    schreier_basis,
    stabilizer_subgroup,
)
from boundarylab.checks import (
    ContractionCertificate,
    _axis_power_steps,
    _push_through,
    certificate_element,
    concentration,
    random_walk_letters,
    sample_boundary_measure,
    sample_boundary_point,
    sample_fiber_measure,
    steer_into_cylinder,
)
from boundarylab.measures import CylinderFunction, isometry_defect
from boundarylab.words import Word, cached_ball, reduce_letters, word
from oracles import frozen_fiber_space, stepwise_axis_power_steps, stepwise_push_through

F2 = FreeGroup(2)
Y2 = BoundarySpace(2)
A_INF = boundary_point((), (1,))
B_INF = boundary_point((), (2,))


# -- minimality -------------------------------------------------------------------


def test_minimal_finite_coset_space(index2_table):
    space = index2_table
    assert check_minimal_finite(space).verdict == "PASS"


def test_minimal_finite_disjoint_union():
    # two separate 2-cycles under the first generator; second acts trivially
    space = FiniteSpace.make(F2, 4, ((2, 1, 4, 3), (1, 2, 3, 4)))
    report = check_minimal_finite(space)
    assert report.verdict == "FAIL"
    assert report.evidence[0]["invariant_subset"] == [1, 2]


def test_minimal_finite_singleton():
    space = FiniteSpace.make(F2, 1, ((1,), (1,)))
    assert check_minimal_finite(space).verdict == "PASS"


@pytest.fixture(scope="module")
def boundary_as_induced(index1_table):
    """The rank-2 boundary as the induced space of F2 over itself: one coset."""
    return induced_space(index1_table, schreier_basis(index1_table))


def test_minimal_symbolic_boundary(boundary_as_induced):
    report = check_minimal_symbolic(boundary_as_induced, depth=1, radius=3, samples=4, seed=5)
    assert report.verdict == "PASS"
    assert all(e["covered"] == 4 for e in report.evidence)


def test_minimal_symbolic_zero_radius_inconclusive(boundary_as_induced):
    report = check_minimal_symbolic(boundary_as_induced, depth=1, radius=0, samples=1, seed=5)
    assert report.verdict == "INCONCLUSIVE"
    assert report.evidence[0]["missing"]


def test_minimal_symbolic_induced(index2_induced):
    report = check_minimal_symbolic(index2_induced, depth=1, radius=4, samples=10, seed=5)
    assert report.verdict == "PASS"
    assert all(e["total"] == 12 for e in report.evidence)


# -- contraction -----------------------------------------------------------------------


def test_axis_power_two_atoms():
    nu = atomic_measure(Y2, [(A_INF, Fraction(1, 2)), (B_INF, Fraction(1, 2))])
    cert = contract_measure(nu, 10, 64, strategy="axis-power")
    assert cert is not None
    assert all(s == generator(F2, 1) for s in cert.steps)
    assert len(cert.steps) == 10
    assert cert.achieved_depth >= 10
    ok, detail, final = replay(nu, cert)
    assert ok and detail["match"]


def test_axis_power_dirac_gives_empty_certificate():
    cert = contract_measure(dirac(Y2, B_INF), 5, 10, strategy="axis-power")
    assert cert.steps == ()
    assert cert.achieved_depth == 5
    assert replay(dirac(Y2, B_INF), cert)[0]


def test_axis_power_perturbs_repelling_atom():
    repelling = boundary_point((), (-1,))
    nu = atomic_measure(Y2, [(repelling, Fraction(1, 2)), (B_INF, Fraction(1, 2))])
    cert = contract_measure(nu, 8, 64, strategy="axis-power")
    assert cert is not None
    assert cert.steps[0] != generator(F2, 1)  # leading perturbation step
    assert replay(nu, cert)[0]


def test_axis_power_budget_exhaustion_returns_none():
    nu = atomic_measure(Y2, [(A_INF, Fraction(1, 2)), (B_INF, Fraction(1, 2))])
    assert contract_measure(nu, 30, 3, strategy="axis-power") is None


def test_budget_monotonicity_same_certificate():
    nu = atomic_measure(Y2, [(A_INF, Fraction(1, 2)), (B_INF, Fraction(1, 2))])
    c1 = contract_measure(nu, 10, 12, strategy="axis-power")
    c2 = contract_measure(nu, 10, 64, strategy="axis-power")
    assert c1 == c2


def test_fiber_lift_conjugated_steps(index2_induced):
    rng = random.Random(11)
    nu = sample_fiber_measure(index2_induced, 2, rng, 3)
    cert = contract_measure(nu, 20, 64, strategy="fiber-lift")
    assert cert is not None and cert.limit_coset == 2
    t2 = index2_induced.table.rep(2)
    for s in cert.steps:
        lam = t2.inverse() * s * t2
        assert index2_induced.table.coset_of(lam) == 1
    ok, _, final = replay(nu, cert)
    assert ok
    depth, coset = concentration(final)
    assert coset == 2 and depth >= 20


def test_fiber_lift_needs_single_fiber(index2_induced):
    y = boundary_point((), (2,))
    spread = atomic_measure(
        index2_induced, [((1, y), Fraction(1, 2)), ((2, y), Fraction(1, 2))]
    )
    with pytest.raises(ValueError):
        contract_measure(spread, 5, 10, strategy="fiber-lift")


def test_contract_rejects_finite_space(s3_space):
    nu = dirac(s3_space, 1)
    with pytest.raises(ValueError):
        contract_measure(nu, 5, 10)


def test_contract_validates_parameters():
    nu = dirac(Y2, A_INF)
    with pytest.raises(ValueError):
        contract_measure(nu, 0, 10)
    with pytest.raises(ValueError):
        contract_measure(nu, 5, 0)
    with pytest.raises(ValueError, match="strategy"):
        contract_measure(nu, 5, 10, strategy="nope")
    # the strategy keyword only asserts what the measure's space picks
    assert contract_measure(nu, 5, 10, strategy="axis-power") is not None
    for strategy in ("fiber-lift", "greedy-ball"):
        with pytest.raises(ValueError, match="strategy"):
            contract_measure(nu, 5, 10, strategy=strategy)


def test_disabled_fiber_action_never_contracts(index2_table, index2_basis):
    frozen = frozen_fiber_space(index2_table, index2_basis)
    y1, y2 = boundary_point((), (1,)), boundary_point((), (2,))
    nu = atomic_measure(frozen, [((2, y1), Fraction(1, 2)), ((2, y2), Fraction(1, 2))])
    assert contract_measure(nu, 5, 32) is None
    # no short word concentrates it any further either
    depth, _ = concentration(nu)
    for w in cached_ball(frozen.ambient, 2):
        if not w.is_identity:
            assert concentration(pushforward_group(w, nu))[0] <= depth


def test_tampered_certificate_fails_replay(index2_induced):
    rng = random.Random(13)
    nu = sample_fiber_measure(index2_induced, 1, rng, 3)
    cert = contract_measure(nu, 12, 64, strategy="fiber-lift")
    assert cert is not None and len(cert.steps) > 1
    bad = ContractionCertificate(cert.steps[:-1], cert.achieved_depth,
                                 cert.limit_coset, cert.limit_cylinder)
    assert not replay(nu, bad)[0]
    wrong_coset = ContractionCertificate(cert.steps, cert.achieved_depth,
                                         1 + (cert.limit_coset % 2), cert.limit_cylinder)
    assert not replay(nu, wrong_coset)[0]


@st.composite
def axis_points(draw):
    """(rank, 1..5 distinct points): ends of the axis a, and points behind
    leading runs of a^-1 (sometimes of a)."""
    rank = draw(st.sampled_from([2, 3]))
    alph = [l for i in range(1, rank + 1) for l in (i, -i)]
    pts = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["repelling", "attracting", "run", "run", "run"]))
        if kind == "repelling":
            p = boundary_point((), (-1,))
        elif kind == "attracting":
            p = A_INF
        else:
            run = (draw(st.sampled_from([-1, -1, 1])),) * draw(st.integers(0, 8))
            rest = draw(st.lists(st.sampled_from(alph), max_size=5))
            period = draw(st.lists(st.sampled_from(alph), min_size=1, max_size=3))
            try:
                p = boundary_point(run + tuple(rest), period)
            except ValueError:
                continue
        if p not in pts:
            pts.append(p)
    if not pts:
        pts.append(A_INF)
    return rank, pts


@given(axis_points(), st.integers(1, 40))
def test_axis_power_search_matches_stepwise_oracle(case, target):
    rank, pts = case
    answer = stepwise_axis_power_steps(pts, rank, target, 120)
    budgets = {1, 120}
    if answer is not None:  # both sides of the answer
        budgets |= {max(1, len(answer) - 1), len(answer), len(answer) + 1}
    for budget in sorted(budgets):
        assert _axis_power_steps(pts, rank, target, budget) == \
            stepwise_axis_power_steps(pts, rank, target, budget)


@pytest.fixture(scope="module", params=["index2", "index3"])
def induced(request):
    table = request.getfixturevalue(f"{request.param}_table")
    return induced_space(table, schreier_basis(table))


@given(seed=st.integers(0, 2**16),
       strategy=st.sampled_from(["fiber-lift", "axis-power", "random"]))
def test_push_through_matches_stepwise_oracle(induced, seed, strategy):
    rng = random.Random(seed)
    rank = induced.fiber.rank
    space = induced.fiber if strategy == "axis-power" else induced
    coset = rng.randint(1, induced.size)
    pts = [sample_boundary_point(rng, rank) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:  # the perturbing step leads the certificate
        pts.append(boundary_point((), (-1,)))
    pts = list(dict.fromkeys(pts))
    if space is induced:
        pts = [(coset, p) for p in pts]
    nu = atomic_measure(space, [(p, Fraction(1, len(pts))) for p in pts])
    if strategy == "random":
        ctx = induced.ambient
        steps = [parse_word(ctx, "abA"), parse_word(ctx, "bb"), parse_word(ctx, "Ba")]
        rng.shuffle(steps)
    else:
        cert = contract_measure(nu, 6 + seed % 10, 64)
        steps = cert.steps if cert is not None else []
    assert _push_through(nu, steps) == stepwise_push_through(nu, steps)


def test_contract_and_replay_letters_grow_linearly_in_depth(index2_induced, monkeypatch):
    """Letters passed to reduce_letters by a fiber-lift search and its replay
    grow linearly in the target depth (a stepwise replay grows quadratically).
    A count, not a timing, so the bound holds on any machine."""
    original = boundarylab.words.reduce_letters
    counted = [0]

    def counting(letters):
        letters = tuple(letters)
        counted[0] += len(letters)
        return original(letters)

    for mod in (boundarylab, boundarylab.words, boundarylab.cosets, boundarylab.spaces,
                boundarylab.measures, boundarylab.checks):
        if getattr(mod, "reduce_letters", None) is original:
            monkeypatch.setattr(mod, "reduce_letters", counting)
    nu = atomic_measure(index2_induced, [
        ((2, boundary_point((-1, -1, 2), (1,))), Fraction(1, 3)),
        ((2, boundary_point((), (2,))), Fraction(1, 3)),
        ((2, boundary_point((3, -2), (-3, 1))), Fraction(1, 3)),
    ])
    letters = []
    for depth in (256, 1024):
        counted[0] = 0
        cert = contract_measure(nu, depth, 4 * depth, strategy="fiber-lift")
        assert cert is not None and replay(nu, cert)[0]
        letters.append(counted[0])
    assert letters[1] <= 5 * letters[0]


def _counting(monkeypatch, modules, name):
    """Count the calls of ``name`` from every module in ``modules`` that holds
    the same function; returns the one-element counter."""
    original = getattr(modules[0], name)
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_replay_rewrites_once_per_coset(index2_induced, monkeypatch):
    """Replaying the certificate of a 6-atom measure in one coset rewrites the
    product of the steps once, not once per atom.  A count, not a timing."""
    pts = [boundary_point((), (l,)) for l in (1, -1, 2, -2, 3, -3)]
    nu = atomic_measure(index2_induced, [((2, p), Fraction(1, 6)) for p in pts])
    cert = contract_measure(nu, 64, 256)
    assert cert is not None and len(cert.steps) > 64
    calls = _counting(monkeypatch, (boundarylab.cosets, boundarylab, boundarylab.spaces,
                                    boundarylab.measures, boundarylab.checks),
                      "rewrite_in_basis")
    assert replay(nu, cert)[0]
    assert calls[0] == 1


def test_axis_power_search_work_does_not_grow_with_depth(index2_induced, monkeypatch):
    """The fiber-lift search evaluates the pair depth at candidate powers
    only, so the number of evaluations does not grow with the target depth."""
    calls = _counting(monkeypatch, (boundarylab.checks,), "_axis_pair_depth")
    nu = atomic_measure(index2_induced, [
        ((2, boundary_point((-1, -1, 2), (1,))), Fraction(1, 3)),
        ((2, boundary_point((), (2,))), Fraction(1, 3)),
        ((2, boundary_point((3, -2), (-3, 1))), Fraction(1, 3)),
    ])
    counts = []
    for depth in (256, 1024):
        calls[0] = 0
        assert contract_measure(nu, depth, 4 * depth) is not None
        counts.append(calls[0])
    assert 0 < counts[1] <= counts[0]


# -- finite orbit oracle -------------------------------------------------------------


def test_finite_contractible_dirac(s3_space):
    assert finite_contractible(s3_space, dirac(s3_space, 2)).verdict == "PASS"


def test_finite_contractible_uniform_fails(s3_space):
    nu = atomic_measure(s3_space, [(1, Fraction(1, 2)), (2, Fraction(1, 2))])
    report = finite_contractible(s3_space, nu)
    assert report.verdict == "FAIL"
    assert report.evidence[0]["orbit_size"] == 3  # the three unordered pairs


def test_finite_contractible_matches_weight_multiset_shortcut(s3_space, z4_space):
    # consistency of the exhaustive route with the multiset argument
    rng = random.Random(3)
    for space in (s3_space, z4_space):
        for _ in range(20):
            pts = rng.sample(list(space.points()), rng.randint(1, space.size))
            nums = [rng.randint(1, 8) for _ in pts]
            nu = atomic_measure(
                space, [(p, Fraction(n, sum(nums))) for p, n in zip(pts, nums)]
            )
            exhaustive = finite_contractible(space, nu).verdict
            shortcut = "PASS" if nu.is_dirac else "FAIL"
            assert exhaustive == shortcut


# -- strongly proximal extension ------------------------------------------------------


def test_sp_extension_induced_passes(index2_phi):
    report = check_sp_extension(index2_phi, max_atoms=4, samples=10, seed=3,
                                target_depth=12, steps=64)
    assert report.verdict == "PASS"
    assert all(e["certificate"] is not None and e["replay_ok"] for e in report.evidence)


def test_sp_extension_tiny_budget_inconclusive(index2_phi):
    report = check_sp_extension(index2_phi, max_atoms=4, samples=6, seed=3,
                                target_depth=30, steps=2)
    assert report.verdict == "INCONCLUSIVE"


def test_sp_extension_identity_finite(s3_space):
    phi = ExtensionMap(s3_space, s3_space, tuple(s3_space.points()))
    report = check_finite_extension(phi)
    assert report.verdict == "PASS"


def _doubled_cover(space):
    n = space.size
    perms = []
    for p in space.letter_perms:
        perms.append(tuple(list(p) + [x + n for x in p]))
    big = FiniteSpace.make(space.ambient, 2 * n, perms)
    projection = tuple(list(range(1, n + 1)) * 2)
    return ExtensionMap(big, space, projection)


def test_sp_extension_doubled_fiber_fails(s3_space):
    report = check_finite_extension(_doubled_cover(s3_space))
    assert report.verdict == "FAIL"
    witnessed = [e for e in report.evidence if "witness_measure" in e]
    assert witnessed and all(e["orbit_verdict"] == "FAIL" for e in witnessed)


def test_sp_extension_flags_non_equivariant_projection(s3_space):
    phi = ExtensionMap(s3_space, s3_space, (2, 1, 3))
    report = check_finite_extension(phi)
    assert report.verdict == "FAIL"
    assert report.evidence[0]["violation"] == "equivariance"


# -- base/fiber consistency ------------------------------------------------------------


def test_contraction_lifting_passes(index2_phi):
    report = check_contraction_lifting(index2_phi, max_atoms=4, samples=12, seed=5,
                                       target_depth=10, steps=64, depth=1, radius=4)
    assert report.verdict == "PASS"
    kinds = {e["kind"] for e in report.evidence}
    assert kinds == {"fiber-supported", "spread"}
    for e in report.evidence:
        if e["kind"] == "spread":
            assert not e["pushforward_dirac"]


def test_contraction_lifting_disabled_fiber_control(index2_table, index2_basis):
    # with the fiber action ablated, the obligations cannot discharge
    from boundarylab.spaces import induced_extension

    frozen = frozen_fiber_space(index2_table, index2_basis)
    phi = induced_extension(frozen)
    report = check_contraction_lifting(phi, max_atoms=3, samples=6, seed=5,
                                       target_depth=8, steps=24, depth=1, radius=3)
    assert report.verdict in ("INCONCLUSIVE", "FAIL")


def test_contraction_lifting_nonminimal_base_fails(index2_induced):
    bad_base = FiniteSpace.make(F2, 2, ((1, 2), (1, 2)))
    phi = ExtensionMap(index2_induced, bad_base, None)
    report = check_contraction_lifting(phi, max_atoms=5, samples=2, seed=1, target_depth=20,
                                       steps=64, depth=1, radius=4)
    assert report.verdict == "FAIL"


# -- fiber decomposition -----------------------------------------------------------------


def test_decompose_fibers_index2(index2_phi):
    report = decompose_fibers(index2_phi, radius=3, depth=1, samples=3, seed=2)
    assert report.verdict == "PASS"
    assert len(report.evidence) == 2
    for entry in report.evidence:
        assert entry["matches_conjugate"]
        assert entry["stabilizer_index"] == 2
        assert entry["transport_ok"] and entry["invariance_ok"]


def test_decompose_fibers_index1(index1_table):
    from boundarylab import induced_extension, induced_space, schreier_basis

    basis = schreier_basis(index1_table)
    phi = induced_extension(induced_space(index1_table, basis))
    report = decompose_fibers(phi, radius=2, depth=1, samples=2, seed=2)
    assert report.verdict == "PASS"
    assert len(report.evidence) == 1


def test_decompose_fibers_requires_induced(s3_space):
    phi = ExtensionMap(s3_space, s3_space, tuple(s3_space.points()))
    with pytest.raises(ValueError):
        decompose_fibers(phi, radius=3, depth=1, samples=3, seed=0)


def test_decompose_fibers_catches_a_misrouted_mover(index2_phi, monkeypatch):
    # transport reads one coset per mover: sending t_2 t_1^-1 to the wrong
    # fiber must FAIL fiber 1's transport and nothing else
    space = index2_phi.source
    mover = space.table.rep(2) * space.table.rep(1).inverse()
    act = InducedSpace.act

    def misrouted(self, gamma, point):
        i, y = act(self, gamma, point)
        return (1 if gamma == mover and point[0] == 1 else i), y

    monkeypatch.setattr(InducedSpace, "act", misrouted)
    report = decompose_fibers(index2_phi, radius=2, depth=1, samples=2, seed=2)
    assert report.verdict == "FAIL"
    assert [e["transport_ok"] for e in report.evidence] == [False, True]
    assert all(e["invariance_ok"] and e["matches_conjugate"] for e in report.evidence)


def test_decompose_fibers_reads_invariance_from_every_basis_letter(index2_phi, monkeypatch):
    # at radius 0 the one mover is the identity, so only the invariance read
    # sees the last basis letter's lift sent into the other fiber
    space = index2_phi.source
    rank = space.fiber.rank
    last = generator(FreeGroup(rank), rank)
    lift = InducedSpace.lift

    def misrouted(self, i, w):
        g = lift(self, i, w)
        return self.table.rep(3 - i) * self.table.rep(i).inverse() * g if w == last else g

    monkeypatch.setattr(InducedSpace, "lift", misrouted)
    report = decompose_fibers(index2_phi, radius=0, depth=1, samples=2, seed=2)
    assert report.verdict == "FAIL"
    assert [e["invariance_ok"] for e in report.evidence] == [False, False]
    assert all(e["transport_ok"] and e["matches_conjugate"] for e in report.evidence)


def _parity_stabilizer(space, i):
    """The words of even b-exponent in Stab(i) of a rank-2 finite space: the
    stabilizer of i in two copies of the space that b swaps, of index 2 in
    Stab(i) when Stab(i) holds a word of odd b-exponent."""
    a, b = space.letter_perms
    up = tuple(q + space.size for q in a), tuple(q + space.size for q in b)
    doubled = FiniteSpace.make(space.ambient, 2 * space.size, (a + up[0], up[1] + b))
    return stabilizer_subgroup(doubled, i)


@pytest.mark.parametrize("change", ["add", "drop", "shrink"])
def test_decompose_fibers_reads_a_wrong_stabilizer_as_a_mismatch(index2_phi, monkeypatch,
                                                                 change):
    # add: a generator outside Stab(i) (caught by conjugating the stabilizer
    # back into H); drop: one generator and its inverse, which leaves a
    # subgroup of infinite index; shrink: an index-2 subgroup of Stab(i)
    # (caught by conjugating H's generators into the stabilizer)
    def wrong(space, i):
        gens = stabilizer_subgroup(space, i).generators
        if change == "add":
            gens += (next(g for g in (generator(F2, 1), generator(F2, 2))
                          if space.act(g, i) != i),)
        elif change == "drop":
            gens = tuple(g for g in gens if g not in (gens[-1], gens[-1].inverse()))
        else:
            gens = _parity_stabilizer(space, i).generators
        return SubgroupHandle(space.ambient, gens)

    monkeypatch.setattr(boundarylab.checks, "stabilizer_subgroup", wrong)
    report = decompose_fibers(index2_phi, radius=0, depth=1, samples=1, seed=2)
    assert report.verdict == "FAIL"
    assert [e["matches_conjugate"] for e in report.evidence] == [False, False]
    assert all(e["transport_ok"] and e["invariance_ok"] for e in report.evidence)


# -- amenable size dichotomy ----------------------------------------------------------------


def test_amenable_size_check_s3(s3_space):
    identity_cand = {
        "name": "identity",
        "space": FiniteSpace.make(s3_space.ambient, 3, s3_space.letter_perms),
        "projection": (1, 2, 3),
    }
    doubled = _doubled_cover(s3_space)
    doubled_cand = {"name": "doubled", "space": doubled.source,
                    "projection": doubled.point_map}
    report = amenable_size_check(s3_space, [identity_cand, doubled_cand])
    assert report.verdict == "PASS"
    assert [e["verdict"] for e in report.evidence] == ["PASS", "FAIL"]


def test_amenable_size_check_z4(z4_space):
    identity_cand = {
        "name": "identity",
        "space": FiniteSpace.make(z4_space.ambient, 4, z4_space.letter_perms),
        "projection": (1, 2, 3, 4),
    }
    doubled = _doubled_cover(z4_space)
    doubled_cand = {"name": "doubled", "space": doubled.source,
                    "projection": doubled.point_map}
    report = amenable_size_check(z4_space, [identity_cand, doubled_cand])
    assert report.verdict == "PASS"


def test_amenable_size_check_detects_mismatch(s3_space):
    # a full-size candidate with a scrambled, non-equivariant projection
    bad = {
        "name": "scrambled",
        "space": FiniteSpace.make(s3_space.ambient, 3, s3_space.letter_perms),
        "projection": (2, 1, 3),
    }
    report = amenable_size_check(s3_space, [bad])
    assert report.verdict == "FAIL"


def test_amenable_size_check_requires_finite_group(index2_table):
    space = index2_table
    with pytest.raises(ValueError):
        amenable_size_check(space, [])


# -- steering -----------------------------------------------------------------------------


def test_steering_lands_every_atom():
    rng = random.Random(77)
    for trial in range(8):
        nu = sample_boundary_measure(Y2, random.Random(1000 + trial), 4)
        cert = contract_measure(nu, 10, 64, strategy="axis-power")
        ok, _, final = replay(nu, cert)
        assert ok
        depth = 1 + trial % 6
        cyl = [rng.choice([1, -1, 2, -2])]
        while len(cyl) < depth:
            cyl.append(rng.choice([l for l in (1, -1, 2, -2) if l != -cyl[-1]]))
        cyl = tuple(cyl)
        u = steer_into_cylinder(final, cyl)
        for p, _ in final.atoms:
            assert Y2.act(u, p).expand(depth) == cyl
        g = certificate_element(cert.steps)
        probe = u * g if g is not None else u
        f = CylinderFunction(rank=2, depth=depth, values={cyl: 1.0})
        assert isometry_defect(nu, f, 2, probes=[probe]) == 0.0


def test_certificate_element_order(index2_induced):
    rng = random.Random(5)
    nu = sample_fiber_measure(index2_induced, 2, rng, 3)
    cert = contract_measure(nu, 8, 64, strategy="fiber-lift")
    g = certificate_element(cert.steps)
    if g is not None:
        from boundarylab import pushforward_group

        stepped = nu
        for s in cert.steps:
            stepped = pushforward_group(s, stepped)
        assert pushforward_group(g, nu) == stepped


def _run_steps(rng):
    """(context, steps) in runs of equal steps: random reduced words,
    conjugates u v u^-1, the identity, a run equal to an earlier one but built
    anew (as a stored certificate parses it), and the inverse of the last run,
    as many times, so that two runs cancel completely."""
    ctx = FreeGroup(rng.randint(2, 3))
    runs = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["word", "conjugate", "identity", "again", "undo"])
        k = rng.randint(1, 5)
        if kind == "conjugate":
            u, v = random_walk_letters(rng, ctx.rank, 5), random_walk_letters(rng, ctx.rank, 4)
            w = word(ctx, u + v + tuple(-l for l in reversed(u)))
        elif kind == "identity":
            w = Word(ctx, ())
        elif kind == "again" and runs:
            w = Word(ctx, rng.choice(runs)[0].letters)
        elif kind == "undo" and runs:
            w, k = runs[-1][0].inverse(), runs[-1][1]
        else:
            w = word(ctx, random_walk_letters(rng, ctx.rank, 6))
        runs.append((w, k))
    return ctx, [w for w, k in runs for _ in range(k)]


@given(st.integers(0, 2**32 - 1))
def test_certificate_element_matches_flat_reduction(seed):
    # runs multiplied as u v^k u^-1 and joined at the seam, against one
    # reduction of all the letters
    ctx, steps = _run_steps(random.Random(seed))
    flat = [l for s in reversed(steps) for l in s.letters]
    assert certificate_element(steps) == Word(ctx, reduce_letters(flat))


def test_certificate_element_runs_examples():
    w = parse_word(F2, "abA")
    assert certificate_element([w] * 4).to_str() == "abbbbA"
    assert certificate_element([w] * 3 + [w.inverse()] * 3).is_identity
    ab = parse_word(F2, "ab")
    assert certificate_element([ab, ab.inverse(), ab]).to_str() == "ab"
    assert certificate_element([parse_word(F2, "bA")] * 2 + [ab] * 2).to_str() == "ababbAbA"


# -- report shape ------------------------------------------------------------------------


def test_check_report_json_shape(index2_phi):
    report = check_sp_extension(index2_phi, max_atoms=3, samples=2, seed=1,
                                target_depth=8, steps=64)
    data = report.to_json()
    assert set(data) == {"check", "verdict", "parameters", "seed", "evidence",
                         "truncation"}
    assert data["check"] == "sp-extension"
    assert data["truncation"]["budget_steps"] == 64
