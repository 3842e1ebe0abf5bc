"""Verification engines: minimality coverage, measure contraction with
replayable certificates, fiber decomposition, and the exhaustive finite-case
oracles.

Verdicts are three-valued.  PASS comes with replayable evidence, FAIL with a
concrete counterexample, and INCONCLUSIVE with the exhausted budgets: a failed
search at finite radius is never reported as a disproof.  Only finite spaces,
where orbits can be enumerated outright, admit exhaustive FAIL proofs.

All randomness is drawn from per-sample generators seeded as
``master_seed XOR sample_index``, so runs replay exactly and samples may be
evaluated in any order (results are assembled in sample order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence

from .cosets import InfiniteIndexError, enumerate_cosets
from .measures import (
    AtomicMeasure,
    atomic_measure,
    measure_to_json,
    point_to_json,
    pushforward_group,
    pushforward_map,
)
from .spaces import (
    BoundaryPoint,
    BoundarySpace,
    EQUAL,
    ExtensionMap,
    FiniteSpace,
    InducedSpace,
    boundary_act,
    boundary_point,
    common_prefix_depth,
    stabilizer_subgroup,
)
from .words import (
    FreeGroup,
    PermutationGroup,
    Word,
    alphabet,
    cached_ball,
    cyclic_shell,
    is_int,
    join_reduced,
    letters_from_str,
    letters_to_str,
    parse_word,
    reduce_letters,
    reduced_layers,
    shortlex_bfs,
    word,
)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

COVERAGE_BALL_CAP = 200_000  # most ball words, and target cylinders, a coverage check enumerates
LIFTING_COVERAGE_SAMPLES = 5  # coverage starts behind contraction-lifting
WALK_LEN = 8  # longest random walk behind a sampled boundary point
MAX_DENOM = 64  # sampled weights are proportional to draws from 1..MAX_DENOM


def _verdict(failed: bool, inconclusive: bool) -> str:
    if failed:
        return FAIL
    return INCONCLUSIVE if inconclusive else PASS


@dataclass
class CheckReport:
    """Outcome of one verification engine run."""

    check: str
    verdict: str
    parameters: dict
    seed: Optional[int]
    evidence: list
    truncation: dict

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# -- concentration bookkeeping --------------------------------------------------

def concentration(nu: AtomicMeasure):
    """(depth, coset) describing how concentrated the measure is.

    depth is the common-prefix length shared by all atoms (EQUAL for a single
    atom), and -1 for an induced measure whose atoms sit in several cosets.
    coset is the shared coset for induced measures, else None.
    """
    coset = None
    if isinstance(nu.space, InducedSpace):
        cosets = {p[0] for p, _ in nu.atoms}
        if len(cosets) > 1:
            return -1, None
        coset = next(iter(cosets))
        pts = [p[1] for p, _ in nu.atoms]
    else:
        pts = [p for p, _ in nu.atoms]
    return _points_depth(pts), coset


def _points_depth(pts: Sequence[BoundaryPoint]):
    if len(pts) == 1:
        return EQUAL
    return min(common_prefix_depth(pts[0], q) for q in pts[1:])


def shared_prefix(nu: AtomicMeasure, upto: int) -> tuple[int, ...]:
    """First ``upto`` letters shared by every atom (callers cap by the depth)."""
    p = nu.atoms[0][0]
    if isinstance(nu.space, InducedSpace):
        p = p[1]
    return p.expand(upto)


# -- contraction certificates ------------------------------------------------------

@dataclass(frozen=True)
class ContractionCertificate:
    """Finite sequence of group elements concentrating a measure.

    Replaying the steps (left push-forward, in order) on the original measure
    must leave every atom in the stated cylinder: all atoms share a prefix of
    length >= achieved_depth, in the stated coset for induced spaces.
    """

    steps: tuple[Word, ...]
    achieved_depth: int
    limit_coset: Optional[int]
    limit_cylinder: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "steps": [s.to_str() for s in self.steps],
            "achieved_depth": self.achieved_depth,
            "limit_coset": self.limit_coset,
            "limit_cylinder": letters_to_str(self.limit_cylinder),
        }

    @classmethod
    def from_json(cls, space, data) -> "ContractionCertificate":
        """Inverse of :meth:`to_json` for a measure on ``space``: steps are words
        over its ambient group, and the limit must be a coset of an induced
        space (null on a boundary) and a reduced cylinder of length
        ``achieved_depth`` in the fiber's letters."""
        if not isinstance(data, dict):
            raise ValueError("certificate: must be an object")
        steps = data.get("steps")
        if not (isinstance(steps, list) and all(isinstance(w, str) for w in steps)):
            raise ValueError("certificate.steps: must be a list of word strings")
        if not (is_int(data.get("achieved_depth")) and data["achieved_depth"] >= 1):
            raise ValueError("certificate.achieved_depth: must be an integer >= 1")
        if not isinstance(data.get("limit_cylinder"), str):
            raise ValueError("certificate.limit_cylinder: must be a word string")
        coset = data.get("limit_coset")
        if coset is not None and not is_int(coset):
            raise ValueError("certificate.limit_coset: must be an integer or null")
        induced = isinstance(space, InducedSpace)
        if coset not in (range(1, space.size + 1) if induced else (None,)):
            raise ValueError("certificate.limit_coset: must be "
                             + (f"a coset in 1..{space.size}" if induced else "null"))
        words: dict = {}  # a certificate repeats few distinct steps; parse each once
        for k, w in enumerate(steps):
            if w not in words:
                try:
                    words[w] = parse_word(space.ambient, w)
                except ValueError as exc:
                    raise ValueError(f"certificate.steps[{k}]: {exc}") from exc
        try:
            cylinder = letters_from_str(data["limit_cylinder"])
            reduced = word(space.fiber.ambient if induced else space.ambient, cylinder).letters
        except ValueError as exc:
            raise ValueError(f"certificate.limit_cylinder: {exc}") from exc
        if reduced != cylinder or len(cylinder) != data["achieved_depth"]:
            raise ValueError("certificate.limit_cylinder: must be a reduced word of length "
                             "achieved_depth")
        return cls(tuple(words[w] for w in steps), data["achieved_depth"], coset, cylinder)


def replay(nu: AtomicMeasure, cert: ContractionCertificate):
    """Re-run the steps and check the certificate's claim.

    Uses nothing but measure push-forward and the space action, so a stored
    certificate can be audited from serialized data alone.
    """
    cur, depth, coset = _push_through(nu, cert.steps)
    prefix = shared_prefix(cur, cert.achieved_depth)
    ok = (
        depth >= cert.achieved_depth
        and coset == cert.limit_coset
        and prefix == cert.limit_cylinder
    )
    detail = {
        "claimed_depth": cert.achieved_depth,
        "replayed_depth": ("EQUAL" if depth == EQUAL else depth),
        "claimed_coset": cert.limit_coset,
        "replayed_coset": coset,
        "match": ok,
    }
    return ok, detail, cur


def _push_through(nu: AtomicMeasure, steps):
    """(final measure, depth, coset) after pushing nu through the steps in order.

    The space action is a group action, so one push by the product of the
    steps gives the same measure as one push per step.
    """
    cur = pushforward_group(certificate_element(steps), nu) if steps else nu
    depth, coset = concentration(cur)
    return cur, depth, coset


def certificate_element(steps: Sequence[Word]) -> Optional[Word]:
    """The element s_k ... s_1 that applying s_1, .., s_k in order amounts to;
    None for no steps.

    Built run by run over the reversed steps, reducing no letter twice: a run
    of k equal steps w = u v u^-1, v cyclically reduced, is the reduced word
    u v^k u^-1, and the reduced runs cancel only at their seams.
    """
    if not steps:
        return None
    ctx = steps[0].ctx
    letters: list[int] = []
    for s, run in groupby(reversed(steps)):
        if s.ctx != ctx:
            raise ValueError("cannot multiply words from mismatched group contexts")
        w, c, k = s.letters, cyclic_shell(s.letters), len(list(run))
        join_reduced(letters, w[:c] + w[c:len(w) - c] * k + w[len(w) - c:])
    return Word(ctx, tuple(letters))


# -- contraction strategies ---------------------------------------------------------

def _axis_exponent(p: BoundaryPoint):
    """e with p = a^e . s, s not starting with a^+-1 (a the first generator);
    EQUAL (infinity) for the attracting end a^+inf.  The repelling end a^-inf
    has no such split."""
    run = 0
    head = p.expand(len(p.prefix) + len(p.period))
    for l in head:
        if abs(l) != 1:
            return run if head[0] == 1 else -run
        run += 1
    return EQUAL


def _axis_pair_depth(k: int, e1, e2, depth):
    """Common-prefix depth of a^k . x1 and a^k . x2, from their axis exponents
    and their current depth: a^k . (a^e . s) = a^(k+e) . s is reduced."""
    if e1 == e2:
        return depth if depth == EQUAL else abs(k + e1) + depth - abs(e1)
    f1, f2 = k + e1, k + e2
    if (f1 > 0 and f2 > 0) or (f1 < 0 and f2 < 0):
        return min(abs(f1), abs(f2))
    return 0


def _axis_power_steps(points, rank: int, target: int, budget: int):
    """Powers of the first generator, preceded by one perturbing element when
    some point sits at the generator's repelling end.  Returns rank-r words.

    The power is the least k within the budget whose a^k concentrates the
    points to the target depth.  Each pair's depth after k steps has a closed
    form (:func:`_axis_pair_depth`), so no point is moved to count k.  That
    depth is not monotone in k while leading a^-1 runs cancel, but each pair
    reaches the target on a set {k >= a} u {k <= b}: so the least k is 0 or
    some pair's a, and only those candidates are tried, in order.
    """
    ctx = FreeGroup(rank)
    g = Word(ctx, (1,))
    repelling = boundary_point((), (-1,))
    pts = list(points)
    steps: list[Word] = []
    if any(p == repelling for p in pts):
        # the first word of the radius-3 ball in shortlex order; layers are
        # built only as far as the search reaches
        perturb = next((Word(ctx, ls) for layer in reduced_layers(ctx, 3) for ls in layer
                        if ls and all(boundary_act(ls, p) != repelling for p in pts)), None)
        if perturb is None:
            return None
        steps.append(perturb)
        pts = [boundary_act(perturb.letters, p) for p in pts]
    e0 = _axis_exponent(pts[0])
    pairs = [(_axis_exponent(q), common_prefix_depth(pts[0], q)) for q in pts[1:]]
    # each pair's a: the least k with |k + e0| + d - |e0| >= target for equal
    # exponents (a pair at EQUAL depth always holds), k + min(e0, e) >= target
    # for unequal ones
    cands = {0}
    for e, d in pairs:
        if e != e0:
            cands.add(target - min(e0, e))
        elif d != EQUAL:
            cands.add(target - d + abs(e0) - e0)
    for k in sorted(k for k in cands if 0 <= k <= budget - len(steps)):
        if all(_axis_pair_depth(k, e0, e, d) >= target for e, d in pairs):
            return steps + [g] * k
    return None


def contract_measure(
    nu: AtomicMeasure,
    target_depth: int,
    budget: int,
    strategy: Optional[str] = None,
) -> Optional[ContractionCertificate]:
    """Search for a certificate concentrating nu to the target cylinder depth.

    The measure's space picks the strategy, and both are exact:

    * ``axis-power`` (boundary measures): powers of a single generator, with a
      deterministic perturbation when an atom sits at its repelling end.
    * ``fiber-lift`` (induced measures supported in one fiber): contract
      the fiber measure with axis-power in the fiber free group, then lift
      every step lam to t_i lam t_i^-1, which fixes the coset and replays the
      fiber motion exactly.

    ``strategy`` only asserts that choice: a value other than None or the
    space's own strategy raises ValueError.  The search only finds the
    steps; the certificate's claim is read off the measure pushed through
    them, as :func:`replay` does.  Returns None when the budget runs out
    (inconclusive, never a disproof).
    """
    if isinstance(nu.space, FiniteSpace):
        raise ValueError("finite-space measures use the exhaustive orbit engine")
    if target_depth < 1:
        raise ValueError("target_depth must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    induced = isinstance(nu.space, InducedSpace)
    if strategy not in (None, "fiber-lift" if induced else "axis-power"):
        raise ValueError(f"strategy: {strategy!r} does not fit a {type(nu.space).__name__} measure")
    if induced:
        steps = _contract_fiber_lift(nu, target_depth, budget)
    else:
        steps = _axis_power_steps(nu.support(), nu.space.rank, target_depth, budget)
    if steps is None:
        return None
    final, depth, coset = _push_through(nu, steps)
    if depth < target_depth:
        return None
    return ContractionCertificate(
        tuple(steps), target_depth, coset, shared_prefix(final, target_depth)
    )


def _contract_fiber_lift(nu, target, budget):
    space = nu.space
    cosets = {p[0] for p, _ in nu.atoms}
    if len(cosets) != 1:
        raise ValueError("measure: fiber-lift needs a fiber-supported measure")
    i = next(iter(cosets))
    fiber_pts = [p[1] for p, _ in nu.atoms]
    fsteps = _axis_power_steps(fiber_pts, space.fiber.rank, target, budget)
    if fsteps is None:
        return None
    # at most two distinct steps, keyed by their letters: a Word hashes in Python
    lifts = {ls: space.lift(i, w) for ls, w in {w.letters: w for w in fsteps}.items()}
    return [lifts[w.letters] for w in fsteps]


def steer_into_cylinder(nu: AtomicMeasure, cylinder: tuple[int, ...]) -> Word:
    """A word carrying every atom of a concentrated boundary measure into the
    given cylinder.

    Requires a boundary-space measure whose atoms already share a prefix of
    length >= 1.  With shared prefix w and target cylinder c, the element
    c.s.w^-1 works once the separator s is chosen so that c.s stays reduced
    and s cannot cancel against any atom tail; s = last letter of w always
    survives the tails, and a second buffer letter handles the one clash with
    the end of c.
    """
    space = nu.space
    if not isinstance(space, BoundarySpace):
        raise ValueError("steering works on boundary-space measures")
    if not cylinder:
        raise ValueError("target cylinder must be nonempty")
    depth, _ = concentration(nu)
    q = 1 if depth == EQUAL else int(depth)
    if q < 1:
        raise ValueError("measure is not concentrated (no shared prefix)")
    w = shared_prefix(nu, q)
    wl = w[-1]
    if wl != -cylinder[-1]:
        seps: tuple[int, ...] = (wl,)
    else:
        x = next(
            l for l in alphabet(FreeGroup(space.rank)) if l not in (wl, -wl)
        )
        seps = (x, wl)
    letters = cylinder + seps + tuple(-v for v in reversed(w))
    return Word(space.ambient, reduce_letters(letters))


# -- samplers -------------------------------------------------------------------------

def random_walk_letters(rng: random.Random, rank: int, max_len: int) -> tuple[int, ...]:
    """A reduced word of length <= max_len, drawn letterwise without backtracking."""
    length = rng.randint(0, max_len)
    letters: list[int] = []
    choices = list(alphabet(FreeGroup(rank)))
    for _ in range(length):
        allowed = [l for l in choices if not letters or l != -letters[-1]]
        letters.append(rng.choice(allowed))
    return tuple(letters)


def sample_boundary_point(rng: random.Random, rank: int) -> BoundaryPoint:
    base = boundary_point((), (1,))
    return boundary_act(random_walk_letters(rng, rank, WALK_LEN), base)


def _distinct_draws(natoms: int, draw) -> list:
    """Up to natoms distinct results of ``draw()``, giving up after 50 * natoms draws."""
    pts: list = []
    tries = 0
    while len(pts) < natoms and tries < 50 * natoms:
        p = draw()
        if p not in pts:
            pts.append(p)
        tries += 1
    return pts


def _random_weights(space, pts, rng: random.Random) -> AtomicMeasure:
    """The measure on pts with weights proportional to draws from 1..MAX_DENOM."""
    nums = [rng.randint(1, MAX_DENOM) for _ in pts]
    total = sum(nums)
    return atomic_measure(space, [(p, Fraction(num, total)) for p, num in zip(pts, nums)])


def sample_boundary_measure(
    space: BoundarySpace, rng: random.Random, max_atoms: int
) -> AtomicMeasure:
    """Walk-generated atoms, random rational weights."""
    pts = _distinct_draws(
        rng.randint(1, max_atoms), lambda: sample_boundary_point(rng, space.rank)
    )
    return _random_weights(space, pts, rng)


def sample_fiber_measure(
    space: InducedSpace, coset: int, rng: random.Random, max_atoms: int
) -> AtomicMeasure:
    """The fiber boundary's :func:`sample_boundary_measure`, placed over
    ``coset``: its atoms stay distinct and sorted, so they are not re-checked."""
    nu = sample_boundary_measure(space.fiber, rng, max_atoms)
    return AtomicMeasure(space, tuple(((coset, y), w) for y, w in nu.atoms))


def sample_spread_measure(
    space: InducedSpace, rng: random.Random, max_atoms: int
) -> AtomicMeasure:
    """A measure guaranteed to touch at least two cosets (needs index >= 2)."""
    n = space.table.size
    if n < 2:
        raise ValueError("spread measures need at least two cosets")
    pts = _distinct_draws(
        max(2, rng.randint(2, max(2, max_atoms))),
        lambda: (rng.randint(1, n), sample_boundary_point(rng, space.fiber.rank)),
    )
    cosets = {p[0] for p in pts}
    if len(cosets) == 1:
        other = 1 + (pts[0][0] % n)
        pts[-1] = (other, pts[-1][1])
    return _random_weights(space, pts, rng)


# -- minimality ------------------------------------------------------------------------

def _sweep(space: InducedSpace, movers: Sequence[Word], starts, depth: int) -> set:
    """The (coset, depth-d fiber cylinder) of every mover's image of every
    start, acting start by start; ``starts`` may be drawn lazily."""
    return {(j, y.expand(depth)) for x in starts for j, y in (space.act(w, x) for w in movers)}


def check_minimal_finite(space: FiniteSpace) -> CheckReport:
    """Transitivity of the generator action; FAIL carries an invariant subset."""
    orbit = space.orbit(1)
    if len(orbit) == space.size:
        verdict, evidence = PASS, [{"orbit_size": space.size}]
    else:
        verdict = FAIL
        evidence = [{"invariant_subset": sorted(orbit)}]
    return CheckReport(
        check="minimal-finite",
        verdict=verdict,
        parameters={"size": space.size},
        seed=None,
        evidence=evidence,
        truncation={},
    )


def check_minimal_symbolic(space: InducedSpace, depth: int, radius: int, samples: int,
                           seed: int) -> CheckReport:
    """Orbit density proxy on an induced space: from seeded start points, the
    radius-R ball (at most ``COVERAGE_BALL_CAP`` words) must visit every coset
    and, in it, every depth-d fiber cylinder.

    Incomplete coverage is INCONCLUSIVE: density cannot be refuted at finite
    radius.
    """
    if depth < 0 or radius < 0 or samples < 1:
        raise ValueError("depth, radius >= 0 and samples >= 1 required")
    n = space.size
    cyls = space.fiber.cylinders(depth, COVERAGE_BALL_CAP // n)
    targets = {(i, c) for i in range(1, n + 1) for c in cyls}
    ballwords = cached_ball(space.ambient, radius, COVERAGE_BALL_CAP)
    evidence = []
    complete = True
    for idx in range(samples):
        rng = random.Random(seed ^ idx)
        start = (rng.randint(1, n), sample_boundary_point(rng, space.fiber.rank))
        hit = _sweep(space, ballwords, [start], depth)
        missing = targets - hit
        if missing:
            complete = False
        evidence.append(
            {
                "start": point_to_json(start),
                "covered": len(hit & targets),
                "total": len(targets),
                "missing": sorted(f"({i}, {letters_to_str(c)})" for i, c in missing)[:20],
            }
        )
    return CheckReport(
        check="minimal-symbolic",
        verdict=_verdict(False, not complete),
        parameters={"depth": depth, "radius": radius, "samples": samples},
        seed=seed,
        evidence=evidence,
        truncation={"ball_radius": radius, "ball_cap": COVERAGE_BALL_CAP},
    )


# -- finite orbit oracle ------------------------------------------------------------

def finite_contractible(space: FiniteSpace, nu: AtomicMeasure) -> CheckReport:
    """Exhaustive orbit of a finite-space measure; PASS iff a Dirac appears.

    Permutations preserve the weight multiset, so only a Dirac measure can
    reach a Dirac; the engine still enumerates the whole orbit rather than
    assume that argument.
    """
    if nu.space != space:
        raise ValueError("measure does not live on the given space")

    def image(atoms, l):
        return tuple(sorted(((space.act_letter(l, p), w) for p, w in atoms),
                            key=lambda kv: kv[0]))

    seen = shortlex_bfs(space.ambient, nu.atoms, image)
    dirac_found = any(len(atoms) == 1 for atoms in seen)
    orbit_json = [
        [{"point": p, "weight": str(w)} for p, w in atoms] for atoms in sorted(seen)
    ]
    return CheckReport(
        check="finite-contractible",
        verdict=PASS if dirac_found else FAIL,
        parameters={"atoms": len(nu.atoms)},
        seed=None,
        evidence=[{"orbit_size": len(seen), "orbit": orbit_json[:50]}],
        truncation={},
    )


# -- strongly proximal extension check ------------------------------------------------

def check_finite_extension(phi: ExtensionMap) -> CheckReport:
    """Exhaustive sp-extension verdict for a finite extension: equivariance,
    surjectivity, then a uniform-measure witness on every multi-point fiber."""
    src, tgt = phi.source, phi.target

    def report(verdict, evidence):
        return CheckReport(
            check="sp-extension",
            verdict=verdict,
            parameters={"source_size": src.size, "target_size": tgt.size},
            seed=None,
            evidence=evidence,
            truncation={},
        )

    letters = alphabet(src.ambient)
    for y in src.points():
        for l in letters:
            left = phi.apply(src.act_letter(l, y))
            right = tgt.act_letter(l, phi.apply(y))
            if left != right:
                return report(FAIL, [
                    {
                        "violation": "equivariance",
                        "letter": letters_to_str((l,)),
                        "point": y,
                        "map_then_act": right,
                        "act_then_map": left,
                    }
                ])
    image = {phi.apply(y) for y in src.points()}
    if image != set(tgt.points()):
        return report(FAIL, [{"violation": "surjectivity",
                              "missed": sorted(set(tgt.points()) - image)}])
    fibers: dict[int, list[int]] = {}
    for y in src.points():
        fibers.setdefault(phi.apply(y), []).append(y)
    evidence = []
    all_pass = True
    for x in sorted(fibers):
        fib = fibers[x]
        if len(fib) == 1:
            evidence.append({"base_point": x, "fiber": fib, "note": "singleton fiber: every fiber measure is a point mass"})
            continue
        uniform = atomic_measure(
            src, [(y, Fraction(1, len(fib))) for y in fib]
        )
        rep = finite_contractible(src, uniform)
        evidence.append(
            {
                "base_point": x,
                "fiber": fib,
                "witness_measure": measure_to_json(uniform),
                "orbit_verdict": rep.verdict,
                "orbit_size": rep.evidence[0]["orbit_size"],
            }
        )
        if rep.verdict != PASS:
            all_pass = False
    return report(PASS if all_pass else FAIL, evidence)


def _fiber_sample(space: InducedSpace, idx: int, seed: int, max_atoms: int):
    """(coset, measure): sample idx, drawn from Random(seed ^ idx) in the fiber
    over coset 1 + idx % n."""
    coset = 1 + idx % space.size
    return coset, sample_fiber_measure(space, coset, random.Random(seed ^ idx), max_atoms)


def _certify(entry: dict, nu: AtomicMeasure, target_depth: int, steps: int):
    """Contract nu within ``steps`` steps, replay the certificate, and record
    both in the evidence entry.  Returns replay's (ok, detail), or (None, None)
    when the budget runs out."""
    cert = contract_measure(nu, target_depth, steps)
    if cert is None:
        entry["certificate"] = None
        return None, None
    ok, detail, _ = replay(nu, cert)
    entry["certificate"] = cert.to_json()
    entry["replay_ok"] = ok
    return ok, detail


def check_sp_extension(phi: ExtensionMap, max_atoms: int, samples: int, seed: int,
                       target_depth: int, steps: int) -> CheckReport:
    """Contract seeded fiber-supported measures through an induced extension:
    every sampled measure must earn a replay-verified certificate within
    ``steps`` steps (INCONCLUSIVE when a search exhausts them).  A finite
    extension is decided by :func:`check_finite_extension`.
    """
    if max_atoms < 1 or samples < 1:
        raise ValueError("max_atoms and samples >= 1 required")
    evidence = []
    failed = inconclusive = False
    for idx in range(samples):
        coset, nu = _fiber_sample(phi.source, idx, seed, max_atoms)
        entry = {"sample": idx, "coset": coset, "measure": measure_to_json(nu)}
        ok, detail = _certify(entry, nu, target_depth, steps)
        if ok is None:
            inconclusive = True
        else:
            entry["replay"] = detail
            failed = failed or not ok
        evidence.append(entry)
    return CheckReport(
        check="sp-extension",
        verdict=_verdict(failed, inconclusive),
        parameters={
            "max_atoms": max_atoms,
            "samples": samples,
            "target_depth": target_depth,
            "budget": steps,
            "strategy": "fiber-lift",
        },
        seed=seed,
        evidence=evidence,
        truncation={"target_depth": target_depth, "budget_steps": steps},
    )


def check_contraction_lifting(phi: ExtensionMap, max_atoms: int, samples: int, seed: int,
                              target_depth: int, steps: int, depth: int,
                              radius: int) -> CheckReport:
    """Two-way consistency between base contraction and fiber contraction.

    Sampled measures whose base push-forward is a point mass must contract;
    measures spread over several cosets carry no obligation and are recorded
    as such.  The source must also pass symbolic minimality coverage
    (``LIFTING_COVERAGE_SAMPLES`` starts), and the finite base must be minimal
    to begin with.
    """
    if depth < 0 or radius < 0 or max_atoms < 1 or samples < 1:
        raise ValueError("depth, radius >= 0 and max_atoms, samples >= 1 required")
    base_report = check_minimal_finite(phi.target)
    if base_report.verdict != PASS:
        return CheckReport(
            check="contraction-lifting",
            verdict=FAIL,
            parameters={"reason": "base space is not minimal"},
            seed=seed,
            evidence=base_report.evidence,
            truncation={},
        )
    space = phi.source
    minimal_report = check_minimal_symbolic(
        space, depth, radius, LIFTING_COVERAGE_SAMPLES, seed
    )
    evidence = []
    failed = budget_hit = False
    for idx in range(samples):
        fiber = idx % 2 == 0 or space.size < 2
        if fiber:
            _, nu = _fiber_sample(space, idx, seed, max_atoms)
        else:
            nu = sample_spread_measure(space, random.Random(seed ^ idx), max_atoms)
        # nu lies in one fiber exactly when its push-forward is a point mass
        dirac = pushforward_map(phi, nu).is_dirac
        entry = {
            "sample": idx,
            "kind": "fiber-supported" if fiber else "spread",
            "pushforward_dirac": dirac,
            "measure": measure_to_json(nu),
        }
        if not fiber:
            entry["note"] = "no contraction obligation"
        if dirac != fiber:
            failed = True
            entry["violation"] = ("fiber-supported sample has non-Dirac push-forward" if fiber
                                  else "spread sample unexpectedly fiber-supported")
        elif fiber:
            ok, _ = _certify(entry, nu, target_depth, steps)
            budget_hit = budget_hit or ok is None
            failed = failed or ok is False
        evidence.append(entry)
    return CheckReport(
        check="contraction-lifting",
        verdict=_verdict(failed, budget_hit or minimal_report.verdict != PASS),
        parameters={
            "max_atoms": max_atoms,
            "samples": samples,
            "target_depth": target_depth,
            "budget": steps,
            "coverage": minimal_report.verdict,
        },
        seed=seed,
        evidence=evidence,
        truncation={"target_depth": target_depth, "budget_steps": steps,
                    "coverage_radius": radius},
    )


# -- fiber decomposition ---------------------------------------------------------------

def decompose_fibers(phi: ExtensionMap, radius: int, depth: int, samples: int,
                     seed: int) -> CheckReport:
    """Fiber partition of an induced extension with stabilizer bookkeeping.

    For each base point i: the point stabilizer (from orbit Schreier
    generators) must equal t_i H t_i^-1, read as membership both ways in the
    two coset tables (so its index is n); translation by t_j t_i^-1 must
    carry fiber i to fiber j; stabilizer elements must fix the fiber
    setwise; and the lifts of the fiber's radius-R ball (at most
    ``COVERAGE_BALL_CAP`` words) must cover the depth-d fiber cylinders from
    sampled starts.
    The coset of g.(i, y) is the coset of g t_i whatever y is, so transport
    and setwise invariance are read once each, at one fixed fiber point.
    Invariance is read from the lifts of the fiber's basis letters: lifting
    is a homomorphism and the coset action a group action, so the lifted
    subgroup they generate fixes fiber i exactly when they do.
    """
    if not isinstance(phi.source, InducedSpace):
        raise ValueError("fiber decomposition expects an induced source")
    if depth < 0 or radius < 0 or samples < 1:
        raise ValueError("depth, radius >= 0 and samples >= 1 required")
    base = phi.target
    if not base.is_transitive():
        raise ValueError("base space is not minimal")
    space = phi.source
    table = space.table
    sub = table.subgroup
    n = table.size
    rank = space.fiber.rank
    fiber_ctx = FreeGroup(rank)
    cyls = set(space.fiber.cylinders(depth, COVERAGE_BALL_CAP))
    ballwords = cached_ball(fiber_ctx, radius, COVERAGE_BALL_CAP)
    y0 = boundary_point((), (1,))
    evidence = []
    all_ok = True
    coverage_ok = True
    for i in range(1, n + 1):
        t_i = table.rep(i)
        stab = stabilizer_subgroup(base, i)
        t_inv = t_i.inverse()
        try:
            stab_table = enumerate_cosets(stab, max_cosets=4 * n + 4)
        except InfiniteIndexError:  # so stab is not t_i H t_i^-1, of index n
            stab_table = None
        tables_match = stab_table is not None and (
            all(stab_table.coset_of(t_i * h * t_inv) == 1 for h in sub.generators)
            and all(table.coset_of(t_inv * s * t_i) == 1 for s in stab.generators))

        transport_ok = all(space.act(table.rep(j) * t_inv, (i, y0))[0] == j
                           for j in range(1, n + 1))
        invariance_ok = all(space.act(space.lift(i, Word(fiber_ctx, (k,))), (i, y0))[0] == i
                            for k in range(1, rank + 1))

        rng = random.Random(seed ^ i)
        starts = ((i, sample_boundary_point(rng, rank)) for _ in range(samples))
        images = _sweep(space, [space.lift(i, w) for w in ballwords], starts, depth)
        invariance_ok = invariance_ok and all(j == i for j, _ in images)
        hit = {c for j, c in images if j == i}
        fiber_covered = cyls <= hit

        entry = {
            "base_point": i,
            "fiber": f"coset {i} x rank-{rank} boundary",
            "stabilizer_generators": [g.to_str() for g in stab.generators],
            "stabilizer_index": stab_table.size if stab_table else None,
            "matches_conjugate": tables_match,
            "transport_ok": transport_ok,
            "invariance_ok": invariance_ok,
            "fiber_coverage": f"{len(hit & cyls)}/{len(cyls)}",
        }
        evidence.append(entry)
        if not (tables_match and transport_ok and invariance_ok):
            all_ok = False
        if not fiber_covered:
            coverage_ok = False
    return CheckReport(
        check="decompose-fibers",
        verdict=_verdict(not all_ok, not coverage_ok),
        parameters={"fibers": n, "depth": depth, "radius": radius, "samples": samples},
        seed=seed,
        evidence=evidence,
        truncation={"ball_radius": radius},
    )


# -- amenable degenerate case -------------------------------------------------------

def amenable_size_check(base: FiniteSpace, candidates: Sequence[dict]) -> CheckReport:
    """Finite ambient group: extensions pass exactly when every fiber is a point.

    Each candidate is {"name", "space": FiniteSpace, "projection": tuple};
    the meta-check PASSes iff the exhaustive per-candidate verdicts match the
    all-singleton-fibers prediction (source size == base size).
    """
    if not isinstance(base.ambient, PermutationGroup):
        raise ValueError("the size dichotomy check is for finite ambient groups")
    evidence = []
    meta_ok = True
    for cand in candidates:
        name = cand["name"]
        space = cand["space"]
        phi = ExtensionMap(space, base, tuple(cand["projection"]))
        rep = check_finite_extension(phi)
        expected = PASS if space.size == base.size else FAIL
        entry = {
            "candidate": name,
            "size": space.size,
            "expected": expected,
            "verdict": rep.verdict,
            "detail": rep.evidence,
        }
        evidence.append(entry)
        if rep.verdict != expected:
            meta_ok = False
    return CheckReport(
        check="amenable-size",
        verdict=PASS if meta_ok else FAIL,
        parameters={"base_size": base.size, "candidates": len(candidates)},
        seed=None,
        evidence=evidence,
        truncation={},
    )
