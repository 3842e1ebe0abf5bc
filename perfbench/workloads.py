"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` and runs one
closed-loop op per :meth:`op` call.  An op returns a list of failure messages
(empty when every output checked out).  The library is reached only through
module attributes looked up at call time (``cosets.enumerate_cosets(...)``), so
the tracer's rebinding of those names sees every call.

Inputs are drawn in a fixed pool per seed and ops cycle through it.  At the
default seed every op's outputs are compared with the committed golden
digests; at every seed the invariants named in each op are checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from boundarylab import checks, cosets, measures, scenario, spaces, words

DEFAULT_SEED = 0

# Per-size shapes.  "tiny" keeps every code path at toy sizes for smoke tests.
SIZES = {
    "full": {
        "setup_reps": 3,
        "scenarios": None,  # every bundled scenario
        "kernels": ((2, 48), (2, 64), (2, 96), (2, 96), (3, 48)),
        "infinite_n": 64,
        "coset_rounds": 8,
        "coset_target": 20,
        "coset_budget": 64,
        "deep_pool": 40,
        "deep_target": 256,
        "deep_budget": 1024,
        "ball_pool": 20,
        "ball_radius": 5,
        "defect_radius": 7,
        "defect_depth": 4,
    },
    "tiny": {
        "setup_reps": 1,
        "scenarios": ("f2-index3", "s3-amenable", "z4-amenable"),
        "kernels": ((2, 6), (2, 8), (2, 12), (2, 12), (3, 6)),
        "infinite_n": 8,
        "coset_rounds": 1,
        "coset_target": 8,
        "coset_budget": 32,
        "deep_pool": 10,
        "deep_target": 24,
        "deep_budget": 96,
        "ball_pool": 4,
        "ball_radius": 3,
        "defect_radius": 4,
        "defect_depth": 2,
    },
}

FIBER_MEASURES_PER_SUBGROUP = 4


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cert_letters(cert):
    """A certificate as plain letter tuples (serializable at any rank)."""
    if cert is None:
        return None
    return {
        "steps": [list(s.letters) for s in cert.steps],
        "achieved_depth": cert.achieved_depth,
        "limit_coset": cert.limit_coset,
        "limit_cylinder": list(cert.limit_cylinder),
    }


# -- input generation -------------------------------------------------------------

def reduced_walk(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    letters: list[int] = []
    for _ in range(length):
        while True:
            l = rng.randint(1, rank) * rng.choice((1, -1))
            if not letters or l != -letters[-1]:
                break
        letters.append(l)
    return tuple(letters)


def random_boundary_point(rng: random.Random, rank: int):
    """prefix . period^inf with a cyclically reduced period of length 1..3."""
    prefix = reduced_walk(rng, rank, rng.randint(0, 8))
    while True:
        period = reduced_walk(rng, rank, rng.randint(1, 3))
        if len(period) == 1 or period[0] != -period[-1]:
            break
    return spaces.boundary_point(prefix, period)


def distinct_points(rng: random.Random, rank: int, count: int) -> list:
    pts: list = []
    while len(pts) < count:
        p = random_boundary_point(rng, rank)
        if p not in pts:
            pts.append(p)
    return pts


def rational_weights(rng: random.Random, count: int) -> list[Fraction]:
    nums = [rng.randint(1, 64) for _ in range(count)]
    total = sum(nums)
    return [Fraction(n, total) for n in nums]


def kernel_generators(rank: int, phi: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Schreier generators t_j^-1 x t_i (t_i = a^i) of the kernel of F_rank -> Z/n,
    x -> phi(x); the trivial ones are dropped.  a^n is the one with x = a, i = n-1."""
    gens = []
    for x in range(1, rank + 1):
        for i in range(n):
            j = (i + phi[x - 1]) % n
            s = words.reduce_letters((-1,) * j + (x,) + (1,) * i)
            if s:
                gens.append(s)
    return gens


class Workload:
    name = ""
    round_len = 1  # ops per round: one of each input shape; timed runs end on a round
    trace_ops = 1  # ops in the traced run's fixed op list

    def __init__(self, size: str = "full", golden: dict | None = None) -> None:
        self.cfg = SIZES[size]
        self.golden = golden  # key -> digest, or None to skip the comparison
        self.pool: list = []
        self.last_digests: dict[str, str] = {}  # key -> digest of the latest op

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> list[str]:
        raise NotImplementedError

    def record(self, key: str, value: str, fails: list[str]) -> None:
        """Compare one output digest with the golden one (default seed only)."""
        self.last_digests[key] = value
        if self.golden is None:
            return
        want = self.golden.get(key)
        if want != value:
            fails.append(f"{self.name}[{key}]: digest {value[:12]} != golden {str(want)[:12]}")


# -- scenario-suite ------------------------------------------------------------------

class ScenarioSuite(Workload):
    """All bundled scenarios through run_scenario, then every stored
    sp-extension certificate re-verified from the serialized report."""

    name = "scenario-suite"

    def setup(self, seed: int) -> None:
        names = self.cfg["scenarios"] or scenario.bundled_scenario_names()
        rng = random.Random(seed)
        self.pool = []
        for name in names:
            raw = json.loads(json.dumps(scenario.load_bundled_scenario(name).raw))
            if seed != DEFAULT_SEED:
                raw["seed"] = rng.randrange(1, 2**31)
            self.pool.append((name, raw))
        self.first_bytes: dict[str, str] = {}

    def op(self, i: int) -> list[str]:
        fails: list[str] = []
        for name, raw in self.pool:
            sc = scenario.scenario_from_dict(raw)
            text = scenario.report_json_text(scenario.run_scenario(sc), include_timing=False)
            value = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.record(name, value, fails)
            first = self.first_bytes.setdefault(name, value)
            if first != value:
                fails.append(f"{name}: report bytes differ between passes of one run")
            data = json.loads(text)
            for entry in data["checks"]:
                if entry["verdict"] == "FAIL":
                    fails.append(f"{name}: check {entry['id']} FAILed")
                if not entry["id"].endswith("sp-extension"):
                    continue
                for k, item in enumerate(entry["evidence"]):
                    if not item.get("certificate"):
                        continue
                    verdict, _ = scenario.replay_certificate(data, entry["id"], k)
                    if verdict != "PASS":
                        fails.append(f"{name}: certificate {entry['id']}#{k} replayed {verdict}")
        return fails


# -- coset-scale ---------------------------------------------------------------------

class CosetScale(Workload):
    """Coset enumeration and Schreier basis of seeded high-index kernels, then
    fiber-lift contraction and replay of seeded fiber measures on the induced
    space.  Each round also has one input with a^n removed (infinite index)."""

    name = "coset-scale"

    def setup(self, seed: int) -> None:
        cfg = self.cfg
        rng = random.Random(seed)
        self.round_len = self.trace_ops = len(cfg["kernels"]) + 1
        self.pool = []
        for _ in range(cfg["coset_rounds"]):
            for rank, n in cfg["kernels"]:
                phi = (1, 0) if rank == 2 else (1,) + tuple(rng.randrange(n) for _ in range(rank - 1))
                self.pool.append(self._input(rng, rank, phi, n, infinite=False))
            self.pool.append(self._input(rng, 2, (1, 0), cfg["infinite_n"], infinite=True))

    def _input(self, rng, rank, phi, n, infinite):
        ctx = words.FreeGroup(rank)
        gens = kernel_generators(rank, phi, n)
        if infinite:
            gens.remove((1,) * n)
        rng.shuffle(gens)
        # redundant products of existing generators; they keep the subgroup
        for _ in range(4):
            gens.append(gens[rng.randrange(len(gens))] + gens[rng.randrange(len(gens))])
        gen_words = tuple(words.word(ctx, g) for g in gens)
        fiber_rank = 1 + n * (rank - 1)
        fibers = []
        for _ in range(FIBER_MEASURES_PER_SUBGROUP):
            count = rng.randint(2, 5)
            fibers.append(
                (rng.randint(1, n), distinct_points(rng, fiber_rank, count),
                 rational_weights(rng, count))
            )
        return {"ctx": ctx, "n": n, "rank": rank, "infinite": infinite,
                "gens": gen_words, "fibers": fibers}

    def op(self, i: int) -> list[str]:
        item = self.pool[i % len(self.pool)]
        key = str(i % len(self.pool))
        fails: list[str] = []
        n, rank = item["n"], item["rank"]
        handle = cosets.subgroup(item["ctx"], item["gens"])
        try:
            table = cosets.enumerate_cosets(handle)
        except cosets.InfiniteIndexError:
            if not item["infinite"]:
                fails.append(f"{self.name}[{key}]: finite-index input raised InfiniteIndexError")
            self.record(key, digest("infinite"), fails)
            return fails
        if item["infinite"]:
            fails.append(f"{self.name}[{key}]: infinite-index input gave a table")
            return fails
        if table.size != n:
            fails.append(f"{self.name}[{key}]: index {table.size} != {n}")
        basis = cosets.schreier_basis(table)
        if basis.rank != 1 + n * (rank - 1):
            fails.append(f"{self.name}[{key}]: Schreier rank {basis.rank}")
        space = spaces.induced_space(table, basis)
        target = self.cfg["coset_target"]
        certs = []
        for coset, pts, weights in item["fibers"]:
            nu = measures.atomic_measure(space, [((coset, p), w) for p, w in zip(pts, weights)])
            cert = checks.contract_measure(nu, target, self.cfg["coset_budget"], strategy="fiber-lift")
            fails.extend(check_certificate(self.name, key, nu, cert, target))
            certs.append(cert_letters(cert))
        self.record(key, digest({"table": table.to_json(), "certificates": certs}), fails)
        return fails


def check_certificate(name, key, nu, cert, target) -> list[str]:
    """A certificate must exist, claim the target depth, and replay PASS."""
    if cert is None:
        return [f"{name}[{key}]: contraction INCONCLUSIVE within budget"]
    if cert.achieved_depth != target:
        return [f"{name}[{key}]: certificate claims depth {cert.achieved_depth} != {target}"]
    ok, _, _ = checks.replay(nu, cert)
    return [] if ok else [f"{name}[{key}]: certificate replay FAIL"]


# -- shared: the bundled f2 induced spaces ------------------------------------------

def bundled_induced_space(name: str):
    sc = scenario.load_bundled_scenario(name)
    table = cosets.enumerate_cosets(cosets.subgroup(sc.group, sc.subgroup_words))
    return spaces.induced_space(table, cosets.schreier_basis(table))


# -- deep-contraction ----------------------------------------------------------------

class DeepContraction(Workload):
    """Few points, long words: fiber-lift to a deep target on the f2-index2 and
    f2-index3 induced spaces, then replay."""

    name = "deep-contraction"
    round_len = trace_ops = 10

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        induced = [bundled_induced_space("f2-index2"), bundled_induced_space("f2-index3")]
        self.pool = []
        for k in range(self.cfg["deep_pool"]):
            space = induced[k % 2]
            count = 2 + (k // 2) % 5  # every (space, 2..6 atoms) pair in each 10 inputs
            pts = distinct_points(rng, space.fiber.rank, count)
            coset = rng.randint(1, space.size)
            self.pool.append(measures.atomic_measure(
                space, [((coset, p), w) for p, w in zip(pts, rational_weights(rng, count))]
            ))

    def op(self, i: int) -> list[str]:
        nu = self.pool[i % len(self.pool)]
        key = str(i % len(self.pool))
        target = self.cfg["deep_target"]
        cert = checks.contract_measure(nu, target, self.cfg["deep_budget"], strategy="fiber-lift")
        fails = check_certificate(self.name, key, nu, cert, target)
        self.record(key, digest(cert_letters(cert)), fails)
        return fails


# -- ball-sweep ------------------------------------------------------------------------

class BallSweep(Workload):
    """Many short ball words on few points: minimality coverage on the f2-index2
    induced space, then the Poisson-transform isometry defect of a boundary
    measure and a cylinder function."""

    name = "ball-sweep"
    trace_ops = 10

    def setup(self, seed: int) -> None:
        cfg = self.cfg
        rng = random.Random(seed)
        self.space = bundled_induced_space("f2-index2")
        boundary = spaces.BoundarySpace(2)
        depth = cfg["defect_depth"]
        cylinders = [w for w in words.ball(words.FreeGroup(2), depth) if len(w) == depth]
        self.pool = []
        for _ in range(cfg["ball_pool"]):
            pts = distinct_points(rng, 2, 5)
            nu = measures.atomic_measure(boundary, list(zip(pts, rational_weights(rng, 5))))
            values = {w.letters: rng.randint(-8, 8) / 8 for w in cylinders}
            values[cylinders[rng.randrange(len(cylinders))].letters] = 1.0  # norm 1
            f = measures.CylinderFunction(2, depth, values)
            self.pool.append((rng.randrange(2**31), nu, f))

    def op(self, i: int) -> list[str]:
        start_seed, nu, f = self.pool[i % len(self.pool)]
        key = str(i % len(self.pool))
        fails: list[str] = []
        rep = checks.check_minimal_symbolic(self.space, 2, self.cfg["ball_radius"], 1, start_seed)
        ev = rep.evidence[0]
        if rep.verdict not in ("PASS", "INCONCLUSIVE") or ev["covered"] > ev["total"]:
            fails.append(f"{self.name}[{key}]: coverage verdict {rep.verdict} {ev['covered']}/{ev['total']}")
        defect = measures.isometry_defect(nu, f, self.cfg["defect_radius"])
        if not 0.0 <= defect <= f.norm():
            fails.append(f"{self.name}[{key}]: defect {defect!r} outside [0, ||f||]")
        self.record(key, digest({"coverage": rep.to_json(), "defect": repr(defect)}), fails)
        return fails


WORKLOADS = {w.name: w for w in (ScenarioSuite, CosetScale, DeepContraction, BallSweep)}
