"""Finitely supported probability measures with exact push-forward, cylinder
functions, and the ball-truncated Poisson transform.

Weights are exact rationals and the mass sums to 1 on the nose; there is no
tolerance.  A weight given as a Python float is taken at its exact binary
value, and a JSON number at the exact decimal it spells.  Push-forward under a
group element maps atoms pointwise and merges coincident images by adding
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence, Union

from .cosets import rewrite_in_basis
from .spaces import (
    BoundaryPoint,
    BoundarySpace,
    ExtensionMap,
    FiniteSpace,
    InducedSpace,
    induced_point_to_str,
    parse_boundary_point,
    parse_induced_point,
)
from .words import DEFAULT_BALL_CAP, Word, alphabet, check_ball_size


@dataclass(frozen=True)
class AtomicMeasure:
    """Probability measure with finitely many atoms on a fixed space."""

    space: Union[FiniteSpace, BoundarySpace, InducedSpace]
    atoms: tuple[tuple[object, Fraction], ...]

    def support(self) -> tuple:
        return tuple(p for p, _ in self.atoms)

    @property
    def is_dirac(self) -> bool:
        return len(self.atoms) == 1


def atomic_measure(space, pairs) -> AtomicMeasure:
    """Validate the weights and their total mass, then merge and sort as
    :func:`_merged` does."""
    checked = []
    for p, w in pairs:
        if not isinstance(w, Fraction):
            w = Fraction(w)
        if w <= 0:
            raise ValueError("atom weights must be positive")
        checked.append((p, w))
    if not checked:
        raise ValueError("a probability measure needs at least one atom")
    total = sum(w for _, w in checked)
    if total != 1:
        raise ValueError(f"atom weights sum to {total}, not 1")
    return _merged(space, checked)


def _merged(space, pairs) -> AtomicMeasure:
    """The measure of (point, positive Fraction) pairs of total mass 1, taken
    as valid: coincident points merge by adding weights, and the atoms sort
    canonically."""
    merged: dict = {}
    for p, w in pairs:
        merged[p] = merged.get(p, 0) + w
    # points order themselves; an induced (i, y) sorts by coset first
    return AtomicMeasure(space, tuple(sorted(merged.items(), key=lambda kv: kv[0])))


def dirac(space, p) -> AtomicMeasure:
    return AtomicMeasure(space, ((p, Fraction(1)),))


def pushforward_group(gamma: Word, nu: AtomicMeasure) -> AtomicMeasure:
    """Image measure under the action of a group element (mass preserved).

    On an induced space the atoms of one coset i share the move
    ``(j, beta(gamma, i))``, so gamma is rewritten once per run of atoms in
    one coset (atoms sort by coset first) and each fiber point moves by beta
    through the fiber's action, as :meth:`InducedSpace.act` moves one point.
    The image of a valid measure is valid, so its weights are not re-checked.
    """
    space = nu.space
    if not isinstance(space, InducedSpace):
        return _merged(space, [(space.act(gamma, p), w) for p, w in nu.atoms])
    fiber, pairs = space.fiber, []
    for i, atoms in groupby(nu.atoms, key=lambda atom: atom[0][0]):
        j, beta = rewrite_in_basis(space.table, space.basis, gamma, i)
        pairs.extend(((j, fiber.act(beta, y)), w) for (_, y), w in atoms)
    return _merged(space, pairs)


def pushforward_map(phi: ExtensionMap, nu: AtomicMeasure) -> AtomicMeasure:
    """Image measure under an extension map, merging atoms in the same fiber."""
    if nu.space is not phi.source and nu.space != phi.source:
        raise ValueError("measure does not live on the extension's source")
    return atomic_measure(phi.target, [(phi.apply(p), w) for p, w in nu.atoms])


def is_fiber_supported(phi: ExtensionMap, nu: AtomicMeasure) -> Optional[int]:
    """The base point whose fiber carries nu, if there is one.

    Equivalent to the push-forward being a point mass; both the support
    criterion and the push-forward criterion are the same computation here.
    """
    down = pushforward_map(phi, nu)
    if down.is_dirac:
        return down.atoms[0][0]
    return None


# -- cylinder functions ----------------------------------------------------------

@dataclass(frozen=True)
class CylinderFunction:
    """Locally constant function determined by depth-d cylinders.

    Keys are letter tuples for boundary spaces and (coset, letter tuple)
    pairs for induced spaces.  A cylinder not listed in ``values`` is 0.
    """

    rank: int
    depth: int
    values: dict = field(repr=False)
    cosets: Optional[int] = None

    def __post_init__(self) -> None:
        for key in self.values:
            try:  # each letter in range and not cancelling the one before it
                i, w = (1, key) if self.cosets is None else key
                ok = (1 <= i <= (self.cosets or 1) and len(w) == self.depth
                      and all(0 < abs(l) <= self.rank and l != -m for l, m in zip(w, (0,) + w)))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"values: key {key!r} is not a reduced depth-{self.depth} "
                                 f"cylinder for rank={self.rank}, cosets={self.cosets}")

    def norm(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)


# -- Poisson transform ------------------------------------------------------------

def _poisson_walk(nu: AtomicMeasure, f: CylinderFunction, radius: int, probes=()):
    """(letters of s, P(f)(s) = sum of float(w) * f(s . p) over the atoms in
    order) for every reduced s with |s| <= radius, depth first by prepending
    letters, then for each probe.  An atom's state is (coset, y), y a prefix
    of the fiber point (coset None: of the boundary point).  A letter moves
    the coset and emits at most one fiber letter, its step in the Schreier
    basis, which cancels y's head or is shifted in, so d + n letters keep the
    depth-d cylinder exact for n steps.
    """
    space, d, get = nu.space, f.depth, f.values.get
    ctx = space.ambient
    letters = alphabet(ctx)
    if isinstance(space, BoundarySpace):
        fits, points = (space.rank, None), [(None, p) for p, _ in nu.atoms]
        moves = {l: {None: (None, (l,))} for l in letters}
    elif isinstance(space, InducedSpace):
        fits, points = (space.fiber.rank, space.size), [p for p, _ in nu.atoms]
        moves = {l: {i: (j, (b,) if b else ()) for i, (j, b) in enumerate(row, 1)}
                 for l, row in space.basis.steps.items()}
    else:
        raise ValueError(f"nu.space: a {type(space).__name__} has no cylinder functions")
    if (f.rank, f.cosets) != fits:
        raise ValueError(f"{'f.rank' if f.cosets == fits[1] else 'f.cosets'}: rank {f.rank} "
                         f"on {f.cosets} cosets, but the space has {fits[0]} on {fits[1]}")
    weights = [float(w) for _, w in nu.atoms]

    def step(states, l):
        out, row = [], moves[l]
        for c, y in states:
            c, e = row[c]
            if e:
                y = y[1:] if y[0] == -e[0] else e + y
            out.append((c, y))
        return out

    def value(states):
        total = 0.0
        for (c, y), w in zip(states, weights):
            total += w * get(y[:d] if c is None else (c, y[:d]), 0.0)
        return total

    check_ball_size(ctx, radius, DEFAULT_BALL_CAP)
    stack = [((), [(c, y.expand(d + radius)) for c, y in points])]
    while stack:
        s, states = stack.pop()
        yield s, value(states)
        if len(s) < radius:
            stack.extend(((l,) + s, step(states, l)) for l in letters if not s or l != -s[0])
    for s in probes:
        if s.ctx != ctx:
            raise ValueError("probe: word is not over the measure's group")
        states = [(c, y.expand(d + len(s))) for c, y in points]
        for l in reversed(s.letters):
            states = step(states, l)
        yield s.letters, value(states)


def poisson_transform(nu: AtomicMeasure, f: CylinderFunction, radius: int) -> dict:
    """{s: integral of f(s . x) d nu(x)} over the radius-R word ball."""
    ctx = nu.space.ambient
    return {Word(ctx, s): v for s, v in _poisson_walk(nu, f, radius)}


def isometry_defect(
    nu: AtomicMeasure, f: CylinderFunction, radius: int, probes: Sequence[Word] = ()
) -> float:
    """How far the truncated Poisson image falls short of attaining ||f||.

    Returns ``max(0, ||f|| - max |P(f)(s)|)`` with s ranging over the word
    ball of the given radius together with every one of ``probes``, whatever
    its length, at one letter step per word and atom.  Enlarging the explored
    set can only shrink the result, so the value is monotone non-increasing in
    the radius.  Each P(f)(s) is a float sum in atom order, so attaining ||f||
    gives zero up to rounding only (exactness is ROADMAP item 8).
    """
    norm = f.norm()
    if norm <= 0:
        raise ValueError("isometry defect needs a function with positive norm")
    return max(0.0, norm - max(abs(v) for _, v in _poisson_walk(nu, f, radius, probes)))


# -- serialization ------------------------------------------------------------------

def weight_from_json(x) -> Fraction:
    """A ``"p/q"`` string or a JSON number, read as the exact value it spells
    (the float ``0.1`` gives 1/10)."""
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return Fraction(repr(x))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"weight: must be a rational string or a number, not {x!r}")


def point_to_json(p):
    if isinstance(p, int):
        return p
    if isinstance(p, BoundaryPoint):
        return p.to_str()
    return induced_point_to_str(p)


def point_from_json(space, data):
    if not isinstance(data, str):
        raise ValueError(f"point: must be a string, not {data!r}")
    boundary = isinstance(space, BoundarySpace)
    try:
        point = parse_boundary_point(data) if boundary else parse_induced_point(data)
    except ValueError as exc:
        raise ValueError(f"point: {data!r}: {exc}") from exc
    if boundary:
        y, rank = point, space.rank
    else:
        if not 1 <= point[0] <= space.size:
            raise ValueError(f"point: coset of {data!r} must lie in 1..{space.size}")
        y, rank = point[1], space.fiber.rank
    if max(map(abs, y.prefix + y.period)) > rank:
        raise ValueError(f"point: {data!r} uses a letter above rank {rank}")
    return point


def measure_to_json(nu: AtomicMeasure) -> list:
    return [
        {"point": point_to_json(p), "weight": str(w)} for p, w in nu.atoms
    ]


def measure_from_json(space, data) -> AtomicMeasure:
    if not (isinstance(data, list)
            and all(isinstance(e, dict) and "point" in e and "weight" in e for e in data)):
        raise ValueError('measure: must be a list of {"point", "weight"} objects')
    pairs = [(point_from_json(space, e["point"]), weight_from_json(e["weight"])) for e in data]
    try:
        return atomic_measure(space, pairs)
    except ValueError as exc:
        raise ValueError(f"measure: {exc}") from exc
