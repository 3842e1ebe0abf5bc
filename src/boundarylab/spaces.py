"""Concrete group actions: the symbolic boundary of a free group and the
induced action on (coset space) x (fiber).  Finite point spaces, coset tables
among them, live in :mod:`boundarylab.cosets` and are re-exported here.

Boundary points are the eventually periodic infinite reduced words
``prefix . period . period . ...``, stored in a unique normal form so that
equality is decidable and every action is exact (no truncation anywhere).

Induced points are pairs ``(coset index, fiber point)``, the fiber being the
boundary of the subgroup's Schreier basis.  A group element moves the coset
by the left action and moves the fiber through the coset cocycle: the fiber
coordinate is hit by ``beta(g, i) = t_j^-1 g t_i``, which ``rewrite_in_basis``
reads off over the basis from one scan of g, with no product of ambient words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .cosets import (
    CosetTable,
    FiniteSpace,
    SchreierBasis,
    SubgroupHandle,
    eval_in_ambient,
    rewrite_in_basis,
)
from .words import (
    BudgetExceededError,
    FreeGroup,
    Word,
    _count_cylinders,
    alphabet,
    cyclic_shell,
    join_reduced,
    letters_from_str,
    letters_to_str,
    reduce_letters,
    reduced_layers,
    shortlex_bfs,
)

#: Sentinel returned by :func:`common_prefix_depth` for equal points.  Being
#: infinity, it composes with ``min`` when measuring how concentrated a set of
#: points is.
EQUAL = math.inf


# -- boundary points -----------------------------------------------------------

@dataclass(frozen=True, order=True)
class BoundaryPoint:
    """Eventually periodic reduced infinite word, in normal form.

    Build through :func:`boundary_point` (:func:`boundary_act` expects its
    normal form; direct construction skips it).  Normal form: the period is
    cyclically reduced and primitive, the seam prefix/period carries no
    cancellation, and the prefix is the shortest possible (its last letter
    differs from the period's last letter).  Structural equality then
    coincides with equality of the infinite expansions.
    """

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def expand(self, n: int) -> tuple[int, ...]:
        """First n letters of the infinite word."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        copies = -(-(n - len(self.prefix)) // len(self.period))
        return (self.prefix + self.period * copies)[:n]

    def to_str(self) -> str:
        return f"{letters_to_str(self.prefix)}|{letters_to_str(self.period)}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundaryPoint({self.to_str()!r})"


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def boundary_point(prefix, period) -> BoundaryPoint:
    """Normalize a (prefix, period) pair into a :class:`BoundaryPoint`.

    Each stage counts the letters it moves by index, then slices the prefix
    and rotates the period once, so the cost is linear in the input length.
    """
    prefix = reduce_letters(prefix)
    period = reduce_letters(period)
    if not period:
        raise ValueError("period must reduce to a nontrivial word")

    # cyclic reduction: period = s c s^-1 contributes s to the prefix (a
    # reduced period keeps at least one letter)
    s = cyclic_shell(period)
    prefix = reduce_letters(prefix + period[:s])
    period = period[s:len(period) - s]

    # primitive root, taken before _seat rotates it: rotations stay primitive
    n = len(period)
    for d in _divisors(n):
        if period == period[:d] * (n // d):
            period = period[:d]
            break
    return _seat(prefix, period)


def _seat(prefix: tuple[int, ...], period: tuple[int, ...]) -> BoundaryPoint:
    """The normal form of prefix . period . period . ..., for a reduced prefix
    and a cyclically reduced, primitive period: the seam is the only place
    left to cancel or to shorten."""
    # rotate the period into the prefix while the seam cancels
    n = len(period)
    c = 0
    while c < len(prefix) and prefix[-1 - c] == -period[c % n]:
        c += 1
    prefix = prefix[:len(prefix) - c]
    c %= n
    period = period[c:] + period[:c]

    # shortest prefix: strip trailing letters that extend the periodic tail
    t = 0
    while t < len(prefix) and prefix[-1 - t] == period[-1 - t % n]:
        t += 1
    prefix = prefix[:len(prefix) - t]
    t %= n
    period = period[n - t:] + period[:n - t]
    return BoundaryPoint(prefix, period)


def parse_boundary_point(s: str) -> BoundaryPoint:
    """Parse the ``"prefix|period"`` serialization."""
    if "|" not in s:
        raise ValueError(f"boundary point must look like 'prefix|period': {s!r}")
    pre, per = s.split("|", 1)
    return boundary_point(letters_from_str(pre), letters_from_str(per))


def common_prefix_depth(x1: BoundaryPoint, x2: BoundaryPoint):
    """Length of the longest common prefix of the expansions; EQUAL if equal.

    Comparison stops at max(prefix lengths) + lcm(period lengths): two
    eventually periodic words agreeing that far agree everywhere.
    """
    if x1 == x2:
        return EQUAL
    bound = max(len(x1.prefix), len(x2.prefix)) + math.lcm(
        len(x1.period), len(x2.period)
    )
    e1 = x1.expand(bound)
    e2 = x2.expand(bound)
    for d in range(bound):
        if e1[d] != e2[d]:
            return d
    raise AssertionError("distinct normal forms with identical expansions")


def boundary_act(g_letters: tuple[int, ...], point: BoundaryPoint) -> BoundaryPoint:
    """Left concatenation g . point, exact, for reduced ``g_letters`` (a
    Word's letters are) and a point in the normal form :func:`boundary_point`
    builds: g and the prefix cancel only at their seam, and left
    multiplication keeps the period cyclically reduced and primitive, so only
    the seam moves."""
    if not g_letters:
        return point
    return _seat(tuple(join_reduced(list(g_letters), point.prefix)), point.period)


def cylinder_after(g_letters: tuple[int, ...], point: BoundaryPoint, depth: int) -> tuple[int, ...]:
    """First ``depth`` letters of g . point, without building the image point."""
    if depth == 0:
        return ()
    ext = point.expand(len(g_letters) + depth)
    return reduce_letters(g_letters + ext)[:depth]


# -- finite spaces ---------------------------------------------------------------

def stabilizer_subgroup(space: FiniteSpace, x: int) -> SubgroupHandle:
    """Generators of the stabilizer of x, from Schreier generators of the orbit.

    The orbit transversal makes this a full generating set, so the result is
    exact.
    """
    if not space.is_transitive():
        raise ValueError("stabilizer generators require a transitive space")
    ctx = space.ambient
    letters = alphabet(ctx)
    reps = shortlex_bfs(ctx, x, lambda p, l: space.act_letter(l, p))

    gens: list[Word] = []
    seen = set()
    for p in sorted(reps):
        up = reps[p]
        for l in letters:
            q = space.act_letter(l, p)
            s = reduce_letters(tuple(-v for v in reversed(reps[q])) + (l,) + up)
            if s and s not in seen:
                seen.add(s)
                gens.append(Word(ctx, s))
    return SubgroupHandle(ctx, tuple(gens))


# -- boundary spaces --------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySpace:
    """Boundary of a rank-r free group: acting words live in FreeGroup(rank)
    and hit points by left concatenation.  A subgroup acting through its
    Schreier basis is the fiber at coset 1 of an :class:`InducedSpace`.
    """

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("boundary space needs rank >= 2")

    @property
    def ambient(self) -> FreeGroup:
        return FreeGroup(self.rank)

    def act(self, g: Word, point: BoundaryPoint) -> BoundaryPoint:
        if g.ctx != self.ambient:
            raise ValueError("word is not over the boundary's free group")
        return boundary_act(g.letters, point)

    def cylinders(self, depth: int, max_size: int) -> list[tuple[int, ...]]:
        """All reduced depth-d prefixes (the depth-d cylinder names); raises
        :class:`BudgetExceededError`, before building any, past ``max_size``.
        The count at least triples per letter, so it is compared at a depth
        clamped to ``max_size.bit_length() + 1``, past which it exceeds the cap."""
        if _count_cylinders(self.rank, min(depth, max_size.bit_length() + 1)) > max_size:
            raise BudgetExceededError(f"depth-{depth} cylinders exceed cap {max_size}")
        return list(reduced_layers(self.ambient, depth))[-1]


# -- induced spaces ----------------------------------------------------------------

@dataclass(frozen=True)
class InducedSpace:
    """Points (coset index, fiber point) under the cocycle-twisted action."""

    table: CosetTable
    basis: SchreierBasis

    @property
    def fiber(self) -> BoundarySpace:
        return BoundarySpace(self.basis.rank)

    @property
    def ambient(self):
        return self.table.ambient

    @property
    def size(self) -> int:
        return self.table.size

    def act(self, gamma: Word, point) -> tuple:
        j, beta = rewrite_in_basis(self.table, self.basis, gamma, point[0])
        return (j, boundary_act(beta.letters, point[1]))

    def lift(self, i: int, w: Word) -> Word:
        """The ambient element t_i w t_i^-1 for a fiber word w: it fixes coset
        i and moves that fiber by w."""
        t = self.table.rep(i)
        return t * eval_in_ambient(self.basis, w) * t.inverse()


def induced_space(table: CosetTable, basis: SchreierBasis) -> InducedSpace:
    """The boundary of the subgroup's free basis, induced over the coset space."""
    return InducedSpace(table, basis)


def parse_induced_point(s: str):
    """Parse the ``"(i, prefix|period)"`` serialization."""
    t = s.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"induced point must look like '(i, prefix|period)': {s!r}")
    idx, _, rest = t[1:-1].partition(",")
    return (int(idx.strip()), parse_boundary_point(rest.strip()))


def induced_point_to_str(point) -> str:
    i, y = point
    return f"({i}, {y.to_str()})"


# -- extensions ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionMap:
    """Surjective equivariant map between spaces.

    ``point_map`` None means the source is induced and the map drops the
    fiber coordinate; otherwise ``point_map[p-1]`` maps finite source points.
    Equivariance and surjectivity are contract, not construction-time checks;
    the verification engines test them explicitly.
    """

    source: Union[InducedSpace, FiniteSpace]
    target: FiniteSpace
    point_map: Optional[tuple[int, ...]]

    def apply(self, p):
        if self.point_map is None:
            return p[0]
        return self.point_map[p - 1]


def induced_extension(space: InducedSpace) -> ExtensionMap:
    return ExtensionMap(space, space.table, None)
