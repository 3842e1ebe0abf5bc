"""Reduced-word arithmetic over free groups and finite permutation groups.

Group elements are carried everywhere as freely reduced words.  A letter is a
nonzero integer: ``+i`` is the i-th generator (1-based), ``-i`` its inverse.
Words serialize as strings over ``a``..``z``, uppercase meaning inverse, so
``"abA"`` is a.b.a^-1 and ``""`` is the identity; generator indices above 26
are written ``{27}`` / ``{-27}``.

Two ambient kinds exist: :class:`FreeGroup` (exact word arithmetic is the
whole story, and word balls are enumerated here only) and
:class:`PermutationGroup` (words additionally evaluate to permutations of
``{0..degree-1}``, and finite orbits are searched by :func:`shortlex_bfs`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

DEFAULT_BALL_CAP = 1_000_000

_LOWER = "abcdefghijklmnopqrstuvwxyz"
# one serialized letter: a {n} / {-n} token or a single character
_TOKEN = re.compile(r"\{(-?[1-9][0-9]*)\}|(.)", re.DOTALL)


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured size cap."""


@dataclass(frozen=True)
class FreeGroup:
    """Free group of the given rank; valid letters are +-1..+-rank."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"free group rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class PermutationGroup:
    """Finite permutation group on {0..degree-1} given by generator permutations."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if not self.generators:
            raise ValueError("permutation group needs at least one generator")
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise ValueError(f"not a permutation of 0..{self.degree - 1}: {g}")

    @property
    def rank(self) -> int:
        return len(self.generators)


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (single stack pass; idempotent)."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def join_reduced(out: list[int], letters: Sequence[int]) -> list[int]:
    """Append the reduced ``letters`` to the reduced list ``out``, in place,
    and return it: two reduced words cancel only at their seam."""
    k = 0
    while k < len(letters) and out and out[-1] == -letters[k]:
        out.pop()
        k += 1
    out.extend(letters[k:])
    return out


def cyclic_shell(letters: Sequence[int]) -> int:
    """For reduced letters, the length s of the longest u with
    ``letters = u v u^-1`` and v nonempty (unless the word is empty); v is
    then cyclically reduced."""
    n, s = len(letters), 0
    while n - 2 * s >= 2 and letters[s] == -letters[n - 1 - s]:
        s += 1
    return s


def _check_letters(ctx, letters: Sequence[int]) -> None:
    rank = ctx.rank
    for l in letters:
        if l == 0 or abs(l) > rank:
            raise ValueError(f"letter {l} out of range for rank-{rank} context")


@dataclass(frozen=True)
class Word:
    """A freely reduced word in a fixed group context.

    Instances are immutable; construct through :func:`word` (which validates
    and reduces) unless the letters are already known reduced.
    """

    ctx: FreeGroup | PermutationGroup
    letters: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.ctx != other.ctx:
            raise ValueError("cannot multiply words from mismatched group contexts")
        return Word(self.ctx, tuple(join_reduced(list(self.letters), other.letters)))

    def inverse(self) -> "Word":
        return Word(self.ctx, tuple(-l for l in reversed(self.letters)))

    def to_str(self) -> str:
        return letters_to_str(self.letters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Word({self.to_str()!r})"


def word(ctx, letters: Iterable[int]) -> Word:
    """Validate, reduce and wrap a letter sequence."""
    letters = tuple(letters)
    _check_letters(ctx, letters)
    return Word(ctx, reduce_letters(letters))


def identity(ctx) -> Word:
    return Word(ctx, ())


def generator(ctx, index: int) -> Word:
    """The index-th generator (1-based) as a one-letter word."""
    return word(ctx, (index,))


def shortlex_bfs(ctx, base, step, max_nodes: Optional[int] = None) -> dict:
    """The shortlex-least reduced word reaching each node from ``base``.

    ``step(node, l)`` is the node reached by prepending letter ``l`` (the
    left action), so words grow at the front.  The returned dict maps node to
    letters and is ordered by discovery, which is shortlex order of the
    words.  Raises :class:`BudgetExceededError` when more than ``max_nodes``
    nodes are reached.
    """
    letters = alphabet(ctx)
    reps = {base: ()}
    layer = [((), base)]
    while layer:
        # with the layer in shortlex order, letter-major order visits the
        # words l + w of the next length in shortlex order too
        nxt = []
        for l in letters:
            for wl, u in layer:
                if wl and l == -wl[0]:
                    continue
                v = step(u, l)
                if v not in reps:
                    if max_nodes is not None and len(reps) >= max_nodes:
                        raise BudgetExceededError(f"index exceeds max_cosets={max_nodes}")
                    reps[v] = wv = (l,) + wl
                    nxt.append((wv, v))
        layer = nxt
    return reps


def alphabet(ctx) -> tuple[int, ...]:
    """All letters of the context in canonical (shortlex) order."""
    out: list[int] = []
    for i in range(1, ctx.rank + 1):
        out.extend((i, -i))
    return tuple(out)


def letters_to_str(letters: Sequence[int]) -> str:
    """Serialize letters: ``a``..``z`` for generators 1..26, uppercase for
    their inverses, and the tokens ``{n}`` / ``{-n}`` for a generator index
    ``n`` above 26 and its inverse (``(27, -1, -30)`` is ``"{27}A{-30}"``)."""
    chars = []
    for l in letters:
        if abs(l) > 26:
            chars.append(f"{{{l}}}")
            continue
        c = _LOWER[abs(l) - 1]
        chars.append(c if l > 0 else c.upper())
    return "".join(chars)


def letters_from_str(s: str) -> tuple[int, ...]:
    """Inverse of :func:`letters_to_str`; raises ValueError on anything else,
    including a ``{n}`` token for an index that has a letter (``n <= 26``)."""
    letters = []
    for m in _TOKEN.finditer(s):
        number, c = m.groups()
        if number is not None:
            idx = int(number)
            if abs(idx) <= 26:
                raise ValueError(f"invalid letter token {m.group()!r}: "
                                 "generator indices up to 26 are written as letters")
            letters.append(idx)
            continue
        low = c.lower()
        if low not in _LOWER:
            raise ValueError(f"invalid word character {c!r}")
        idx = _LOWER.index(low) + 1
        letters.append(idx if c.islower() else -idx)
    return tuple(letters)


def parse_word(ctx, s: str) -> Word:
    return word(ctx, letters_from_str(s))


def is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` parses to one)."""
    return isinstance(value, int) and not isinstance(value, bool)


# -- permutation evaluation ---------------------------------------------------

def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Function composition p after q: x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def invert_perm(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def letter_perm(ctx: PermutationGroup, l: int) -> tuple[int, ...]:
    g = ctx.generators[abs(l) - 1]
    return g if l > 0 else invert_perm(g)


def permutation_of(w: Word) -> tuple[int, ...]:
    """Evaluate a word to a permutation (left-to-right composite).

    The map is a homomorphism for the left action: the image of u*v is
    perm(u) composed after perm(v).
    """
    ctx = w.ctx
    if not isinstance(ctx, PermutationGroup):
        raise ValueError("permutation evaluation requires a permutation-group context")
    p = identity_perm(ctx.degree)
    for l in w.letters:
        p = compose_perms(p, letter_perm(ctx, l))
    return p


# -- ball enumeration ---------------------------------------------------------

def reduced_layers(ctx: FreeGroup, radius: int) -> Iterator[list[tuple[int, ...]]]:
    """Yield the reduced letter tuples of length 0, 1, .., radius, one list
    per length, each in shortlex order."""
    letters = alphabet(ctx)
    layer: list[tuple[int, ...]] = [()]
    yield layer
    for _ in range(radius):
        layer = [ls + (l,) for ls in layer for l in letters if not ls or l != -ls[-1]]
        yield layer


def ball(ctx: FreeGroup, radius: int, max_size: int = DEFAULT_BALL_CAP) -> tuple[Word, ...]:
    """All reduced words of length <= radius in a free group, in shortlex order.

    Raises :class:`BudgetExceededError` when the ball would exceed
    ``max_size``.  Finite groups are decided by exhaustive orbits
    (:func:`shortlex_bfs`), never by balls, so a permutation group is refused.
    """
    if not isinstance(ctx, FreeGroup):
        raise ValueError(f"balls are enumerated in free groups only, not a {type(ctx).__name__}")
    check_ball_size(ctx, radius, max_size)
    return tuple(Word(ctx, ls) for layer in reduced_layers(ctx, radius) for ls in layer)


def _count_cylinders(rank: int, depth: int) -> int:
    if depth == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (depth - 1)


def check_ball_size(ctx: FreeGroup, radius: int, max_size: int) -> None:
    """Raise :class:`BudgetExceededError` when the radius-R ball, counted in
    closed form, holds more than ``max_size`` words."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    size = 0
    for k in range(radius + 1):
        size += _count_cylinders(ctx.rank, k)
        if size > max_size:
            raise BudgetExceededError(f"ball of radius {radius} exceeds cap {max_size}")


@lru_cache(maxsize=128)
def cached_ball(ctx, radius: int, max_size: int = DEFAULT_BALL_CAP) -> tuple[Word, ...]:
    """Memoized :func:`ball`; contexts are hashable so this is safe to share."""
    return ball(ctx, radius, max_size)
