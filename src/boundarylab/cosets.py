"""Finite point spaces and finite-index subgroup machinery: coset tables
(the finite space of cosets), the coset cocycle, and Schreier rewriting.

Conventions (used consistently across the package):

* Cosets are the left cosets ``g.H`` of a subgroup ``H`` in the ambient group,
  numbered ``1..n`` with coset 1 the subgroup itself.
* The group acts on the left: letter ``x`` sends coset ``g.H`` to ``(x g).H``,
  so tracing a word through the table scans its letters right to left.
* The transversal ``t_1..t_n`` consists of the shortlex-least representative
  word of each coset, with ``t_1`` the identity.  Shortlex-least left-coset
  representatives are closed under taking suffixes, which is what makes the
  Schreier construction below produce a free basis of the expected rank.
* ``cocycle(table, g, i)`` is the unique subgroup element ``lam`` such that
  ``g * t_i * lam`` is again a transversal word, computed exactly as
  ``(g t_i)^-1 t_j``.  Its inverse ``beta(g, i) = t_j^-1 g t_i``, defined by
  ``g t_i = t_j beta(g, i)``, is the factor ``InducedSpace.act`` applies to
  the fiber.  With ``j`` the coset of ``g2 t_i``, ``beta`` satisfies
  ``beta(g1 g2, i) = beta(g1, j) beta(g2, i)``, so ``cocycle`` satisfies the
  law with the factors swapped:
  ``cocycle(g1 g2, i) = cocycle(g2, i) cocycle(g1, j)``.
* ``rewrite_in_basis(table, basis, g, i)`` gives ``(j, beta(g, i))`` over the
  Schreier basis in one right-to-left scan of g from coset i, by the law
  above (Reidemeister-Schreier rewriting); ``cocycle`` stays for permutation
  tables, which have no Schreier basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .words import (
    BudgetExceededError,
    FreeGroup,
    PermutationGroup,
    Word,
    alphabet,
    compose_perms,
    identity_perm,
    invert_perm,
    letter_perm,
    letters_to_str,
    permutation_of,
    reduce_letters,
    shortlex_bfs,
)


class InfiniteIndexError(ValueError):
    """The subgroup has infinite index (free ambient group, incomplete graph)."""


@dataclass(frozen=True)
class SubgroupHandle:
    """A finitely generated subgroup of an ambient group, given by words."""

    ambient: FreeGroup | PermutationGroup
    generators: tuple[Word, ...]

    def __post_init__(self) -> None:
        for h in self.generators:
            if h.ctx != self.ambient:
                raise ValueError("subgroup generator from a different context")


def subgroup(ambient, generator_words) -> SubgroupHandle:
    """Build a handle, dropping identity generators."""
    gens = tuple(h for h in generator_words if not h.is_identity)
    return SubgroupHandle(ambient, gens)


@dataclass(frozen=True)
class FiniteSpace:
    """Finite point space {1..size} with one permutation per ambient generator."""

    ambient: FreeGroup | PermutationGroup
    size: int
    letter_perms: tuple[tuple[int, ...], ...]
    inverse_perms: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, ambient, size: int, letter_perms, *fields) -> "FiniteSpace":
        """Validate the letter permutations and derive their inverses; a
        subclass passes its own ``fields`` after them."""
        perms = tuple(tuple(p) for p in letter_perms)
        if len(perms) != ambient.rank:
            raise ValueError("need one permutation per ambient generator")
        inverses = []
        for p in perms:
            if sorted(p) != list(range(1, size + 1)):
                raise ValueError(f"not a permutation of 1..{size}: {p}")
            inv = [0] * size
            for x, y in enumerate(p, start=1):
                inv[y - 1] = x
            inverses.append(tuple(inv))
        return cls(ambient, size, perms, tuple(inverses), *fields)

    def act_letter(self, l: int, x: int) -> int:
        if l > 0:
            return self.letter_perms[l - 1][x - 1]
        return self.inverse_perms[-l - 1][x - 1]

    def act(self, w: Word, x: int) -> int:
        """Image of point x under w; scans right to left (left action)."""
        if w.ctx != self.ambient:
            raise ValueError("word from a different context")
        for l in reversed(w.letters):
            x = self.act_letter(l, x)
        return x

    def points(self) -> range:
        return range(1, self.size + 1)

    def orbit(self, x: int) -> frozenset:
        return frozenset(shortlex_bfs(self.ambient, x, lambda p, l: self.act_letter(l, p)))

    def is_transitive(self) -> bool:
        return len(self.orbit(1)) == self.size


@dataclass(frozen=True)
class CosetTable(FiniteSpace):
    """The coset space of a finite-index subgroup, as a finite space.

    Point i is the coset ``t_i H``: ``letter_perms[x-1][i-1]`` is the coset
    of ``x . t_i H`` for positive letter x, ``inverse_perms`` holds the
    inverse letters.  Immutable once built.
    """

    subgroup: SubgroupHandle
    transversal: tuple[Word, ...]

    def coset_of(self, w: Word) -> int:
        """Coset number of w.H."""
        return self.act(w, 1)

    def rep(self, i: int) -> Word:
        if not 1 <= i <= self.size:
            raise ValueError(f"coset index {i} out of range 1..{self.size}")
        return self.transversal[i - 1]

    def to_json(self) -> dict:
        action = {}
        for x in range(1, self.ambient.rank + 1):
            action[letters_to_str((x,))] = list(self.letter_perms[x - 1])
            action[letters_to_str((-x,))] = list(self.inverse_perms[x - 1])
        return {
            "index": self.size,
            "transversal": [t.to_str() for t in self.transversal],
            "action": action,
        }


def enumerate_cosets(sub: SubgroupHandle, max_cosets: int = 1024) -> CosetTable:
    """Build the complete coset table of a finite-index subgroup.

    Free ambient group: read every generator as a loop at the base vertex of
    a labelled graph, from both ends along the edges already built; only the
    unread middle gets new vertices, and its end is folded into the vertex
    the backward read reached, folding coincidences as they appear.  The
    folded graph is complete if and only if the index is finite; its vertices
    are then the cosets.  Finite ambient group: enumerate the cosets as the
    orbit of the subgroup's coset under the generators, acting on permutations.

    Raises :class:`InfiniteIndexError` for infinite index (free ambient only)
    and :class:`BudgetExceededError` when the index exceeds ``max_cosets``.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if isinstance(sub.ambient, FreeGroup):
        if not sub.generators:
            raise InfiniteIndexError(
                "the trivial subgroup of a free group has infinite index"
            )
        return _enumerate_free(sub, max_cosets)
    return _enumerate_perm(sub, max_cosets)


# -- free ambient: trace-and-fold ---------------------------------------------

def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _fold(parent: list[int], adj: list, a: int, b: int) -> None:
    """Identify two vertices and fold until the labelling is functional.

    Union-find over ``parent``; ``adj[u]`` maps letter to a vertex in the
    class of u's neighbour.  The vertex with fewer edges is absorbed, its
    clashing targets are queued for identification, and its dict dropped.
    """
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        x, y = _find(parent, x), _find(parent, y)
        if x == y:
            continue
        if len(adj[x]) < len(adj[y]):
            x, y = y, x
        parent[y] = x
        into = adj[x]
        for l, v in adj[y].items():
            w = into.setdefault(l, v)
            if w != v:
                pending.append((w, v))
        adj[y] = None


def _enumerate_free(sub: SubgroupHandle, max_cosets: int) -> CosetTable:
    ctx = sub.ambient
    parent = [0]
    adj: list = [{}]

    for h in sub.generators:
        # read the loop h along existing edges from the base at both ends
        loop = h.letters[::-1]
        u = v = _find(parent, 0)
        f, g = 0, len(loop)
        while f < g and (nxt := adj[u].get(loop[f])) is not None:
            u, f = _find(parent, nxt), f + 1
        while g > f and (nxt := adj[v].get(-loop[g - 1])) is not None:
            v, g = _find(parent, nxt), g - 1
        # build only the unread middle; fold, not join, its end into v, since
        # both reads may stop at the same missing slot of one vertex
        for l in loop[f:g]:
            nxt = len(parent)
            parent.append(nxt)
            adj.append({-l: u})
            adj[u][l] = nxt
            u = nxt
        _fold(parent, adj, u, v)

    live = [u for u, p in enumerate(parent) if p == u]
    letters = alphabet(ctx)
    for u in live:
        for l in letters:
            if l not in adj[u]:
                raise InfiniteIndexError(
                    "coset graph did not close: the subgroup has infinite index"
                )
    if len(live) > max_cosets:
        raise BudgetExceededError(
            f"index {len(live)} exceeds max_cosets={max_cosets}"
        )
    table = _canonicalize(
        sub, _find(parent, 0), lambda u, l: _find(parent, adj[u][l])
    )
    if table.size != len(live):
        raise AssertionError("coset graph is not connected")
    return table


# -- finite ambient: permutation orbits ---------------------------------------

def _perm_closure(perms, cap: int = 1_000_000) -> frozenset:
    """The group the permutations generate: the orbit of the identity, where
    letter +-i of FreeGroup(len(perms)) multiplies by the i-th one or its inverse."""
    gens = {i: g for k, p in enumerate(perms, 1) for i, g in ((k, p), (-k, invert_perm(p)))}
    try:
        reps = shortlex_bfs(FreeGroup(len(perms)), identity_perm(len(perms[0])),
                            lambda p, l: compose_perms(p, gens[l]), cap)
    except BudgetExceededError:
        raise BudgetExceededError(f"subgroup closure exceeds {cap} permutations") from None
    return frozenset(reps)


def _enumerate_perm(sub: SubgroupHandle, max_cosets: int) -> CosetTable:
    ctx = sub.ambient
    ident = identity_perm(ctx.degree)
    sub_perms = _perm_closure([permutation_of(h) for h in sub.generators] or [ident])

    def canon(p):
        # canonical key of the left coset p.H
        return min(compose_perms(p, h) for h in sub_perms)

    def edge(p, l):
        return compose_perms(letter_perm(ctx, l), p)

    return _canonicalize(
        sub, canon(ident), lambda k, l: canon(edge(k, l)), max_cosets=max_cosets
    )


# -- shared canonical numbering -----------------------------------------------

def _canonicalize(sub, base, edge_fn, max_cosets=None) -> CosetTable:
    """Renumber cosets by shortlex order of their least representative word.

    ``edge_fn(node, letter)`` returns the target node; the cosets are the
    nodes reachable from ``base``, at most ``max_cosets`` of them.
    """
    ctx = sub.ambient
    reps = shortlex_bfs(ctx, base, edge_fn, max_cosets)
    ordered = list(reps)

    num = {node: i + 1 for i, node in enumerate(ordered)}
    perms = [[num[edge_fn(node, x)] for node in ordered] for x in range(1, ctx.rank + 1)]
    transversal = tuple(Word(ctx, reduce_letters(reps[node])) for node in ordered)

    table = CosetTable.make(ctx, len(ordered), perms, sub, transversal)
    for i, t in enumerate(transversal, start=1):
        if table.coset_of(t) != i:
            raise AssertionError("transversal inconsistency")
    for h in sub.generators:
        if table.coset_of(h) != 1:
            raise AssertionError("subgroup generator does not fix coset 1")
    return table


# -- cocycle -------------------------------------------------------------------

def cocycle(table: CosetTable, gamma: Word, i: int) -> Word:
    """The unique subgroup element lam with gamma * t_i * lam in the transversal.

    Computed exactly as (gamma t_i)^-1 t_j where j is the coset of gamma t_i.
    """
    gt = gamma * table.rep(i)
    return gt.inverse() * table.rep(table.coset_of(gt))


# -- Schreier basis and rewriting ----------------------------------------------

@dataclass
class SchreierBasis:
    """Free basis of a finite-index subgroup of a free group.

    ``generators[j-1]`` is the ambient word of basis letter j, and
    ``steps[l][c-1] = (c', b)``: letter l moves coset c to c', and beta(l, c)
    is basis letter b (negative: its inverse; 0: trivial).  Built from a coset
    table whose transversal is suffix-closed.
    """

    ambient: FreeGroup
    rank: int
    generators: tuple[Word, ...]
    steps: dict = field(repr=False)

    @cached_property
    def free_group(self) -> FreeGroup:
        # one per basis: every rewrite builds a Word over it
        return FreeGroup(self.rank)


def schreier_basis(table: CosetTable) -> SchreierBasis:
    """Nontrivial Schreier generators t_j^-1 x t_i over all (letter, coset) pairs."""
    ctx = table.ambient
    if not isinstance(ctx, FreeGroup):
        raise ValueError("Schreier basis requires a free ambient group")
    gens: list[Word] = []
    steps = {l: [None] * table.size for l in alphabet(ctx)}
    for x in range(1, ctx.rank + 1):
        for i in range(1, table.size + 1):
            j = table.act_letter(x, i)
            s = table.rep(j).inverse() * Word(ctx, (x,)) * table.rep(i)
            b = 0 if s.is_identity else len(gens) + 1
            if b:
                gens.append(s)
            steps[x][i - 1], steps[-x][j - 1] = (j, b), (i, -b)
    expected = 1 + table.size * (ctx.rank - 1)
    if len(gens) != expected:
        raise AssertionError(
            f"Schreier rank {len(gens)} != 1 + n(k-1) = {expected}"
        )
    return SchreierBasis(ctx, len(gens), tuple(gens), {l: tuple(r) for l, r in steps.items()})


def rewrite_in_basis(table: CosetTable, basis: SchreierBasis, gamma: Word,
                     i: int) -> tuple[int, Word]:
    """(j, beta = t_j^-1 gamma t_i over the Schreier basis), j the coset of
    gamma t_i, so that gamma sends the induced point (i, y) to (j, beta . y).

    Scans gamma right to left from coset i, one table step per letter, then
    reverses the emitted basis letters.  They need no reduction: the letters
    that emit nothing walk the transversal's spanning tree, and a basis letter
    b and its inverse are the two directions of one edge, so b followed by
    b^-1 would enclose a reduced loop in that tree, which is empty, and gamma
    (reduced, as a Word is) would hold x x^-1.  From i = 1, j is 1 exactly
    when gamma lies in the subgroup, and then beta evaluates back to gamma;
    the map is a homomorphism there up to free reduction.
    """
    if gamma.ctx != table.ambient:
        raise ValueError("word from a different context")
    if not 1 <= i <= table.size:
        raise ValueError(f"coset index {i} out of range 1..{table.size}")
    out: list[int] = []
    steps = basis.steps
    for l in reversed(gamma.letters):
        i, b = steps[l][i - 1]
        if b:
            out.append(b)
    return i, Word(basis.free_group, tuple(out[::-1]))


def eval_in_ambient(basis: SchreierBasis, w: Word) -> Word:
    """Substitute basis words for basis letters; inverse of rewriting."""
    if w.ctx != basis.free_group:
        raise ValueError("word is not over the basis free group")
    out: list[int] = []
    for l in w.letters:
        g = basis.generators[abs(l) - 1]
        out.extend(g.letters if l > 0 else g.inverse().letters)
    return Word(basis.ambient, reduce_letters(out))
