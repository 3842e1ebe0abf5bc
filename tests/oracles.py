"""Simple reference implementations that the fast paths are tested against,
test doubles, and random inputs that several test files share.

Each function here is the straightforward version a faster one in ``src/``
replaced; the property tests assert that both give identical results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from boundarylab.checks import _points_depth, concentration
from boundarylab.cosets import (FiniteSpace, InfiniteIndexError, SchreierBasis, SubgroupHandle,
                                _canonicalize, _find, enumerate_cosets, eval_in_ambient,
                                rewrite_in_basis, schreier_basis)
from boundarylab.measures import pushforward_group
from boundarylab.spaces import (
    BoundaryPoint,
    BoundarySpace,
    InducedSpace,
    _divisors,
    boundary_act,
    boundary_point,
    cylinder_after,
    stabilizer_subgroup,
)
from boundarylab.words import (
    BudgetExceededError,
    FreeGroup,
    Word,
    alphabet,
    ball,
    reduce_letters,
)


def merge_fold_enumerate(sub, max_cosets):
    """Free-group coset enumeration by trace-and-fold, rebuilding the whole
    edge dict on every identification (cubic in the index)."""
    parent = [0]
    edges: dict = {}

    def merge(a, b):
        pending = deque([(a, b)])
        while pending:
            x, y = pending.popleft()
            x, y = _find(parent, x), _find(parent, y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            rewritten: dict = {}
            for (u, l), v in edges.items():
                u = _find(parent, u)
                v = _find(parent, v)
                prev = rewritten.get((u, l))
                if prev is None:
                    rewritten[(u, l)] = v
                elif prev != v:
                    pending.append((prev, v))
            edges.clear()
            edges.update(rewritten)

    for h in sub.generators:
        cur = _find(parent, 0)
        for l in reversed(h.letters):
            cur = _find(parent, cur)
            nxt = edges.get((cur, l))
            if nxt is None:
                nxt = len(parent)
                parent.append(nxt)
                edges[(cur, l)] = nxt
                edges[(nxt, -l)] = cur
            cur = _find(parent, nxt)
        merge(cur, 0)

    live = sorted({_find(parent, i) for i in range(len(parent))})
    for u in live:
        for l in alphabet(sub.ambient):
            if (u, l) not in edges:
                raise InfiniteIndexError(
                    "coset graph did not close: the subgroup has infinite index"
                )
    if len(live) > max_cosets:
        raise BudgetExceededError(f"index {len(live)} exceeds max_cosets={max_cosets}")
    table = _canonicalize(sub, live[0], lambda u, l: edges[(u, l)])
    if table.size != len(live):
        raise AssertionError("coset graph is not connected")
    return table


def conjugate_subgroup(sub: SubgroupHandle, t: Word) -> SubgroupHandle:
    """The subgroup t.H.t^-1, generator by generator."""
    tinv = t.inverse()
    return SubgroupHandle(sub.ambient, tuple(t * h * tinv for h in sub.generators))


def same_subgroup(sub1: SubgroupHandle, sub2: SubgroupHandle, max_cosets: int) -> bool:
    """Equality of a subgroup with one of finite index, read off their
    canonical coset tables (the comparison ``decompose_fibers`` made before it
    read membership both ways); False when ``sub1`` has infinite index."""
    try:
        table1 = enumerate_cosets(sub1, max_cosets=max_cosets)
    except InfiniteIndexError:
        return False
    return table1.to_json() == enumerate_cosets(sub2, max_cosets=max_cosets).to_json()


def closure(start, neighbours, cap=None) -> set:
    """Every node reachable from ``start`` through ``neighbours(node)``, by a
    depth-first search with no word bookkeeping; BudgetExceededError past
    ``cap`` nodes."""
    seen = {start}
    todo = [start]
    while todo:
        for v in neighbours(todo.pop()):
            if v not in seen:
                seen.add(v)
                if cap is not None and len(seen) > cap:
                    raise BudgetExceededError(f"closure exceeds cap {cap}")
                todo.append(v)
    return seen


def letter_rank(l: int) -> int:
    """a < A < b < B < ...: a positive letter sorts just before its inverse."""
    return (abs(l) - 1) * 2 + (0 if l > 0 else 1)


def shortlex_key(w: Word) -> tuple:
    """Sort key of the shortlex order: length first, then letters by rank."""
    return (len(w.letters), tuple(map(letter_rank, w.letters)))


def sorted_shortlex_bfs(ctx, base, step, max_nodes=None):
    """Shortlex BFS that builds every candidate word of a layer and sorts them."""
    letters = alphabet(ctx)
    reps = {base: ()}
    layer = [((), base)]
    while layer:
        cands = []
        for wl, u in layer:
            for l in letters:
                if wl and l == -wl[0]:
                    continue
                cands.append(((l,) + wl, step(u, l)))
        cands.sort(key=lambda item: tuple(map(letter_rank, item[0])))
        layer = []
        for wl, v in cands:
            if v not in reps:
                if max_nodes is not None and len(reps) >= max_nodes:
                    raise BudgetExceededError(f"index exceeds max_cosets={max_nodes}")
                reps[v] = wl
                layer.append((wl, v))
    return reps


def atom_sort_key(p):
    """The explicit sort key atoms had before points ordered themselves:
    finite points by value, boundary points by (prefix, period), induced
    points by coset, then the fiber point's (prefix, period)."""
    if isinstance(p, int):
        return (p,)
    if isinstance(p, BoundaryPoint):
        return (p.prefix, p.period)
    i, y = p
    return (i, y.prefix, y.period)


def cylinder_key(point, depth):
    """The depth-d cylinder of a boundary point; (coset, fiber cylinder) of an
    induced point."""
    if isinstance(point, BoundaryPoint):
        return point.expand(depth)
    i, y = point
    return (i, y.expand(depth))


def cylinder_value(f, point):
    """f at a boundary or induced point."""
    return f.values.get(cylinder_key(point, f.depth), 0.0)


def per_word_value(nu, f, s):
    """P(f)(s) by acting on every atom with the whole word s: the first depth
    letters of s . p through ``cylinder_after`` on a boundary, the image
    point through ``space.act`` on an induced space."""
    space = nu.space
    total = 0.0
    if isinstance(space, BoundarySpace):
        if s.ctx != space.ambient:
            raise ValueError("word is not over the boundary's free group")
        for p, w in nu.atoms:
            total += float(w) * f.values.get(cylinder_after(s.letters, p, f.depth), 0.0)
        return total
    for p, w in nu.atoms:
        total += float(w) * cylinder_value(f, space.act(s, p))
    return total


def per_word_poisson_transform(nu, f, radius):
    """{s: P(f)(s)} over the shortlex ball, one whole-word evaluation per word."""
    return {s: per_word_value(nu, f, s) for s in ball(nu.space.ambient, radius)}


def per_word_defect(nu, f, radius, probes=()):
    """The isometry defect with one whole-word evaluation per ball word and
    probe, maximised in shortlex order."""
    norm = f.norm()
    if norm <= 0:
        raise ValueError("isometry defect needs a function with positive norm")
    best = 0.0
    for s in list(ball(nu.space.ambient, radius)) + list(probes):
        best = max(best, abs(per_word_value(nu, f, s)))
    return max(0.0, norm - best)


def four_step_act(space, gamma, point):
    """The induced action by way of the cocycle: lam = (gamma t_i)^-1 t_j as
    Word products, inverted, checked to fix coset 1, rewritten in the basis,
    and applied to the fiber point."""
    i, y = point
    table = space.table
    gt = gamma * table.rep(i)
    j = table.coset_of(gt)
    lam = gt.inverse() * table.rep(j)
    lam_inv = lam.inverse()
    c, beta = rewrite_in_basis(table, space.basis, lam_inv, 1)
    assert c == 1
    return (j, boundary_act(beta.letters, y))


def frozen_fiber_space(table, basis: SchreierBasis) -> InducedSpace:
    """An induced space with the fiber motion ablated, as a control: the basis
    keeps its generators but every Schreier step emits no letter, so the
    coset still moves but the fiber coordinate never does, through the
    single-point action, the per-coset push-forward and the Poisson walk
    alike, and no non-trivial fiber measure can concentrate."""
    steps = {l: tuple((j, 0) for j, _ in row) for l, row in basis.steps.items()}
    return InducedSpace(table, replace(basis, steps=steps))


def sliced_boundary_point(prefix, period):
    """Boundary normal form one letter at a time: every seam cancellation and
    every stripped tail letter slices the prefix and rotates the period
    (quadratic in the prefix length)."""
    prefix = reduce_letters(prefix)
    period = reduce_letters(period)
    if not period:
        raise ValueError("period must reduce to a nontrivial word")
    shell: list[int] = []
    while len(period) >= 2 and period[0] == -period[-1]:
        shell.append(period[0])
        period = period[1:-1]
    if not period:
        raise ValueError("period is conjugate to the identity")
    prefix = reduce_letters(prefix + tuple(shell))
    while prefix and prefix[-1] == -period[0]:
        prefix = prefix[:-1]
        period = period[1:] + period[:1]
    n = len(period)
    for d in _divisors(n):
        if period == period[:d] * (n // d):
            period = period[:d]
            break
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = period[-1:] + period[:-1]
    return BoundaryPoint(prefix, period)


def padded_boundary_act(g_letters, point):
    """g . point by padding the tail with |g| // |period| + 2 periods, so that
    all cancellation happens inside the padded prefix, reducing, and
    normalising the result from scratch with ``sliced_boundary_point``."""
    m = len(g_letters)
    if m == 0:
        return point
    copies = m // len(point.period) + 2
    ext = point.prefix + point.period * copies
    return sliced_boundary_point(reduce_letters(tuple(g_letters) + ext), point.period)


def stepwise_axis_power_steps(points, rank, target, budget):
    """Axis-power search by acting with the first generator one step at a
    time and re-measuring the depth of every point after each step."""
    ctx = FreeGroup(rank)
    g = Word(ctx, (1,))
    repelling = boundary_point((), (-1,))
    pts = list(points)
    steps: list[Word] = []
    if any(p == repelling for p in pts):
        perturb = None
        for radius in (1, 2, 3):
            for cand in ball(ctx, radius):
                if cand.is_identity:
                    continue
                if all(boundary_act(cand.letters, p) != repelling for p in pts):
                    perturb = cand
                    break
            if perturb is not None:
                break
        if perturb is None:
            return None
        steps.append(perturb)
        pts = [boundary_act(perturb.letters, p) for p in pts]
    while True:
        if _points_depth(pts) >= target:
            return steps
        if len(steps) >= budget:
            return None
        steps.append(g)
        pts = [boundary_act(g.letters, p) for p in pts]


def stepwise_push_through(nu, steps):
    """(final measure, depth, coset) after one push-forward per step, in order."""
    cur = nu
    for step in steps:
        cur = pushforward_group(step, cur)
    depth, coset = concentration(cur)
    return cur, depth, coset


def random_induced_space(rng, max_index: int) -> InducedSpace:
    """The induced space of a random subgroup of F2 or F3 of index m <= max_index:
    the stabilizer of point 1 under a random transitive action on 1..m (the
    first generator cycles through every point, the others are random)."""
    ctx = FreeGroup(rng.randint(2, 3))
    m = rng.randint(1, max_index)
    cycle = rng.sample(range(1, m + 1), m)
    first = [0] * m
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        first[x - 1] = y
    perms = [first] + [rng.sample(range(1, m + 1), m) for _ in range(ctx.rank - 1)]
    table = enumerate_cosets(stabilizer_subgroup(FiniteSpace.make(ctx, m, perms), 1))
    return InducedSpace(table, schreier_basis(table))


def ambient_point(space: InducedSpace, p) -> BoundaryPoint:
    """pi(i, y) = t_i . iota(y), iota writing the fiber point y in ambient
    letters: its prefix and period evaluated through the basis words.  From
    g t_i = t_j beta, pi(g . (i, y)) = t_j iota(beta . y) = g . pi(i, y), so
    (i, y) -> (i, pi(i, y)) carries the induced action to the diagonal action
    on the cosets times the ambient boundary.  It reads only the transversal
    and the basis generators, never ``rewrite_in_basis`` or the Schreier
    steps."""
    i, y = p
    fiber = space.basis.free_group
    iota = boundary_point(eval_in_ambient(space.basis, Word(fiber, y.prefix)).letters,
                          eval_in_ambient(space.basis, Word(fiber, y.period)).letters)
    return boundary_act(space.table.rep(i).letters, iota)
