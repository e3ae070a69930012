"""The blue/white color change rule: closures, zero forcing sets, and the
exact minimum zero forcing number search.

The color change rule: a blue vertex with exactly one white neighbor turns
that neighbor blue. The closure of an initial blue set is the fixed point of
that rule (order-independent); a zero forcing set is one whose closure is all
of V(G). Every closure runs through one worklist engine, `_close`: it revisits
only vertices next to a new blue one and pops the lowest first, so its log
keeps `zf_closure`'s lowest-index-forcer order.

Z(G) comes from the wavefront search of Brimkov, Fast and Hicks (EJOR 2019)
over closed blue sets. Its first move is expanded once per vertex orbit,
with the orbits found from the graph by `equitable.vertex_orbits`; every
later state expands every vertex. Each state carries a set of initial
vertices that reaches it, so the witness is the set the search found: a
minimum zero forcing set, though not in general the lexicographically
least one.

The search stops at a forcing set no larger than its own proven lower
bound on Z(G), the GF(2) floor. For every field F each matrix with the
graph's off-diagonal pattern has nullity at most M(F,G) <= Z(G) (AIM
Minimum Rank Work Group, LAA 428, 2008). Over GF(2), A - lambda*I is A for
even lambda and A + I for odd lambda, both with the graph's pattern, and
reducing mod 2 never raises a rank; so the larger GF(2) nullity of A and
A + I, two bitmask eliminations, bounds Z at least as well as the rational
nullity at every integer shift. The wavefront swaps its incumbent only for
a strictly smaller set, so a floor at or below Z changes neither the
witness nor its forces, only the states expanded.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .equitable import vertex_orbits
from .graphs import mask_vertices, vertex_mask
from .linalg import gf2_rank

# Closed sets the wavefront may expand before it settles for bounds. With no
# floor, Circ[96,{1,7}] needs 22,222 (about 2 s on a 2-core Xeon guest); its
# GF(2) floor is 14 = Z, so it needs none.
STATE_BUDGET = 60_000


class Coloring(NamedTuple):
    """Final blue set plus the chronological list of forces that produced it."""

    n: int
    colored: frozenset
    log: tuple  # ((forcer, forced), ...)

    @property
    def all_colored(self):
        return len(self.colored) == self.n


class ZfResult(NamedTuple):
    zf_number: int
    witness: tuple
    forces: tuple
    subsets_examined: int = 0
    is_exact: bool = True
    lower_bound: int | None = None


def zf_closure(g, blue):
    """Apply the color change rule until stable.

    The log is deterministic: at each step the lowest-index blue vertex that
    can force acts (its forced vertex is its unique white neighbor); every
    vertex that can force is on the engine's worklist, which pops the lowest
    first. The fixed point itself does not depend on that order.
    """
    mask = vertex_mask(blue, g.n)
    log = []
    mask = _close(g.adjacency_masks, mask, mask, log)
    return Coloring(g.n, frozenset(mask_vertices(mask)), tuple(log))


def _close(masks, mask, todo, log=None):
    """Close the blue set `mask`. `todo` holds the blue vertices that may
    force; invariant: every blue vertex outside it has zero or at least two
    white neighbors. The lowest is popped; when it forces w, w and w's blue
    neighbors go back on `todo`. Each force (v, w) is appended to `log`."""
    while todo:
        b = todo & -todo
        todo ^= b
        v = b.bit_length() - 1
        white = masks[v] & ~mask
        if white and white & (white - 1) == 0:
            mask |= white
            w = white.bit_length() - 1
            todo |= white | (masks[w] & mask)
            if log is not None:
                log.append((v, w))
    return mask


def _seed(masks, added, mask):
    """Worklist to close `mask`, a closed set grown by `added`: the added
    vertices and their blue neighbors, the only ones that may force."""
    todo, rem = added, added
    while rem:
        b = rem & -rem
        rem ^= b
        todo |= masks[b.bit_length() - 1]
    return todo & mask


def _wavefront(g, found, floor):
    """Z by a cheapest-first search over closed sets S. start[S] is a set
    of initial vertices that reaches S, priced at its size: a move through
    v adds N[v] \\ S but w, the least white neighbor of v, which v then
    forces, and closes; finishing adds the white vertices. `found` is the
    incumbent forcing set's mask, first the greedy one. Returns (found,
    lower, states expanded): lower = |found| once that is Z or at most
    `floor`, a lower bound below it once STATE_BUDGET states are expanded.

    Each move's initial vertices are white at the state it leaves, so along
    a path they are disjoint and their union U has the path's price. And
    cl(U) contains every state on the path: by induction (closure is
    monotone) it holds the last state and the new initial vertices, where v
    has only w white, so it holds their closure, the next state.

    The root expands only the least vertex of each class `vertex_orbits`
    returns. An automorphism sigma maps closed sets to closed sets and the
    move at v from S to the move at sigma(v) from sigma(S), at the same
    price, so it maps any move sequence to one of equal cost. Whatever
    vertex a cheapest sequence starts at, its image starts at that vertex's
    class representative: the search still finds Z, and a budget's lower
    bound stays valid. The classes need only lie inside orbits, so any set
    of verified automorphisms will do; a vertex joined to nothing stays a
    root of its own."""
    n, masks = g.n, g.adjacency_masks
    full = (1 << n) - 1
    incumbent, states = found.bit_count(), 0
    start = {0: 0}
    heap = [(0, 0)]
    while heap and incumbent > floor:
        cost, mask = heapq.heappop(heap)
        if cost >= incumbent:
            break
        seeds = start[mask]
        if cost > seeds.bit_count():
            continue
        if states >= STATE_BUDGET:
            return found, cost, states
        states += 1
        if cost + n - mask.bit_count() < incumbent:
            found = seeds | full ^ mask
            incumbent = found.bit_count()
        for v in range(n) if mask else _root_moves(g, incumbent):
            white = masks[v] & ~mask
            if not white:
                continue
            added = (white | (1 << v)) & ~mask
            price = cost + added.bit_count() - 1
            if price >= incumbent:
                continue
            grown = mask | added
            closed = _close(masks, grown, _seed(masks, added, grown))
            initial = seeds | added ^ (white & -white)
            if closed == full:
                found, incumbent = initial, price
            elif start.get(closed, found).bit_count() > price:
                start[closed] = initial
                heapq.heappush(heap, (price, closed))
    return found, incumbent, states


def _root_moves(g, incumbent):
    """The least vertex of each vertex orbit found among the first moves
    priced under the incumbent (forcing from v first costs deg(v))."""
    moves = [v for v in range(g.n) if 0 < g.degree(v) < incumbent]
    return [orbit[0] for orbit in vertex_orbits(g, moves)]


def zero_forcing_number(g):
    """Exact Z(G) with the minimum zero forcing set the search found.

    The search floors itself at `_gf2_floor`, the larger GF(2) nullity of
    A and A + I, which is at most Z(G) by the parity argument in the module
    docstring: a forcing set that small ends it, and one below it is an
    implementation fault and raises ArithmeticError. Past STATE_BUDGET the
    result is bounds only (is_exact=False), with the best forcing set found,
    at most the greedy one, as witness and upper bound. The witness is
    replayed through `zf_closure`; a set that does not force raises
    ArithmeticError.
    """
    floor = _gf2_floor(g)
    found, lower, states = _wavefront(g, _greedy_upper_bound(g), floor)
    witness = mask_vertices(found)
    if len(witness) < floor:
        raise ArithmeticError(
            f"the GF(2) floor {floor} is above the search's forcing set of size {len(witness)}"
        )
    coloring = zf_closure(g, witness)
    if not coloring.all_colored:
        raise ArithmeticError(f"the search's set {witness} does not force")
    return ZfResult(
        len(witness), witness, coloring.log, subsets_examined=states,
        is_exact=lower == len(witness), lower_bound=max(floor, lower),
    )


def _gf2_floor(g):
    """n - min(rank A, rank (A + I)) over GF(2): the larger GF(2) nullity of
    A - lambda*I over the integers lambda, a lower bound for Z(G)."""
    masks = g.adjacency_masks  # cached on the graph: read, never written
    plus = [row | 1 << i for i, row in enumerate(masks)]
    return g.n - min(gf2_rank(masks), gf2_rank(plus))


def _greedy_upper_bound(g):
    """The mask of a forcing set: drop each vertex in turn while the rest
    still forces. A run of c consecutive vertices is tried in one closure;
    c doubles after a run drops and halves after one that does not, and a
    single vertex that does not drop is kept. Closure is monotone, so a run
    drops exactly when each of its vertices would drop in turn: the mask is
    the one-at-a-time greedy's. A trial set's white vertices are the
    dropped ones and the run, so only their blue neighbors can force: they
    seed the closure's worklist."""
    n, masks = g.n, g.adjacency_masks
    full = (1 << n) - 1
    blue, near = full, 0  # near: the neighbors of the dropped vertices
    v, c = 0, 1
    while v < n:
        c = min(c, n - v)
        trial, seen = blue ^ (((1 << c) - 1) << v), near
        for u in range(v, v + c):
            seen |= masks[u]
        if _close(masks, trial, seen & trial) == full:
            blue, near, v, c = trial, seen, v + c, 2 * c
        elif c > 1:
            c //= 2
        else:
            v += 1
    return blue
