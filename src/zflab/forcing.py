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
later state expands every vertex. The witness is then the lexicographically
least set of size Z, by a depth-first scan that never descends into a vertex
the closure of the earlier ones already colors: a minimum set with such a
vertex would contain a smaller zero forcing set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .equitable import vertex_orbits

# Closed sets the wavefront may expand before it settles for bounds. With no
# floor, Circ[96,{1,7}] needs 22,222 (about 2 s on a 2-core Xeon guest).
STATE_BUDGET = 60_000


@dataclass(frozen=True)
class Coloring:
    """Final blue set plus the chronological list of forces that produced it."""

    n: int
    colored: frozenset
    log: tuple  # ((forcer, forced), ...)

    @property
    def all_colored(self):
        return len(self.colored) == self.n


@dataclass(frozen=True)
class ZfResult:
    zf_number: int
    witness: tuple | None
    forces: tuple
    subsets_examined: int = 0
    is_exact: bool = True
    lower_bound: int | None = None
    upper_bound: int | None = None


def zf_closure(g, blue):
    """Apply the color change rule until stable.

    The log is deterministic: at each step the lowest-index blue vertex that
    can force acts (its forced vertex is its unique white neighbor); every
    vertex that can force is on the engine's worklist, which pops the lowest
    first. The fixed point itself does not depend on that order.
    """
    n = g.n
    mask = _to_mask(blue, n)
    log = []
    mask = _close(g.adjacency_masks, mask, mask, log)
    colored = frozenset(v for v in range(n) if (mask >> v) & 1)
    return Coloring(n, colored, tuple(log))


def _to_mask(vertices, n):
    mask = 0
    for v in vertices:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


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


@dataclass
class _SearchStats:
    nodes: int = 0


def _witness_of_size(masks, n, size, stats):
    """Lexicographically least size-`size` set whose closure is full, or
    None; skips any vertex the running prefix closure already colors.
    Depth-first on an explicit stack: closed[i] is the closure of the
    first i chosen vertices and w the next candidate at the current depth."""
    full = (1 << n) - 1
    chosen, closed, w = [], [0], 0
    while True:
        mask, slots = closed[-1], size - len(chosen)
        while slots and w <= n - slots and (mask >> w) & 1:
            w += 1
        if slots and w <= n - slots:
            stats.nodes += 1
            chosen.append(w)
            grown = mask | (1 << w)
            closed.append(_close(masks, grown, _seed(masks, 1 << w, grown)))
            w += 1
        elif slots == 0 and mask == full:
            return chosen
        elif not chosen:
            return None
        else:
            w = chosen.pop() + 1
            closed.pop()


def _wavefront(g, incumbent, floor, stats):
    """Z by a cheapest-first search over closed sets S, each priced at the
    fewest initial vertices reaching it: forcing through v pays for N[v] \\ S
    but one white neighbor of v and closes; finishing pays for the white
    vertices. Returns (Z, True), stopping once `incumbent` (a known forcing
    set size) is at most `floor`, or (lower, False) with Z >= lower once
    STATE_BUDGET states are expanded.

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
    best = {0: 0}
    heap = [(0, 0)]
    while heap and incumbent > floor:
        cost, mask = heapq.heappop(heap)
        if cost >= incumbent:
            break
        if cost > best[mask]:
            continue
        if stats.nodes >= STATE_BUDGET:
            return cost, False
        stats.nodes += 1
        incumbent = min(incumbent, cost + n - mask.bit_count())
        for v in range(n) if mask else _root_moves(g, incumbent):
            if not masks[v] & ~mask:
                continue
            added = (masks[v] | (1 << v)) & ~mask
            price = cost + added.bit_count() - 1
            if price >= incumbent:
                continue
            grown = mask | added
            closed = _close(masks, grown, _seed(masks, added, grown))
            if closed == full:
                incumbent = price
            elif best.get(closed, incumbent) > price:
                best[closed] = price
                heapq.heappush(heap, (price, closed))
    return incumbent, True


def _root_moves(g, incumbent):
    """The least vertex of each vertex orbit found among the first moves
    priced under the incumbent (forcing from v first costs deg(v))."""
    moves = [v for v in range(g.n) if 0 < g.degree(v) < incumbent]
    return [orbit[0] for orbit in vertex_orbits(g, moves)]


def zero_forcing_number(g, floor=0):
    """Exact Z(G) with the lexicographically least minimum zero forcing set.

    floor must be a proven lower bound for Z(G), such as a nullity; a
    forcing set that small ends the search, one below it raises ValueError.
    Past STATE_BUDGET the result is bounds only (is_exact=False), with the
    greedy zero forcing set as witness and upper bound.
    """
    stats = _SearchStats()
    n, masks = g.n, g.adjacency_masks
    greedy = _greedy_upper_bound(g)
    size, exact = _wavefront(g, len(greedy), floor, stats)
    if exact:
        witness = None if size < floor else _witness_of_size(masks, n, size, stats)
        if witness is None:
            raise ValueError(f"the floor {floor} is not a lower bound: Z(G) is below it")
        forces, lower, upper = zf_closure(g, witness).log, size, size
    else:
        witness, forces, lower, upper = greedy, (), max(floor, size), len(greedy)
    return ZfResult(
        upper,
        tuple(witness),
        forces,
        subsets_examined=stats.nodes,
        is_exact=exact,
        lower_bound=lower,
        upper_bound=upper,
    )


def _greedy_upper_bound(g):
    """Drop each vertex in turn while the rest still forces. A trial set's
    white vertices are the dropped ones and v, so only their blue neighbors
    can force: they seed the closure's worklist."""
    n, masks = g.n, g.adjacency_masks
    full = (1 << n) - 1
    blue, near = full, 0  # near: the neighbors of the dropped vertices
    for v in range(n):
        trial, seen = blue ^ (1 << v), near | masks[v]
        if _close(masks, trial, seen & trial) == full:
            blue, near = trial, seen
    return [v for v in range(n) if (blue >> v) & 1]
