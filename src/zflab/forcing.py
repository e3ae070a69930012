"""The blue/white color change rule: closures, zero forcing sets, and the
exact minimum zero forcing number search.

The color change rule: a blue vertex with exactly one white neighbor turns
that neighbor blue. The closure of an initial blue set is the fixed point of
that rule (order-independent); a zero forcing set is one whose closure is all
of V(G). Every closure runs through one worklist engine, `_close`: it revisits
only vertices next to a new blue one and pops the lowest first, so its log
keeps `zf_closure`'s lowest-index-forcer order.

Z(G) comes from the wavefront search of Brimkov, Fast and Hicks (EJOR 2019)
over closed blue sets. The witness is then the lexicographically least set
of size Z, by a depth-first scan that never descends into a vertex the
closure of the earlier ones already colors: a minimum set with such a
vertex would contain a smaller zero forcing set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

# Closed sets the wavefront may expand before it settles for bounds. With no
# floor, Circ[48,{1,7}] needs 53,335 (about 5 s on a 2-core Xeon guest).
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


def is_zfs(g, blue):
    """True iff the closure of blue colors every vertex."""
    mask = _to_mask(blue, g.n)
    return _close(g.adjacency_masks, mask, mask) == (1 << g.n) - 1


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


def _wavefront(masks, n, incumbent, floor, stats):
    """Z by a cheapest-first search over closed sets S, each priced at the
    fewest initial vertices reaching it: forcing through v pays for N[v] \\ S
    but one white neighbor of v and closes; finishing pays for the white
    vertices. Returns (Z, True), stopping once `incumbent` (a known forcing
    set size) is at most `floor`, or (lower, False) with Z >= lower once
    STATE_BUDGET states are expanded."""
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
        for v in range(n):
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
    size, exact = _wavefront(masks, n, len(greedy), floor, stats)
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
    blue = list(range(g.n))
    for v in range(g.n):
        trial = [w for w in blue if w != v]
        if is_zfs(g, trial):
            blue = trial
    return blue
