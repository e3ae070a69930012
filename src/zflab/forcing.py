"""The blue/white color change rule: closures, zero forcing sets, and the
exact minimum zero forcing number search.

The color change rule: a blue vertex with exactly one white neighbor turns
that neighbor blue. The closure of an initial blue set is the fixed point of
that rule (order-independent); a zero forcing set is one whose closure is all
of V(G).

Z(G) comes from the wavefront search of Brimkov, Fast and Hicks (EJOR 2019)
over closed blue sets. The witness is then the lexicographically least set
of size Z, by a depth-first scan that never descends into a vertex the
closure of the earlier ones already colors: a minimum set with such a
vertex would contain a smaller zero forcing set.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

# Closed sets the wavefront may expand before it settles for bounds. With no
# floor, Circ[48,{1,7}] needs 53,335 (about 11 s on a 2-core Xeon guest).
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
    elapsed: float = 0.0
    is_exact: bool = True
    lower_bound: int | None = None
    upper_bound: int | None = None


def zf_closure(g, blue):
    """Apply the color change rule until stable.

    The log is deterministic: at each step the lowest-index blue vertex that
    can force acts (its forced vertex is its unique white neighbor). The
    fixed point itself does not depend on that order.
    """
    n = g.n
    blue = set(blue)
    for v in blue:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
    masks = g.adjacency_masks
    mask = _to_mask(blue)
    full = (1 << n) - 1
    log = []
    while mask != full:
        acted = False
        for v in range(n):
            if not (mask >> v) & 1:
                continue
            white = masks[v] & ~mask
            if white and white & (white - 1) == 0:
                w = white.bit_length() - 1
                log.append((v, w))
                mask |= white
                acted = True
                break
        if not acted:
            break
    colored = frozenset(v for v in range(n) if (mask >> v) & 1)
    return Coloring(n, colored, tuple(log))


def is_zfs(g, blue):
    """True iff the closure of blue colors every vertex."""
    return _closure_mask(g.adjacency_masks, _to_mask(blue), (1 << g.n) - 1) == (
        1 << g.n
    ) - 1


def _to_mask(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _closure_mask(masks, mask, full):
    while True:
        progressed = False
        rem = mask
        while rem:
            b = rem & -rem
            rem ^= b
            white = masks[b.bit_length() - 1] & ~mask
            if white and white & (white - 1) == 0:
                mask |= white
                progressed = True
        if not progressed or mask == full:
            return mask


@dataclass
class _SearchStats:
    nodes: int = 0


def _witness_of_size(masks, n, size, stats):
    """Lexicographically least size-`size` set whose closure is full, or
    None; skips any vertex the running prefix closure already colors."""
    full = (1 << n) - 1
    chosen = []

    def rec(start, mask):
        slots = size - len(chosen)
        if slots == 0:
            return mask == full
        for w in range(start, n - slots + 1):
            if (mask >> w) & 1:
                continue
            stats.nodes += 1
            chosen.append(w)
            if rec(w + 1, _closure_mask(masks, mask | (1 << w), full)):
                return True
            chosen.pop()
        return False

    return chosen if rec(0, 0) else None


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
            grown = mask | masks[v] | (1 << v)
            price = cost + (grown ^ mask).bit_count() - 1
            if price >= incumbent:
                continue
            closed = _closure_mask(masks, grown, full)
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
    t0 = time.perf_counter()
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
        elapsed=time.perf_counter() - t0,
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
