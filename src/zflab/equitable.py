"""Equitable partitions, divisor matrices, automorphism checks, vertex
orbits, and the root-of-unity block decomposition of A(G).

A partition V_0, ..., V_k of V(G) is equitable when every vertex of V_i has
the same number b_ij of neighbors in V_j; the matrix [b_ij] is the divisor
matrix, and its spectrum embeds in the spectrum of A(G). A uniform
automorphism (all orbits of one size k) refines this: slicing A(G) along the
powers of the automorphism applied to a transversal and combining the slices
with k-th root of unity weights block-diagonalizes it.
One loop builds the blocks for every orbit size, as tuples of row tuples,
from one table of the powers of omega: exactly for k in {1, 2, 3, 4, 6},
with ints for entries in Q and QuadRationals for entries in Q(i) or Q(w)
off Q, in complex floats otherwise. Spectra are descending tuples of
floats.

One refinement, on vertex bitmasks, serves the coarsest equitable partition
and the vertex-orbit search; it orders cells without reading vertex labels,
so that partitions reached from two vertices line up when an automorphism
maps one vertex to the other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import mask_vertices, vertex_mask
from .linalg import spectrum


class Partition(NamedTuple):
    """Ordered disjoint blocks covering 0..n-1 and b, their verified
    block-to-block neighbor count table."""

    blocks: tuple  # ((v, ...), ...)
    b: tuple


def _check_partition(g, blocks):
    seen = set()
    for blk in blocks:
        if not blk:
            raise ValueError("empty block")
        for v in blk:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears twice")
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("blocks do not cover the vertex set")


def _neighbor_counts(g, blocks):
    """Each vertex's tuple of neighbor counts in every block."""
    index = {v: i for i, blk in enumerate(blocks) for v in blk}
    counts = {}
    for v in index:
        c = [0] * len(blocks)
        for w in g.neighbors(v):
            c[index[w]] += 1
        counts[v] = tuple(c)
    return counts


def is_equitable(g, blocks):
    """(True, b) when the neighbor counts are block-constant, else
    (False, (v, j)) naming a vertex and block index that break constancy."""
    blocks = tuple(tuple(blk) for blk in blocks)
    _check_partition(g, blocks)
    counts = _neighbor_counts(g, blocks)
    for blk in blocks:
        first = counts[blk[0]]
        for v in blk:
            if counts[v] != first:
                j = next(t for t, c in enumerate(counts[v]) if c != first[t])
                return False, (v, j)
    return True, tuple(counts[blk[0]] for blk in blocks)


def coarsest_equitable(g, initial=None):
    """Refine the initial vertex lists (default: one block) by neighbor-count
    signatures until stable. The result refines the input, is equitable, and
    is the coarsest such refinement; blocks are ordered by least vertex."""
    if initial is None:
        initial = [range(g.n)] if g.n else []
    else:
        _check_partition(g, initial)
    part = _Ordered.of(g.n, [vertex_mask(blk, g.n) for blk in initial])
    part.refine(g.adjacency_masks, sorted(part.cells))
    blocks = sorted((mask_vertices(c) for c in part.cells.values()), key=min)
    ok, b = is_equitable(g, blocks)
    if not ok:
        raise ArithmeticError("the refined partition is not equitable")
    return Partition(tuple(blocks), b)


def _count_planes(masks, s):
    """Bit planes of each vertex's neighbor count in the vertex set s, most
    significant first: bit i of the count of v is bit v of the plane for 2^i."""
    planes = []
    while s:
        b = s & -s
        s ^= b
        carry, i = masks[b.bit_length() - 1], 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            p = planes[i]
            planes[i] = p ^ carry
            carry &= p
            i += 1
    return planes[::-1]


class _Ordered:
    """An ordered partition of 0..n-1: `cells` maps the position of each
    cell's first vertex to the cell's vertex bitmask, and at[v] is the
    position of v's cell. Positions never name vertices, so an ordered
    partition relabelled by a permutation keeps its positions. `trace` is
    what `refine` returned when the partition was made by individualizing."""

    def __init__(self, cells, at):
        self.cells, self.at, self.trace = cells, at, ()

    @classmethod
    def of(cls, n, masks):
        """The partition whose cells are `masks`, in order."""
        cells, at, pos = {}, [0] * n, 0
        for c in masks:
            cells[pos] = c
            for v in mask_vertices(c):
                at[v] = pos
            pos += c.bit_count()
        return cls(cells, at)

    def individualized(self, masks, pos, x):
        """A refined copy in which x leaves the cell at `pos` for a cell of
        its own at the end of that cell's span."""
        cells, at = dict(self.cells), list(self.at)
        last = pos + cells[pos].bit_count() - 1
        cells[pos] ^= 1 << x
        cells[last], at[x] = 1 << x, last
        child = _Ordered(cells, at)
        child.trace = child.refine(masks, [last])
        return child

    def target(self):
        """Position of the first largest cell, or None if it is a singleton."""
        size, pos = max((c.bit_count(), -p) for p, c in self.cells.items())
        return -pos if size > 1 else None

    def refine(self, masks, queue):
        """Refine to the coarsest equitable partition below, splitting every
        cell by its vertices' neighbor counts in each queued cell in turn.
        The partition must already be equitable with respect to every cell
        not on the queue. A split cell's fragments follow one another in
        increasing order of count; each joins the queue unless it is the
        first largest fragment of a cell already used as a splitter.
        Returns the positions of the new cells in the order they were made,
        which relabelling does not change either."""
        cells, at, n = self.cells, self.at, len(self.at)
        made = []
        while queue and len(cells) < n:
            planes = _count_planes(masks, cells[queue.pop(0)])
            rest, hit = 0, []
            for p in planes:
                rest |= p
            while rest:
                pos = at[(rest & -rest).bit_length() - 1]
                c = cells[pos]
                rest &= ~c
                if c & (c - 1):
                    hit.append(pos)
            hit.sort()
            for pos in hit:
                frags = [cells[pos]]
                for p in planes:
                    frags = [f for h in frags for f in (h & ~p, h & p) if f]
                if len(frags) == 1:
                    continue
                starts, start, largest = [], pos, 0
                for f in frags:
                    size = f.bit_count()
                    cells[start] = f
                    if start != pos:
                        made.append(start)
                        while f:
                            b = f & -f
                            at[b.bit_length() - 1] = start
                            f ^= b
                    if size > largest:
                        largest, first_largest = size, start
                    starts.append(start)
                    start += size
                if pos in queue:
                    queue += starts[1:]
                else:
                    queue += [q for q in starts if q != first_largest]
        return made


def divisor_matrix(g, blocks):
    """Integer divisor matrix [b_ij] of an equitable partition's blocks, as
    is_equitable's tuple of row tuples."""
    ok, data = is_equitable(g, blocks)
    if not ok:
        v, j = data
        raise ValueError(f"partition is not equitable: vertex {v} vs block {j}")
    return data


# ---------------------------------------------------------------------------
# automorphisms


def check_automorphism(g, perm):
    """Validate a permutation as a graph automorphism; raises naming an edge
    whose image is not an edge. A bijection that maps the edges into the
    edges maps them onto the edges, so it also keeps every non-edge."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    for u, v in g.edges:
        if not g.has_edge(perm[u], perm[v]):
            raise ValueError(
                f"edge ({u},{v}) maps to ({perm[u]},{perm[v]}), which is not an edge"
            )
    return perm


# Refinements (individualize one vertex, then refine) that one vertex_orbits
# call may run; the Shrikhande graph, the hardest graph in the tests, takes 42.
# Orbits the budget leaves unmerged only cost the Z search extra root moves,
# never a wrong answer.
ORBIT_NODE_BUDGET = 64


def vertex_orbits(g, vertices):
    """Split `vertices` into classes, each inside one orbit of Aut(G), ordered
    by least vertex. Two vertices share a class only when a permutation that
    check_automorphism accepts links them, so the classes are sound whatever
    the search misses; on the graphs it resolves they are the orbits.

    The search individualizes and refines (McKay and Piperno, Practical graph
    isomorphism, II, 2014). For each vertex w of a cell of the coarsest
    equitable partition, not yet joined to an earlier vertex v, it descends
    from w looking for a discrete partition that lines up cell by cell with
    the first one reached from v; the matching gives a candidate permutation
    and each verified one joins the cycles it moves. At most
    ORBIT_NODE_BUDGET refinements run."""
    n, masks = g.n, g.adjacency_masks
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    vertices = sorted(vertices)
    if len(vertices) < 2:
        return tuple((v,) for v in vertices)
    root = _Ordered.of(n, [(1 << n) - 1])
    root.refine(masks, [0])
    want = vertex_mask(vertices, n) if len(root.cells) < n else 0
    search = _OrbitSearch(g)
    try:
        for pos, cell in sorted(root.cells.items()):
            paths = {}  # the path from v of each v that joined no earlier vertex
            for w in mask_vertices(cell & want):
                if find(w) != w:
                    continue
                top = search.child(root, pos, w) if paths else None
                for v, path in paths.items():
                    if not path:
                        path.append(search.child(root, pos, v))
                    perm = search.match(top, path, 0)
                    if perm is not None:
                        for a, b in enumerate(perm):  # roots stay least
                            ra, rb = find(a), find(b)
                            parent[max(ra, rb)] = min(ra, rb)
                        break
                else:
                    paths[w] = [] if top is None else [top]
    except _BudgetSpent:
        pass
    classes = {}
    for v in vertices:
        classes.setdefault(find(v), []).append(v)
    return tuple(tuple(c) for c in classes.values())


class _BudgetSpent(Exception):
    """ORBIT_NODE_BUDGET refinements have run."""


class _OrbitSearch:
    """The individualization-refinement tree of one graph, at most
    ORBIT_NODE_BUDGET nodes of it."""

    def __init__(self, g):
        self.g, self.masks, self.budget = g, g.adjacency_masks, ORBIT_NODE_BUDGET

    def child(self, part, pos, x):
        if self.budget == 0:
            raise _BudgetSpent
        self.budget -= 1
        return part.individualized(self.masks, pos, x)

    def match(self, part, path, depth):
        """A verified automorphism taking a discrete partition on `path` to
        one below `part`, or None. path[0] is the base vertex's node and
        path[d + 1] the child of path[d] at the least vertex of its target
        cell; the path is extended as the search needs it."""
        node = path[depth]
        if part.trace != node.trace:
            return None
        pos = part.target()
        if pos is None:
            perm = [0] * len(part.at)
            for p, b in node.cells.items():
                perm[b.bit_length() - 1] = part.cells[p].bit_length() - 1
            try:
                return check_automorphism(self.g, perm)
            except ValueError:
                return None
        if len(path) == depth + 1:
            c = node.cells[pos]
            path.append(self.child(node, pos, (c & -c).bit_length() - 1))
        for x in mask_vertices(part.cells[pos]):
            perm = self.match(self.child(part, pos, x), path, depth + 1)
            if perm is not None:
                return perm
        return None


def _cycles(perm):
    n = len(perm)
    seen = [False] * n
    cycles = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        v = perm[s]
        while v != s:
            cyc.append(v)
            seen[v] = True
            v = perm[v]
        cycles.append(tuple(cyc))
    return cycles


# ---------------------------------------------------------------------------
# the block decomposition


class QuadRational(NamedTuple):
    """A block entry a + b*g outside Q, with integers a and b != 0: g = i
    for kind "i", g = w = exp(2 pi i / 3) for kind "w". It is a value to
    print and to convert to complex, with no arithmetic."""

    a: int
    b: int
    kind: str

    def __complex__(self):
        g = 1j if self.kind == "i" else complex(-0.5, math.sqrt(3) / 2)
        return complex(self.a) + complex(self.b) * g

    def __repr__(self):
        sign = "-" if self.b < 0 else "+"
        return f"({self.a}{sign}{abs(self.b)}{self.kind})"


class Decomposition(NamedTuple):
    k: int
    transversals: tuple  # (T_0, ..., T_{k-1}), each a tuple of vertices
    blocks: tuple  # row tuples: ints and QuadRationals when exact, else complex
    exact: bool

    def block_spectra(self):
        return [spectrum(b) for b in self.blocks]


def _powers(k):
    """The powers omega^m, m = 0..k-1, of omega = exp(2 pi i / k), and the
    kind of g: integer coordinates (a, b) on the basis (1, g) for k in
    {1, 2, 4} (g = i) and {3, 6} (g = w, omega_6 = 1 + w), complex floats
    and kind None for any other k."""
    if k in (1, 2, 4):
        return [(1, 0), (0, 1), (-1, 0), (0, -1)][:: 4 // k], "i"
    if k in (3, 6):
        return [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)][:: 6 // k], "w"
    return [complex(math.cos(2 * math.pi * m / k), math.sin(2 * math.pi * m / k))
            for m in range(k)], None


def equitable_decomposition(g, phi, t0=None):
    """Slice A(G) along a uniform automorphism phi and combine the slices
    with k-th root of unity weights: entry (a, c) of block j is the sum of
    omega^(j*l) over the slices l with a 1 at (a, c).

    A(G) is compatible with every automorphism, and check_automorphism
    proves phi is one, so the slices are read straight off the graph. The
    blocks of A(G) - lam*I are these blocks minus lam*I. The transversal t0
    defaults to the least vertex of each orbit. The powers of omega come
    from one table, indexed by j*l mod k: exact for orbit sizes 1, 2, 3, 4
    and 6, where an entry in Q is an int and any other a QuadRational;
    complex floats with exact=False for other sizes. The empty graph has
    no orbit to slice along and raises ValueError.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    perm = check_automorphism(g, phi)
    cycles = sorted(_cycles(perm), key=min)
    sizes = {len(c) for c in cycles}
    if len(sizes) != 1:
        raise ValueError(f"automorphism is not uniform: orbit sizes {sorted(sizes)}")
    k = sizes.pop()
    if t0 is None:
        t0 = tuple(min(c) for c in cycles)
    else:
        t0 = tuple(t0)
        orbit_of = {}
        for idx, c in enumerate(cycles):
            for v in c:
                orbit_of[v] = idx
        for v in t0:
            if v not in orbit_of:
                raise ValueError(f"t0 vertex {v} is out of range 0..{g.n - 1}")
        hit = [orbit_of[v] for v in t0]
        if len(t0) != len(cycles) or sorted(hit) != list(range(len(cycles))):
            raise ValueError("t0 must contain exactly one vertex per orbit")
    transversals = [t0]
    cur = t0
    for _ in range(k - 1):
        cur = tuple(perm[v] for v in cur)
        transversals.append(cur)
    # hits[a][c]: the slices l with a 1 at (a, c) of A[T_0, T_l], ascending
    where = {v: (ell, c) for ell, tl in enumerate(transversals)
             for c, v in enumerate(tl)}
    hits = []
    for u in t0:
        row = {}
        for ell, c in sorted(where[v] for v in g.neighbors(u)):
            row.setdefault(c, []).append(ell)
        hits.append(row)
    powers, kind = _powers(k)
    blocks = []
    for j in range(k):
        block = []
        for row in hits:
            out = [0 if kind else 0j] * len(t0)
            for c, ells in row.items():
                terms = [powers[j * ell % k] for ell in ells]
                if kind is None:
                    out[c] = sum(terms, 0j)
                else:
                    a, b = map(sum, zip(*terms))
                    out[c] = QuadRational(a, b, kind) if b else a
            block.append(tuple(out))
        blocks.append(tuple(block))
    return Decomposition(k, tuple(transversals), tuple(blocks), kind is not None)
