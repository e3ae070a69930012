"""Equitable partitions, divisor matrices, automorphism checks, and the
root-of-unity block decomposition of A(G).

A partition V_0, ..., V_k of V(G) is equitable when every vertex of V_i has
the same number b_ij of neighbors in V_j; the matrix [b_ij] is the divisor
matrix, and its spectrum embeds in the spectrum of A(G). A uniform
automorphism (all orbits of one size k) refines this: slicing A(G) along the
powers of the automorphism applied to a transversal and combining the slices
with k-th root of unity weights block-diagonalizes it.
One loop builds the blocks for every orbit size, as tuples of row tuples:
exactly, with entries in Q, Q(i) or Q(w), for k in {1, 2, 3, 4, 6}, in
complex floats otherwise. Spectra are descending tuples of floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import QQ, ExactMatrix, root_of_unity, spectrum


@dataclass(frozen=True)
class Partition:
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
        blocks = [tuple(range(g.n))]
    else:
        blocks = [tuple(blk) for blk in initial]
        _check_partition(g, blocks)
    while True:
        counts = _neighbor_counts(g, blocks)
        new_blocks = []
        for blk in blocks:
            sig = {}
            for v in blk:
                sig.setdefault(counts[v], []).append(v)
            groups = sorted(sig.values(), key=min)
            new_blocks.extend(tuple(sorted(grp)) for grp in groups)
        changed = len(new_blocks) > len(blocks)
        blocks = sorted(new_blocks, key=min)
        if not changed:
            break
    ok, b = is_equitable(g, blocks)
    if not ok:
        raise ArithmeticError("the refined partition is not equitable")
    return Partition(tuple(blocks), b)


def divisor_matrix(g, blocks):
    """Integer divisor matrix [b_ij] of an equitable partition's blocks."""
    ok, data = is_equitable(g, blocks)
    if not ok:
        v, j = data
        raise ValueError(f"partition is not equitable: vertex {v} vs block {j}")
    return ExactMatrix(QQ, [list(row) for row in data])


# ---------------------------------------------------------------------------
# automorphisms


def check_automorphism(g, perm):
    """Validate a permutation as a graph automorphism; raises naming a
    violated pair."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) != g.has_edge(perm[u], perm[v]):
                raise ValueError(
                    f"pair ({u},{v}) maps to ({perm[u]},{perm[v]}) and changes adjacency"
                )
    return perm


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


@dataclass(frozen=True)
class Decomposition:
    k: int
    transversals: tuple  # (T_0, ..., T_{k-1}), each a tuple of vertices
    blocks: tuple  # row tuples: Fractions or QuadRationals when exact, else complex
    exact: bool

    def block_spectra(self):
        return [spectrum(b) for b in self.blocks]


def equitable_decomposition(g, phi, t0=None):
    """Slice A(G) along a uniform automorphism phi and combine the slices
    with k-th root of unity weights.

    A(G) is compatible with every automorphism, and check_automorphism
    proves phi is one, so the slices are read straight off the graph. The
    blocks of A(G) - lam*I are these blocks minus lam*I. The transversal t0
    defaults to the least vertex of each orbit. Exact block arithmetic for
    orbit sizes 1, 2, 3, 4 and 6; other sizes fall back to complex floats
    with exact=False.
    """
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
    # slice l is A[T_0, T_l], each row as the columns of its 1 entries
    cols = [{v: c for c, v in enumerate(tl)} for tl in transversals]
    slices = [[[col[v] for v in g.neighbors(a) if v in col] for a in t0]
              for col in cols]
    r = len(t0)
    omega = root_of_unity(k)
    zero = 0 * omega  # Fraction(0), a QuadRational zero or 0j
    blocks = []
    for j in range(k):
        acc = [[zero] * r for _ in range(r)]
        for ell in range(k):
            w = omega ** (j * ell)
            for a, cols in enumerate(slices[ell]):
                for c in cols:
                    acc[a][c] = acc[a][c] + w
        blocks.append(tuple(map(tuple, acc)))
    exact = not isinstance(omega, complex)
    return Decomposition(k, tuple(transversals), tuple(blocks), exact)
