"""The paper's hand constructions for its named families, kept as fixtures.

The library settles every family with its general tools (the forcing
search, nullity over a field, derived red certificates, equitable
partitions, max-flow). The explicit forcing sets, red certificates,
doubling bound, nullvector scheme, divisor criterion and quotient spectra
below are the paper's worked examples; the tests check that they still hold
and agree with the general answers. One plain function per construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import zflab as z
from oracles import matvec, regular_representation
from zflab.equitable import check_automorphism


def aztec_cells(r):
    """The cells (i, j) of the order-r diamond in `aztec_diamond`'s vertex
    order: row-major, so vertex v is cell number v."""
    return [
        (i, j)
        for i in range(1, 2 * r + 1)
        for j in range(1, 2 * r + 1)
        if r + 1 <= i + j <= 3 * r + 1 and abs(j - i) <= r
    ]


def subdivision_edge_insertion(g, e1, e2, k=1):
    """k-subdivide the edges e1 = (u, v) and e2 = (w, x), then join the i-th
    new vertices of the two subdivided paths by an edge, for i = 1..k. The
    new vertices are appended, those of e1 first, in path order from u and
    from w."""
    (u, v), (w, x) = e1, e2
    dead = {tuple(sorted(e1)), tuple(sorted(e2))}
    if len(dead) != 2 or not dead <= set(g.edges):
        raise ValueError("need two distinct edges of the graph")
    first = [u, *range(g.n, g.n + k), v]
    second = [w, *range(g.n + k, g.n + 2 * k), x]
    edges = [e for e in g.edges if e not in dead]
    edges += list(zip(first, first[1:])) + list(zip(second, second[1:]))
    edges += [(first[i], second[i]) for i in range(1, k + 1)]
    return z.Graph(g.n + 2 * k, edges)


# ---------------------------------------------------------------------------
# explicit zero forcing sets, in the vertex order of the family's generator


def aztec_zfs(r):
    """The 2r cells next to the two upper boundary diagonals of the order-r
    diamond."""
    cells = aztec_cells(r)
    blue = [(i, r + 1 - i) for i in range(1, r + 1)]
    blue += [(i, r + i) for i in range(1, r + 1)]
    return frozenset(cells.index(c) for c in blue)


def circulant_half_zfs(n):
    """n/2 + 2 vertices for the circulant with connection set {1, n/2 - 1},
    8 | n."""
    if n % 8:
        raise ValueError("needs n divisible by 8")
    return frozenset(list(range(n // 2 + 1)) + [n - 1])


def ecg_zfs(t, k):
    """Four vertices for the widened cube ECG(t, k)."""
    n = 8 + 2 * (t + k)
    r = n - t - 3
    return frozenset({0, r, r + 1, n - 1})


def circulant_zfs(s):
    """The generic 2 * max(S) consecutive vertices for a circulant with
    connection set S."""
    return frozenset(range(2 * max(s)))


def circulant_consec_minus_zfs(n):
    """For the circulant on n vertices with connection set [m] minus {m - 1},
    m = ceil(n/2) - 1: all vertices but three."""
    m = -(-n // 2) - 1
    if n % 2:
        removed = {m - 2, m - 1, m + 2}
    else:
        removed = {2, m - 1, m + 3}
    return frozenset(set(range(n)) - removed)


# ---------------------------------------------------------------------------
# red certificates and the one-sided doubling bound


def aztec_diagonal_certificate(r):
    """One move per anti-diagonal D_l of the order-r diamond graph, all of it
    inside one parity class: along each diagonal the last cell is colored
    using the second-to-last as witness and the earlier cells split into
    X / Y by alternating sign. Returns the graph and the moves."""
    cells = aztec_cells(r)
    moves = []
    for ell in range(r):
        idx = [cells.index((i + ell, r + 2 + ell - i)) for i in range(1, r + 2)]
        u = idx[r]  # last cell (i = r+1)
        v = idx[r - 1]  # i = r
        x = {}
        y = {}
        for i in range(1, r):  # cells with i < r
            if (r - i) % 2 == 0:
                x[idx[i - 1]] = 1
            else:
                y[idx[i - 1]] = 1
        moves.append(z.RedMove.make(u, v, x, y, 0))
    return z.aztec_diamond(r), moves


def circulant_half_certificate(n):
    """The n/4 twin moves plus the alternating-sign move coloring vertex n/2
    in the circulant with connection set {1, n/2 - 1}, n divisible by 8. All
    targets and witnesses are even (one side of the bipartition)."""
    if n % 8:
        raise ValueError("needs n divisible by 8")
    moves = [z.RedMove.make(v, v + n // 2) for v in range(0, n // 2 - 1, 2)]
    x = {}
    y = {}
    for j, w in enumerate(range(n // 2 + 4, n - 1, 2)):
        if j % 2 == 0:
            y[w] = 1
        else:
            x[w] = 1
    moves.append(z.RedMove.make(n // 2, n // 2 + 2, x, y, 0))
    return moves


def bipartite_doubling_bound(g, side, certificate):
    """Replay a one-sided certificate on a balanced bipartite graph and
    return 2 * |red set|, checked against the exact nullity.

    Hypotheses verified: the given side and its complement are both
    independent sets of equal size, every move's target lies in the side,
    and every move's witness data stays inside the side.
    """
    side = frozenset(side)
    other = frozenset(range(g.n)) - side
    if len(side) != len(other):
        raise ValueError("the two sides must have equal size")
    for u, v in g.edges:
        if (u in side) == (v in side):
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
    certificate = tuple(certificate)
    for idx, move in enumerate(certificate):
        if move.u not in side:
            problem = f"target {move.u} escapes the side"
        elif not move.participants() <= side:
            problem = "move data escapes the side"
        else:
            continue
        # an earlier move that fails its replay is the first failing move
        z.apply_red_sequence(g, certificate[:idx])
        raise z.RedCertificateError(idx, problem)
    bound = 2 * len(z.apply_red_sequence(g, certificate))
    nullity = z.adjacency_matrix(g).rank_nullity()[1]
    assert bound <= nullity, f"doubled red set {bound} exceeds the nullity {nullity}"
    return bound


# ---------------------------------------------------------------------------
# the widened-cube nullvector scheme


def verify_ecg_nullvectors(q):
    """Exact check that the four decomposition blocks of the widened cube on
    24q+12 vertices (equal horizontal and vertical ladder width 6q+1) are all
    singular: the three tiled vectors annihilate blocks 0..2 and block 3 is
    the transpose of block 1. Returns True when every check passes."""
    t = 6 * q + 1
    g = z.extended_cube(t, t)
    n = g.n
    r = n // 4
    dec = z.equitable_decomposition(g, [(x + r) % n for x in range(n)])
    if dec.k != 4 or not dec.exact:
        return False
    b0, b1, b2, b3 = dec.blocks

    # vectors over Q(i) by their coordinates (a_0, b_0, a_1, b_1, ...) on the
    # basis (1, i), multiplied through the regular representation
    tile0 = [1, 0, -2, 0, 1, 0]  # (1, -2, 1)
    tile1 = [0, 1, 1, 1, 1, 0]  # (i, 1 + i, 1)
    hat1 = [-1, 0, -1, -1, 0, -1]  # (-1, -1 - i, -i)
    tile2 = [1, 0, 0, 0, -1, 0]  # (1, 0, -1)
    hat2 = [-1, 0, 0, 0, 1, 0]  # (-1, 0, 1)

    x0 = tile0 * (2 * q + 1)
    x1 = (tile1 + hat1) * q + tile1
    x2 = (tile2 + hat2) * q + tile2
    if len(x0) != 2 * r:
        return False
    return (
        not any(matvec(regular_representation(b0), x0))
        and not any(matvec(regular_representation(b1), x1))
        and not any(matvec(regular_representation(b2), x2))
        and b3 == tuple(zip(*b1))
    )


# ---------------------------------------------------------------------------
# circulant connectivity and quotients


def circulant_kappa_deficient(n, connection_set):
    """Divisor criterion for kappa < delta on a circulant.

    Scans the proper divisors d of n in increasing order; d witnesses
    deficiency when the number of distinct positive residues modulo d of the
    steps and their negatives falls below min(d - 1, delta * d / n). Returns
    (True, d) for the first witness, else (False, None).
    """
    s_set = sorted(set(connection_set))
    if not s_set or any(not 1 <= s <= n // 2 for s in s_set):
        raise ValueError("invalid connection set")
    delta = 2 * len(s_set) - (1 if n % 2 == 0 and n // 2 in s_set else 0)
    for d in range(1, n):
        if n % d:
            continue
        residues = {s % d for s in s_set} | {(n - s) % d for s in s_set}
        residues.discard(0)
        count = len(residues)
        # count < min(d-1, delta*d/n), kept in exact arithmetic
        if count < d - 1 and Fraction(count) < Fraction(delta * d, n):
            return True, d
    return False, None


def orbit_partition(g, phi):
    """The orbits of the automorphism phi, ordered by least vertex, as an
    equitable partition."""
    perm = check_automorphism(g, phi)
    blocks, seen = [], set()
    for s in range(g.n):
        if s in seen:
            continue
        orbit, v = [s], perm[s]
        while v != s:
            orbit.append(v)
            v = perm[v]
        seen.update(orbit)
        blocks.append(tuple(sorted(orbit)))
    ok, b = z.is_equitable(g, blocks)
    assert ok, "the orbits of an automorphism are not equitable"
    return z.Partition(tuple(blocks), b)


def divisor_spectrum(g, partition):
    """Eigenvalues of the divisor matrix via the similarity that symmetrizes
    it: scaling block i by sqrt(|V_i|) turns [b_ij] into the symmetric
    matrix [b_ij * sqrt(|V_i| / |V_j|)] with the same spectrum."""
    b = z.divisor_matrix(g, partition.blocks)
    sizes = [len(blk) for blk in partition.blocks]
    return z.spectrum(
        [
            [float(b[i][j]) * math.sqrt(sizes[i] / sizes[j]) for j in range(len(sizes))]
            for i in range(len(sizes))
        ]
    )
