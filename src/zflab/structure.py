"""Vertex connectivity, minimum degree, and Strong Arnold Property
verification.

Vertex connectivity runs unit-capacity max-flow on the vertex-split digraph
(each vertex v becomes v_in -> v_out with capacity 1). Source/target pairs
follow the standard sound reduction: fix a minimum-degree vertex v0, run
flows from v0 to each of its non-neighbors, and between each non-adjacent
pair of neighbors of v0. Any minimum separator either misses v0 (first
family catches it) or contains it, in which case v0 has neighbors in two
components of the separated graph and the second family catches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import QQ, ExactMatrix


@dataclass(frozen=True)
class KappaWitness:
    kappa: int
    separator: tuple  # empty for complete or disconnected graphs


def min_degree(g):
    if g.n == 0:
        raise ValueError("empty graph")
    return min(g.degree(v) for v in range(g.n))


# ---------------------------------------------------------------------------
# max-flow on the split digraph

_INF = 1 << 30


def _split_maxflow(g, s, t):
    """Max number of internally vertex-disjoint s-t paths, plus a minimum
    vertex cut realizing it. Node 2v = v_in, 2v+1 = v_out."""
    n = g.n
    cap = {}

    def add(a, b, c):
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)

    for v in range(n):
        add(2 * v, 2 * v + 1, _INF if v in (s, t) else 1)
    for u, v in g.edges:
        add(2 * u + 1, 2 * v, _INF)
        add(2 * v + 1, 2 * u, _INF)
    adj = {}
    for (a, b) in cap:
        adj.setdefault(a, []).append(b)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        # BFS augmenting path
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            a = queue.pop(0)
            for b in adj.get(a, ()):
                if b not in parent and cap[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            break
        b = sink
        while parent[b] is not None:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
        if flow > n:
            raise ArithmeticError("flow exceeded vertex count")
    # min cut: split arcs (v_in -> v_out) crossing the reachable set
    reach = {source}
    stack = [source]
    while stack:
        a = stack.pop()
        for b in adj.get(a, ()):
            if b not in reach and cap[(a, b)] > 0:
                reach.add(b)
                stack.append(b)
    cut = [
        v
        for v in range(n)
        if 2 * v in reach and 2 * v + 1 not in reach
    ]
    return flow, cut


def vertex_connectivity(g):
    """Exact vertex connectivity with a separator witness (empty separator
    for complete graphs and for graphs that are already disconnected)."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        return KappaWitness(0, ())
    if g.is_complete():
        return KappaWitness(n - 1, ())
    # v0 has least degree and the graph is not complete, so v0 has a
    # non-neighbor and the pairs below are nonempty; every flow is below n
    v0 = min(range(n), key=g.degree)
    best, best_cut = n, ()
    nbrs = sorted(g.neighbors(v0))
    non_nbrs = [t for t in range(n) if t != v0 and t not in g.neighbors(v0)]
    pairs = [(v0, t) for t in non_nbrs]
    pairs += [
        (x, y)
        for i, x in enumerate(nbrs)
        for y in nbrs[i + 1 :]
        if not g.has_edge(x, y)
    ]
    for s, t in pairs:
        flow, cut = _split_maxflow(g, s, t)
        if flow < best:
            best, best_cut = flow, cut
            if best == 0:
                break
    return KappaWitness(best, tuple(sorted(best_cut)))


# ---------------------------------------------------------------------------
# Strong Arnold Property


@dataclass(frozen=True)
class SapReport:
    has_sap: bool
    violation_dim: int
    sample_violation: ExactMatrix | None


def _check_pattern(a, g):
    if a.rows != a.cols or a.rows != g.n:
        raise ValueError("matrix size does not match the graph")
    if a.domain != QQ:
        raise ValueError("SAP verification works over the rationals")
    for i in range(g.n):
        for j in range(g.n):
            if a.entry(i, j) != a.entry(j, i):
                raise ValueError("matrix is not symmetric")
            if i != j:
                nz = bool(a.entry(i, j))
                if nz != g.has_edge(i, j):
                    raise ValueError(
                        f"entry ({i},{j}) violates the off-diagonal pattern"
                    )


def has_sap(a, g):
    """Strong Arnold Property of a matrix in S(G).

    The Hadamard conditions force X to vanish on the diagonal and on edges,
    so X is assembled from one variable per non-adjacent pair only; A X = 0
    then becomes an exact rational linear system whose nullity is the
    violation dimension. has_sap iff that dimension is zero; otherwise one
    nullspace vector is materialized as a sample violation.
    """
    _check_pattern(a, g)
    n = g.n
    free = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)
    ]
    if not free:
        return SapReport(True, 0, None)
    var_of = {pair: t for t, pair in enumerate(free)}
    # equations: (A X)[i, j] = sum_k a_ik x_kj = 0 for all i, j
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * len(free)
            for k in range(n):
                aik = a.entry(i, k)
                if not aik or k == j:
                    continue
                pair = (k, j) if k < j else (j, k)
                t = var_of.get(pair)
                if t is not None:
                    row[t] += aik
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[Fraction(0)] * len(free)]
    basis = ExactMatrix(QQ, rows).nullspace_basis()
    if not basis:
        return SapReport(True, 0, None)
    vec = basis[0]
    sample = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), t in var_of.items():
        sample[i][j] = vec[t]
        sample[j][i] = vec[t]
    x = ExactMatrix(QQ, sample)
    # the sample really is a violation
    if not any(any(row) for row in x.data):
        raise ArithmeticError("the sample SAP violation is the zero matrix")
    if any(e for row in a.matmul(x).data for e in row):
        raise ArithmeticError("the sample SAP violation does not satisfy A X = 0")
    return SapReport(False, len(basis), x)
