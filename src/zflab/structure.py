"""Vertex connectivity, minimum degree, and Strong Arnold Property
verification.

Vertex connectivity runs unit-capacity max-flow on the vertex-split digraph
(each vertex v becomes v_in -> v_out with capacity 1). Source/target pairs
follow the standard sound reduction: fix a minimum-degree vertex v0, run
flows from v0 to each of its non-neighbors, and between each non-adjacent
pair of neighbors of v0. Any minimum separator either misses v0 (first
family catches it) or contains it, in which case v0 has neighbors in two
components of the separated graph and the second family catches it. The
split digraph is built once; each flow stops as soon as it reaches the best
cut found so far, since only a smaller flow can change the answer.

The Strong Arnold Property is decided over Q in kernel coordinates: every
symmetric X with A X = 0 is U S U^T, with U the nullspace basis of A and S
symmetric, so the conditions on X become a small system in the k(k+1)/2
entries of S, where k is the nullity of A. Its nullity is the violation
dimension; a nonsingular A needs no system at all. A sample violation is
expanded back to X and checked by A X = 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .linalg import QQ, ExactMatrix, _echelon, _integral


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


def _split_digraph(g):
    """The vertex-split digraph as paired arcs: arc e runs to head[e] with
    capacity cap[e], arc e ^ 1 is its reverse, and out[a] lists the arcs
    leaving node a. Node 2v = v_in, 2v+1 = v_out."""
    out = [[] for _ in range(2 * g.n)]
    head, cap = [], []

    def add(a, b, c):
        out[a].append(len(head))
        head.append(b)
        cap.append(c)
        out[b].append(len(head))
        head.append(a)
        cap.append(0)

    for v in range(g.n):
        add(2 * v, 2 * v + 1, 1)
    for u, v in g.edges:
        add(2 * u + 1, 2 * v, _INF)
        add(2 * v + 1, 2 * u, _INF)
    return out, head, cap


def _split_maxflow(digraph, s, t, limit):
    """Internally vertex-disjoint s-t paths on the split digraph, up to
    limit of them, plus a minimum vertex cut when fewer than limit exist.
    The split arcs of s and t never carry flow (the source is s_out and the
    sink t_in), so their unit capacity is harmless."""
    out, head, cap0 = digraph
    cap = cap0.copy()
    n = len(out) // 2
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        # BFS augmenting path; parent[b] is the arc that reached b
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for e in out[a]:
                b = head[e]
                if b not in parent and cap[e] > 0:
                    parent[b] = e
                    queue.append(b)
        if sink not in parent:
            break
        b = sink
        while parent[b] is not None:
            e = parent[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]
        flow += 1
        if flow > n:
            raise ArithmeticError("flow exceeded vertex count")
    if flow == limit:
        return flow, None
    # min cut: split arcs (v_in -> v_out) crossing the reachable set
    reach = {source}
    stack = [source]
    while stack:
        a = stack.pop()
        for e in out[a]:
            b = head[e]
            if b not in reach and cap[e] > 0:
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
    digraph = _split_digraph(g)
    for s, t in pairs:
        # a flow that reaches best cannot lower it, so it stops there
        flow, cut = _split_maxflow(digraph, s, t, best)
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
    """Strong Arnold Property of a matrix in S(G), decided in kernel
    coordinates.

    A symmetric X with A X = 0 has its rows and columns in ker A, so it is
    U S U^T for a symmetric k x k matrix S, where the columns of U are the
    nullspace basis of A; S -> U S U^T is injective. The Hadamard
    conditions (X zero on the diagonal and on the edges) become
    u_i^T S u_j = 0 for i = j and for each edge ij, linear equations in the
    k(k+1)/2 entries of S, and the violation dimension is the nullity of
    that system. A nonsingular A (k = 0) has the property with no system.

    The sample is the violation X whose last nonzero non-edge coordinate
    (non-edges in lexicographic order) comes earliest, scaled to 1 there;
    it is unique up to scale. Each kernel S is expanded to the non-edge
    coordinates of U S U^T, and the last row of the echelon form of these
    vectors with their coordinates reversed is that violation. It is
    checked by A X = 0.
    """
    _check_pattern(a, g)
    n = g.n
    basis = a.nullspace_basis()
    if not basis:
        return SapReport(True, 0, None)
    k = len(basis)
    # row i of U over its nonzero entries; U is cleared to integers column
    # by column, which keeps its span
    u = [_integral(vec) for vec in basis]
    u_rows = [[(s, u[s][i]) for s in range(k) if u[s][i]] for i in range(n)]
    # the unknown of S_st = S_ts, numbered by s <= t
    pairs = [(s, r) for s in range(k) for r in range(s, k)]
    var = [[0] * k for _ in range(k)]
    for t, (s, r) in enumerate(pairs):
        var[s][r] = var[r][s] = t
    rows = []
    for i, j in [(i, i) for i in range(n)] + list(g.edges):
        row = [0] * len(pairs)
        for s, x in u_rows[i]:
            for r, y in u_rows[j]:
                row[var[s][r]] += x * y
        if any(row):
            rows.append(row)
    kernel = ExactMatrix(QQ, rows).nullspace_basis()
    if not kernel:
        return SapReport(True, 0, None)
    free = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)
    ]
    reversed_violations = []
    for vec in kernel:
        sv = _integral(vec)
        # the (i, j) entry of U S U^T is u_i . w_j with w_j = S u_j
        w = [
            [sum(sv[var[s][r]] * y for r, y in u_rows[j]) for s in range(k)]
            for j in range(n)
        ]
        reversed_violations.append(
            [sum(x * w[j][s] for s, x in u_rows[i]) for i, j in reversed(free)]
        )
    echelon_rows, pivots = _echelon(ExactMatrix(QQ, reversed_violations))
    last = echelon_rows[-1][::-1]
    pivot = last[len(free) - 1 - pivots[-1]]
    sample = [[Fraction(0)] * n for _ in range(n)]
    for t, (i, j) in enumerate(free):
        sample[i][j] = sample[j][i] = Fraction(last[t], pivot)
    x = ExactMatrix(QQ, sample)
    # the sample really is a violation: A X = 0 summed over the nonzero a_ik
    if not any(any(row) for row in x.data):
        raise ArithmeticError("the sample SAP violation is the zero matrix")
    for i in range(n):
        a_i = [(c, e) for c, e in enumerate(a.row(i)) if e]
        if any(sum(e * x.data[c][j] for c, e in a_i) for j in range(n)):
            raise ArithmeticError("the sample SAP violation does not satisfy A X = 0")
    return SapReport(False, len(kernel), x)

