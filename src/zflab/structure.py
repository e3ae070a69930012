"""Vertex connectivity, minimum degree, and Strong Arnold Property
verification.

Vertex connectivity runs unit-capacity max-flow on the graph itself, each
vertex v split into v_in -> v_out of capacity 1. The flow is pred[v], the
out-node before v_in on v's path (-1 while v is free), and every residual
arc follows from it: v_out goes back to v_in when v carries a path, then to
each neighbor's in-node; v_in goes on to v_out when v is free, else back to
pred[v]. Paths straight to a sink neighbor are taken without a search. The
cut is read off the nodes that the last, failed search reached: every
maximum flow leaves the source side of the unique minimal min cut reachable
(Picard and Queyranne, 1980), so the separator does not depend on the
order the paths are found in.

One pass grows a set S of vertices that no set of fewer than k vertices
separates, starting from k = delta with the neighborhood of a
minimum-degree vertex v0 as the separator. Vertices join S in breadth-first
order from v0. While |S| < k, a vertex joins after a flow to each
non-neighbor in S. After that it joins after one fan flow to all of S, each
member a sink of capacity 1, which needs no search when k of its neighbors
are already in S. A flow below k gives a smaller separator and lowers k,
which keeps S valid. If fewer than k vertices separated the new vertex x
from a member of S, they would miss one of its k fan paths, so x would
reach some s in S, and they would separate s from that member, against the
invariant. When S is all of V, k is the connectivity.

The Strong Arnold Property is decided over Q in kernel coordinates: every
symmetric X with A X = 0 is U S U^T, with U the nullspace basis of A and S
symmetric, so the conditions on X become a small system in the k(k+1)/2
entries of S, where k is the nullity of A. Its nullity is the violation
dimension; a nonsingular A needs no system at all. The sample violation is
U S U^T for the first kernel vector S, replayed in full: symmetric, zero on
the diagonal and the edges, nonzero, and A X = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .linalg import ExactMatrix


class KappaWitness(NamedTuple):
    kappa: int
    separator: tuple  # empty for complete or disconnected graphs


def min_degree(g):
    if g.n == 0:
        raise ValueError("empty graph")
    return min(g.degree(v) for v in range(g.n))


# ---------------------------------------------------------------------------
# vertex-disjoint paths on the graph itself


def _path_flow(ins, s, sink, limit):
    """Internally vertex-disjoint paths from s_out to the nodes flagged in
    sink, up to limit of them, plus a minimum vertex cut when fewer than
    limit exist; ins[v] lists the in-nodes of v's neighbors in ascending
    order. A path ends at the first sink it reaches. The flow is pred[v]
    and the residual arcs are read off it as the module docstring says;
    the direct paths s -> w with w_out a sink, in ascending w, are the
    ones the first searches would find."""
    n = len(ins)
    source = 2 * s + 1
    pred = [-1] * n
    flow = 0
    for b in ins[s]:
        if flow < limit and sink[b + 1]:
            pred[b >> 1] = source
            flow += 1
    while flow < limit:
        # BFS augmenting path; parent[b] is the node that reached b
        parent = [-1] * (2 * n)
        parent[source] = source
        queue = [source]
        end = -1
        for a in queue:
            v = a >> 1
            if a & 1:
                heads = ins[v] if pred[v] < 0 else [a - 1, *ins[v]]
            else:
                heads = (a + 1 if pred[v] < 0 else pred[v],)
            for b in heads:
                if parent[b] < 0:
                    parent[b] = a
                    if sink[b]:
                        end = b
                        break
                    queue.append(b)
            if end >= 0:
                break
        if end < 0:
            # the source side of the minimal min cut: split arcs leaving it
            cut = [v for v in range(n) if parent[2 * v] >= 0 and parent[2 * v + 1] < 0]
            return flow, cut
        # walk the path back; a pair sink's in-node gets a pred that is
        # never read, since a search stops there
        b = end
        while b != source:
            a = parent[b]
            if a & 1:
                if b != a - 1:  # u_out -> v_in: v's path now comes from u
                    pred[b >> 1] = a
            elif b != a + 1:  # v_in -> u_out cancels the arc u_out -> v_in
                pred[a >> 1] = -1
            b = a
        flow += 1
        if flow > n:
            raise ArithmeticError("flow exceeded vertex count")
    return flow, None


def _check_separator(g, separator):
    """Raise unless removing separator leaves g disconnected: one search
    from a vertex outside it, O(n + m)."""
    removed = set(separator)
    start = next(v for v in range(g.n) if v not in removed)
    seen = removed | {start}
    stack = [start]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) == g.n:
        raise ArithmeticError(f"separator {separator} does not disconnect the graph")


def vertex_connectivity(g):
    """Exact vertex connectivity with a separator witness (empty separator
    for complete graphs and for graphs that are already disconnected).

    Even's seed-set pass: k starts at the minimum degree delta with the
    neighborhood of the first minimum-degree vertex v0 as separator, and S
    holds vertices that no set of fewer than k vertices separates. Vertices
    join S in breadth-first order from v0 (neighbors sorted). While |S| < k,
    x joins after a flow from x to each non-neighbor y in S (sink y_in);
    then after one fan flow from x to all of S (sinks s_out, so each s
    carries one path), whose paths to neighbors of x in S are direct. Each
    flow stops at k, and one below k replaces the separator by its min cut,
    which separates x from a member of S. The flow lives on the graph as
    pred[v], the out-node before v_in on v's path: v_out reaches v_in when
    v carries a path, then its neighbors' in-nodes; v_in reaches v_out when
    v is free, else pred[v]. The cut is read off the last, failed search;
    any maximum flow gives the same one, the source side of the minimal min
    cut (Picard and Queyranne, 1980). A separator of fewer than k
    vertices would miss one of x's k fan paths (or one of k neighbors in
    S) and so separate two members of S; once S = V there is none. At most
    n - 1 + delta(delta-1)/2 flows run."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        return KappaWitness(0, ())
    if g.is_complete():
        return KappaWitness(n - 1, ())
    # v0 has least degree and the graph is not complete, so v0 has a
    # non-neighbor and N(v0) separates them
    v0 = min(range(n), key=g.degree)
    best, best_cut = g.degree(v0), sorted(g.neighbors(v0))
    order = [v0]
    seen = {v0}
    for v in order:
        for w in sorted(g.neighbors(v)):
            if w not in seen:
                seen.add(w)
                order.append(w)
    ins = [[2 * w for w in sorted(g.neighbors(v))] for v in range(n)]
    members = []
    in_s = bytearray(2 * n)  # s_out flagged for each s in S
    y_in = bytearray(2 * n)
    for x in order:
        if len(members) < best:
            for y in members:
                if not g.has_edge(x, y):
                    y_in[2 * y] = 1
                    flow, cut = _path_flow(ins, x, y_in, best)
                    y_in[2 * y] = 0
                    if flow < best:
                        best, best_cut = flow, cut
        else:
            flow, cut = _path_flow(ins, x, in_s, best)
            if flow < best:
                best, best_cut = flow, cut
        members.append(x)
        in_s[2 * x + 1] = 1
    if len(best_cut) != best:
        raise ArithmeticError(f"separator {best_cut} is not of size {best}")
    _check_separator(g, best_cut)
    return KappaWitness(best, tuple(sorted(best_cut)))


# ---------------------------------------------------------------------------
# Strong Arnold Property


class SapReport(NamedTuple):
    has_sap: bool
    violation_dim: int
    sample_violation: tuple | None  # ((x_00, ...), ...)


def _check_pattern(a, g):
    """Raise unless the rows a are an n x n symmetric matrix with the
    off-diagonal pattern of g."""
    if len(a) != g.n or any(len(row) != g.n for row in a):
        raise ValueError("matrix size does not match the graph")
    if tuple(map(tuple, a)) != tuple(zip(*a)):
        raise ValueError("matrix is not symmetric")
    for i, row in enumerate(a):
        wrong = {j for j, x in enumerate(row) if x and j != i} ^ g.neighbors(i)
        if wrong:
            raise ValueError(f"entry ({i},{min(wrong)}) violates the off-diagonal pattern")


def has_sap(a, g):
    """Strong Arnold Property of a matrix in S(G), given as rows of
    rationals, decided in kernel coordinates.

    A symmetric X with A X = 0 has its rows and columns in ker A, so it is
    U S U^T for a symmetric k x k matrix S, where the columns of U are the
    nullspace basis of A; S -> U S U^T is injective. The Hadamard
    conditions (X zero on the diagonal and on the edges) become
    u_i^T S u_j = 0 for i = j and for each edge ij, linear equations in the
    k(k+1)/2 entries of S, and the violation dimension is the nullity of
    that system. A nonsingular A (k = 0) has the property with no system.
    A row holding a Fraction is scaled by the lcm of its denominators before
    the kernel is taken, which leaves ker A unchanged.

    The sample is X = U S U^T for the first kernel vector S, as a tuple of
    row tuples. It is replayed against every condition: X is symmetric,
    zero on the diagonal and on every edge, nonzero, and A X = 0; a failure
    raises ArithmeticError.
    """
    _check_pattern(a, g)
    n = g.n
    cleared = []
    for row in a:
        if Fraction in map(type, row):  # a row of ints has nothing to clear
            lcm = math.lcm(*(x.denominator for x in row))
            row = [x.numerator * (lcm // x.denominator) for x in row]
        cleared.append(row)
    basis = ExactMatrix(cleared).nullspace_basis()
    if not basis:
        return SapReport(True, 0, None)
    k = len(basis)
    # row i of U over its nonzero entries; the basis vectors are integral
    u_rows = [[(s, basis[s][i]) for s in range(k) if basis[s][i]] for i in range(n)]
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
    kernel = ExactMatrix(rows).nullspace_basis()
    if not kernel:
        return SapReport(True, 0, None)
    # the (i, j) entry of U S U^T is u_i . w_j with w_j = S u_j
    sv = kernel[0]
    w = [
        [sum(sv[var[s][r]] * y for r, y in u_rows[j]) for s in range(k)]
        for j in range(n)
    ]
    sample = [
        [sum(x * w[j][s] for s, x in u_rows[i]) for j in range(n)] for i in range(n)
    ]
    if any(sample[i][j] != sample[j][i] for i in range(n) for j in range(i)):
        raise ArithmeticError("the sample SAP violation is not symmetric")
    if any(sample[i][i] for i in range(n)) or any(sample[i][j] for i, j in g.edges):
        raise ArithmeticError(
            "the sample SAP violation is nonzero on the diagonal or an edge"
        )
    if not any(any(row) for row in sample):
        raise ArithmeticError("the sample SAP violation is the zero matrix")
    # A X = 0 summed over the nonzero a_ik
    for i in range(n):
        a_i = [(c, e) for c, e in enumerate(a[i]) if e]
        if any(sum(e * sample[c][j] for c, e in a_i) for j in range(n)):
            raise ArithmeticError("the sample SAP violation does not satisfy A X = 0")
    return SapReport(False, len(kernel), tuple(map(tuple, sample)))
