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

The Strong Arnold Property is decided on the integral linear system A X = 0
over the symmetric X supported on non-edges, by one elimination modulo a
large prime. An empty modular kernel proves the property. Otherwise each
modular kernel vector is lifted to Q by rational reconstruction and checked
exactly over Z against every equation; when all of them pass they are the
rational nullspace basis itself, which gives the violation dimension and a
sample violation checked by A X = 0. Only when a vector fails to lift or to
check is the system eliminated over the rationals.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .linalg import QQ, ExactMatrix, prime_field

# has_sap's modulus: near 10^6, so its primality check at import is cheap
SAP_PRIME = 1_000_003
_SAP_FIELD = prime_field(SAP_PRIME)


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


def _lift_kernel(basis, rows, p):
    """The GF(p) kernel vectors lifted to Q, or None when one of them fails.

    Each residue is lifted by rational reconstruction (Wang, Guy and
    Davenport 1982): the half-extended Euclid on (p, r) stops at the first
    remainder at most B = isqrt(p // 2), and the remainder over its
    cofactor is the unique fraction with numerator and denominator bounded
    by B that is congruent to r, if one exists (2 B^2 < p). Residues 0 and
    1 lift to 0 and 1. Each
    lifted vector is cleared of denominators and checked exactly over Z
    against every row, touching only its nonzero coordinates; a vector
    that has no such lift or fails the check gives None.
    """
    bound = math.isqrt(p // 2)
    lifted = []
    for vec in basis:
        out = [Fraction(0)] * len(vec)
        for t, r in enumerate(vec):
            if not r:
                continue
            r0, r1, t0, t1 = p, r, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            if abs(t1) > bound or math.gcd(r1, t1) != 1:
                return None
            out[t] = Fraction(r1 if t1 > 0 else -r1, abs(t1))
        lcm = math.lcm(*(x.denominator for x in out))
        nz = [
            (t, x.numerator * (lcm // x.denominator)) for t, x in enumerate(out) if x
        ]
        for row in rows:
            if sum(row[t] * x for t, x in nz):
                return None
        lifted.append(out)
    return lifted


def has_sap(a, g):
    """Strong Arnold Property of a matrix in S(G).

    The Hadamard conditions force X to vanish on the diagonal and on edges,
    so X is assembled from one variable per non-adjacent pair only; A X = 0
    then becomes a linear system whose nullity is the violation dimension,
    and has_sap iff that dimension is zero. Each row of A is first scaled
    by the lcm of its denominators, which keeps the solutions of A X = 0 and
    makes the system integral. Its rank modulo SAP_PRIME is at most its rank
    over Q, so an empty nullspace basis mod p proves the property with no
    rational work.

    Otherwise the modular basis is lifted to Q and checked exactly by
    _lift_kernel. When every vector passes, the lifted vectors are the
    rational nullspace_basis itself:
    - the vector of modular free column f is 1 at f, 0 at the other modular
      free columns and zero past f, since 0 and 1 lift to 0 and 1;
    - so its exact check puts column f in the Q-span of the earlier
      columns, which makes every modular free column rationally free;
    - the modular nullity is at least the rational nullity, so the two free
      sets are equal, and given the free set the reduced-echelon basis is
      unique.
    The violation dimension is then the number of modular vectors and the
    sample is the first of them. When a vector fails to lift or to check
    (a deficiency that exists only mod p, or entries too large to
    reconstruct), the system is eliminated over Q instead. Either way the
    sample violation is checked by A X = 0.
    """
    _check_pattern(a, g)
    n = g.n
    free = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)
    ]
    if not free:
        return SapReport(True, 0, None)
    # the variables of column j of X: (k, t) with x_kj the t-th unknown
    col_vars = [[] for _ in range(n)]
    for t, (i, j) in enumerate(free):
        col_vars[i].append((j, t))
        col_vars[j].append((i, t))
    # equations: (A X)[i, j] = sum_k a_ik x_kj = 0 for all i, j
    rows = []
    for i in range(n):
        lcm = math.lcm(*(x.denominator for x in a.row(i)))
        a_i = [x.numerator * (lcm // x.denominator) for x in a.row(i)]
        for j in range(n):
            row = [0] * len(free)
            for k, t in col_vars[j]:
                row[t] = a_i[k]
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[0] * len(free)]
    basis = ExactMatrix(_SAP_FIELD, rows).nullspace_basis()
    if not basis:
        return SapReport(True, 0, None)
    basis = _lift_kernel(basis, rows, SAP_PRIME)
    if basis is None:
        basis = ExactMatrix(QQ, rows).nullspace_basis()
    if not basis:
        return SapReport(True, 0, None)
    vec = basis[0]
    sample = [[Fraction(0)] * n for _ in range(n)]
    for t, (i, j) in enumerate(free):
        sample[i][j] = vec[t]
        sample[j][i] = vec[t]
    x = ExactMatrix(QQ, sample)
    # the sample really is a violation: A X = 0 summed over the nonzero a_ik
    if not any(any(row) for row in x.data):
        raise ArithmeticError("the sample SAP violation is the zero matrix")
    for i in range(n):
        a_i = [(k, e) for k, e in enumerate(a.row(i)) if e]
        if any(sum(e * x.data[k][j] for k, e in a_i) for j in range(n)):
            raise ArithmeticError("the sample SAP violation does not satisfy A X = 0")
    return SapReport(False, len(basis), x)
