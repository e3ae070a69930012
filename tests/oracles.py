"""Independent reference implementations the test suite checks against.

Everything here deliberately avoids the library's own code paths: ranks by
naive rational or mod-p elimination (over Q(i) and Q(w) through the regular
representation over Q), determinants by Fraction elimination, rational and mod-p nullspace bases read off the
reduced row echelon form, zero forcing by trying all subsets with a
set-based closure, vertex connectivity by trying vertex sets size by
size, vertex orbits by trying every extension of a partial vertex map,
red moves by
materializing the edge-count maps of the modified general graphs and by
the dense row equation, products by the textbook sum, spectra by numpy and
compared as multisets within a tolerance. The last sections hold the
helpers only the tests use: a family dispatch, a backtracking isomorphism
test, induced subgraphs, and the edge-list and matrix text writers that
round-trip the library's readers.

This module imports nothing from the tests, so it also loads on its own
from its file path.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import zflab as z


def _fraction_rref(rows):
    """Gauss-Jordan elimination over the rationals, each pivot scaled to 1:
    the reduced rows and the pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def naive_rational_rank(rows):
    """Textbook Gaussian elimination over the rationals."""
    return len(_fraction_rref(rows)[1]) if rows else 0


def fraction_nullspace(rows):
    """Rational nullspace basis in reduced-echelon parametrization, in plain
    Fraction arithmetic: for each free column f (in order) the vector with
    x[f] = 1, zero at the other free columns and x[pc] = -rref[i][f] at the
    pivot column pc of row i."""
    m, pivots = _fraction_rref(rows)
    basis = []
    for free in (c for c in range(len(m[0])) if c not in pivots):
        vec = [Fraction(0)] * len(m[0])
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][free]
        basis.append(vec)
    return basis


def _mod_p_rref(rows, p):
    """Gauss-Jordan elimination over GF(p) of integer or rational rows whose
    denominators are prime to p: each pivot row is scaled to pivot 1 by its
    inverse mod p and cleared from every other row. The reduced rows and
    the pivot columns."""
    m = [
        [Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in row]
        for row in rows
    ]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def naive_mod_p_rank(rows, p):
    """Textbook Gaussian elimination over GF(p)."""
    return len(_mod_p_rref(rows, p)[1])


def mod_p_nullspace(rows, p):
    """Nullspace basis over GF(p) in reduced-echelon parametrization, entries
    in 0..p-1: for each free column f (in order) the vector with x[f] = 1,
    zero at the other free columns and x[pc] = -rref[i][f] mod p at the
    pivot column pc of row i."""
    m, pivots = _mod_p_rref(rows, p)
    basis = []
    for free in (c for c in range(len(m[0])) if c not in pivots):
        vec = [0] * len(m[0])
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][free] % p
        basis.append(vec)
    return basis


def regular_representation(rows):
    """A matrix over Q(i) or Q(w), of ints and QuadRationals, as a matrix
    over Q of twice the size.

    Each entry a + b*g becomes the matrix of multiplication by it on the
    basis (1, g): [[a, -b], [b, a]] for g = i, [[a, -b], [b, a - b]] for
    g = w, since w*w = -1 - w. This is a ring homomorphism, so the rank
    doubles, and the image of a vector, given by its coordinates
    (a_0, b_0, a_1, b_1, ...), is the coordinates of the original image."""
    def rep(x):
        if isinstance(x, z.QuadRational):
            return ((x.a, -x.b), (x.b, x.a - x.b if x.kind == "w" else x.a))
        return ((x, 0), (0, x))

    real = []
    for row in rows:
        reps = [rep(x) for x in row]
        real += [[e for r in reps for e in r[t]] for t in (0, 1)]
    return real


def set_closure(g, blue, order=None, log=None):
    """Set-based closure; optional vertex scan order to exercise
    order-independence. Each step the first blue vertex of the scan with
    one white neighbor forces it; with a `log` list, each (forcer, forced)
    is appended, so the default scan logs the lowest-index forcer rule."""
    blue = set(blue)
    scan = list(order) if order is not None else list(range(g.n))
    while True:
        forced = None
        for v in scan:
            if v not in blue:
                continue
            white = [w for w in g.neighbors(v) if w not in blue]
            if len(white) == 1:
                forced = white[0]
                break
        if forced is None:
            return blue
        blue.add(forced)
        if log is not None:
            log.append((v, forced))


def brute_zero_forcing(g):
    """Smallest zero forcing set by trying every subset, size by size."""
    full = set(range(g.n))
    for s in range(1, g.n + 1):
        for cand in itertools.combinations(range(g.n), s):
            if set_closure(g, cand) == full:
                return s, cand
    raise AssertionError("unreachable: V(G) always forces")


def gf2_rank(rows):
    """Rank over GF(2) of rows given as bit masks, by keeping each reduced
    row below every earlier pivot's leading bit."""
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
    return len(pivots)


def brute_min_rank_gf2(g):
    """Plain enumeration of the 2^n diagonals of the GF(2) matrices with the
    graph's off-diagonal pattern: the minimum rank, the smallest minimizing
    diagonal (bit i is vertex i) and the set of ranks that occur."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best, best_diag, ranks = g.n + 1, 0, set()
    for diag in range(1 << g.n):
        r = gf2_rank([adj[i] | (diag & (1 << i)) for i in range(g.n)])
        ranks.add(r)
        if r < best:
            best, best_diag = r, diag
    return best, tuple((best_diag >> i) & 1 for i in range(g.n)), ranks


def bb_min_rank_gf2(g, floor, best):
    """The GF(2) minimum rank search recomputed from scratch at every
    prefix: fix the diagonal bits of vertices n-1 down to 0, 0 before 1;
    with rows F = i..n-1 fixed at rank r, prune once 2r - rank M[F,F]
    reaches the best rank (started at `best`), and end at a leaf of rank at
    most `floor`. Returns (minimum, least diagonal as bits, prefixes whose
    rank was computed: two per internal node visited)."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    state = {"best": best, "diag": 0, "nodes": 0}

    def visit(i, diag):
        if i < 0:
            state["best"] = gf2_rank([adj[j] | (diag & (1 << j)) for j in range(g.n)])
            state["diag"] = diag
            return state["best"] <= floor
        state["nodes"] += 2
        for bit in (0, 1):
            d = diag | (bit << i)
            fixed = [adj[j] | (d & (1 << j)) for j in range(i, g.n)]
            r = gf2_rank(fixed)
            if 2 * r - gf2_rank([row >> i for row in fixed]) >= state["best"]:
                continue
            if visit(i - 1, d):
                return True
        return False

    visit(g.n - 1, 0)
    diag = tuple((state["diag"] >> i) & 1 for i in range(g.n))
    return state["best"], diag, state["nodes"]


def brute_vertex_orbits(g):
    """The orbits of Aut(G) as sorted tuples, ordered by least vertex: every
    automorphism is found by extending a map of 0..k-1 to vertex k in every
    way that keeps adjacency with the vertices already mapped. For small
    graphs (n <= 8) and sparse ones whose vertex order keeps each vertex
    next to an earlier one, which prunes the extensions."""
    n = g.n
    adj = [[g.has_edge(u, v) for v in range(n)] for u in range(n)]
    orbit = [{v} for v in range(n)]
    image = []

    def extend():
        k = len(image)
        if k == n:
            for v in range(n):
                orbit[v].add(image[v])
            return
        for c in range(n):
            if c not in image and all(adj[k][j] == adj[c][image[j]] for j in range(k)):
                image.append(c)
                extend()
                image.pop()

    extend()
    return sorted({tuple(sorted(o)) for o in orbit})


def disconnects(g, removed):
    """Whether deleting the vertices in removed leaves two vertices with no
    path between them."""
    rest = [v for v in range(g.n) if v not in removed]
    return bool(rest) and len(reached_from(g, rest[0], removed)) < len(rest)


def reached_from(g, s, removed):
    """The vertices that a search from s (not in removed) reaches once
    removed is deleted, by a search over the edge list."""
    nbrs = {v: set() for v in range(g.n) if v not in removed}
    for u, v in g.edges:
        if u in nbrs and v in nbrs:
            nbrs[u].add(v)
            nbrs[v].add(u)
    seen = {s}
    stack = [s]
    while stack:
        for w in nbrs[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return seen


def brute_kappa(g):
    """Vertex connectivity by trying vertex sets size by size: the size of
    the smallest set whose removal disconnects the graph, n - 1 when none
    does (K_n)."""
    for k in range(g.n - 1):
        if any(disconnects(g, set(c)) for c in itertools.combinations(range(g.n), k)):
            return k
    return g.n - 1


def brute_menger_cut(g, s, out_sinks=(), in_sinks=()):
    """The smallest vertex set, without s, that meets every path from s to a
    sink, by trying vertex sets size by size. A path may end at a vertex of
    out_sinks, which the set may hold, or at one of in_sinks, which it may
    not; None when no set does (s is adjacent to an in-sink). Of the
    smallest sets it is the one that leaves s the fewest reachable
    vertices: the minimal min cut, which is unique. By Menger's theorem its
    size is the number of internally vertex-disjoint s-sink paths."""
    sinks = set(out_sinks) | set(in_sinks)
    free = [v for v in range(g.n) if v != s and v not in in_sinks]
    for k in range(len(free) + 1):
        cuts = [
            (len(seen), set(c))
            for c in itertools.combinations(free, k)
            if not (seen := reached_from(g, s, set(c))) & sinks
        ]
        if cuts:
            return min(cuts, key=lambda cut: cut[0])[1]
    return None


def matvec(rows, vec, p=None):
    """The matrix rows times the column vector vec, row by row; reduced
    mod p when p is given."""
    out = [sum(a * b for a, b in zip(row, vec)) for row in rows]
    return [x % p for x in out] if p else out


def matmul(a, b):
    """Textbook product of two matrices given as rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def laplace_determinant(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    det = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][t] for t in range(n) if t != j] for i in range(1, n)]
        det += (-1) ** j * Fraction(rows[0][j]) * laplace_determinant(minor)
    return det


def fraction_determinant(rows):
    """Determinant by Gaussian elimination over the rationals, each row swap
    flipping the sign; 1 for the empty matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def multisets_close(xs, ys, tol=1e-6):
    """Sorted pairwise comparison of two real multisets."""
    xs = sorted(xs)
    ys = sorted(ys)
    return len(xs) == len(ys) and all(abs(x - y) < tol for x, y in zip(xs, ys))


def multiset_contained(xs, ys, tol=1e-6):
    """True if multiset xs embeds into ys matching within tol."""
    ys = sorted(ys)
    used = [False] * len(ys)
    for x in sorted(xs):
        hit = None
        for i, y in enumerate(ys):
            if not used[i] and abs(x - y) < tol:
                hit = i
                break
        if hit is None:
            return False
        used[hit] = True
    return True


# ---------------------------------------------------------------------------
# multigraph semantics of the red color change rule


def red_move_semantics(adj_rows, n, u, v, x_multiset, y_multiset, k):
    """Materialize the edge-count map of the graph after adding the X-step
    neighborhoods at v and subtracting the Y neighborhoods, then compare the
    neighborhood of v against the (k+1)-fold neighborhood of u.

    The diagonal cell of the edge-count map counts loops (a loop contributes
    one copy of the vertex to its own neighborhood). Deletions remove one
    v-incident edge per member of each subtracted vertex's original
    neighborhood; they require both the per-vertex containment and the
    cumulative feasibility in the augmented map.
    """
    e1 = [row[:] for row in adj_rows]
    for x, cx in x_multiset.items():
        for w in range(n):
            m = adj_rows[x][w] * cx
            if not m:
                continue
            if w == v:
                e1[v][v] += m
            else:
                e1[v][w] += m
                e1[w][v] += m
    total = [0] * n
    for y, cy in y_multiset.items():
        dele = [adj_rows[y][w] * cy for w in range(n)]
        for w in range(n):
            if dele[w] > e1[v][w]:
                return False
            total[w] += dele[w]
    for w in range(n):
        if total[w] > e1[v][w]:
            return False
    final_v = [e1[v][w] - total[w] for w in range(n)]
    target = [(k + 1) * adj_rows[u][w] for w in range(n)]
    return final_v == target


def red_row_equation(adj_rows, u, v, x_multiset, y_multiset, k):
    """The row equation (k+1) row(u) = row(v) + sum_X c row(x) - sum_Y c
    row(y), checked on every column of the dense adjacency rows."""
    for w in range(len(adj_rows)):
        rhs = adj_rows[v][w]
        rhs += sum(c * adj_rows[x][w] for x, c in x_multiset.items())
        rhs -= sum(c * adj_rows[y][w] for y, c in y_multiset.items())
        if (k + 1) * adj_rows[u][w] != rhs:
            return False
    return True


def all_small_moves(n, max_mult=2, max_k=2):
    """Every (u, v, X, Y, k) with |X|, |Y| <= max_mult and k <= max_k."""
    multis = [{}]
    multis += [{i: 1} for i in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        ms = {a: 1}
        ms[b] = ms.get(b, 0) + 1
        multis.append(ms)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            for x in multis:
                if u in x:
                    continue
                for y in multis:
                    if u in y:
                        continue
                    for k in range(max_k + 1):
                        yield u, v, x, y, k


# ---------------------------------------------------------------------------
# graph helpers used only by tests


def basic_family(kind, *params):
    """Dispatch for the standard families: path, cycle, complete, complete_bipartite."""
    table = {
        "path": z.path_graph,
        "cycle": z.cycle_graph,
        "complete": z.complete_graph,
        "complete_bipartite": z.complete_bipartite_graph,
    }
    if kind not in table:
        raise ValueError(f"unknown family kind {kind!r}")
    return table[kind](*params)


def is_isomorphic(g, h):
    """Backtracking isomorphism test with degree pruning. Intended for the
    small instances exercised in tests (n up to ~20 on sparse graphs)."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    # order g's vertices to keep the partial map connected where possible
    order = []
    seen = set()
    for s in sorted(range(g.n), key=lambda v: -g.degree(v)):
        if s in seen:
            continue
        queue = [s]
        seen.add(s)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(g.neighbors(v)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    image = [-1] * g.n
    used = [False] * h.n

    def extend(idx):
        if idx == len(order):
            return True
        v = order[idx]
        mapped_nbrs = [image[w] for w in g.neighbors(v) if image[w] >= 0]
        if mapped_nbrs:
            candidates = set(h.neighbors(mapped_nbrs[0]))
            for mw in mapped_nbrs[1:]:
                candidates &= h.neighbors(mw)
        else:
            candidates = set(range(h.n))
        for c in sorted(candidates):
            if used[c] or h.degree(c) != g.degree(v):
                continue
            ok = True
            for w in g.neighbors(v):
                if image[w] >= 0 and not h.has_edge(c, image[w]):
                    ok = False
                    break
            if ok:
                # non-neighbors must stay non-neighbors
                for w in range(g.n):
                    if image[w] >= 0 and w not in g.neighbors(v) and h.has_edge(c, image[w]):
                        ok = False
                        break
            if ok:
                image[v] = c
                used[c] = True
                if extend(idx + 1):
                    return True
                image[v] = -1
                used[c] = False
        return False

    return extend(0)


def induced_subgraph(g, keep):
    """The subgraph induced on the vertices in keep, renumbered 0.. in
    increasing order."""
    index = {v: i for i, v in enumerate(sorted(keep))}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return z.Graph(len(index), edges)


# ---------------------------------------------------------------------------
# text writers for the library's readers


def write_edge_list(g):
    """Canonical edge-list text: header "n m", then sorted "u v" lines."""
    lines = [f"{g.n} {g.num_edges}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def format_matrix(rows):
    """Text form of rational rows: header "rows cols Q", then row-major
    entries."""
    lines = [f"{len(rows)} {len(rows[0])} Q"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"
