"""Simple undirected graphs: representation, vertex bitmasks, family
generators, edge-list input.

Vertices are always 0..n-1. Edges are unordered pairs stored as (u, v) with
u < v. A graph is its order and its edges, nothing more; it is immutable
after construction.
"""

from __future__ import annotations

import itertools
import json


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_masks")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            if (u, v) in norm:
                raise ValueError(f"duplicate edge ({u},{v})")
            norm.add((u, v))
        self.n = n
        self.edges = tuple(sorted(norm))
        adj = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._masks = None

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj[u]

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def adjacency_masks(self):
        """Per-vertex neighbor bitmasks (bit v set iff v is a neighbor)."""
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = masks
        return self._masks

    def adjacency_rows(self):
        """Dense 0/1 integer rows of the adjacency matrix."""
        rows = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            rows[u][v] = 1
            rows[v][u] = 1
        return rows

    def is_complete(self):
        return self.num_edges == self.n * (self.n - 1) // 2

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# vertex bitmasks: bit v set iff v is in the set


def vertex_mask(vertices, n):
    """The bitmask of a set of vertices of 0..n-1."""
    mask = 0
    for v in vertices:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def mask_vertices(mask):
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


# ---------------------------------------------------------------------------
# family generators


def path_graph(n):
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a, b):
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def circulant(n, connection_set):
    """Circulant graph on Z_n: i adjacent to i+-s (mod n) for each s in the set.

    Steps must lie in 1..n//2; the step n/2 adds the perfect matching
    {i, i + n/2}.
    """
    s_set = set(connection_set)
    if n < 3:
        raise ValueError("circulant needs n >= 3")
    if not s_set:
        raise ValueError("connection set must be nonempty")
    for s in s_set:
        if not (1 <= s <= n // 2):
            raise ValueError(f"step {s} outside 1..{n // 2}")
    edges = set()
    for i in range(n):
        for s in s_set:
            edges.add(tuple(sorted((i, (i + s) % n))))
    return Graph(n, edges)


def cartesian_product(g, h):
    """Cartesian product; vertex (v, w) is encoded as v*|H| + w."""
    if g.n == 0 or h.n == 0:
        raise ValueError("both factors must be nonempty")
    edges = []
    for v in range(g.n):
        for (w1, w2) in h.edges:
            edges.append((v * h.n + w1, v * h.n + w2))
    for (v1, v2) in g.edges:
        for w in range(h.n):
            edges.append((v1 * h.n + w, v2 * h.n + w))
    return Graph(g.n * h.n, edges)


def aztec_diamond(r):
    """Adjacency graph of the order-r diamond of unit squares (2r(r+1) vertices).

    Squares are the cells (i, j) with 1 <= i, j <= 2r, r+1 <= i+j <= 3r+1 and
    |j-i| <= r; two squares are adjacent iff they share a side. Vertices are
    ordered row-major by (i, j).
    """
    if r < 1:
        raise ValueError("order must be >= 1")
    cells = [
        (i, j)
        for i in range(1, 2 * r + 1)
        for j in range(1, 2 * r + 1)
        if r + 1 <= i + j <= 3 * r + 1 and abs(j - i) <= r
    ]
    index = {cell: v for v, cell in enumerate(cells)}
    edges = []
    for (i, j), v in index.items():
        for (di, dj) in ((0, 1), (1, 0)):
            w = index.get((i + di, j + dj))
            if w is not None:
                edges.append((v, w))
    return Graph(len(cells), edges)


def extended_cube(t, k):
    """Cube graph widened by a horizontal t- and vertical k-chord ladder.

    The result has n = 8 + 2(t+k) vertices: the n-cycle 0..n-1 plus the
    vertical chords {i, n-t-3-i} for i = 0..k+1 and the horizontal chords
    {k+2+j, n-1-j} for j = 0..t+1. (0, 0) gives the cube graph itself.
    """
    if t < 0 or k < 0:
        raise ValueError("parameters must be nonnegative")
    n = 8 + 2 * (t + k)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n - t - 3 - i) for i in range(k + 2)]
    edges += [(k + 2 + j, n - 1 - j) for j in range(t + 2)]
    return Graph(n, edges)


def generalized_petersen(n, k):
    """Generalized Petersen graph P(n, k): outer n-cycle 0..n-1, inner
    vertices n..2n-1 with steps of k, and the n spokes. Requires
    1 <= k < n/2 (at k = n/2 the inner step edges would coincide in pairs).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if k < 1 or 2 * k >= n:
        raise ValueError(f"step k={k} outside 1 <= k < n/2")
    edges = set()
    for i in range(n):
        edges.add(tuple(sorted((i, (i + 1) % n))))
        edges.add(tuple(sorted((n + i, n + (i + k) % n))))
        edges.add((i, n + i))
    return Graph(2 * n, edges)


# ---------------------------------------------------------------------------
# serialization

_EDGE_LIST_DOC = 'line 1 "n m", then m lines "u v" with 0 <= u < v < n'
_JSON_DOC = '{"n": N, "edges": [[u, v], ...]}'


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _unique_keys(pairs):
    """JSON object hook: a repeated key is refused, not silently overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON object key {key!r}")
        obj[key] = value
    return obj


def read_edge_list(text):
    """Parse the edge-list text format; a JSON object form is also accepted
    (other keys than "n" and "edges" are ignored, a repeated key is refused)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text, object_pairs_hook=_unique_keys)
        n, edges = obj.get("n"), obj.get("edges")
        if not _is_int(n) or not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges
        ):
            raise ValueError(f"malformed JSON graph; expected {_JSON_DOC}")
        return Graph(n, [tuple(e) for e in edges])
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty input; expected {_EDGE_LIST_DOC}")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)
