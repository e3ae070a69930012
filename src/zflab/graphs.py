"""Simple undirected graphs: representation, family generators, edit operations, I/O.

Vertices are always 0..n-1. Edges are unordered pairs stored as (u, v) with
u < v. Generators may attach a display-label map (e.g. the (i, j) grid labels
of diamond-shaped grid graphs). All graphs are immutable after construction;
every operation returns a new Graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "labels", "_adj", "_masks")

    def __init__(self, n, edges, labels=None):
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
        self.labels = dict(labels) if labels else None
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

    def vertex_of_label(self, label):
        if self.labels is None:
            raise KeyError("graph carries no labels")
        for v, lab in self.labels.items():
            if lab == label:
                return v
        raise KeyError(f"no vertex labeled {label!r}")

    def is_connected(self):
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def is_complete(self):
        return self.num_edges == self.n * (self.n - 1) // 2

    def bipartition(self):
        """2-coloring as (side0, side1), or None if not bipartite."""
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self._adj[v]:
                    if color[w] < 0:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return None
        side0 = frozenset(v for v in range(self.n) if color[v] == 0)
        side1 = frozenset(v for v in range(self.n) if color[v] == 1)
        return side0, side1

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
    labels = {v * h.n + w: (v, w) for v in range(g.n) for w in range(h.n)}
    return Graph(g.n * h.n, edges, labels=labels)


def aztec_diamond(r):
    """Adjacency graph of the order-r diamond of unit squares (2r(r+1) vertices).

    Squares carry labels (i, j) with 1 <= i, j <= 2r, r+1 <= i+j <= 3r+1 and
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
    labels = {v: cell for cell, v in index.items()}
    return Graph(len(cells), edges, labels=labels)


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
# edit operations


@dataclass(frozen=True)
class DeleteVertex:
    v: int


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True)
class ContractEdge:
    u: int
    v: int


@dataclass(frozen=True)
class SubdivideEdge:
    u: int
    v: int
    k: int = 1


@dataclass(frozen=True)
class SubdivisionEdgeInsertion:
    """k-subdivide edges e1=(u,v) and e2=(w,x), then join the i-th new
    vertices of the two subdivided paths by an edge, for i = 1..k."""

    e1: tuple
    e2: tuple
    k: int = 1


def _check_vertex(g, v):
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} not in graph")


def _check_edge(g, u, v):
    _check_vertex(g, u)
    _check_vertex(g, v)
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")


def _delete_vertices(g, dead):
    keep = [v for v in range(g.n) if v not in dead]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u not in dead and v not in dead
    ]
    return Graph(len(keep), edges), remap


def apply_edit(g, edit):
    """Apply one edit, relabeling deterministically: deleted vertices close
    gaps in label order, inserted vertices are appended at the end."""
    if isinstance(edit, DeleteVertex):
        _check_vertex(g, edit.v)
        return _delete_vertices(g, {edit.v})[0]
    if isinstance(edit, DeleteEdge):
        _check_edge(g, edit.u, edit.v)
        dead = tuple(sorted((edit.u, edit.v)))
        return Graph(g.n, [e for e in g.edges if e != dead])
    if isinstance(edit, ContractEdge):
        _check_edge(g, edit.u, edit.v)
        merged = set(g.neighbors(edit.u) | g.neighbors(edit.v)) - {edit.u, edit.v}
        h, remap = _delete_vertices(g, {edit.u, edit.v})
        new = h.n
        edges = list(h.edges) + [(remap[w], new) for w in sorted(merged)]
        return Graph(h.n + 1, edges)
    if isinstance(edit, SubdivideEdge):
        if edit.k < 1:
            raise ValueError("k must be >= 1")
        _check_edge(g, edit.u, edit.v)
        dead = tuple(sorted((edit.u, edit.v)))
        edges = [e for e in g.edges if e != dead]
        chain = [edit.u] + list(range(g.n, g.n + edit.k)) + [edit.v]
        edges += list(zip(chain, chain[1:]))
        return Graph(g.n + edit.k, edges)
    if isinstance(edit, SubdivisionEdgeInsertion):
        if edit.k < 1:
            raise ValueError("k must be >= 1")
        u, v = edit.e1
        w, x = edit.e2
        _check_edge(g, u, v)
        _check_edge(g, w, x)
        if tuple(sorted((u, v))) == tuple(sorted((w, x))):
            raise ValueError("the two edges must be distinct")
        edges = [
            e
            for e in g.edges
            if e != tuple(sorted((u, v))) and e != tuple(sorted((w, x)))
        ]
        first = [u] + list(range(g.n, g.n + edit.k)) + [v]
        second = [w] + list(range(g.n + edit.k, g.n + 2 * edit.k)) + [x]
        edges += list(zip(first, first[1:]))
        edges += list(zip(second, second[1:]))
        edges += [(first[i], second[i]) for i in range(1, edit.k + 1)]
        return Graph(g.n + 2 * edit.k, edges)
    raise TypeError(f"unknown edit {edit!r}")


# ---------------------------------------------------------------------------
# serialization

_EDGE_LIST_DOC = 'line 1 "n m", then m lines "u v" with 0 <= u < v < n'


def write_edge_list(g):
    """Canonical edge-list text: header "n m", then sorted "u v" lines."""
    lines = [f"{g.n} {g.num_edges}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_json_graph(g):
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
    if g.labels:
        obj["labels"] = {str(v): list(lab) if isinstance(lab, tuple) else lab
                         for v, lab in g.labels.items()}
    return json.dumps(obj)


def read_edge_list(text):
    """Parse the edge-list text format; a JSON object form is also accepted."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        labels = None
        if "labels" in obj:
            labels = {
                int(v): tuple(lab) if isinstance(lab, list) else lab
                for v, lab in obj["labels"].items()
            }
        return Graph(obj["n"], [tuple(e) for e in obj["edges"]], labels=labels)
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
