import random
from fractions import Fraction

import pytest

import zflab as z
from oracles import (
    brute_kappa,
    brute_menger_cut,
    disconnects,
    induced_subgraph,
    matmul,
    naive_rational_rank,
    reached_from,
)
from paper import circulant_kappa_deficient
from zflab import linalg, structure


def _glued_blobs(rng):
    """Two dense blobs of 5-6 vertices joined only through 1-3 glue
    vertices, each with 1-2 neighbors in each blob: the glue often holds a
    minimum-degree vertex, and a glue set cuts below the minimum degree."""
    a, b, c = rng.randint(5, 6), rng.randint(5, 6), rng.randint(1, 3)
    p = rng.choice((0.85, 1.0))
    edges = set()
    for blob in (range(a), range(a, a + b)):
        edges |= {(u, v) for u in blob for v in blob if u < v and rng.random() < p}
        for x in range(a + b, a + b + c):
            edges |= {(v, x) for v in rng.sample(blob, rng.randint(1, 2))}
    return z.Graph(a + b + c, edges)


class TestVertexConnectivity:
    def test_complete(self):
        kw = z.vertex_connectivity(z.complete_graph(5))
        assert kw.kappa == 4 and kw.separator == ()
        assert z.vertex_connectivity(z.complete_graph(1)).kappa == 0

    def test_cycle(self):
        kw = z.vertex_connectivity(z.cycle_graph(6))
        assert kw.kappa == 2

    def test_circulant_9_12(self):
        assert z.vertex_connectivity(z.circulant(9, {1, 2})).kappa == 4

    def test_disconnected(self):
        g = z.Graph(4, [(0, 1), (2, 3)])
        kw = z.vertex_connectivity(g)
        assert kw.kappa == 0 and kw.separator == ()

    def test_separator_disconnects(self, corpus):
        for g in corpus[:50]:
            kw = z.vertex_connectivity(g)
            if kw.kappa == 0 or g.is_complete():
                continue
            assert len(kw.separator) == kw.kappa
            h = induced_subgraph(g, set(range(g.n)) - set(kw.separator))
            assert not h.is_connected()

    def test_star_cut(self):
        g = z.complete_bipartite_graph(1, 4)
        kw = z.vertex_connectivity(g)
        assert kw.kappa == 1 and kw.separator == (0,)

    def test_matches_oracle(self, corpus):
        rng = random.Random(14)
        graphs = [g for g in corpus if g.n <= 11]
        graphs += [_glued_blobs(rng) for _ in range(200)]
        below_delta = 0
        for g in graphs:
            kw = z.vertex_connectivity(g)
            assert kw.kappa == brute_kappa(g), g.edges
            if g.is_connected() and not g.is_complete():
                assert len(kw.separator) == kw.kappa
                assert disconnects(g, set(kw.separator)), g.edges
                below_delta += kw.kappa < z.min_degree(g)
        assert below_delta >= 20

    def test_flow_count(self, families, monkeypatch):
        # one flow per vertex after the first, plus the pair flows while
        # S is smaller than k <= delta
        calls = []
        flow = structure._path_flow
        monkeypatch.setattr(
            structure,
            "_path_flow",
            lambda *args: calls.append(1) or flow(*args),
        )
        graphs = list(families.values())
        graphs.append(z.cartesian_product(z.cycle_graph(30), z.path_graph(10)))
        for g in graphs:
            calls.clear()
            z.vertex_connectivity(g)
            delta = z.min_degree(g)
            assert len(calls) <= g.n - 1 + delta * (delta - 1) // 2, g

    def test_frozen_separators(self):
        # glued blobs with kappa < delta, so the separator is a flow's cut
        # and not N(v0); every maximum flow leaves the same minimal min cut,
        # so no order of augmenting paths may move these
        rng = random.Random(14)
        blobs = [_glued_blobs(rng) for _ in range(21)]
        frozen = {2: (9, 11), 7: (8, 11), 9: (2,), 16: (6, 12), 19: (9,), 20: (1,)}
        for i, separator in frozen.items():
            g = blobs[i]
            kw = z.vertex_connectivity(g)
            assert kw.kappa < z.min_degree(g)
            assert kw.separator == separator, i

    def test_kappa_at_most_z(self, corpus):
        for g in corpus[:60]:
            assert (
                z.vertex_connectivity(g).kappa
                <= z.zero_forcing_number(g).zf_number
            )


class TestPathFlow:
    def test_matches_menger_oracle(self):
        # fan sinks (a set of out-nodes) and pair sinks (one in-node), each
        # flow against the smallest cut and the cut against the minimal one
        rng = random.Random(28)
        cuts = 0
        for trial in range(600):
            n = rng.randint(2, 9)
            p = rng.choice((0.25, 0.45, 0.65))
            g = z.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
            s = rng.randrange(n)
            others = [v for v in range(n) if v != s]
            sink = bytearray(2 * n)
            if trial % 2:
                outs, in_sinks = rng.sample(others, rng.randint(1, n - 1)), ()
                for w in outs:
                    sink[2 * w + 1] = 1
                oracle = brute_menger_cut(g, s, out_sinks=outs)
            else:
                outs, in_sinks = (), (rng.choice(others),)
                sink[2 * in_sinks[0]] = 1
                oracle = brute_menger_cut(g, s, in_sinks=in_sinks)
            limit = rng.randint(1, n)
            flow, cut = structure._path_flow(_in_nodes(g), s, sink, limit)
            key = (g.edges, s, outs, in_sinks, limit)
            assert flow == (limit if oracle is None else min(limit, len(oracle))), key
            if flow == limit:
                assert cut is None, key
                continue
            cuts += 1
            assert len(cut) == flow and s not in cut, key
            assert not reached_from(g, s, set(cut)) & (set(outs) | set(in_sinks)), key
            assert set(cut) == oracle, key
        assert cuts >= 100

    def test_vertex_freed_by_a_later_path(self):
        # the first path is 10-0-5-1-3; the second runs 10-8-4-1, cancels
        # 5's arc into 1, goes back 5_out -> 5_in -> 0_out and on by 7-9-3,
        # which frees 5; the last search reaches 5_in from 2 and goes on
        g = z.Graph(12, [(0, 5), (0, 7), (0, 10), (1, 3), (1, 4), (1, 5), (2, 5),
                         (2, 6), (3, 9), (4, 8), (6, 11), (7, 9), (8, 10), (10, 11)])
        sink = bytearray(2 * g.n)
        sink[2 * 3] = 1
        assert structure._path_flow(_in_nodes(g), 10, sink, 3) == (2, [0, 1])
        assert brute_menger_cut(g, 10, in_sinks=(3,)) == {0, 1}


def _in_nodes(g):
    """The in-node 2w of each neighbor w of v, in ascending order, per v."""
    return [[2 * w for w in sorted(g.neighbors(v))] for v in range(g.n)]


class TestMinDegree:
    def test_values(self):
        assert z.min_degree(z.circulant(12, {1, 3})) == 4
        assert z.min_degree(z.path_graph(2)) == 1
        assert z.min_degree(z.aztec_diamond(2)) == 2

    def test_circulant_rule(self):
        for n, s in ((9, {1, 2}), (12, {1, 3, 5}), (14, {2, 3})):
            assert z.min_degree(z.circulant(n, s)) == 2 * len(s)


class TestCirculantCriterion:
    def test_consecutive_not_deficient(self):
        assert circulant_kappa_deficient(9, {1, 2}) == (False, None)

    def test_disjoint_triangles(self):
        deficient, d = circulant_kappa_deficient(6, {2})
        assert deficient and d == 2
        assert z.vertex_connectivity(z.circulant(6, {2})).kappa == 0

    def test_consec_minus_instance(self):
        assert circulant_kappa_deficient(12, {1, 2, 4}) == (False, None)
        g = z.circulant(12, {1, 2, 4})
        kw = z.vertex_connectivity(g)
        assert kw.kappa == z.min_degree(g) == 6

    def test_matches_maxflow_up_to_12(self):
        for n in range(3, 13):
            for mask in range(1, 1 << (n // 2)):
                s = {i + 1 for i in range(n // 2) if mask >> i & 1}
                g = z.circulant(n, s)
                deficient, _ = circulant_kappa_deficient(n, s)
                assert deficient == (
                    z.vertex_connectivity(g).kappa < z.min_degree(g)
                ), (n, s)


class TestSap:
    def test_k2(self):
        g = z.complete_graph(2)
        rep = z.has_sap(g.adjacency_rows(), g)
        assert rep.has_sap and rep.violation_dim == 0

    def test_empty_two_vertices(self):
        g = z.Graph(2, [])
        rep = z.has_sap([[0, 0], [0, 0]], g)
        assert not rep.has_sap
        assert rep.violation_dim == 1
        assert rep.sample_violation == ((0, 1), (1, 0))

    def test_c8_p3(self):
        g = z.cartesian_product(z.cycle_graph(8), z.path_graph(3))
        rep = z.has_sap(g.adjacency_rows(), g)
        assert rep.has_sap
        assert z.adjacency_matrix(g).rank_nullity()[1] == 6

    def test_sample_violations_verify(self, corpus):
        for g in corpus[:25]:
            a = g.adjacency_rows()
            rep = z.has_sap(a, g)
            assert rep.has_sap == (rep.violation_dim == 0)
            if rep.sample_violation is None:
                continue
            x = rep.sample_violation
            assert any(e for row in x for e in row)
            # AX = 0
            assert all(not e for row in matmul(a, x) for e in row)
            for i in range(g.n):
                assert x[i][i] == 0
                for j in range(g.n):
                    assert x[i][j] == x[j][i]
                    if i != j and g.has_edge(i, j):
                        assert x[i][j] == 0

    def test_pattern_mismatch_rejected(self):
        g = z.cycle_graph(4)
        bad = [[0] * 4] * 4
        with pytest.raises(ValueError, match=r"entry \(0,1\) violates"):
            z.has_sap(bad, g)
        # a nonzero entry on the non-edge 1-3
        chord = g.adjacency_rows()
        chord[1][3] = chord[3][1] = 5
        with pytest.raises(ValueError, match=r"entry \(1,3\) violates"):
            z.has_sap(chord, g)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1, 0], [1, 0], [0, 1, 0]],
            [[0, 1, 0], [1, 0, 1], [0, 1, 0], [0, 0, 0]],
            [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0]],
        ],
        ids=["ragged-row", "extra-row", "extra-column"],
    )
    def test_shape_mismatch_rejected(self, rows):
        with pytest.raises(ValueError, match="matrix size does not match the graph"):
            z.has_sap(rows, z.path_graph(3))

    def test_nonsymmetric_rejected(self):
        g = z.complete_graph(2)
        bad = [[0, 1], [2, 0]]
        with pytest.raises(ValueError, match="not symmetric"):
            z.has_sap(bad, g)

    def test_free_diagonal_allowed(self):
        g = z.complete_graph(2)
        a = [[Fraction(1, 2), 3], [3, -2]]
        rep = z.has_sap(a, g)
        assert rep.has_sap

    def test_deficient_only_mod_p(self):
        # the one non-edge unknown x_02 has coefficients a_i0 and a_i2, each
        # 0 or p, so its column vanishes mod p but not over Q
        p = 1_000_003
        g = z.path_graph(3)
        a = [[0, p, 0], [p, 1, p], [0, p, 0]]
        rep = z.has_sap(a, g)
        assert _violation_dim(a, g) == 0
        assert rep.has_sap and rep.violation_dim == 0
        assert rep.sample_violation is None
        assert z.has_sap(g.adjacency_rows(), g).has_sap

    def test_fallback_when_lift_fails(self):
        # D A D with D the diagonal of 12 distinct primes above 1000: the
        # kernel entries are products of these primes, past isqrt(p // 2)
        # for p near 10^6, so no small-prime shortcut can stand in for Q
        g = z.aztec_diamond(2)
        d = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069]
        assert g.n == len(d)
        a = g.adjacency_rows()
        m = [[d[i] * a[i][j] * d[j] for j in range(g.n)] for i in range(g.n)]
        rep = z.has_sap(m, g)
        assert rep.violation_dim == _violation_dim(m, g) == 2
        assert not rep.has_sap
        x = rep.sample_violation
        assert any(e for row in x for e in row)
        assert all(not e for row in matmul(m, x) for e in row)

    def test_sample_check_rejects_a_non_violation(self, monkeypatch):
        # S = e_0 lies outside the S-system's kernel: X = U S U^T has the
        # squares of U's first column on its diagonal, and the replay says so
        g = z.aztec_diamond(2)
        nullspace_basis = linalg.ExactMatrix.nullspace_basis

        def s_system_off_kernel(m):
            if m.cols == g.n:  # the nullspace of A itself
                return nullspace_basis(m)
            return [[1] + [0] * (m.cols - 1)]

        monkeypatch.setattr(linalg.ExactMatrix, "nullspace_basis", s_system_off_kernel)
        with pytest.raises(ArithmeticError, match="diagonal"):
            z.has_sap(g.adjacency_rows(), g)

    def test_nonsingular_needs_no_system(self):
        g = z.cartesian_product(z.cycle_graph(7), z.cycle_graph(7))
        rep = z.has_sap(g.adjacency_rows(), g)
        assert rep == z.SapReport(True, 0, None)

    @pytest.mark.parametrize("order, dim", [(3, 6), (5, 20)])
    def test_aztec_violation_dim(self, order, dim):
        g = z.aztec_diamond(order)
        a = g.adjacency_rows()
        rep = z.has_sap(a, g)
        assert not rep.has_sap and rep.violation_dim == dim
        x = rep.sample_violation
        assert any(e for row in x for e in row)
        assert all(not e for row in matmul(a, x) for e in row)

    def test_aztec_4(self):
        g = z.aztec_diamond(4)
        a = g.adjacency_rows()
        rep = z.has_sap(a, g)
        assert not rep.has_sap and rep.violation_dim == 12
        x = rep.sample_violation
        assert any(e for row in x for e in row)
        assert all(not e for row in matmul(a, x) for e in row)

    def test_violation_dim_matches_definition(self, corpus):
        rng = random.Random(8)
        violations = 0
        for g in corpus[:25]:
            dims = []
            for m in _sap_matrices(g, rng):
                rep = z.has_sap(m, g)
                assert rep.violation_dim == _violation_dim(m, g)
                assert rep.has_sap == (rep.violation_dim == 0)
                dims.append(rep.violation_dim)
                violations += not rep.has_sap
            assert dims[0] == dims[1]
        assert violations > 2
        m, g = _gram_sap_matrix()
        rep = z.has_sap(m, g)
        assert rep.violation_dim == _violation_dim(m, g) == 4
        assert not rep.has_sap
        x = rep.sample_violation
        assert all(not e for row in matmul(m, x) for e in row)


def _sap_matrices(g, rng):
    """The adjacency matrix of g, a diagonal congruence D A D of it (same
    pattern and violation dimension) and a generic rational matrix in S(G)."""

    def frac():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 6))

    a = g.adjacency_rows()
    d = [frac() for _ in range(g.n)]
    scaled = [[d[i] * a[i][j] * d[j] for j in range(g.n)] for i in range(g.n)]
    generic = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i in range(g.n):
        generic[i][i] = frac() if rng.random() < 0.7 else Fraction(0)
    for i, j in g.edges:
        generic[i][j] = generic[j][i] = frac()
    return a, scaled, generic


def _gram_sap_matrix():
    """The Gram matrix of seven vectors in Q^3 (nullity 4) and its own
    pattern; its violation dimension, 4, is right only when the equation of
    edge ij gives S_st (s < t) both products u_is u_jt and u_it u_js."""
    vs = [(1, 0, 1), (0, 1, -1), (1, 0, 0), (0, -1, 0), (0, 0, 0), (2, 0, -1),
          (0, 2, 0)]
    gram = [[sum(x * y for x, y in zip(v, w)) for w in vs] for v in vs]
    gram_graph = z.Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)
                             if gram[i][j]])
    return gram, gram_graph


def _violation_dim(a, g):
    """Nullity of X -> A X over the symmetric X that vanish on the diagonal
    and on the edges: one column per non-edge, holding A X for the 0/1
    matrix X of that non-edge."""
    n = g.n
    columns = []
    for i in range(n):
        for j in range(i + 1, n):
            if g.has_edge(i, j):
                continue
            x = [[0] * n for _ in range(n)]
            x[i][j] = x[j][i] = 1
            columns.append([
                sum(a[r][k] for k in range(n) if x[k][c])
                for r in range(n)
                for c in range(n)
            ])
    if not columns:
        return 0
    rows = [list(r) for r in zip(*columns) if any(r)]
    return len(columns) - naive_rational_rank(rows)
