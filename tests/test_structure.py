import random
from fractions import Fraction

import pytest

import zflab as z
from oracles import induced_subgraph
from paper import circulant_kappa_deficient


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

    def test_kappa_at_most_z(self, corpus):
        for g in corpus[:60]:
            assert (
                z.vertex_connectivity(g).kappa
                <= z.zero_forcing_number(g).zf_number
            )


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
        rep = z.has_sap(z.adjacency_matrix(g), g)
        assert rep.has_sap and rep.violation_dim == 0

    def test_empty_two_vertices(self):
        g = z.Graph(2, [])
        rep = z.has_sap(z.ExactMatrix(z.QQ, [[0, 0], [0, 0]]), g)
        assert not rep.has_sap
        assert rep.violation_dim == 1
        assert rep.sample_violation.data == ((0, 1), (1, 0))

    def test_c8_p3(self):
        g = z.cartesian_product(z.cycle_graph(8), z.path_graph(3))
        a = z.adjacency_matrix(g)
        rep = z.has_sap(a, g)
        assert rep.has_sap
        assert a.rank_nullity()[1] == 6

    def test_sample_violations_verify(self, corpus):
        for g in corpus[:25]:
            a = z.adjacency_matrix(g)
            rep = z.has_sap(a, g)
            assert rep.has_sap == (rep.violation_dim == 0)
            if rep.sample_violation is None:
                continue
            x = rep.sample_violation
            assert any(e for row in x.data for e in row)
            # AX = 0
            assert all(not e for row in a.matmul(x).data for e in row)
            for i in range(g.n):
                assert x.entry(i, i) == 0
                for j in range(g.n):
                    assert x.entry(i, j) == x.entry(j, i)
                    if i != j and g.has_edge(i, j):
                        assert x.entry(i, j) == 0

    def test_pattern_mismatch_rejected(self):
        g = z.cycle_graph(4)
        bad = z.ExactMatrix(z.QQ, [[0] * 4] * 4)
        with pytest.raises(ValueError):
            z.has_sap(bad, g)

    def test_nonsymmetric_rejected(self):
        g = z.complete_graph(2)
        bad = z.ExactMatrix(z.QQ, [[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            z.has_sap(bad, g)

    def test_free_diagonal_allowed(self):
        g = z.complete_graph(2)
        a = z.ExactMatrix(z.QQ, [[Fraction(1, 2), 3], [3, -2]])
        rep = z.has_sap(a, g)
        assert rep.has_sap
