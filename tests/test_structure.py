import random
from fractions import Fraction

import pytest

import zflab as z
from oracles import induced_subgraph, matmul, naive_rational_rank
from paper import circulant_kappa_deficient
from zflab import structure
from zflab.structure import SAP_PRIME


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
            assert all(not e for row in matmul(a.data, x.data) for e in row)
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

    def test_deficient_only_mod_p(self, monkeypatch):
        # the one unknown x_02 has coefficients a_i0 and a_i2, each 0 or
        # SAP_PRIME, so its column vanishes mod p but not over Q
        p = SAP_PRIME
        g = z.path_graph(3)
        a = z.ExactMatrix(z.QQ, [[0, p, 0], [p, 1, p], [0, p, 0]])
        calls = _spy_nullspace(monkeypatch)
        rep = z.has_sap(a, g)
        assert rep.has_sap and rep.violation_dim == 0
        assert rep.sample_violation is None
        # the modular kernel vector e_0 lifts to 1 but fails the integer
        # check, since the column is p over Z, so the rational path runs
        assert calls == [z.prime_field(p), z.QQ]
        # full rank mod p settles an ordinary matrix with no rational work
        calls.clear()
        assert z.has_sap(z.adjacency_matrix(g), g).has_sap
        assert calls == [z.prime_field(p)]

    def test_fallback_when_lift_fails(self, monkeypatch):
        # D A D with D the diagonal of 12 distinct primes above 1000 scales
        # the kernel entries past the reconstruction bound isqrt(p // 2)
        g = z.aztec_diamond(2)
        d = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069]
        assert g.n == len(d)
        a = z.adjacency_matrix(g)
        m = z.ExactMatrix(z.QQ, [[d[i] * a.entry(i, j) * d[j] for j in range(g.n)]
                                 for i in range(g.n)])
        calls = _spy_nullspace(monkeypatch)
        rep = z.has_sap(m, g)
        assert calls == [z.prime_field(SAP_PRIME), z.QQ]
        assert rep.violation_dim == _violation_dim(m, g) == 2
        assert not rep.has_sap
        x = rep.sample_violation
        assert all(not e for row in matmul(m.data, x.data) for e in row)

    def test_sample_check_rejects_a_non_violation(self, monkeypatch):
        # a "kernel" vector that is the first unknown alone: its X does not
        # satisfy A X = 0, and the independent replay of the sample says so
        g = z.aztec_diamond(2)
        monkeypatch.setattr(
            structure, "_lift_kernel",
            lambda basis, rows, p: [[Fraction(1)] + [Fraction(0)] * (len(rows[0]) - 1)],
        )
        with pytest.raises(ArithmeticError, match="A X = 0"):
            z.has_sap(z.adjacency_matrix(g), g)

    def test_lift_path_matches_rational_path(self, corpus, monkeypatch):
        # the matrices of test_violation_dim_matches_definition
        rng = random.Random(8)
        cases = [(m, g) for g in corpus[:25] for m in _sap_matrices(g, rng)]
        cases += [(z.adjacency_matrix(g), g)
                  for g in (z.aztec_diamond(2), z.aztec_diamond(3))]
        lifted = [z.has_sap(m, g) for m, g in cases]
        monkeypatch.setattr(structure, "_lift_kernel", lambda *args: None)
        assert [z.has_sap(m, g) for m, g in cases] == lifted
        assert sum(not rep.has_sap for rep in lifted) > 2

    def test_aztec_3_needs_no_rational_elimination(self, monkeypatch):
        g = z.aztec_diamond(3)
        calls = _spy_nullspace(monkeypatch)
        rep = z.has_sap(z.adjacency_matrix(g), g)
        assert rep.violation_dim == 6
        assert calls == [z.prime_field(SAP_PRIME)]

    def test_aztec_4(self):
        g = z.aztec_diamond(4)
        a = z.adjacency_matrix(g)
        rep = z.has_sap(a, g)
        assert not rep.has_sap and rep.violation_dim == 12
        x = rep.sample_violation
        assert any(e for row in x.data for e in row)
        assert all(not e for row in matmul(a.data, x.data) for e in row)

    def test_violation_dim_matches_definition(self, corpus):
        rng = random.Random(8)
        for g in corpus[:25]:
            dims = []
            for m in _sap_matrices(g, rng):
                rep = z.has_sap(m, g)
                assert rep.violation_dim == _violation_dim(m, g)
                assert rep.has_sap == (rep.violation_dim == 0)
                dims.append(rep.violation_dim)
            assert dims[0] == dims[1]


def _sap_matrices(g, rng):
    """The adjacency matrix of g, a diagonal congruence D A D of it (same
    pattern and violation dimension) and a generic rational matrix in S(G)."""

    def frac():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 6))

    a = z.adjacency_matrix(g)
    d = [frac() for _ in range(g.n)]
    scaled = [[d[i] * a.entry(i, j) * d[j] for j in range(g.n)]
              for i in range(g.n)]
    generic = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i in range(g.n):
        generic[i][i] = frac() if rng.random() < 0.7 else Fraction(0)
    for i, j in g.edges:
        generic[i][j] = generic[j][i] = frac()
    return a, z.ExactMatrix(z.QQ, scaled), z.ExactMatrix(z.QQ, generic)


def _spy_nullspace(monkeypatch):
    """Record the domain of every nullspace_basis call."""
    calls = []
    nullspace_basis = z.ExactMatrix.nullspace_basis

    def spy(m):
        calls.append(m.domain)
        return nullspace_basis(m)

    monkeypatch.setattr(z.ExactMatrix, "nullspace_basis", spy)
    return calls


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
                sum(a.entry(r, k) for k in range(n) if x[k][c])
                for r in range(n)
                for c in range(n)
            ])
    if not columns:
        return 0
    rows = [list(r) for r in zip(*columns) if any(r)]
    return len(columns) - naive_rational_rank(rows)
