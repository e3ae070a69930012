import json

import pytest

import zflab as z
from oracles import basic_family, induced_subgraph, is_isomorphic, write_edge_list
from paper import aztec_cells, subdivision_edge_insertion


def degrees(g):
    return sorted(g.degree(v) for v in range(g.n))


class TestGenerators:
    def test_circulant_8_13_neighbors(self):
        g = z.circulant(8, {1, 3})
        assert sorted(g.neighbors(0)) == [1, 3, 5, 7]

    def test_circulant_6_13_is_k33(self):
        g = z.circulant(6, {1, 3})
        for even in (0, 2, 4):
            assert sorted(g.neighbors(even)) == [1, 3, 5]
        assert g.num_edges == 9

    def test_circulant_half_step_degenerate(self):
        g = z.circulant(4, {2})
        assert g.edges == ((0, 2), (1, 3))
        assert degrees(g) == [1, 1, 1, 1]

    def test_circulant_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            z.circulant(8, {5})
        with pytest.raises(ValueError):
            z.circulant(8, set())
        with pytest.raises(ValueError):
            z.circulant(8, {0})

    def test_circulant_vertex_transitive(self):
        for n, s in ((9, {1, 2}), (12, {1, 3}), (10, {2, 5})):
            g = z.circulant(n, s)
            rot = [(i + 1) % n for i in range(n)]
            assert all(g.has_edge(rot[u], rot[v]) for u, v in g.edges)

    def test_cartesian_c7_p2(self):
        g = z.cartesian_product(z.cycle_graph(7), z.path_graph(2))
        assert g.n == 14
        assert g.num_edges == 21
        assert is_isomorphic(g, z.generalized_petersen(7, 1))

    def test_cartesian_identity_factor(self):
        g = z.circulant(8, {1, 2})
        prod = z.cartesian_product(g, z.path_graph(1))
        assert prod.n == g.n and prod.edges == g.edges

    def test_cartesian_c4_p2_cube_like(self):
        g = z.cartesian_product(z.cycle_graph(4), z.path_graph(2))
        assert g.n == 8
        assert degrees(g) == [3] * 8
        assert is_isomorphic(g, z.extended_cube(0, 0))

    def test_cartesian_degree_rule(self):
        g = z.cartesian_product(z.path_graph(3), z.cycle_graph(5))
        for v in range(3):
            for w in range(5):
                assert g.degree(v * 5 + w) == z.path_graph(3).degree(v) + 2

    def test_aztec_sizes(self):
        for r in (1, 2, 3, 4):
            assert z.aztec_diamond(r).n == 2 * r * (r + 1)

    def test_aztec_1_is_four_cycle(self):
        g = z.aztec_diamond(1)
        assert aztec_cells(1) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert is_isomorphic(g, z.cycle_graph(4))

    def test_aztec_3_neighbors_of_corner(self):
        g = z.aztec_diamond(3)
        cells = aztec_cells(3)
        assert len(cells) == g.n
        nbr_cells = sorted(cells[w] for w in g.neighbors(cells.index((1, 3))))
        assert nbr_cells == [(1, 4), (2, 3)]

    def test_extended_cube_base_is_cube(self):
        g = z.extended_cube(0, 0)
        chords = [e for e in g.edges if (e[0] + 1) % 8 != e[1] and (e[1] + 1) % 8 != e[0]]
        assert sorted(chords) == [(0, 5), (1, 4), (2, 7), (3, 6)]

    def test_extended_cube_12_chords(self):
        g = z.extended_cube(1, 2)
        assert g.n == 14
        chords = {e for e in g.edges if abs(e[0] - e[1]) not in (1, 13)}
        assert chords == {(0, 10), (1, 9), (2, 8), (3, 7), (4, 13), (5, 12), (6, 11)}

    def test_extended_cube_sizes_and_regularity(self):
        for t, k in ((0, 0), (1, 1), (1, 2), (2, 5), (7, 7)):
            g = z.extended_cube(t, k)
            assert g.n == 8 + 2 * (t + k)
            assert degrees(g) == [3] * g.n

    def test_extended_cube_symmetry(self):
        # swapping the two ladder widths gives an isomorphic graph
        for t in range(0, 4):
            for k in range(t, 7 - t):
                assert is_isomorphic(z.extended_cube(t, k), z.extended_cube(k, t))

    def test_generalized_petersen(self):
        g = z.generalized_petersen(5, 2)
        assert g.n == 10 and g.num_edges == 15
        assert degrees(g) == [3] * 10
        assert z.generalized_petersen(15, 2).n == 30

    def test_generalized_petersen_degenerate_step(self):
        with pytest.raises(ValueError, match="n/2"):
            z.generalized_petersen(6, 3)

    def test_basic_families(self):
        assert basic_family("path", 1).n == 1
        assert basic_family("cycle", 3).num_edges == 3
        assert basic_family("complete", 5).num_edges == 10
        assert basic_family("complete_bipartite", 4, 4).num_edges == 16
        with pytest.raises(ValueError):
            basic_family("cycle", 2)
        with pytest.raises(ValueError):
            basic_family("petersen", 5)


class TestEdits:
    def test_delete_vertex_closes_gaps(self):
        # the induced subgraph renumbers the kept vertices in order
        g = induced_subgraph(z.path_graph(4), {0, 2, 3})
        assert g.n == 3
        assert g.edges == ((1, 2),)  # old 2-3 becomes 1-2

    def test_cube_insertions_give_ecg_12(self):
        # one vertical double-rung ladder and one horizontal single rung;
        # the vertical pairing follows the 0-5 / 1-4 chords
        cube = z.extended_cube(0, 0)
        g1 = subdivision_edge_insertion(cube, (0, 1), (5, 4), 2)
        g2 = subdivision_edge_insertion(g1, (2, 3), (6, 7), 1)
        assert is_isomorphic(g2, z.extended_cube(1, 2))

    def test_insertion_rejects_same_edge(self):
        with pytest.raises(ValueError):
            subdivision_edge_insertion(z.cycle_graph(5), (0, 1), (1, 0), 1)


class TestSerialization:
    def test_read_p3(self):
        g = z.read_edge_list("3 2\n0 1\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_roundtrip_canonical(self, corpus):
        for g in corpus[:40]:
            assert z.read_edge_list(write_edge_list(g)) == g

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            z.read_edge_list("2 1\n0 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            z.read_edge_list("3 2\n0 1\n1 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            z.read_edge_list("2 1\n0 5\n")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            z.read_edge_list("2\n")
        with pytest.raises(ValueError):
            z.read_edge_list("2 1\n0 x\n")
        with pytest.raises(ValueError):
            z.read_edge_list("3 2\n0 1\n")

    def test_json_form(self):
        # keys other than "n" and "edges", such as a "labels" map, are ignored
        obj = {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
               "labels": {"0": [1, 1], "1": [1, 2], "2": [2, 1], "3": [2, 2]}}
        assert z.read_edge_list(json.dumps(obj)) == z.aztec_diamond(1)

    def test_json_plain(self):
        obj = {"n": 3, "edges": [[0, 1], [1, 2]]}
        assert z.read_edge_list(json.dumps(obj)).edges == ((0, 1), (1, 2))


class TestInvariants:
    def test_generator_soundness(self, families):
        for name, g in families.items():
            for u, v in g.edges:
                assert u != v and 0 <= u < v < g.n
                assert v in g.neighbors(u) and u in g.neighbors(v)

    def test_isomorphism_sanity(self):
        assert is_isomorphic(z.cycle_graph(6), z.circulant(6, {1}))
        assert not is_isomorphic(z.cycle_graph(6), z.path_graph(6))
        assert not is_isomorphic(
            z.complete_bipartite_graph(3, 3), z.complete_graph(6)
        )
