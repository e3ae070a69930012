import itertools
import random

import pytest

import zflab as z
from zflab import forcing
from oracles import brute_zero_forcing, set_closure, witness_scan
from paper import (
    aztec_cells,
    aztec_zfs,
    circulant_consec_minus_zfs,
    circulant_half_zfs,
    circulant_zfs,
    ecg_zfs,
)


class TestClosure:
    def test_path_endpoint(self):
        col = z.zf_closure(z.path_graph(4), {0})
        assert col.all_colored
        assert col.log == ((0, 1), (1, 2), (2, 3))

    def test_c4_single_vertex_stalls(self):
        col = z.zf_closure(z.cycle_graph(4), {0})
        assert col.colored == frozenset({0})
        assert col.log == ()

    def test_aztec_3_construction_forces_all(self):
        g = z.aztec_diamond(3)
        blue = aztec_zfs(3)
        cells = sorted(aztec_cells(3)[v] for v in blue)
        assert cells == [(1, 3), (1, 4), (2, 2), (2, 5), (3, 1), (3, 6)]
        assert z.zf_closure(g, blue).all_colored

    def test_log_replay_reproduces_coloring(self, corpus):
        rng = random.Random(0)
        for g in corpus[:40]:
            blue = {v for v in range(g.n) if rng.random() < 0.4}
            col = z.zf_closure(g, blue)
            replay = set(blue)
            for forcer, forced in col.log:
                assert forcer in replay and forced not in replay
                white = [w for w in g.neighbors(forcer) if w not in replay]
                assert white == [forced]
                replay.add(forced)
            assert replay == set(col.colored)
            forced_list = [w for _, w in col.log]
            assert len(forced_list) == len(set(forced_list))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            z.zf_closure(z.path_graph(3), {5})

    def test_log_matches_lowest_forcer_rule(self, corpus):
        rng = random.Random(4)
        for g in corpus[:60]:
            for q in (0.15, 0.3, 0.5):
                blue = {v for v in range(g.n) if rng.random() < q}
                log = []
                set_closure(g, blue, log=log)
                assert z.zf_closure(g, blue).log == tuple(log)

    def test_seeded_closure_matches_full(self, corpus):
        # the wavefront grows a closed set S by N[v] and the witness scan by
        # one vertex; closing from the seed alone must reach the same set
        rng = random.Random(5)
        for g in corpus[:60]:
            masks = g.adjacency_masks
            for q in (0.1, 0.25):
                start = forcing._to_mask(
                    [v for v in range(g.n) if rng.random() < q], g.n
                )
                closed = forcing._close(masks, start, start)
                moves = [masks[v] | (1 << v) for v in range(g.n)]
                moves += [1 << w for w in range(g.n)]
                for move in moves:
                    added = move & ~closed
                    if not added:
                        continue
                    grown = closed | added
                    seeded = forcing._close(
                        masks, grown, forcing._seed(masks, added, grown)
                    )
                    assert seeded == forcing._close(masks, grown, grown)
                    blue = [v for v in range(g.n) if (grown >> v) & 1]
                    assert seeded == forcing._to_mask(set_closure(g, blue), g.n)

    def test_monotone(self, corpus):
        rng = random.Random(1)
        for g in corpus[:60]:
            small = {v for v in range(g.n) if rng.random() < 0.3}
            extra = {v for v in range(g.n) if rng.random() < 0.3}
            a = z.zf_closure(g, small).colored
            b = z.zf_closure(g, small | extra).colored
            assert a <= b

    def test_order_independent(self, corpus):
        rng = random.Random(2)
        for g in corpus[:40]:
            blue = {v for v in range(g.n) if rng.random() < 0.35}
            ref = set(z.zf_closure(g, blue).colored)
            for _ in range(3):
                order = list(range(g.n))
                rng.shuffle(order)
                assert set_closure(g, blue, order) == ref


class TestIsZfs:
    def test_full_set(self, families):
        for g in families.values():
            assert z.is_zfs(g, range(g.n))

    def test_circulant_16_half_set(self):
        g = z.circulant(16, {1, 7})
        assert z.is_zfs(g, set(range(9)) | {15})

    def test_k44_no_five_subset(self):
        g = z.complete_bipartite_graph(4, 4)
        assert all(
            not z.is_zfs(g, s) for s in itertools.combinations(range(8), 5)
        )

    def test_out_of_range(self):
        for blue in ([5], [-1], [0, 3]):
            with pytest.raises(ValueError, match=f"vertex {blue[-1]} out of range"):
                z.is_zfs(z.path_graph(3), blue)

    def test_superset_of_zfs_is_zfs(self, corpus):
        rng = random.Random(3)
        for g in corpus[:30]:
            res = z.zero_forcing_number(g)
            sup = set(res.witness)
            while len(sup) < min(g.n, len(sup) + 2):
                sup.add(rng.randrange(g.n))
            assert z.is_zfs(g, sup)


class TestSearch:
    def test_matches_brute_oracle_on_corpus(self, corpus):
        for g in corpus:
            if g.n > 8:
                continue
            expect, _ = brute_zero_forcing(g)
            assert z.zero_forcing_number(g).zf_number == expect

    def test_small_families(self, families):
        expected = {
            "P5": 1,
            "C6": 2,
            "K5": 4,
            "K33": 4,  # a + b - 2
            "K44": 6,
            "AD1": 2,
            "AD2": 4,
        }
        for name, value in expected.items():
            assert z.zero_forcing_number(families[name]).zf_number == value

    def test_aztec_3(self):
        res = z.zero_forcing_number(z.aztec_diamond(3))
        assert res.zf_number == 6
        assert z.is_zfs(z.aztec_diamond(3), res.witness)

    def test_ecg_values(self):
        assert z.zero_forcing_number(z.extended_cube(1, 1)).zf_number == 4
        assert z.zero_forcing_number(z.circulant(8, {1, 3})).zf_number == 6

    def test_witness_is_lex_least_at_minimum(self):
        g = z.cycle_graph(5)
        res = z.zero_forcing_number(g)
        assert res.zf_number == 2
        best = next(
            c
            for s in range(1, 6)
            for c in itertools.combinations(range(5), s)
            if z.is_zfs(g, c)
        )
        assert res.witness == best

    def test_witness_scan_matches_recursive_oracle(self, corpus):
        # same set, same order and the same count of vertices tried, also
        # for the exhaustive failing scan one below Z
        for g in corpus[:60]:
            zf = brute_zero_forcing(g)[0]
            for size in (zf - 1, zf):
                stats = forcing._SearchStats()
                got = forcing._witness_of_size(g.adjacency_masks, g.n, size, stats)
                assert (got, stats.nodes) == witness_scan(g, size), (g.edges, size)

    def test_witness_deeper_than_recursion_limit(self):
        # Z = 1004 chosen vertices; the scan keeps its own stack
        res = z.zero_forcing_number(z.complete_graph(1005))
        assert res.zf_number == 1004 and res.witness == tuple(range(1004))

    def test_hint_with_assertion(self):
        g = z.circulant(16, {1, 7})
        nu = z.adjacency_matrix(g).rank_nullity()[1]
        res = z.zero_forcing_number(g, floor=nu)
        assert res.zf_number == 10
        assert z.is_zfs(g, res.witness)

    def test_floor_below_z_leaves_z_exact(self):
        g = z.cycle_graph(6)
        res = z.zero_forcing_number(g, floor=1)
        assert res.is_exact and res.zf_number == 2

    def test_search_cap_gives_bounds(self):
        # n = 40 was beyond the old order cap; the wavefront settles it
        g = z.circulant(40, {1, 3})
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 6
        assert z.is_zfs(g, res.witness)

    def test_floor_ends_search_early(self):
        g = z.circulant(32, {1, 15})
        res = z.zero_forcing_number(g, floor=18)
        assert res.is_exact and res.zf_number == 18
        assert res.subsets_examined <= 2 * res.zf_number
        assert z.is_zfs(g, res.witness)

    def test_aztec_4_without_floor(self):
        # the paper's M = Z = 2r at r = 4, beyond the old order cap
        g = z.aztec_diamond(4)
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 8
        assert z.is_zfs(g, res.witness)

    def test_floor_above_a_forcing_set_raises(self):
        with pytest.raises(ValueError):
            z.zero_forcing_number(z.cycle_graph(6), floor=3)

    def test_budget_gives_bounds(self, monkeypatch):
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        g = z.circulant(24, {1, 5})
        res = z.zero_forcing_number(g)
        assert not res.is_exact
        assert 1 <= res.lower_bound <= res.upper_bound == res.zf_number
        assert len(res.witness) == res.upper_bound
        assert z.is_zfs(g, res.witness)

    def test_disconnected(self):
        g = z.Graph(5, [(0, 1), (2, 3)])
        # isolated vertex 4 must be picked; each K2 needs one endpoint
        assert z.zero_forcing_number(g).zf_number == 3

    def test_single_vertex(self):
        assert z.zero_forcing_number(z.path_graph(1)).zf_number == 1

    def test_nullity_bounds_z(self, corpus, families):
        graphs = list(corpus) + [g for g in families.values() if g.n <= 16]
        for g in graphs:
            zres = z.zero_forcing_number(g)
            for lam in range(-2, 3):
                nu = z.adjacency_matrix(g, lam).rank_nullity()[1]
                assert nu <= zres.zf_number, f"null(A-{lam}I) > Z on {g!r}"


class TestConstructions:
    def test_all_constructions_force(self):
        cases = [
            (z.aztec_diamond(2), aztec_zfs(2)),
            (z.aztec_diamond(4), aztec_zfs(4)),
            (z.circulant(8, {1, 3}), circulant_half_zfs(8)),
            (z.circulant(24, {1, 11}), circulant_half_zfs(24)),
            (z.extended_cube(1, 2), ecg_zfs(1, 2)),
            (z.extended_cube(7, 7), ecg_zfs(7, 7)),
            (z.circulant(12, {1, 3}), circulant_zfs({1, 3})),
            (z.circulant(24, {1, 5}), circulant_zfs({1, 5})),
            (z.circulant(10, {1, 2, 4}), circulant_consec_minus_zfs(10)),
            (z.circulant(11, {1, 2, 3, 5}), circulant_consec_minus_zfs(11)),
        ]
        for g, blue in cases:
            assert z.is_zfs(g, blue), f"construction fails on {g!r}"

    def test_ecg_12_set(self):
        assert ecg_zfs(1, 2) == frozenset({0, 10, 11, 13})

    def test_circulant_12_13_set(self):
        assert circulant_zfs({1, 3}) == frozenset(range(6))
