import itertools
import random

import pytest

import zflab as z
from zflab import equitable, forcing, graphs
from zflab.cli import parse_graph_spec
from oracles import (
    brute_vertex_orbits,
    brute_zero_forcing,
    naive_rational_rank,
    set_closure,
)
from paper import (
    aztec_cells,
    aztec_zfs,
    circulant_consec_minus_zfs,
    circulant_half_zfs,
    circulant_zfs,
    ecg_zfs,
)


@pytest.fixture
def unfloored(monkeypatch):
    """Z searches without their own GF(2) floor, so that a graph whose
    floor meets Z still runs the wavefront and its root moves."""
    monkeypatch.setattr(forcing, "_gf2_floor", lambda g: 0)


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
        # the wavefront grows a closed set S by N[v] (here also by a single
        # vertex); closing from the seed alone must reach the same set
        rng = random.Random(5)
        for g in corpus[:60]:
            masks = g.adjacency_masks
            for q in (0.1, 0.25):
                start = graphs.vertex_mask(
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
                    assert seeded == graphs.vertex_mask(set_closure(g, blue), g.n)

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
    """A set forces when its closure colors every vertex."""

    def test_full_set(self, families):
        for g in families.values():
            assert z.zf_closure(g, range(g.n)).all_colored

    def test_circulant_16_half_set(self):
        g = z.circulant(16, {1, 7})
        assert z.zf_closure(g, set(range(9)) | {15}).all_colored

    def test_k44_no_five_subset(self):
        g = z.complete_bipartite_graph(4, 4)
        assert not any(
            z.zf_closure(g, s).all_colored for s in itertools.combinations(range(8), 5)
        )

    def test_out_of_range(self):
        for blue in ([5], [-1], [0, 3]):
            with pytest.raises(ValueError, match=f"vertex {blue[-1]} out of range"):
                z.zf_closure(z.path_graph(3), blue)

    def test_superset_of_zfs_is_zfs(self, corpus):
        rng = random.Random(3)
        for g in corpus[:30]:
            res = z.zero_forcing_number(g)
            sup = set(res.witness)
            while len(sup) < min(g.n, len(sup) + 2):
                sup.add(rng.randrange(g.n))
            assert z.zf_closure(g, sup).all_colored


def check_witness(g, res):
    """The witness has Z vertices and forces; the result's force log is
    its closure's, n - Z forces."""
    col = z.zf_closure(g, res.witness)
    assert len(res.witness) == res.zf_number and col.all_colored
    assert res.forces == col.log and len(res.forces) == g.n - res.zf_number


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
        assert z.zf_closure(z.aztec_diamond(3), res.witness).all_colored

    def test_ecg_values(self):
        assert z.zero_forcing_number(z.extended_cube(1, 1)).zf_number == 4
        assert z.zero_forcing_number(z.circulant(8, {1, 3})).zf_number == 6

    def test_witness_deeper_than_recursion_limit(self):
        # Z = 1004 initial vertices, replayed by the worklist closure
        g = z.complete_graph(1005)
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 1004
        check_witness(g, res)

    def test_star_needs_no_search_beyond_the_wavefront(self):
        # the wavefront settles Z = 119 in 121 states, and its own initial
        # set is the witness: no second search over the sets of size Z
        g = z.complete_bipartite_graph(1, 120)
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 119
        assert res.subsets_examined <= 121
        check_witness(g, res)

    def test_witness_is_a_minimum_forcing_set_on_corpus(self, corpus):
        # on some graphs the greedy set is above Z, so the witness is the
        # initial set of a cheapest path of moves, not the greedy seed
        beaten = 0
        for g in corpus:
            res = z.zero_forcing_number(g)
            assert res.is_exact and res.zf_number == brute_zero_forcing(g)[0]
            check_witness(g, res)
            beaten += forcing._greedy_upper_bound(g).bit_count() > res.zf_number
        assert beaten

    def test_witness_that_does_not_force_raises(self, monkeypatch):
        # the witness is replayed, so a search that returned a set that
        # does not force would be caught, not reported
        monkeypatch.setattr(forcing, "_wavefront", lambda g, found, floor: (0b101, 2, 1))
        with pytest.raises(ArithmeticError):
            z.zero_forcing_number(z.cycle_graph(5))

    def test_hint_with_assertion(self):
        g = z.circulant(16, {1, 7})
        res = z.zero_forcing_number(g)
        assert res.zf_number == 10
        assert z.zf_closure(g, res.witness).all_colored

    def test_search_cap_gives_bounds(self):
        # n = 40 was beyond the old order cap; the wavefront settles it
        g = z.circulant(40, {1, 3})
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 6
        assert z.zf_closure(g, res.witness).all_colored

    def test_floor_ends_search_early(self):
        # the GF(2) floor 18 = Z: the greedy set ends the search
        g = z.circulant(32, {1, 15})
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 18
        assert res.subsets_examined == 0
        assert z.zf_closure(g, res.witness).all_colored

    def test_aztec_4_without_floor(self):
        # the paper's M = Z = 2r at r = 4, beyond the old order cap
        g = z.aztec_diamond(4)
        res = z.zero_forcing_number(g)
        assert res.is_exact and res.zf_number == 8
        assert z.zf_closure(g, res.witness).all_colored

    def test_budget_gives_bounds(self, monkeypatch):
        # GF(2) floor 0, below Z = 6: the search runs into its budget
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        g = z.cartesian_product(z.cycle_graph(6), z.path_graph(4))
        res = z.zero_forcing_number(g)
        assert not res.is_exact
        assert 1 <= res.lower_bound <= res.zf_number == len(res.witness)
        assert z.zf_closure(g, res.witness).all_colored

    def test_greedy_matches_plain_trials(self, corpus, families):
        # the greedy drops each vertex in turn while the rest still forces;
        # its seeded closures of whole runs must decide every trial as one
        # full closure per vertex does
        graphs_ = list(corpus) + list(families.values())
        graphs_ += [parse_graph_spec(spec) for spec in ZF_SPECS]
        for g in graphs_:
            blue = list(range(g.n))
            for v in range(g.n):
                trial = [w for w in blue if w != v]
                if len(set_closure(g, trial)) == g.n:
                    blue = trial
            assert forcing._greedy_upper_bound(g) == graphs.vertex_mask(blue, g.n)

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


ZF_SPECS = (
    "circulant:20:1,4", "circulant:22:1,5", "circulant:24:1,5",
    "petersen:10,3", "petersen:11,4", "petersen:12,5",
    "cart:cycle:6+path:4", "cart:cycle:7+path:3", "cart:cycle:8+path:3",
    "aztec:3", "ecg:1,3", "ecg:2,4",
)


def shrikhande():
    """The Shrikhande graph: Z4 x Z4, each vertex adjacent to its shifts by
    +-(1,0), +-(0,1) and +-(1,1). Strongly regular like K4 x K4, so
    individualizing one vertex leaves both with the same three cells."""
    steps = ((1, 0), (0, 1), (1, 1))
    edges = {
        tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
        for a in range(4) for b in range(4) for da, db in steps
    }
    return z.Graph(16, edges)


def every_vertex_a_root(g, vertices):
    return tuple((v,) for v in sorted(vertices))


class TestRootOrbits:
    def test_answers_match_every_root_search(self, corpus, families, monkeypatch, unfloored):
        graphs = list(corpus) + list(families.values())
        graphs += [parse_graph_spec(spec) for spec in ZF_SPECS]
        reduced = [z.zero_forcing_number(g) for g in graphs]
        monkeypatch.setattr(forcing, "vertex_orbits", every_vertex_a_root)
        for g, got in zip(graphs, reduced):
            want = z.zero_forcing_number(g)
            assert got.zf_number == want.zf_number, g.edges
            assert got.is_exact and want.is_exact
            assert got.subsets_examined <= want.subsets_examined
            check_witness(g, got)

    def test_root_moves_meet_every_orbit(self, corpus):
        # a first move is left out only for a vertex of its own orbit
        for g in [g for g in corpus if g.n <= 8]:
            truth = brute_vertex_orbits(g)
            for incumbent in (3, g.n):
                moves = {v for v in range(g.n) if 0 < g.degree(v) < incumbent}
                roots = forcing._root_moves(g, incumbent)
                assert set(roots) <= moves and len(roots) == len(set(roots))
                for orbit in truth:
                    assert bool(set(orbit) & moves) == bool(set(orbit) & set(roots))

    def test_large_symmetric_graphs(self):
        # Z of the search that expands every root
        cases = {"circulant:48:1,7": 14, "aztec:5": 10, "cart:cycle:10+path:5": 10}
        for spec, zf in cases.items():
            g = parse_graph_spec(spec)
            res = z.zero_forcing_number(g)
            assert res.is_exact and res.zf_number == zf
            check_witness(g, res)

    def test_spent_orbit_budget_keeps_z(self, monkeypatch, unfloored):
        # refinement splits these vertex-transitive strongly regular graphs
        # slowly, so the finder needs dozens of nodes to join all 16
        # vertices; with fewer, some vertices stay roots of their own
        graphs = (shrikhande(), z.cartesian_product(z.complete_graph(4), z.complete_graph(4)))
        full = [z.zero_forcing_number(g) for g in graphs]
        for g in graphs:
            assert equitable.vertex_orbits(g, range(16)) == (tuple(range(16)),)
        for budget in (0, 1, 3, 10):
            monkeypatch.setattr(equitable, "ORBIT_NODE_BUDGET", budget)
            for g, want in zip(graphs, full):
                assert len(equitable.vertex_orbits(g, range(16))) > 1
                got = z.zero_forcing_number(g)
                assert got.is_exact and got.zf_number == want.zf_number == 10
                assert got.witness == want.witness

    def test_spent_state_budget_bounds_stay_valid(self, monkeypatch):
        exact = {spec: z.zero_forcing_number(parse_graph_spec(spec)).zf_number
                 for spec in ZF_SPECS}
        for budget in (3, 10, 30):
            monkeypatch.setattr(forcing, "STATE_BUDGET", budget)
            for spec, zf in exact.items():
                res = z.zero_forcing_number(parse_graph_spec(spec))
                assert res.lower_bound <= zf <= res.zf_number

    def test_no_orbit_work_without_cheap_root_moves(self, monkeypatch, unfloored):
        # every first move of K_n costs n - 1, the greedy set's size
        calls = []
        monkeypatch.setattr(forcing, "vertex_orbits", lambda g, vs: calls.append(vs) or ())
        assert z.zero_forcing_number(z.complete_graph(30)).zf_number == 29
        assert calls == [[]]


class TestGf2Floor:
    """The search's own floor: the larger GF(2) nullity of A and A + I."""

    def test_floor_at_most_z_on_corpus(self, corpus):
        for g in corpus:
            assert forcing._gf2_floor(g) <= brute_zero_forcing(g)[0], g.edges

    def test_floor_at_most_z_on_families(self, families, unfloored):
        for name, g in families.items():
            assert forcing._gf2_floor(g) <= z.zero_forcing_number(g).zf_number, name

    def test_floor_meets_every_rational_nullity_at_integer_shifts(self, corpus, families):
        # A - lambda*I is A or A + I mod 2, and reducing mod 2 keeps or
        # lowers the rank
        for g in list(corpus) + list(families.values()):
            floor = forcing._gf2_floor(g)
            for lam in range(-3, 4):
                rows = g.adjacency_rows()
                for i in range(g.n):
                    rows[i][i] -= lam
                assert g.n - naive_rational_rank(rows) <= floor, (g.edges, lam)

    def test_floor_leaves_the_adjacency_masks(self, corpus, families):
        for g in list(corpus) + list(families.values()):
            before = list(g.adjacency_masks)
            forcing._gf2_floor(g)
            z.zero_forcing_number(g)
            assert g.adjacency_masks == before

    def test_floor_changes_no_witness(self, corpus, families, monkeypatch):
        # the wavefront swaps its incumbent only for a strictly smaller set,
        # so stopping at a floor no larger than Z keeps the witness and the
        # forces; only the states expanded drop
        graphs_ = list(corpus) + list(families.values())
        graphs_ += [parse_graph_spec(spec) for spec in ZF_SPECS]
        floored = [z.zero_forcing_number(g) for g in graphs_]
        monkeypatch.setattr(forcing, "_gf2_floor", lambda g: 0)
        for g, got in zip(graphs_, floored):
            want = z.zero_forcing_number(g)
            assert (got.witness, got.forces) == (want.witness, want.forces), g.edges
            assert got.is_exact and want.is_exact
            assert got.subsets_examined <= want.subsets_examined

    def test_floor_at_z_ends_search_at_the_greedy_set(self):
        # GF(2) nullity of A = Z on these: no state is expanded
        for spec in ("circulant:24:1,5", "petersen:10,3", "petersen:12,5",
                     "cart:cycle:8+path:3", "aztec:3", "aztec:6"):
            g = parse_graph_spec(spec)
            res = z.zero_forcing_number(g)
            assert res.is_exact and res.subsets_examined == 0, spec
            assert res.lower_bound == res.zf_number == forcing._gf2_floor(g)
            assert forcing._greedy_upper_bound(g) == graphs.vertex_mask(res.witness, g.n)
            check_witness(g, res)

    def test_floor_above_the_witness_raises(self, monkeypatch):
        # the GF(2) floor is proven, so one above the search's set is an
        # implementation fault: ArithmeticError, never ValueError
        g = z.cartesian_product(z.cycle_graph(6), z.path_graph(4))
        monkeypatch.setattr(forcing, "_gf2_floor", lambda g: g.n + 1)
        with pytest.raises(ArithmeticError, match="GF\\(2\\) floor 25"):
            z.zero_forcing_number(g)


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
            assert z.zf_closure(g, blue).all_colored, f"construction fails on {g!r}"

    def test_ecg_12_set(self):
        assert ecg_zfs(1, 2) == frozenset({0, 10, 11, 13})

    def test_circulant_12_13_set(self):
        assert circulant_zfs({1, 3}) == frozenset(range(6))
