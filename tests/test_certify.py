import itertools
import json
import random

import pytest

import zflab as z
import zflab.cli as cli
from zflab import certify, forcing, linalg
from zflab.forcing import ZfResult

from conftest import make_random_corpus
from oracles import bb_min_rank_gf2, brute_min_rank_gf2, gf2_rank


def reading_n_over(*broken):
    """`linalg.nullities` with the nullity over each field in `broken` ("Q"
    or a prime) replaced by the matrix order n: a fault that breaks the
    chain."""
    def faulty(matrix, primes):
        nulls = linalg.nullities(matrix, primes)
        return {f: matrix.cols if f in broken else v for f, v in nulls.items()}

    return faulty


def every_nullity_reading_n(monkeypatch):
    """Every nullity the verbs read reads the matrix order n: `nullities`
    over Q and each prime for `certify` and `conjecture`, and the rational
    `rank_nullity` for `report`."""
    monkeypatch.setattr(certify, "nullities", reading_n_over("Q", 2, 3, 5))
    rank_nullity = linalg.ExactMatrix.rank_nullity
    monkeypatch.setattr(
        linalg.ExactMatrix, "rank_nullity",
        lambda m: (0, m.cols) if m.domain.p is None else rank_nullity(m),
    )


class TestCertify:
    def test_aztec_2(self):
        v = z.certify_universal_optimality(z.aztec_diamond(2), 0, (2, 3, 5, 7))
        assert v.claims and v.zf.zf_number == 4
        assert v.nullities == {"Q": 4, 2: 4, 3: 4, 5: 4, 7: 4}

    def test_circ_16(self):
        v = z.certify_universal_optimality(z.circulant(16, {1, 7}), 0, (2, 3, 5))
        assert v.claims and v.zf.zf_number == 10

    def test_circ_8_13(self):
        v = z.certify_universal_optimality(z.circulant(8, {1, 3}), 0, (2, 3))
        assert v.claims and v.zf.zf_number == 6

    def test_petersen_at_shift(self):
        v = z.certify_universal_optimality(
            z.generalized_petersen(15, 2), -2, (2, 3, 5)
        )
        assert v.claims and v.zf.zf_number == 6

    def test_negative_when_nullity_low(self):
        g = z.cartesian_product(z.cycle_graph(7), z.path_graph(2))
        v = z.certify_universal_optimality(g, 0, (2,))
        assert not v.claims
        assert v.zf.zf_number == 4 and v.nullities["Q"] == 0
        assert "inconclusive" in v.reason

    def test_modular_nullity_above_z_violates(self, monkeypatch, capsys):
        # only the GF(5) nullity, n = 14, exceeds Z = 4; the Q nullity is 0
        monkeypatch.setattr(certify, "nullities", reading_n_over(5))
        assert cli.main(["certify", "--graph", "cart:cycle:7+path:2"]) == 1
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert "chain violation" in verdict and "5: 14" in verdict

    def test_budget_reason_keeps_the_nullity_lower_end(self, monkeypatch):
        # P(11,4), Z = 7: 5 states bound Z by 4 <= Z <= 7 on their own, and
        # a nullity 6 over GF(3), at most the best set, is the better floor
        def six_over_3(matrix, primes):
            return {**linalg.nullities(matrix, primes), 3: 6}

        monkeypatch.setattr(certify, "nullities", six_over_3)
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        v = z.certify_universal_optimality(z.generalized_petersen(11, 4))
        assert (v.zf.lower_bound, v.zf.zf_number, v.zf.is_exact) == (4, 7, False)
        assert v.reason == "the Z search used its budget of 5 states: 6 <= Z <= 7"

    def test_violation_reason_names_the_broken_bound(self, monkeypatch):
        # a spent search bounds Z, and the reason gives those bounds
        monkeypatch.setattr(certify, "nullities", reading_n_over("Q", 2, 3, 5))
        monkeypatch.setattr(forcing, "STATE_BUDGET", 3)
        v = z.certify_universal_optimality(z.generalized_petersen(11, 4))
        assert not v.zf.is_exact and "chain violation" in v.reason
        assert f"{v.zf.lower_bound} <= Z <= {v.zf.zf_number}" in v.reason
        monkeypatch.undo()

        # only the GF(2) nullity, n = 14, exceeds the exact Z = 4; the Q
        # nullity 0 lies below Z and breaks no bound
        monkeypatch.setattr(certify, "nullities", reading_n_over(2))
        g = z.cartesian_product(z.cycle_graph(7), z.path_graph(2))
        v = z.certify_universal_optimality(g)
        assert v.zf.is_exact and "chain violation" in v.reason
        assert "{2: 14}" in v.reason and "Z = 4" in v.reason
        assert "Q" not in v.reason

    def test_modular_never_below_rational(self, corpus):
        for g in corpus[:25]:
            v = z.certify_universal_optimality(g, 0, (2, 3, 5))
            for p in (2, 3, 5):
                assert v.nullities[p] >= v.nullities["Q"]

    def test_requires_primes(self):
        with pytest.raises(ValueError):
            z.certify_universal_optimality(z.cycle_graph(4), 0, ())

    def test_json_shape(self):
        v = z.certify_universal_optimality(z.cycle_graph(4), 0, (2,))
        obj = v.to_json_obj()
        assert obj["verdict"] == "Certified"
        assert obj["zero_forcing_number"] == 2


def _lead_mask(rows):
    """The lead bits of the rows' echelon basis as the GF(2) search keeps
    it: each row reduced by the leads it hits, highest first, then kept
    under its highest set bit."""
    pivots, leads = {}, 0
    for row in rows:
        while row & leads:
            row ^= pivots[(row & leads).bit_length()]
        if row:
            pivots[row.bit_length()] = row
            leads |= 1 << row.bit_length() >> 1
    return leads


def _incumbent(g):
    """The GF(2) search's incumbent: (rank, diagonal) of the better of
    D = 0 and D = I, D = 0 on a tie."""
    plus = [row | 1 << i for i, row in enumerate(g.adjacency_masks)]
    rank_a, rank_i = gf2_rank(g.adjacency_masks), gf2_rank(plus)
    return (rank_a, 0) if rank_a <= rank_i else (rank_i, (1 << g.n) - 1)


def _replayed_rank(g, witness):
    return gf2_rank([row | bit << i for i, (row, bit)
                     in enumerate(zip(g.adjacency_masks, witness))])


def _search_floor(g):
    return g.n - forcing._greedy_upper_bound(g).bit_count()


class TestGf2MinRank:
    def test_k2(self):
        res = z.min_rank_gf2_exhaustive(z.complete_graph(2))
        assert res.min_rank == 1
        assert sum(res.witness_diagonal) > 0  # all-ones diagonal attains 1

    def test_p3_via_enumeration(self):
        g = z.path_graph(3)
        res = z.min_rank_gf2_exhaustive(g)
        # oracle: all 8 diagonals by hand-rolled GF(2) elimination
        def rank2(rows):
            rank, pivots = 0, []
            for row in rows:
                for p in pivots:
                    row = min(row, row ^ p)
                if row:
                    pivots.append(row)
                    rank += 1
            return rank

        best = 3
        for d in range(8):
            rows = [0b010 | (d & 1), 0b101 | (d & 2), 0b010 | (d & 4)]
            best = min(best, rank2(rows))
        assert res.min_rank == best == 2

    def test_c7_p2_no_rank_10(self):
        # the attained ranks are [min, n], so a minimum of 11 rules out 10
        g = z.cartesian_product(z.cycle_graph(7), z.path_graph(2))
        res = z.min_rank_gf2_exhaustive(g)
        assert res.min_rank == 11

    def test_witness_attains(self, corpus):
        for g in corpus[:10]:
            res = z.min_rank_gf2_exhaustive(g)
            rows = [0] * g.n
            for u, v in g.edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            for i, bit in enumerate(res.witness_diagonal):
                rows[i] |= bit << i
            m = z.ExactMatrix(
                [[(rows[i] >> j) & 1 for j in range(g.n)] for i in range(g.n)], 2
            )
            assert m.rank_nullity()[0] == res.min_rank

    def test_bounded_below_by_n_minus_z(self, corpus):
        for g in corpus[:30]:
            res = z.min_rank_gf2_exhaustive(g)
            zres = z.zero_forcing_number(g)
            assert res.min_rank >= g.n - zres.zf_number

    def test_cap(self):
        # P(13,5): D = 0 and D = I rank 25, above the floor 17, so only a
        # search could answer, and the order 26 is past the cap
        with pytest.raises(ValueError, match="search is needed.*rank 25, above the floor 17"):
            z.min_rank_gf2_exhaustive(z.generalized_petersen(13, 5))

    @pytest.mark.parametrize("spec, min_rank", [
        ("cart:cycle:9+cycle:9", 64),
        ("aztec:6", 72),
        ("cart:cycle:8+cycle:8", 48),
        ("cycle:30", 28),
        ("petersen:15,4", 21),
        ("aztec:20", 800),
        ("circulant:768:1,7", 754),
    ])
    def test_past_the_cap_an_incumbent_at_the_floor_answers(self, spec, min_rank):
        # D = 0 or D = I meets the floor n - |greedy set|: no search, so
        # no cap (the minima of C9xC9, aztec:6, C8xC8 and P(15,4) are
        # n - M(GF(2)) of ROADMAP item 4's table)
        g = cli.parse_graph_spec(spec)
        res = z.min_rank_gf2_exhaustive(g)
        assert g.n > certify.GF2_ORDER_CAP
        assert res.min_rank == min_rank == _search_floor(g) == _incumbent(g)[0]
        assert res.nodes_examined == 0
        assert _replayed_rank(g, res.witness_diagonal) == min_rank

    def test_wrong_witness_is_refused(self, monkeypatch):
        # P2 has GF(2) minimum rank 1, at D = I; the zero diagonal leaves
        # A at rank 2, so a search reporting it is caught by the replay
        monkeypatch.setattr(
            certify, "_gf2_min_rank", lambda base, floor, best, diag: (1, 0, 1)
        )
        with pytest.raises(ArithmeticError, match="does not attain rank 1"):
            z.min_rank_gf2_exhaustive(z.path_graph(2))

    def test_matches_oracle(self, corpus, families):
        graphs = corpus[:40] + [g for g in families.values() if g.n <= 12]
        for g in graphs + make_random_corpus(count=200, max_n=12, seed=27):
            best, _, ranks = brute_min_rank_gf2(g)
            res = z.min_rank_gf2_exhaustive(g)
            assert res.min_rank == best
            assert _replayed_rank(g, res.witness_diagonal) == best
            # the attained ranks form the interval [min, n]
            for t in range(-1, g.n + 2):
                assert (res.min_rank <= t <= g.n) is (t in ranks)

    def test_floor_ends_search(self):
        # C9xP2: the greedy floor 18 - 4 equals the minimum, so the search
        # stops at the first diagonal of rank 14, far short of 2^18
        g = z.cartesian_product(z.cycle_graph(9), z.path_graph(2))
        res = z.min_rank_gf2_exhaustive(g)
        assert res.min_rank == g.n - forcing._greedy_upper_bound(g).bit_count() == 14
        assert 0 < res.nodes_examined < 1000

    def test_empty_graph(self):
        res = z.min_rank_gf2_exhaustive(z.Graph(0, []))
        assert (res.min_rank, res.witness_diagonal) == (0, ())

    def test_partitioned_rank_bound(self):
        # with rows F = i..n-1 of a symmetric M fixed, every completion of
        # the free diagonal bits 0..i-1 has rank >= 2 rank(rows F) - rank
        # M[F,F], and the search's lead mask counts rank M[F,F]
        rng = random.Random(27)
        for _ in range(80):
            n = rng.randint(1, 8)
            m = [0] * n
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < 0.5:
                    m[u] |= 1 << v
                    m[v] |= 1 << u
            m = [row | (rng.random() < 0.5) << i for i, row in enumerate(m)]
            for i in range(n + 1):
                fixed = m[i:]
                rank, rank_ff = gf2_rank(fixed), gf2_rank([row >> i for row in fixed])
                assert (_lead_mask(reversed(fixed)) >> i).bit_count() == rank_ff
                for free in range(1 << i):
                    rows = [m[j] & ~(1 << j) | free & (1 << j) for j in range(i)]
                    assert gf2_rank(rows + fixed) >= 2 * rank - rank_ff, (m, i, free)

    def test_matches_recomputed_search(self, corpus, families):
        # the same minimum, witness and prefix count as the search that
        # recomputes every rank, from the incumbent at D = 0 or D = I
        for g in corpus[:60] + [g for g in families.values() if g.n <= 14]:
            res = z.min_rank_gf2_exhaustive(g)
            got = (res.min_rank, res.witness_diagonal, res.nodes_examined)
            assert got == bb_min_rank_gf2(g, _search_floor(g), *_incumbent(g)), g.edges

    def test_seed_keeps_answers(self, corpus, families):
        # the search from the incumbent answers as one started above every
        # rank, and examines no more prefixes
        for g in corpus + list(families.values()):
            res = z.min_rank_gf2_exhaustive(g)
            best, _, nodes = certify._gf2_min_rank(
                g.adjacency_masks, _search_floor(g), g.n + 1, 0
            )
            assert res.min_rank == best
            assert _replayed_rank(g, res.witness_diagonal) == best
            assert res.nodes_examined <= nodes

    def test_no_more_nodes_than_the_search_above_the_incumbent(self, corpus, families):
        # the search that sought ranks up to the incumbent's, seeded one
        # above it, examines at least as many prefixes
        for g in corpus + list(families.values()):
            res = z.min_rank_gf2_exhaustive(g)
            rank, _ = _incumbent(g)
            best, _, nodes = bb_min_rank_gf2(g, _search_floor(g), rank + 1)
            assert res.min_rank == best
            assert res.nodes_examined <= nodes, g.edges

    @pytest.mark.parametrize("g", [
        z.cartesian_product(z.cycle_graph(8), z.path_graph(2)),
        z.generalized_petersen(12, 5),
        z.aztec_diamond(3),
    ], ids=["C8xP2", "P(12,5)", "aztec:3"])
    def test_incumbent_at_the_floor_ends_at_once(self, g):
        # D = 0 or D = I already meets the floor n - |greedy set|
        res = z.min_rank_gf2_exhaustive(g)
        assert res.min_rank == _search_floor(g) == _incumbent(g)[0]
        assert res.nodes_examined == 0
        assert res.witness_diagonal in ((0,) * g.n, (1,) * g.n)

    def test_bound_prunes_petersen_8_3(self):
        # 9,694 prefixes when only the fixed rows' rank pruned, with no seed
        res = z.min_rank_gf2_exhaustive(z.generalized_petersen(8, 3))
        assert res.min_rank == 12
        assert res.nodes_examined < 9694


class TestParameterReport:
    def test_circ_9_12(self):
        rep = z.parameter_report(z.circulant(9, {1, 2}))
        assert rep.min_degree == rep.kappa == 4
        assert rep.zf.zf_number == 4
        assert rep.chain_consistent()

    def test_consec_minus_instance(self):
        # the n = 12 member of the dropped-step family is {1,2,3,5}; the
        # smaller set {1,2,4} shares delta = kappa = 6 but has Z = 7
        rep = z.parameter_report(z.circulant(12, {1, 2, 3, 5}))
        assert rep.min_degree == rep.kappa == 8
        assert rep.zf.zf_number == 8
        rep2 = z.parameter_report(z.circulant(12, {1, 2, 4}))
        assert rep2.min_degree == rep2.kappa == 6
        assert rep2.zf.zf_number == 7
        assert rep2.chain_consistent()

    def test_k1(self):
        rep = z.parameter_report(z.path_graph(1))
        assert rep.min_degree == 0 and rep.kappa == 0
        assert rep.zf.zf_number == 1
        assert rep.nullities_q[0] == 1

    def test_chain_on_corpus(self, corpus):
        for g in corpus[:20]:
            assert z.parameter_report(g).chain_consistent()

    def test_best_lower_source(self):
        rep = z.parameter_report(z.circulant(8, {1, 3}))
        assert rep.best_lower_bound == 6
        assert "nullity" in rep.best_lower_source


class TestConjectureHarness:
    def test_circ_family(self):
        rows = z.conjecture_harness("circ_l", l_values=(3,), k_values=(1, 2, 3))
        assert len(rows) == 3
        assert all(r.status == "pass" for r in rows)
        assert all(r.verdict.nullities["Q"] == 6 for r in rows)

    def test_ecg_family(self):
        rows = z.conjecture_harness("ecg_tr", t_values=(0, 1), r_values=(1, 2))
        byname = {r.verdict.graph_id: r for r in rows}
        assert byname["ECG(1,1)"].status == "pass"
        assert byname["ECG(0,8)"].status == "pass"
        assert all(r.status in ("pass", "skipped") for r in rows)

    def test_circ_144_beyond_old_order_cap(self):
        rows = z.conjecture_harness("circ_l", l_values=(5,), k_values=(6,))
        assert rows[0].verdict.graph_id == "Circ[144,{1,5}]"
        assert rows[0].status == "pass"

    def test_floor_above_z_fails(self, monkeypatch, capsys):
        # every nullity reads n = 8 > Z = 6: each verb reports the violation
        every_nullity_reading_n(monkeypatch)
        rows = z.conjecture_harness("circ_l", l_values=(3,), k_values=(1,))
        v = rows[0].verdict
        assert (v.nullities["Q"], v.zf.zf_number, rows[0].status) == (8, 6, "fail")
        assert cli.main(["certify", "--graph", "circulant:8:1,3"]) == 1
        assert "chain violation" in json.loads(capsys.readouterr().out)["verdict"]
        assert cli.main(["report", "--graph", "circulant:8:1,3"]) == 1
        monkeypatch.undo()

        def out_of_budget(g):
            return ZfResult(8, tuple(range(8)), (), is_exact=False, lower_bound=0)

        monkeypatch.setattr(certify, "zero_forcing_number", out_of_budget)
        rows = z.conjecture_harness("circ_l", l_values=(3,), k_values=(1,))
        assert rows[0].status == "skipped"  # bounds only; no Z to test

    def test_one_search_per_verdict(self, monkeypatch, capsys):
        # a nullity above Z is found by comparing bounds after the one
        # search: no verb runs the search again
        every_nullity_reading_n(monkeypatch)
        calls = []
        search = certify.zero_forcing_number

        def counted(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(certify, "zero_forcing_number", counted)
        assert cli.main(["certify", "--graph", "circulant:8:1,3"]) == 1
        assert len(calls) == 1
        assert cli.main(["report", "--graph", "circulant:8:1,3"]) == 1
        assert len(calls) == 2
        rows = z.conjecture_harness("circ_l", l_values=(3,), k_values=(1,))
        assert rows[0].status == "fail" and len(calls) == 3
        capsys.readouterr()

    def test_certified_row_with_other_conjecture_fails(self):
        # nullity = Z = 6 is certified, but the conjectured value differs
        g = z.circulant(8, {1, 3})
        assert certify._harness_row(g, "Circ[8,{1,3}]", 6).status == "pass"
        assert certify._harness_row(g, "Circ[8,{1,3}]", 4).status == "fail"

    def test_budget_exhaustion_skips(self, monkeypatch):
        monkeypatch.setattr(forcing, "STATE_BUDGET", 5)
        # the GF(2) floor 1 is below Z = 7: nullity 0 over Q, 0, 1, 0 over GF(2, 3, 5)
        g = z.generalized_petersen(11, 4)
        row = certify._harness_row(g, "P(11,4)", 8)
        assert row.status == "skipped" and not row.verdict.zf.is_exact
        # the GF(2) nullity 8 = Z floors P(10,3): exact within the budget
        row = certify._harness_row(z.generalized_petersen(10, 3), "P(10,3)", 8)
        assert (row.verdict.nullities["Q"], row.verdict.nullities[2]) == (0, 8)
        assert (row.verdict.zf.zf_number, row.status) == (8, "fail")

    def test_violation_with_spent_budget_is_never_skipped(self, monkeypatch, capsys):
        # every nullity reads n = 22 above the spent search's best set of 7
        every_nullity_reading_n(monkeypatch)
        monkeypatch.setattr(forcing, "STATE_BUDGET", 3)
        g = z.generalized_petersen(11, 4)
        v = z.certify_universal_optimality(g)
        assert not v.zf.is_exact and v.zf.zf_number == 7
        assert "chain violation" in v.reason
        assert cli.main(["certify", "--graph", "petersen:11,4"]) == 1
        assert "chain violation" in json.loads(capsys.readouterr().out)["verdict"]
        assert certify._harness_row(g, "P(11,4)", 8).status == "fail"
        assert cli.main(["report", "--graph", "petersen:11,4"]) == 1
        assert "22 <= M(G) <= Z(G) <= 7" in capsys.readouterr().out

    def test_circ_48_beyond_old_order_cap(self):
        rows = z.conjecture_harness("circ_l", l_values=(7,), k_values=(1,))
        assert rows[0].verdict.graph_id == "Circ[48,{1,7}]"
        assert rows[0].status == "pass"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            z.conjecture_harness("petersen")

    def test_ranges_that_select_nothing(self):
        # an empty table would claim no failing row after checking nothing;
        # ECG(3, 6 - 3 - 4) has k < t, so the ecg_tr ranges select nothing
        for family, ranges in (
            ("circ_l", {"l_values": (), "k_values": (1,)}),
            ("ecg_tr", {"t_values": (3,), "r_values": (1,)}),
        ):
            with pytest.raises(ValueError, match="select no instance"):
                z.conjecture_harness(family, **ranges)
