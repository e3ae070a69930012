import json
import random
import re

import pytest

import zflab as z
from conftest import doubling_chain, example_graph_21
from oracles import all_small_moves, red_move_semantics, red_row_equation
from paper import (
    aztec_cells,
    aztec_diagonal_certificate,
    bipartite_doubling_bound,
    circulant_half_certificate,
)


def nullity(g):
    return z.adjacency_matrix(g).rank_nullity()[1]


class TestVerifyMove:
    def test_example_move_3(self):
        g = example_graph_21()
        assert z.verify_red_move(g, set(), z.RedMove.make(3, 1, {4: 1}, {0: 1}, 0))

    def test_example_move_5(self):
        g = example_graph_21()
        assert z.verify_red_move(g, set(), z.RedMove.make(5, 1, {4: 1}, {2: 1}, 0))

    def test_circulant_twin(self):
        g = z.circulant(8, {1, 3})
        assert z.verify_red_move(g, set(), z.RedMove.make(0, 4))

    def test_aztec_figure_move(self):
        g = z.aztec_diamond(3)
        vl = aztec_cells(3).index
        move = z.RedMove.make(
            vl((4, 1)), vl((3, 2)), {vl((1, 4)): 1}, {vl((2, 3)): 1}, 0
        )
        assert z.verify_red_move(g, set(), move)

    def test_failing_equation(self):
        g = z.path_graph(4)
        assert not z.verify_red_move(g, set(), z.RedMove.make(0, 1))

    def test_red_participant_raises(self):
        g = z.circulant(8, {1, 3})
        with pytest.raises(ValueError):
            z.verify_red_move(g, {4}, z.RedMove.make(0, 4))

    def test_target_in_own_support_raises(self):
        g = z.cycle_graph(4)
        with pytest.raises(ValueError):
            z.verify_red_move(g, set(), z.RedMove.make(0, 2, {0: 1}))

    def test_large_counts_are_exact(self):
        # counts have no cap: a huge one fails or holds like any other
        g = z.path_graph(3)
        assert not z.verify_red_move(g, set(), z.RedMove.make(0, 1, {2: 10**7}))
        c = 10**30
        assert z.verify_red_move(g, set(), z.RedMove.make(0, 2, {1: c}, {1: c}))


class TestSemanticsOracle:
    """The row equation agrees with materialized edge-count semantics."""

    def exhaustive(self, g):
        rows = g.adjacency_rows()
        for u, v, x, y, k in all_small_moves(g.n):
            move = z.RedMove.make(u, v, x, y, k)
            eq = z.verify_red_move(g, set(), move)
            sem = red_move_semantics(rows, g.n, u, v, x, y, k)
            assert eq == sem, (g.edges, u, v, x, y, k, eq, sem)

    def test_small_named_graphs(self):
        for g in (
            z.path_graph(4),
            z.cycle_graph(5),
            z.complete_graph(4),
            z.complete_bipartite_graph(2, 3),
            example_graph_21(),
        ):
            self.exhaustive(g)

    def test_small_corpus_graphs(self, corpus):
        done = 0
        for g in corpus:
            if g.n > 6 or done >= 6:
                continue
            self.exhaustive(g)
            done += 1
        assert done > 0


class TestRowEquationOracle:
    """The sparse check agrees with the dense row equation on seeded moves
    with counts up to 10^12, valid ones included."""

    def test_random_moves_on_corpus(self, corpus):
        rng = random.Random(29)
        seen = set()
        for g in corpus[:60]:
            rows = g.adjacency_rows()
            moves = []
            for m in z.derive_red_certificates(g):
                # a cancelling pair keeps a valid move valid
                w = rng.choice([w for w in range(g.n) if w != m.u])
                c = rng.randint(1, 10**12)
                x, y = dict(m.x), dict(m.y)
                x[w], y[w] = x.get(w, 0) + c, y.get(w, 0) + c
                moves.append((m.u, m.v, x, y, m.k))
            for _ in range(20):
                u, v = rng.sample(range(g.n), 2)
                others = [w for w in range(g.n) if w != u]
                big = rng.random() < 0.5

                def multiset():
                    picks = rng.sample(others, rng.randint(0, min(3, len(others))))
                    return {w: rng.randint(1, 10**12 if big else 2) for w in picks}

                moves.append((u, v, multiset(), multiset(), rng.randint(0, 2)))
            for u, v, x, y, k in moves:
                got = z.verify_red_move(g, set(), z.RedMove.make(u, v, x, y, k))
                assert got == red_row_equation(rows, u, v, x, y, k), (g.edges, u, v, x, y, k)
                seen.add(got)
        assert seen == {True, False}


class TestSequences:
    def test_example_sequence(self):
        g = example_graph_21()
        cert = [
            z.RedMove.make(3, 1, {4: 1}, {0: 1}, 0),
            z.RedMove.make(5, 1, {4: 1}, {2: 1}, 0),
        ]
        assert z.apply_red_sequence(g, cert) == [3, 5]

    def test_empty(self):
        assert z.apply_red_sequence(z.cycle_graph(4), []) == []

    def test_whiteness_violation_reports_index(self):
        g = z.circulant(8, {1, 3})
        cert = [
            z.RedMove.make(0, 4),
            z.RedMove.make(2, 6),
            z.RedMove.make(4, 0),  # 0 is red by now
        ]
        with pytest.raises(z.RedCertificateError) as err:
            z.apply_red_sequence(g, cert)
        assert err.value.index == 2

    def test_json_roundtrip(self):
        move = z.RedMove.make(3, 1, {4: 2}, {0: 1}, 1)
        assert z.RedMove.from_json_obj(move.to_json_obj()) == move

    def test_json_roundtrip_derived(self, corpus, families):
        for g in corpus + list(families.values()):
            for move in z.derive_red_certificates(g):
                text = json.dumps(move.to_json_obj())
                assert z.RedMove.from_json_obj(json.loads(text)) == move

    @pytest.mark.parametrize(
        "key", ["01", " 1", "1 ", "+1", "1_0", "1.0", "-0", "a", ""]
    )
    def test_json_non_canonical_key_rejected(self, key):
        # two spellings of one vertex must not collapse into one entry
        for side in ("X", "Y"):
            with pytest.raises(ValueError, match=re.escape(f"multiset key {key!r}")):
                z.RedMove.from_json_obj({"u": 0, "v": 2, side: {key: 1}})


class TestGraphNullity:
    def test_values(self):
        assert nullity(z.complete_graph(2)) == 0
        assert nullity(z.aztec_diamond(3)) == 6
        assert nullity(z.circulant(16, {1, 7})) == 10


class TestDeriveCertificates:
    def test_circ_8_13(self):
        g = z.circulant(8, {1, 3})
        cert = z.derive_red_certificates(g)
        assert len(cert) == 6
        assert len(z.apply_red_sequence(g, cert)) == 6

    def test_k3_empty(self):
        assert z.derive_red_certificates(z.complete_graph(3)) == ()
        assert z.derive_red_certificates(z.Graph(0, [])) == ()

    def test_c4_twins(self):
        cert = z.derive_red_certificates(z.cycle_graph(4))
        assert len(cert) == 2
        for move in cert:
            assert move.v == move.u - 2 and move.x == () and move.y == () and move.k == 0

    def test_isolated_vertex(self):
        g = z.Graph(3, [(0, 1)])
        cert = z.derive_red_certificates(g)
        assert len(cert) == nullity(g) == 1
        assert z.apply_red_sequence(g, cert) == [2]

    def test_aztec_4_moves_pinned(self):
        cert = z.derive_red_certificates(z.aztec_diamond(4))
        assert [(m.u, m.v, m.x, m.y, m.k) for m in cert] == [
            (20, 3, ((13, 1),), ((1, 1), (7, 1)), 0),
            (27, 4, ((18, 1),), ((0, 1), (10, 1)), 0),
            (28, 9, ((22, 1),), ((5, 1), (15, 1)), 0),
            (33, 8, ((25, 1),), ((2, 1), (16, 1)), 0),
            (34, 17, ((30, 1),), ((11, 1), (24, 1)), 0),
            (37, 14, ((31, 1),), ((6, 1), (23, 1)), 0),
            (38, 26, ((36, 1),), ((19, 1), (32, 1)), 0),
            (39, 21, ((35, 1),), ((12, 1), (29, 1)), 0),
        ]

    def test_cleared_denominator_pinned(self):
        # row(9) = (row(1) + row(1) + row(4) + 2 row(5) - row(0) - row(2)) / 2
        g = z.Graph(10, [
            (0, 1), (0, 3), (0, 6), (0, 7), (0, 9), (1, 2), (1, 3), (1, 5),
            (1, 6), (1, 8), (2, 3), (2, 6), (2, 8), (2, 9), (3, 7), (3, 8),
            (4, 7), (4, 8), (5, 9), (7, 8), (8, 9),
        ])
        assert z.derive_red_certificates(g) == (
            z.RedMove.make(6, 3, None, {4: 1}, 0),
            z.RedMove.make(9, 1, {1: 1, 4: 1, 5: 2}, {0: 1, 2: 1}, 1),
        )

    def test_doubling_chain(self):
        # the kernel entry 2^21 becomes k + 1 and counts up to 2^20
        g = doubling_chain()
        cert = z.derive_red_certificates(g)
        assert g.n == 127 and len(cert) == nullity(g) == 1
        assert cert[0].k == 2**21 - 1 and max(c for _, c in cert[0].x) == 2**20
        assert z.apply_red_sequence(g, cert) == [126]

    def test_matches_nullity_on_corpus(self, corpus):
        for g in corpus:
            cert = z.derive_red_certificates(g)
            assert len(cert) == nullity(g)
            assert len(z.apply_red_sequence(g, cert)) == len(cert)

    def test_matches_nullity_on_families(self, families):
        for name, g in families.items():
            cert = z.derive_red_certificates(g)
            assert len(cert) == nullity(g), name
            z.apply_red_sequence(g, cert)


class TestBipartiteDoubling:
    def aztec_side(self, g, r):
        return {v for v, (i, j) in enumerate(aztec_cells(r)) if (i + j) % 2 == r % 2}

    def test_aztec_3(self):
        g, moves = aztec_diagonal_certificate(3)
        assert bipartite_doubling_bound(g, self.aztec_side(g, 3), moves) == 6

    def test_aztec_all_orders(self):
        for r in (1, 2, 4):
            g, moves = aztec_diagonal_certificate(r)
            bound = bipartite_doubling_bound(g, self.aztec_side(g, r), moves)
            assert bound == 2 * r == nullity(g)

    def test_circulant_half(self):
        g = z.circulant(8, {1, 3})
        moves = circulant_half_certificate(8)
        assert bipartite_doubling_bound(g, set(range(0, 8, 2)), moves) == 6

    def test_circulant_16(self):
        g = z.circulant(16, {1, 7})
        moves = circulant_half_certificate(16)
        assert bipartite_doubling_bound(g, set(range(0, 16, 2)), moves) == 10

    def test_empty_certificate(self):
        g = z.complete_bipartite_graph(3, 3)
        assert bipartite_doubling_bound(g, {0, 1, 2}, []) == 0

    def test_rejects_unbalanced(self):
        g = z.complete_bipartite_graph(2, 3)
        with pytest.raises(ValueError):
            bipartite_doubling_bound(g, {0, 1}, [])

    def test_rejects_non_bipartition(self):
        g = z.cycle_graph(6)
        with pytest.raises(ValueError):
            bipartite_doubling_bound(g, {0, 1, 2}, [])

    def test_rejects_escaping_move(self):
        g = z.circulant(8, {1, 3})
        move = z.RedMove.make(1, 5)  # odd-side twin move, even side given
        with pytest.raises(z.RedCertificateError):
            bipartite_doubling_bound(g, set(range(0, 8, 2)), [move])

    def test_first_failing_move_is_reported(self):
        # move 0 fails its row equation, move 1 escapes the side
        g = z.cycle_graph(8)
        cert = [z.RedMove.make(0, 2), z.RedMove.make(1, 3)]
        with pytest.raises(z.RedCertificateError) as err:
            bipartite_doubling_bound(g, set(range(0, 8, 2)), cert)
        assert err.value.index == 0
        assert "row equation" in str(err.value)

    def test_never_exceeds_nullity_fuzz(self):
        rng = random.Random(17)
        for _ in range(40):
            half = rng.randint(2, 6)
            edges = [
                (u, half + w)
                for u in range(half)
                for w in range(half)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = z.Graph(2 * half, edges)
            side = set(range(half))
            # twin moves inside the side
            byrow = {}
            for u in side:
                byrow.setdefault(frozenset(g.neighbors(u)), []).append(u)
            moves = []
            for group in byrow.values():
                moves += [z.RedMove.make(u, group[-1]) for u in group[:-1]]
            bound = bipartite_doubling_bound(g, side, moves)
            assert bound <= nullity(g)
