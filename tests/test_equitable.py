import math
import random

import numpy as np
import pytest

import zflab as z
from zflab import equitable
from oracles import (
    brute_vertex_orbits,
    matmul,
    multiset_contained,
    multisets_close,
    naive_rational_rank,
    regular_representation,
)
from paper import divisor_spectrum, orbit_partition, verify_ecg_nullvectors


class TestIsEquitable:
    def test_p3(self):
        ok, b = z.is_equitable(z.path_graph(3), [(0, 2), (1,)])
        assert ok
        assert b == ((0, 1), (2, 0))

    def test_circ24_mod8(self):
        g = z.circulant(24, {1, 3})
        blocks = [tuple(i + 8 * t for t in range(3)) for i in range(8)]
        ok, _ = z.is_equitable(g, blocks)
        assert ok

    def test_violation_reported(self):
        ok, info = z.is_equitable(z.cycle_graph(4), [(0,), (1, 2, 3)])
        assert not ok
        v, j = info
        assert v == 2 and j == 0

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            z.is_equitable(z.cycle_graph(4), [(0, 1), (1, 2, 3)])
        with pytest.raises(ValueError):
            z.is_equitable(z.cycle_graph(4), [(0, 1)])

    def test_half_step_circulant(self):
        g = z.circulant(6, {1, 3})
        assert z.is_equitable(g, [range(6)]) == (True, ((3,),))


class TestRefinement:
    def test_regular_graph_unit(self):
        g = z.circulant(10, {1, 2})
        part = z.coarsest_equitable(g)
        assert part.blocks == (tuple(range(10)),)

    def test_p3(self):
        part = z.coarsest_equitable(z.path_graph(3))
        assert part.blocks == ((0, 2), (1,))

    def test_output_is_equitable(self, corpus):
        for g in corpus[:40]:
            part = z.coarsest_equitable(g)
            ok, _ = z.is_equitable(g, part.blocks)
            assert ok

    def test_aztec2_output_blocks_have_constant_degree(self):
        g = z.aztec_diamond(2)
        part = z.coarsest_equitable(g)
        for blk in part.blocks:
            assert len({g.degree(v) for v in blk}) == 1

    def test_refines_initial(self):
        g = z.path_graph(6)
        initial = [(0, 1, 2), (3, 4, 5)]
        part = z.coarsest_equitable(g, initial)
        for blk in part.blocks:
            assert set(blk) <= {0, 1, 2} or set(blk) <= {3, 4, 5}

    def test_failed_self_check_raises(self, monkeypatch):
        # the result checks must survive python -O, which strips asserts
        monkeypatch.setattr(equitable, "is_equitable", lambda g, p: (False, None))
        with pytest.raises(ArithmeticError):
            z.coarsest_equitable(z.path_graph(3))


class TestDivisorMatrix:
    def test_circ24_equals_circ8_adjacency(self):
        g = z.circulant(24, {1, 3})
        part = orbit_partition(g, [(i + 8) % 24 for i in range(24)])
        dm = z.divisor_matrix(g, part.blocks)
        assert dm == z.adjacency_matrix(z.circulant(8, {1, 3})).data

    def test_small_quotient_family(self):
        # Circ[nk, S] vs Circ[n, S] for S inside 1..ceil(n/2)-1
        for n, k, s in ((8, 3, {1, 3}), (8, 2, {1, 3}), (5, 4, {1, 2}), (8, 2, {1, 2})):
            big = z.circulant(n * k, s)
            part = orbit_partition(big, [(i + n) % (n * k) for i in range(n * k)])
            dm = z.divisor_matrix(big, part.blocks)
            assert dm == z.adjacency_matrix(z.circulant(n, s)).data
            # consequently the small nullity embeds in the big one
            nu_small = z.adjacency_matrix(z.circulant(n, s)).rank_nullity()[1]
            nu_big = z.adjacency_matrix(big).rank_nullity()[1]
            assert nu_small <= nu_big

    def test_circ12_displayed_matrix(self):
        g = z.circulant(12, {1, 3})
        part = orbit_partition(g, [(i + 6) % 12 for i in range(12)])
        dm = z.divisor_matrix(g, part.blocks)
        assert [[int(x) for x in row] for row in dm] == [
            [0, 1, 0, 2, 0, 1],
            [1, 0, 1, 0, 2, 0],
            [0, 1, 0, 1, 0, 2],
            [2, 0, 1, 0, 1, 0],
            [0, 2, 0, 1, 0, 1],
            [1, 0, 2, 0, 1, 0],
        ]

    def test_single_block_regular(self):
        g = z.circulant(9, {1, 2})
        dm = z.divisor_matrix(g, [tuple(range(9))])
        assert dm == ((4,),)

    def test_inequitable_rejected(self):
        with pytest.raises(ValueError):
            z.divisor_matrix(z.cycle_graph(4), [(0,), (1, 2, 3)])

    def test_spectrum_containment(self, corpus):
        for g in corpus[:25]:
            part = z.coarsest_equitable(g)
            if len(part.blocks) == g.n:
                continue
            ds = divisor_spectrum(g, part)
            full = z.spectrum(z.adjacency_matrix(g).data)
            assert multiset_contained(ds, full, 1e-6)

    def test_negative_control_circ12(self):
        # the 3-regular bipartite small graph has eigenvalue 3; the big one does not
        g12 = z.circulant(12, {1, 3})
        sp = z.spectrum(z.adjacency_matrix(g12).data)
        assert min(abs(v - 3) for v in sp) > 0.5

    def test_circ12_exact_multiplicities(self):
        # value set {+-4, +-sqrt(3), +-1, 0}; multiplicities pinned by exact
        # rank drops (the sqrt(3) pair via A^2 - 3I)
        g12 = z.circulant(12, {1, 3})
        a = z.adjacency_matrix(g12)
        mult = {
            lam: z.adjacency_matrix(g12, lam).rank_nullity()[1]
            for lam in (4, -4, 1, -1, 0)
        }
        assert mult == {4: 1, -4: 1, 1: 2, -1: 2, 0: 2}
        squared = matmul(a.data, a.data)
        squared_shift = z.ExactMatrix(
            [[x - 3 * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(squared)],
        )
        assert squared_shift.rank_nullity()[1] == 4
        assert sum(mult.values()) + 4 == 12


class TestOrbitPartition:
    def test_circ24(self):
        g = z.circulant(24, {1, 3})
        part = orbit_partition(g, [(i + 8) % 24 for i in range(24)])
        assert part.blocks == tuple(
            tuple(i + 8 * t for t in range(3)) for i in range(8)
        )

    def test_identity(self):
        g = z.cycle_graph(4)
        part = orbit_partition(g, [0, 1, 2, 3])
        assert part.blocks == ((0,), (1,), (2,), (3,))

    def test_ecg_shift(self):
        g = z.extended_cube(1, 1)
        part = orbit_partition(g, [(x + 3) % 12 for x in range(12)])
        assert part.blocks == ((0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11))

    def test_non_automorphism_rejected(self):
        g = z.path_graph(4)
        with pytest.raises(ValueError, match=r"edge \(1,2\) maps to \(0,2\), which is not"):
            orbit_partition(g, [1, 0, 2, 3])
        with pytest.raises(ValueError, match="not a permutation"):
            orbit_partition(g, [1, 1, 2, 3])
        # only the last edge breaks: every edge is checked
        with pytest.raises(ValueError, match=r"edge \(1,2\) maps to \(1,3\)"):
            equitable.check_automorphism(z.Graph(4, [(0, 1), (1, 2)]), [0, 1, 3, 2])


class TestVertexOrbits:
    def test_classes_inside_true_orbits(self, corpus, families):
        graphs = [g for g in corpus if g.n <= 8]
        graphs += [g for g in families.values() if g.n <= 8]
        for g in graphs:
            truth = brute_vertex_orbits(g)
            found = equitable.vertex_orbits(g, range(g.n))
            assert sorted(v for c in found for v in c) == list(range(g.n))
            for cls in found:
                assert any(set(cls) <= set(orbit) for orbit in truth), (g.edges, cls)

    def test_exact_on_vertex_transitive_families(self):
        graphs = [z.cycle_graph(n) for n in (3, 5, 8)]
        graphs += [z.complete_graph(6), z.complete_bipartite_graph(4, 4)]
        graphs += [z.circulant(8, {1, 3}), z.circulant(7, {1, 2}), z.circulant(8, {1, 2})]
        graphs += [z.extended_cube(0, 0), z.generalized_petersen(4, 1)]
        for g in graphs:
            assert brute_vertex_orbits(g) == [tuple(range(g.n))]
            assert equitable.vertex_orbits(g, range(g.n)) == (tuple(range(g.n)),)

    def test_candidates_are_checked(self, monkeypatch):
        # with every trace blanked, leaves that do not line up become
        # candidates too (most of them on these ladders, whose five orbits
        # share one equitable cell); only check_automorphism keeps the
        # classes inside orbits
        individualized = equitable._Ordered.individualized

        def blank_trace(self, masks, pos, x):
            child = individualized(self, masks, pos, x)
            child.trace = ()
            return child

        monkeypatch.setattr(equitable._Ordered, "individualized", blank_trace)
        for g in (z.extended_cube(1, 3), z.extended_cube(2, 4)):
            truth = brute_vertex_orbits(g)
            found = equitable.vertex_orbits(g, range(g.n))
            assert sorted(found) == truth

    def test_restricted_to_given_vertices(self):
        g = z.path_graph(6)  # orbits {0,5}, {1,4}, {2,3}
        assert equitable.vertex_orbits(g, [5, 1, 0, 4]) == ((0, 5), (1, 4))
        assert equitable.vertex_orbits(g, [3]) == ((3,),)
        assert equitable.vertex_orbits(g, []) == ()

    def test_spent_budget_stays_sound(self, corpus, monkeypatch):
        graphs = [g for g in corpus[:60] if g.n <= 8] + [z.cycle_graph(8)]
        for budget in (0, 1, 2, 3):
            monkeypatch.setattr(equitable, "ORBIT_NODE_BUDGET", budget)
            for g in graphs:
                truth = brute_vertex_orbits(g)
                for cls in equitable.vertex_orbits(g, range(g.n)):
                    assert any(set(cls) <= set(orbit) for orbit in truth)



def shift_block(block, lam):
    """A decomposition block minus lam times the identity, over Q by the
    regular representation: twice the size, twice the rank."""
    rows = regular_representation(block)
    return [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]


def block_nullity(dec, lam=0):
    """Sum of the block nullities of an exact decomposition of A minus
    lam*I, by the oracle."""
    return sum(
        len(b) - naive_rational_rank(shift_block(b, lam)) // 2 for b in dec.blocks
    )


class TestDecomposition:
    def test_example_blocks(self):
        g = z.extended_cube(1, 1)
        dec = z.equitable_decomposition(g, [(x + 3) % 12 for x in range(12)])
        assert dec.k == 4 and dec.exact
        assert dec.transversals[0] == (0, 1, 2)
        b0, b1, b2, b3 = dec.blocks
        assert b0 == ((0, 1, 2), (1, 1, 1), (2, 1, 0))
        assert b2 == ((0, 1, 0), (1, 1, 1), (0, 1, 0))
        assert b1[0][2] == z.QuadRational(-1, -1, "i")
        assert b1[2][0] == z.QuadRational(-1, 1, "i")

    def test_example_spectra(self):
        g = z.extended_cube(1, 1)
        dec = z.equitable_decomposition(g, [(x + 3) % 12 for x in range(12)])
        spectra = dec.block_spectra()
        assert multisets_close(spectra[0], [3, 0, -2], 1e-9)
        assert multisets_close(
            spectra[1], [1.561552, 0, -2.561552], 1e-6
        )
        union = sorted(v for s in spectra for v in s)
        expected = sorted(
            [3, 2, 1.561552, 1.561552, 0, 0, 0, 0, -1, -2, -2.561552, -2.561552]
        )
        assert multisets_close(union, expected, 1e-6)

    def test_identity_automorphism(self):
        g = z.cycle_graph(4)
        dec = z.equitable_decomposition(g, [0, 1, 2, 3])
        assert dec.k == 1 and dec.exact and len(dec.blocks) == 1
        assert dec.blocks[0] == z.adjacency_matrix(g).data

    def test_inexact_blocks_match_numpy(self):
        # every orbit size k of a bipartite circulant, exact or not, against
        # numpy through complex(x). An exact entry is an int, or a
        # QuadRational off Q; an inexact one is complex, and the even-even
        # entries no slice writes are still ints or complex zeros, as
        # decompose prints them
        cases = [(z.circulant(12, {1, 3}), 12 // k) for k in (1, 2, 3, 4, 6)]
        cases += [(z.circulant(2 * k, {1, 3}), 2) for k in (5, 7)]
        for g, s in cases:
            n = g.n
            dec = z.equitable_decomposition(g, [(i + s) % n for i in range(n)])
            k = dec.k
            assert k == n // math.gcd(n, s) and dec.exact == (k in (1, 2, 3, 4, 6))
            a = np.array(z.adjacency_matrix(g).data, dtype=float)
            w = np.exp(2j * np.pi / k)
            t0 = list(dec.transversals[0])
            for j, block in enumerate(dec.blocks):
                entries = [x for row in block for x in row]
                if dec.exact:
                    assert all(
                        type(x) is int or type(x) is z.QuadRational and x.b != 0
                        for x in entries
                    )
                else:
                    assert all(type(x) is complex for x in entries)
                if s % 2 == 0:
                    assert block[0][0] == 0 and type(block[0][0]) is (
                        int if dec.exact else complex
                    )
                want = sum(
                    w ** (j * ell) * a[np.ix_(t0, list(dec.transversals[ell]))]
                    for ell in range(k)
                )
                got = np.array([[complex(x) for x in row] for row in block])
                assert np.abs(got - want).max() < 1e-12

    def test_large_orbit_blocks(self):
        # C_1000 rotated by one vertex: block j is the 1x1 matrix
        # [2 cos(2 pi j / 1000)], a real number the spectrum accepts
        n = 1000
        dec = z.equitable_decomposition(
            z.cycle_graph(n), [(i + 1) % n for i in range(n)]
        )
        assert dec.k == n and not dec.exact
        for j, (block, spec) in enumerate(zip(dec.blocks, dec.block_spectra())):
            want = 2 * math.cos(2 * math.pi * j / n)
            assert abs(block[0][0] - want) < 1e-9 and abs(spec[0] - want) < 1e-9

    def test_union_equals_full_spectrum(self, families):
        cases = [
            ("C6 shift 2", z.cycle_graph(6), [(i + 2) % 6 for i in range(6)]),
            ("C6 shift 1", z.cycle_graph(6), [(i + 1) % 6 for i in range(6)]),
            ("Circ[8,{1,3}] shift 4", z.circulant(8, {1, 3}), [(i + 4) % 8 for i in range(8)]),
            ("ECG(1,1)", z.extended_cube(1, 1), [(i + 3) % 12 for i in range(12)]),
        ]
        cases += [
            (f"Circ[12,{{1,6}}] shift {s}", z.circulant(12, {1, 6}),
             [(i + s) % 12 for i in range(12)])
            for s in range(12)
        ]
        for name, g, perm in cases:
            dec = z.equitable_decomposition(g, perm)
            union = sorted(v for s in dec.block_spectra() for v in s)
            full = z.spectrum(z.adjacency_matrix(g).data)
            assert multisets_close(union, full, 1e-6), name
            assert sum(len(b) for b in dec.blocks) == g.n

    def test_k3_exact(self):
        g = z.cycle_graph(6)
        dec = z.equitable_decomposition(g, [(i + 2) % 6 for i in range(6)])
        assert dec.k == 3 and dec.exact
        union = sorted(v for s in dec.block_spectra() for v in s)
        assert multisets_close(union, [2, 1, 1, -1, -1, -2], 1e-8)

    def test_k6_exact(self):
        g = z.cycle_graph(6)
        dec = z.equitable_decomposition(g, [(i + 1) % 6 for i in range(6)])
        assert dec.k == 6 and dec.exact

    def test_k5_inexact(self):
        g = z.cycle_graph(5)
        dec = z.equitable_decomposition(g, [(i + 1) % 5 for i in range(5)])
        assert dec.k == 5 and not dec.exact
        union = sorted(v for s in dec.block_spectra() for v in s)
        full = z.spectrum(z.adjacency_matrix(g).data)
        assert multisets_close(union, full, 1e-6)

    def test_nullity_split_k4(self):
        g = z.extended_cube(1, 1)
        dec = z.equitable_decomposition(g, [(x + 3) % 12 for x in range(12)])
        total = block_nullity(dec)
        assert total == z.adjacency_matrix(g).rank_nullity()[1] == 4

    def test_nullity_split_k2(self):
        g = z.circulant(8, {1, 3})
        dec = z.equitable_decomposition(g, [(i + 4) % 8 for i in range(8)])
        assert dec.k == 2
        total = block_nullity(dec)
        assert total == 6

    def test_nullity_split_k3_k6(self):
        # Q(w) blocks of A - lam*I are the blocks of A minus lam*I: their
        # nullities, ranked by the oracle through the regular representation
        # over Q, add up to the nullity of A - lam*I
        cases = [(z.circulant(24, {1, 3}), s, 0) for s in (4, 8)]
        cases += [(z.cycle_graph(6), s, lam) for s in (1, 2) for lam in (1, -1, 2)]
        cases += [(z.circulant(12, {1, 6}), 2, -1)]
        for g, s, lam in cases:
            dec = z.equitable_decomposition(g, [(i + s) % g.n for i in range(g.n)])
            assert dec.k == g.n // math.gcd(g.n, s) in (3, 6) and dec.exact
            nullity = z.adjacency_matrix(g, lam).rank_nullity()[1]
            assert block_nullity(dec, lam) == nullity > 0

    def test_order_36_instance(self):
        g = z.extended_cube(7, 7)
        dec = z.equitable_decomposition(g, [(x + 9) % 36 for x in range(36)])
        assert dec.k == 4 and dec.exact
        union = sorted(v for s in dec.block_spectra() for v in s)
        full = z.spectrum(z.adjacency_matrix(g).data)
        assert multisets_close(union, full, 1e-6)
        assert block_nullity(dec) == 4

    def test_non_uniform_rejected(self):
        g = z.path_graph(3)
        with pytest.raises(ValueError):
            z.equitable_decomposition(g, [2, 1, 0])  # orbit sizes 1 and 2

    def test_bad_transversal_rejected(self):
        g = z.extended_cube(1, 1)
        with pytest.raises(ValueError):
            z.equitable_decomposition(
                g, [(x + 3) % 12 for x in range(12)], t0=(0, 3, 2)
            )

    def test_compatible_shifted_matrix(self):
        # the blocks of A(C4) - 2I are the blocks of A(C4) minus 2I
        g = z.cycle_graph(4)
        dec = z.equitable_decomposition(g, [1, 2, 3, 0])
        # each Q(i) block over Q is real symmetric, with every eigenvalue twice
        union = sorted(v for b in dec.blocks for v in z.spectrum(shift_block(b, 2)))
        assert multisets_close(union, [0, -2, -2, -4] * 2, 1e-8)


class TestEcgNullvectors:
    def test_q0(self):
        assert verify_ecg_nullvectors(0)

    def test_q1(self):
        assert verify_ecg_nullvectors(1)
        g = z.extended_cube(7, 7)
        assert z.adjacency_matrix(g).rank_nullity()[1] == 4

    def test_q2_nullity(self):
        assert verify_ecg_nullvectors(2)
        g = z.extended_cube(13, 13)
        assert g.n == 60
        assert z.adjacency_matrix(g).rank_nullity()[1] == 4
