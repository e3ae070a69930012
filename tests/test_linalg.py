import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import zflab as z
from zflab import linalg
from oracles import (
    format_matrix,
    fraction_determinant,
    fraction_nullspace,
    gf2_rank,
    laplace_determinant,
    matvec,
    mod_p_nullspace,
    multisets_close,
    naive_mod_p_rank,
    naive_rational_rank,
)


class TestDomains:
    def test_prime_field_validation(self):
        z.ExactMatrix([[1]], 2)
        z.ExactMatrix([[1]], 101)
        with pytest.raises(ValueError):
            z.ExactMatrix([[1]], 4)
        with pytest.raises(ValueError):
            z.ExactMatrix([[1]], 1)
        with pytest.raises(ValueError):
            z.ExactMatrix([[1]], 2**31 + 11)

    def test_gf_normalization(self):
        m = z.ExactMatrix([[7, -1], [-4, 0]], 5)
        assert m.data[0] == (2, 4)
        assert m.data[1] == (1, 0)

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), True],
                             ids=["fraction", "integral-fraction", "bool"])
    def test_non_int_entry_rejected(self, entry):
        for p in (None, 5):
            with pytest.raises(TypeError):
                z.ExactMatrix([[1, 0], [0, entry]], p)

    def test_empty_matrix(self):
        assert z.ExactMatrix([]).rank_nullity() == (0, 0)
        assert z.ExactMatrix([], 2).nullspace_basis() == []


class TestRank:
    def test_identity(self):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        assert z.ExactMatrix(eye).rank_nullity() == (4, 0)

    def test_k33_adjacency(self):
        m = z.adjacency_matrix(z.complete_bipartite_graph(3, 3))
        assert m.rank_nullity() == (2, 4)

    def test_circ_8_13(self):
        m = z.adjacency_matrix(z.circulant(8, {1, 3}))
        assert m.rank_nullity() == (2, 6)

    def test_rank_matches_naive_oracle_exhaustive(self):
        # every 0/+-1 matrix up to 2x3
        for shape in ((1, 1), (2, 2), (2, 3)):
            rows, cols = shape
            for vals in itertools.product((-1, 0, 1), repeat=rows * cols):
                data = [list(vals[r * cols : (r + 1) * cols]) for r in range(rows)]
                m = z.ExactMatrix(data)
                assert m.rank_nullity()[0] == naive_rational_rank(data)

    def test_rank_matches_naive_oracle_random(self):
        rng = random.Random(11)
        for _ in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            data = [
                [rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)
            ]
            m = z.ExactMatrix(data)
            assert m.rank_nullity()[0] == naive_rational_rank(data)

    def test_rational_entries(self):
        data = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        m = z.ExactMatrix(cleared(data))
        assert m.rank_nullity() == (1, 1) == (naive_rational_rank(data), 1)

    def test_gf_rank_drop(self):
        # det = 2: full rank over Q, singular mod 2
        data = [[1, 1], [-1, 1]]
        assert z.ExactMatrix(data).rank_nullity()[0] == 2
        assert z.ExactMatrix(data, 2).rank_nullity()[0] == 1
        assert z.ExactMatrix(data, 3).rank_nullity()[0] == 2

    def test_gf_rank_never_exceeds_rational(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(1, 8)
            data = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.randint(-3, 3)
                    data[i][j] = data[j][i] = v
            rq = z.ExactMatrix(data).rank_nullity()[0]
            for p in (2, 3, 5, 7):
                rp = z.ExactMatrix(data, p).rank_nullity()[0]
                assert rp <= rq


PRIMES = (2, 3, 5, 7)


def oracle_nullities(rows, primes=PRIMES):
    """The nullity map by textbook elimination over Q and each GF(p)."""
    n = len(rows[0])
    nulls = {"Q": n - naive_rational_rank(rows)}
    return nulls | {p: n - naive_mod_p_rank(rows, p) for p in primes}


def shifted_corpus(corpus):
    return [z.adjacency_matrix(g, lam) for g in corpus for lam in range(-2, 3)]


class TestPivotMinor:
    """The rational pass's certificate: pivot rows R, pivot columns C and d,
    the determinant of A[R, C] up to sign, and the nullity map read off it."""

    def test_d_is_the_determinant_of_the_pivot_minor(self, corpus):
        rng = random.Random(17)
        matrices = shifted_corpus(corpus) + [
            z.ExactMatrix([[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(cols)]
                           for _ in range(rows)])
            for rows, cols in ((rng.randint(1, 7), rng.randint(1, 7)) for _ in range(200))
        ]
        for m in matrices:
            _, cols, rows, d = linalg._echelon(m)
            assert len(set(rows)) == len(rows) == len(cols)
            minor = [[m.data[r][c] for c in cols] for r in rows]
            assert abs(fraction_determinant(minor)) == abs(d) != 0

    def test_rank_mod_p_is_the_rational_rank_when_p_does_not_divide_d(self, corpus):
        settled = 0
        for m in shifted_corpus(corpus):
            _, cols, _, d = linalg._echelon(m)
            for p in PRIMES:
                if d % p:
                    assert naive_mod_p_rank(m.data, p) == len(cols)
                    settled += 1
        assert settled

    def test_nullities_match_per_prime_elimination(self, corpus):
        for m in shifted_corpus(corpus):
            assert linalg.nullities(m, PRIMES) == oracle_nullities(m.data)

    @pytest.mark.parametrize(
        "g, lam, d, p, nullity",
        [
            (z.circulant(9, {1, 2}), 0, -16, 2, 3),
            (z.generalized_petersen(15, 2), 1, -3, 3, 6),
            (z.cartesian_product(z.cycle_graph(9), z.cycle_graph(9)), 0, 2**18, 2, 17),
        ],
        ids=["circ-9", "petersen-15-2", "c9xc9"],
    )
    def test_prime_dividing_d_is_eliminated_again(self, g, lam, d, p, nullity):
        # the GF(p) nullity exceeds the rational one, so only the fallback
        # elimination mod p can give it
        m = z.adjacency_matrix(g, lam)
        assert linalg._echelon(m)[3] == d
        nulls = linalg.nullities(m, PRIMES)
        assert nulls[p] == nullity > nulls["Q"]
        assert nulls[p] == m.cols - naive_mod_p_rank(m.data, p)
        if m.cols < 30:
            assert nulls == oracle_nullities(m.data)


def non_pivot_columns(m):
    """Columns in the span of the columns before them."""
    data = m.data
    ranks = [0] + [
        z.ExactMatrix([row[: j + 1] for row in data], m.domain.p).rank_nullity()[0]
        for j in range(m.cols)
    ]
    return [j for j in range(m.cols) if ranks[j + 1] == ranks[j]]


class TestGf2Rank:
    def test_small_cases(self):
        assert linalg.gf2_rank([]) == 0
        assert linalg.gf2_rank([0, 0]) == 0
        assert linalg.gf2_rank([0b110, 0b011, 0b101]) == 2
        assert linalg.gf2_rank([0b1, 0b10, 0b100]) == 3

    def test_matches_oracle_on_a_and_a_plus_i(self, corpus, families):
        for g in list(corpus) + list(families.values()):
            masks = g.adjacency_masks
            plus = [row | 1 << i for i, row in enumerate(masks)]
            assert linalg.gf2_rank(masks) == gf2_rank(masks), g.edges
            assert linalg.gf2_rank(plus) == gf2_rank(plus), g.edges

    def test_matches_oracle_on_random_rows(self):
        rng = random.Random(26)
        for _ in range(300):
            width = rng.randint(1, 40)
            rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 12))]
            assert linalg.gf2_rank(rows) == gf2_rank(rows), rows


class TestNullspace:
    def test_nonsingular_empty(self):
        assert z.adjacency_matrix(z.complete_graph(2)).nullspace_basis() == []

    def test_zero_matrix(self):
        basis = z.ExactMatrix([[0] * 3] * 3).nullspace_basis()
        assert len(basis) == 3
        assert basis[0] == [1, 0, 0] and basis[2] == [0, 0, 1]

    def test_product_is_zero_and_independent(self, corpus):
        for p in (None, 7):
            for g in corpus[:30]:
                m = z.ExactMatrix(z.adjacency_matrix(g).data, p)
                basis = m.nullspace_basis()
                assert len(basis) == m.rank_nullity()[1]
                for v in basis:
                    assert not any(matvec(m.data, v, m.domain.p))
                if basis:
                    stacked = z.ExactMatrix(basis, p)
                    assert stacked.rank_nullity()[0] == len(basis)
                # vector i ends at the i-th non-pivot column, which is what
                # red certificates read their targets off
                last = [max(j for j, x in enumerate(v) if x) for v in basis]
                assert last == non_pivot_columns(m)
                assert len(set(last)) == len(last)

    def test_rational_basis_against_fraction_reference(self, corpus):
        # each Q vector is the primitive integer multiple of the reduced-echelon
        # Fraction vector: its lcm scaling, positive at the free column
        rng = random.Random(17)
        cases = [kernel_matrix(rng) for _ in range(200)]
        for s in (0, 1, -2):
            cases += [z.adjacency_matrix(g, s).data for g in corpus[:40]]
        for data in cases:
            basis = z.ExactMatrix(cleared(data)).nullspace_basis()
            reference = fraction_nullspace(data)
            assert len(basis) == len(reference)
            for v, ref in zip(basis, reference):
                assert all(type(x) is int for x in v)
                lcm = math.lcm(*(x.denominator for x in ref))
                assert v == [x * lcm for x in ref]
                free = max(j for j, x in enumerate(ref) if x)
                assert ref[free] == 1 and v[free] > 0
                assert not any(v[free + 1 :])
                assert math.gcd(*v) == 1

    def test_gf_nullspace(self):
        m = z.ExactMatrix(z.adjacency_matrix(z.cycle_graph(4)).data, 2)
        basis = m.nullspace_basis()
        assert len(basis) == m.rank_nullity()[1]
        for v in basis:
            assert not any(matvec(m.data, v, m.domain.p))


def cleared(rows):
    """Each row scaled by the lcm of its entries' denominators: integer
    rows with the same rank and kernel."""
    out = []
    for row in rows:
        lcm = math.lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * lcm) for x in row])
    return out


def kernel_matrix(rng):
    """A seeded matrix for the elimination kernel: rational or integer
    entries (denominators prime to 2, 3 and 7), negative and non-unit
    pivots, some rows scaled by a common factor and some rows combinations
    of earlier ones, which vanish mid-elimination. Its rows go to the
    kernel cleared of their denominators."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    den = (1, 5, 11) if rng.random() < 0.5 else (1,)
    data = [
        [
            Fraction(rng.randint(-9, 9), rng.choice(den)) if rng.random() < 0.7 else 0
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    for r in range(1, rows):
        roll = rng.random()
        if roll < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            data[r] = [a * x + b * y for x, y in zip(data[rng.randrange(r)], data[r - 1])]
        elif roll < 0.5:
            k = rng.randint(2, 6)
            data[r] = [k * x for x in data[r]]
    return data


class TestKernelCrossCheck:
    PRIMES = (None, 2, 3, 7, 1_000_003)  # None: the rationals

    def test_against_textbook_elimination(self):
        rng = random.Random(13)
        for _ in range(250):
            data = cleared(kernel_matrix(rng))
            for p in self.PRIMES:
                m = z.ExactMatrix(data, p)
                rank = naive_rational_rank(data) if p is None else naive_mod_p_rank(data, p)
                assert m.rank_nullity() == (rank, m.cols - rank)
                basis = m.nullspace_basis()
                assert len(basis) == m.cols - rank
                for v in basis:
                    assert not any(matvec(m.data, v, p))
                last = [max(j for j, x in enumerate(v) if x) for v in basis]
                assert last == non_pivot_columns(m)
                if p is not None:  # the reduced-echelon vectors, entry for entry
                    assert basis == mod_p_nullspace(data, p)


class TestSpectrum:
    def test_identity(self):
        assert z.spectrum(np.eye(3)) == (1.0, 1.0, 1.0)

    def test_block_b0(self):
        b0 = [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
        vals = z.spectrum(b0)
        assert multisets_close(vals, [3, 0, -2], 1e-9)

    def test_block_b1_values(self):
        # the Q(i) block 1 of the order-12 cube, entries off Q converted by
        # complex()
        b1 = [
            [0, 1, z.QuadRational(-1, -1, "i")],
            [1, -1, 1],
            [z.QuadRational(-1, 1, "i"), 1, 0],
        ]
        vals = z.spectrum(b1)
        assert multisets_close(vals, [1.561552, 0.0, -2.561552], 1e-6)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(2, 11))
            if trial % 2:
                m = rng.integers(-4, 5, (n, n)).astype(float)
                m = (m + m.T) / 2
            else:
                m = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
                m = (m + m.conj().T) / 2
            mine = z.spectrum(m)
            ref = sorted(np.linalg.eigvalsh(m), reverse=True)
            assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-8

    def test_trace_property(self, families):
        for g in families.values():
            vals = z.spectrum(z.adjacency_matrix(g).data)
            assert abs(sum(vals)) < g.n * 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            z.spectrum([[0, 1], [2, 0]])

    def test_deterministic_across_runs(self):
        m = z.adjacency_matrix(z.circulant(12, {1, 3})).data
        a = z.spectrum(m)
        b = z.spectrum(m)
        assert all(abs(x - y) < 1e-9 for x, y in zip(a, b))


class TestAdjacency:
    def test_k2(self):
        m = z.adjacency_matrix(z.complete_graph(2))
        assert m.data == ((0, 1), (1, 0))

    def test_shift(self):
        m = z.adjacency_matrix(z.complete_graph(2), 2)
        assert m.data == ((-2, 1), (1, -2))

    def test_c4_mod2(self):
        m = z.ExactMatrix(z.adjacency_matrix(z.cycle_graph(4)).data, 2)
        assert m.data[0] == (0, 1, 0, 1)

    def test_circ_8_13_row(self):
        m = z.adjacency_matrix(z.circulant(8, {1, 3}))
        assert [j for j in range(8) if m.data[0][j]] == [1, 3, 5, 7]

    def test_shift_mod_p(self):
        shifted = z.adjacency_matrix(z.complete_graph(2), 3)
        m = z.ExactMatrix(shifted.data, 2)
        assert m.data[0] == (1, 1)

    def test_k3_determinant_via_oracle(self):
        rows = z.adjacency_matrix(z.complete_graph(3)).data
        assert laplace_determinant(rows) == 2


class TestTextForm:
    def test_roundtrip_rational(self):
        rows = [[Fraction(1, 2), -3], [0, Fraction(7, 5)]]
        assert z.parse_matrix(format_matrix(rows)) == rows
