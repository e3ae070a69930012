"""Acceptance suite: one test per criterion, one printed pass line each.

Every check is exact integer equality unless a tolerance is stated inline
(spectra are compared at 1e-6 absolute). Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time

import zflab as z
from conftest import make_random_corpus, paper_families
from oracles import (
    all_small_moves,
    brute_zero_forcing,
    multiset_contained,
    multisets_close,
    red_move_semantics,
    set_closure,
)
from paper import (
    aztec_zfs,
    bipartite_doubling_bound,
    circulant_kappa_deficient,
    circulant_zfs,
    divisor_spectrum,
    orbit_partition,
    verify_ecg_nullvectors,
)

PRIMES = (2, 3, 5)


def _report(num, desc, t0):
    print(f"PASS criterion {num:2d}: {desc} [{time.perf_counter() - t0:.1f}s]")


def test_criterion_01_aztec_diamonds():
    t0 = time.perf_counter()
    for r in (1, 2, 3, 4):
        g = z.aztec_diamond(r)
        assert z.adjacency_matrix(g).rank_nullity()[1] == 2 * r
        for p in PRIMES:
            m = z.ExactMatrix(z.adjacency_matrix(g).data, p)
            assert m.rank_nullity()[1] == 2 * r
        if r <= 3:
            assert z.zero_forcing_number(g).zf_number == 2 * r
        else:
            # the construction set pins Z from above, the nullity from below
            blue = aztec_zfs(r)
            assert len(blue) == 2 * r and z.zf_closure(g, blue).all_colored
    _report(1, "diamond grids: nullity = Z = 2r over Q and GF(2,3,5), r <= 4", t0)


def test_criterion_02_circulants_mod_8():
    t0 = time.perf_counter()
    for n in (8, 16, 24):
        g = z.circulant(n, {1, n // 2 - 1})
        verdict = z.certify_universal_optimality(g, 0, PRIMES)
        assert verdict.claims
        assert verdict.zf.zf_number == n // 2 + 2
    _report(2, "circulants {1, n/2-1}, 8 | n: certified value n/2 + 2", t0)


def test_criterion_03_circulant_one_ell():
    t0 = time.perf_counter()
    for ell in (3, 5):
        for k in (1, 2):
            n = (ell * ell - 1) * k
            g = z.circulant(n, {1, ell})
            assert z.adjacency_matrix(g).rank_nullity()[1] == 2 * ell
            blue = circulant_zfs({1, ell})
            assert len(blue) == 2 * ell and z.zf_closure(g, blue).all_colored
            # nullity <= M <= Z <= |construction| forces equality throughout
    _report(3, "circulants {1, l}: nullity = Z = 2l for l in {3,5}, k in {1,2}", t0)


def test_criterion_04_cartesian_products():
    t0 = time.perf_counter()
    for k in range(3, 9):
        for t in range(1, 4):
            g = z.cartesian_product(z.cycle_graph(k), z.path_graph(t))
            assert z.zero_forcing_number(g).zf_number == min(k, 2 * t), (k, t)
    _report(4, "cycle x path products: exact Z = min{k, 2t}, k <= 8, t <= 3", t0)


def test_criterion_05_generalized_petersen():
    t0 = time.perf_counter()
    g = z.generalized_petersen(15, 2)
    assert z.zero_forcing_number(g).zf_number == 6
    # the adjacency matrix attains the maximum nullity at its eigenvalue -2
    # (the nullity at shift 0 is 2; -2 carries the multiplicity-6 eigenspace)
    nullities = {
        lam: z.adjacency_matrix(g, lam).rank_nullity()[1] for lam in range(-3, 4)
    }
    assert max(nullities.values()) == 6
    assert nullities[-2] == 6
    for p in PRIMES:
        m = z.ExactMatrix(z.adjacency_matrix(g, -2).data, p)
        assert m.rank_nullity()[1] == 6
    _report(5, "P(15,2): exact Z = 6, attained by the adjacency matrix at -2", t0)


def test_criterion_06_extended_cubes():
    t0 = time.perf_counter()
    for t, k in ((0, 0), (1, 1), (1, 2), (7, 7)):
        g = z.extended_cube(t, k)
        assert z.zero_forcing_number(g).zf_number == 4
    for t, q in ((1, 0), (7, 1)):
        g = z.extended_cube(t, t)
        assert z.adjacency_matrix(g).rank_nullity()[1] == 4
        assert verify_ecg_nullvectors(q)
        for p in PRIMES:
            m = z.ExactMatrix(z.adjacency_matrix(g).data, p)
            assert m.rank_nullity()[1] == 4
    _report(6, "widened cubes: Z = 4; nullity 4 over Q and GF(p); block nullvectors", t0)


def test_criterion_07_sap():
    t0 = time.perf_counter()
    g = z.cartesian_product(z.cycle_graph(8), z.path_graph(3))
    a = z.adjacency_matrix(g)
    assert z.has_sap(a.data, g).has_sap
    assert a.rank_nullity()[1] == 6
    _report(7, "C8 x P3: adjacency matrix has the SAP and nullity 6", t0)


def test_criterion_08_equitable_decomposition():
    t0 = time.perf_counter()
    g = z.extended_cube(1, 1)
    dec = z.equitable_decomposition(g, [(x + 3) % 12 for x in range(12)])
    assert dec.blocks[0] == ((0, 1, 2), (1, 1, 1), (2, 1, 0))
    spectra = dec.block_spectra()
    assert multisets_close(spectra[0], [3, 0, -2], 1e-6)
    listed = [3, 2, 1.561552, 1.561552, 0, 0, 0, 0, -1, -2, -2.561552, -2.561552]
    union = [v for s in spectra for v in s]
    assert multisets_close(union, listed, 1e-6)
    _report(8, "order-12 cube block decomposition matches the worked example", t0)


def test_criterion_09_divisor_matrices():
    t0 = time.perf_counter()
    g24 = z.circulant(24, {1, 3})
    part8 = orbit_partition(g24, [(i + 8) % 24 for i in range(24)])
    assert (
        z.divisor_matrix(g24, part8.blocks)
        == z.adjacency_matrix(z.circulant(8, {1, 3})).data
    )
    g12 = z.circulant(12, {1, 3})
    part6 = orbit_partition(g12, [(i + 6) % 12 for i in range(12)])
    displayed = [
        [0, 1, 0, 2, 0, 1],
        [1, 0, 1, 0, 2, 0],
        [0, 1, 0, 1, 0, 2],
        [2, 0, 1, 0, 1, 0],
        [0, 2, 0, 1, 0, 1],
        [1, 0, 2, 0, 1, 0],
    ]
    dm6 = z.divisor_matrix(g12, part6.blocks)
    assert [[int(x) for x in row] for row in dm6] == displayed
    for g, part in ((g24, part8), (g12, part6)):
        ds = divisor_spectrum(g, part)
        full = z.spectrum(z.adjacency_matrix(g).data)
        assert multiset_contained(ds, full, 1e-6)
    # eigenvalue 3 of the 3-regular balanced bipartite graph is absent here
    sp12 = z.spectrum(z.adjacency_matrix(g12).data)
    assert min(abs(v - 3) for v in sp12) > 0.5
    _report(9, "divisor matrices: quotient identities, containment, negative control", t0)


def test_criterion_10_gf2_negative_control():
    t0 = time.perf_counter()
    g = z.cartesian_product(z.cycle_graph(7), z.path_graph(2))
    res = z.min_rank_gf2_exhaustive(g)
    assert res.min_rank == 11  # the attained ranks are [11, 14], so 10 is not
    assert len(res.witness_diagonal) == 14
    _report(10, "C7 x P2: no rank-10 matrix over GF(2); minimum is 11", t0)


def test_criterion_11_connectivity():
    t0 = time.perf_counter()
    for n, t in ((7, 2), (9, 3), (12, 2)):
        g = z.circulant(n, set(range(1, t + 1)))
        kw = z.vertex_connectivity(g)
        assert kw.kappa == z.min_degree(g) == 2 * t
        assert z.zero_forcing_number(g).zf_number == 2 * t
    for n in (10, 11, 12, 13):
        m = -(-n // 2) - 1
        g = z.circulant(n, set(range(1, m + 1)) - {m - 1})
        kw = z.vertex_connectivity(g)
        assert kw.kappa == z.min_degree(g) == 2 * (m - 1)
        assert z.zero_forcing_number(g).zf_number == 2 * (m - 1)
    for n in range(3, 15):
        for mask in range(1, 1 << (n // 2)):
            s = {i + 1 for i in range(n // 2) if mask >> i & 1}
            g = z.circulant(n, s)
            deficient, _ = circulant_kappa_deficient(n, s)
            assert deficient == (
                z.vertex_connectivity(g).kappa < z.min_degree(g)
            ), (n, s)
    _report(11, "connectivity: consecutive families tight; divisor criterion vs max-flow", t0)


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    corpus = make_random_corpus()
    families = paper_families()
    rng = random.Random(99)

    # closure monotonicity and order independence
    for g in corpus:
        blue = {v for v in range(g.n) if rng.random() < 0.35}
        extra = {v for v in range(g.n) if rng.random() < 0.25}
        a = z.zf_closure(g, blue).colored
        assert a <= z.zf_closure(g, blue | extra).colored
        order = list(range(g.n))
        rng.shuffle(order)
        assert set_closure(g, blue, order) == set(a)

    # exact search vs the all-subsets oracle
    small_graphs = [g for g in corpus if g.n <= 8]
    small_graphs += [g for g in families.values() if g.n <= 8]
    for g in small_graphs:
        assert z.zero_forcing_number(g).zf_number == brute_zero_forcing(g)[0]

    # modular rank never exceeds rational rank
    for g in corpus[:80]:
        rq = z.adjacency_matrix(g).rank_nullity()[0]
        for p in PRIMES:
            m = z.ExactMatrix(z.adjacency_matrix(g).data, p)
            assert m.rank_nullity()[0] <= rq

    # shifted nullities below Z (families included where the search is cheap)
    z_graphs = list(corpus) + [g for g in families.values() if g.n <= 16]
    z_graphs.append(families["AD3"])
    for g in z_graphs:
        zn = z.zero_forcing_number(g).zf_number
        for lam in range(-2, 3):
            assert z.adjacency_matrix(g, lam).rank_nullity()[1] <= zn

    # row equation matches materialized general-graph semantics, exhaustively
    small = [g for g in families.values() if g.n <= 7]
    small += [g for g in corpus if g.n <= 7][:8]
    for g in small:
        rows = g.adjacency_rows()
        for u, v, x, y, k in all_small_moves(g.n):
            move = z.RedMove.make(u, v, x, y, k)
            assert z.verify_red_move(g, set(), move) == red_move_semantics(
                rows, g.n, u, v, x, y, k
            )

    # derived certificates hit the exact nullity everywhere
    for g in itertools.chain(corpus, families.values()):
        cert = z.derive_red_certificates(g)
        assert len(cert) == z.adjacency_matrix(g).rank_nullity()[1]
        assert len(z.apply_red_sequence(g, cert)) == len(cert)

    # one-sided doubling never exceeds the nullity
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
        byrow = {}
        for u in range(half):
            byrow.setdefault(frozenset(g.neighbors(u)), []).append(u)
        moves = []
        for group in byrow.values():
            moves += [z.RedMove.make(u, group[-1]) for u in group[:-1]]
        bound = bipartite_doubling_bound(g, set(range(half)), moves)
        assert bound <= z.adjacency_matrix(g).rank_nullity()[1]

    _report(12, "property suites on the 200-graph corpus plus the named families", t0)
