import random

import pytest

import zflab as z

CORPUS_SEED = 20260810


def _random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return z.Graph(n, edges)


def make_random_corpus(count=200, max_n=10, seed=CORPUS_SEED):
    """Seeded random graphs, 4..max_n vertices, mixed density. Edgeless
    draws are rejected: with no edge there is no row basis to anchor red
    moves on, and the corpus is meant to exercise the certificate
    machinery."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, max_n)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        g = _random_graph(rng, n, p)
        if g.num_edges == 0:
            continue
        out.append(g)
    return out


def example_graph_21():
    """The six-vertex wheel-like graph used for the worked red-move example."""
    return z.Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)])


def doubling_chain(steps=21):
    """Nullity 1 with the kernel entry 2^steps: from v_0, each step adds u,
    v', d, e, c and v_next with the edges d-v, d-u, e-u, e-v', c-v, c-v'
    and c-v_next, so the kernel value doubles from v to v_next. steps = 21
    gives 127 vertices."""
    edges, v, n = [], 0, 1
    for _ in range(steps):
        u, v2, d, e, c, nxt = range(n, n + 6)
        edges += [(d, v), (d, u), (e, u), (e, v2), (c, v), (c, v2), (c, nxt)]
        v, n = nxt, n + 6
    return z.Graph(n, edges)


def paper_families():
    """Named family instances exercised throughout the suite."""
    fams = {
        "P5": z.path_graph(5),
        "C6": z.cycle_graph(6),
        "K5": z.complete_graph(5),
        "K33": z.complete_bipartite_graph(3, 3),
        "K44": z.complete_bipartite_graph(4, 4),
        "ex21": example_graph_21(),
        "AD1": z.aztec_diamond(1),
        "AD2": z.aztec_diamond(2),
        "AD3": z.aztec_diamond(3),
        "Circ[7,{1,2}]": z.circulant(7, {1, 2}),
        "Circ[8,{1,2}]": z.circulant(8, {1, 2}),
        "Circ[8,{1,3}]": z.circulant(8, {1, 3}),
        "Circ[9,{1,2}]": z.circulant(9, {1, 2}),
        "Circ[12,{1,3}]": z.circulant(12, {1, 3}),
        "Circ[16,{1,7}]": z.circulant(16, {1, 7}),
        "ECG(0,0)": z.extended_cube(0, 0),
        "ECG(1,1)": z.extended_cube(1, 1),
        "ECG(1,2)": z.extended_cube(1, 2),
        "P(5,2)": z.generalized_petersen(5, 2),
        "P(7,1)": z.generalized_petersen(7, 1),
        "C4xP2": z.cartesian_product(z.cycle_graph(4), z.path_graph(2)),
        "C5xP3": z.cartesian_product(z.cycle_graph(5), z.path_graph(3)),
        "C7xP2": z.cartesian_product(z.cycle_graph(7), z.path_graph(2)),
    }
    return fams


@pytest.fixture(scope="session")
def corpus():
    return make_random_corpus()


@pytest.fixture(scope="session")
def families():
    return paper_families()
