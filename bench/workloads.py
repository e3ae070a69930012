"""The benchmark's workloads: fixed lists of `zflab` command lines.

Every job is fully resolved with today's caps: no conjecture row is
"skipped" and no Z is inexact, so a later change that lifts a cap cannot
change the work a workload asks for.  Each workload is a closed loop: one
client in one process and one thread sends the next job only after the
previous one has returned.

Why each workload exists:

zf_search
    `zf number` with no nullity floor.  The lexicographic minimum-Z scan
    does nearly all of the work, so `forcing` owns the time; `linalg`,
    `redrule` and `structure` are never called.  A faster Z search moves
    this workload and no other layer's numbers.

certify_sweep
    Many small jobs of the certification pipeline.  `forcing` runs here
    floor-pinned from the nullity, the small Q and GF(p) ranks and the CLI
    overhead set the typical job time, and the Fraction elimination in
    `redrule.derive_red_certificates` sets the pass time.  A few seeded
    random connected graphs (n = 10..14) are certified from edge-list
    files, so the seed also varies the inputs.

structure_sweep
    Large exact systems and enumerations: the SAP system (one tall Bareiss
    elimination, a nullspace basis for the Aztec(3) violation), the 2^n
    GF(2) diagonal enumeration, vertex-split max-flow on 120-312 vertex
    graphs, root-of-unity decompositions and Jacobi spectra.  These layers
    run only here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    id: str  # key into expected.json
    argv: tuple  # zflab command line
    graph: str  # the --graph argument (a spec or an edge-list path)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


def _job(argv, job_id=None):
    argv = tuple(argv)
    graph = argv[argv.index("--graph") + 1] if "--graph" in argv else ""
    return Job(job_id or " ".join(argv), argv, graph)


def _shift_perm(n, s):
    return ",".join(str((i + s) % n) for i in range(n))


ZF_SPECS = (
    "circulant:20:1,4", "circulant:22:1,5", "circulant:24:1,5",
    "petersen:10,3", "petersen:11,4", "petersen:12,5",
    "cart:cycle:6+path:4", "cart:cycle:7+path:3", "cart:cycle:8+path:3",
    "aztec:3", "ecg:1,3", "ecg:2,4",
)

# The aztec:4 certificate checked by `red verify`, passed inline: the
# output of `zflab red derive --graph aztec:4`.
AZTEC4_CERT = (
    '[{"u": 20, "v": 3, "X": {"13": 1}, "Y": {"1": 1, "7": 1}, "k": 0},'
    ' {"u": 27, "v": 4, "X": {"18": 1}, "Y": {"0": 1, "10": 1}, "k": 0},'
    ' {"u": 28, "v": 9, "X": {"22": 1}, "Y": {"5": 1, "15": 1}, "k": 0},'
    ' {"u": 33, "v": 8, "X": {"25": 1}, "Y": {"2": 1, "16": 1}, "k": 0},'
    ' {"u": 34, "v": 17, "X": {"30": 1}, "Y": {"11": 1, "24": 1}, "k": 0},'
    ' {"u": 37, "v": 14, "X": {"31": 1}, "Y": {"6": 1, "23": 1}, "k": 0},'
    ' {"u": 38, "v": 26, "X": {"36": 1}, "Y": {"19": 1, "32": 1}, "k": 0},'
    ' {"u": 39, "v": 21, "X": {"35": 1}, "Y": {"12": 1, "29": 1}, "k": 0}'
    ']'
)

# certify_sweep's seeded random graphs.  Sparse draws keep these jobs cheap
# and alike (about nine in ten cost under 0.9 times `certify --graph
# aztec:3`), so the seed moves job_ms_gmean less than with denser draws.
RANDOM_GRAPHS = 6
EDGE_PROBABILITY = 0.2


def zf_search():
    return tuple(_job(("zf", "number", "--graph", spec)) for spec in ZF_SPECS)


def certify_sweep(random_graph_paths=()):
    specs = ["aztec:1", "aztec:2", "aztec:3"]
    specs += [f"circulant:{n}:1,{n // 2 - 1}" for n in (8, 16, 24, 32)]
    jobs = [_job(("certify", "--graph", spec)) for spec in specs]
    jobs.append(_job(("certify", "--graph", "petersen:15,2", "--lambda", "1")))
    jobs += [
        _job(("conjecture", "--family", "circ_l", "--lmax", "3", "--kmax", "4")),
        _job(("conjecture", "--family", "circ_l", "--lmax", "5", "--kmax", "1")),
        _job(("conjecture", "--family", "ecg_tr")),
    ]
    jobs += [
        _job(("red", "derive", "--graph", spec))
        for spec in ("aztec:4", "aztec:5", "aztec:6", "circulant:48:1,7")
    ]
    jobs.append(
        _job(("red", "verify", "--graph", "aztec:4", "--cert", AZTEC4_CERT),
             "red verify --graph aztec:4")
    )
    jobs.append(_job(("report", "--graph", "circulant:9:1,2")))
    jobs += [
        _job(("certify", "--graph", str(path)), f"certify --graph random-{i}")
        for i, path in enumerate(random_graph_paths)
    ]
    return tuple(jobs)


def structure_sweep():
    jobs = [
        _job(("sap", "--graph", spec))
        for spec in ("cart:cycle:6+path:3", "cart:cycle:8+path:3",
                     "petersen:10,3", "circulant:20:1,3", "aztec:3")
    ]
    jobs += [
        _job(("mr2", "--graph", spec))
        for spec in ("cart:cycle:8+path:2", "petersen:8,3", "cart:cycle:9+path:2")
    ]
    jobs.append(_job(("mr2", "--graph", "cart:cycle:7+path:2", "--target-rank", "10")))
    jobs += [
        _job(("kappa", "--graph", spec))
        for spec in ("cart:cycle:30+path:10", "circulant:120:1,11,25", "aztec:12")
    ]
    jobs += [
        _job(("decompose", "--graph", "circulant:60:1,7", "--perm", _shift_perm(60, s)),
             f"decompose --graph circulant:60:1,7 --shift {s}")
        for s in (30, 10)
    ]
    jobs.append(
        _job(("decompose", "--graph", "ecg:1,1", "--perm", _shift_perm(12, 3)),
             "decompose --graph ecg:1,1 --shift 3")
    )
    jobs.append(_job(("report", "--graph", "petersen:10,3")))
    return tuple(jobs)


WORKLOADS = {
    "zf_search": Workload(
        "zf_search",
        "unfloored minimum-Z scan; forcing does the work, linalg/redrule/structure are bypassed",
        zf_search(),
    ),
    "certify_sweep": Workload(
        "certify_sweep",
        "many small certification jobs: floor-pinned Z, small Q/GF(p) ranks, red certificates, CLI overhead",
        certify_sweep(),
    ),
    "structure_sweep": Workload(
        "structure_sweep",
        "large exact systems: SAP Bareiss, GF(2) diagonal enumeration, max-flow, decompositions, spectra",
        structure_sweep(),
    ),
}


def random_connected_edges(rng):
    """One random connected graph on 10..14 vertices as (n, edges)."""
    while True:
        n = rng.randint(10, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < EDGE_PROBABILITY]
        if _connected(n, edges):
            return n, edges


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def write_random_graphs(seed, directory):
    """Draw certify_sweep's random graphs from the seed and write them as
    edge-list files; returns the file paths."""
    rng = random.Random(f"certify_sweep:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(RANDOM_GRAPHS):
        n, edges = random_connected_edges(rng)
        path = directory / f"random-{i}.txt"
        path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        paths.append(path)
    return paths


def jobs_for(name, seed, scratch_dir):
    """The job list of one workload at one seed."""
    if name == "certify_sweep":
        return certify_sweep(write_random_graphs(seed, scratch_dir / "graphs"))
    return WORKLOADS[name].jobs


def pass_order(jobs, seed, pass_index):
    """The job order of one pass, fixed by the seed and the pass number."""
    order = list(jobs)
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order
