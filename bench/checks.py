"""Answer checks, run outside the timed region.

A job counts as correct when it returned (no exception, no exit code 2),
its exit code is the one its answer implies, its answer values match the
expected values committed in expected.json, and every certificate it
prints re-checks here:

- a forcing witness of size Z closes the graph (closure computed here);
- a red certificate replays through `redrule.apply_red_sequence`;
- removing a kappa separator disconnects the graph;
- a GF(2) witness diagonal attains the claimed rank under the bit-rank
  below;
- an SAP violation sample X is symmetric, nonzero, vanishes on the diagonal
  and the edges, and satisfies A X = 0;
- the block spectra of a decomposition make up the spectrum of A.

Where the paper gives a formula for Z it is checked too: Aztec(r) has 2r,
Circ[n, {1, n/2-1}] with 8 | n has n/2 + 2, and C_k x P_t has min(k, 2t).
The random graphs of certify_sweep are checked against the independent
oracles of the test suite (`brute_zero_forcing`, `naive_rational_rank`).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np


def paper_z(spec):
    """Z(G) from a formula in the paper, or None when none applies."""
    m = re.fullmatch(r"aztec:(\d+)", spec)
    if m:
        return 2 * int(m.group(1))
    m = re.fullmatch(r"circulant:(\d+):1,(\d+)", spec)
    if m:
        n, s = int(m.group(1)), int(m.group(2))
        if n % 8 == 0 and s == n // 2 - 1:
            return n // 2 + 2
    m = re.fullmatch(r"cart:cycle:(\d+)\+path:(\d+)", spec)
    if m:
        return min(int(m.group(1)), 2 * int(m.group(2)))
    return None


def closes(g, blue):
    """True iff the color change rule turns every vertex blue."""
    blue = set(blue)
    changed = True
    while changed:
        changed = False
        for v in list(blue):
            white = [w for w in g.neighbors(v) if w not in blue]
            if len(white) == 1:
                blue.add(white[0])
                changed = True
    return len(blue) == g.n


def gf2_rank(rows):
    """Rank over GF(2) of rows given as integer bitmasks."""
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def adjacency_rows(g):
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    return rows


def disconnects(g, separator):
    cut = set(separator)
    rest = [v for v in range(g.n) if v not in cut]
    if not rest:
        return False
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in cut and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) < len(rest)


def _verdict_class(verdict):
    return verdict.split("(", 1)[0]


def _subset_errors(expected, got, where):
    """Every expected key must be present in got with an equal value."""
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{where}: expected {len(expected)} items, got {got!r:.80}"]
        errs = []
        for i, (e, g) in enumerate(zip(expected, got)):
            errs += _subset_errors(e, g, f"{where}[{i}]")
        return errs
    errs = []
    for key, value in expected.items():
        have = got.get(key) if isinstance(got, dict) else None
        if key == "verdict" and isinstance(have, str):
            have = _verdict_class(have)
        if have != value:
            errs.append(f"{where}.{key}: expected {value!r}, got {have!r}")
    return errs


class Checker:
    """Checks job outputs; caches graphs, oracle answers and verdicts."""

    def __init__(self, expected, parse_graph_spec, apply_red_sequence,
                 red_move_from_json, oracles):
        self.expected = expected
        self.parse_graph_spec = parse_graph_spec
        self.apply_red_sequence = apply_red_sequence
        self.red_move_from_json = red_move_from_json
        self.oracles = oracles
        self._graphs = {}
        self._done = {}
        self._oracle = {}

    def graph(self, spec):
        if spec not in self._graphs:
            self._graphs[spec] = self.parse_graph_spec(spec)
        return self._graphs[spec]

    def expected_for(self, job):
        if job.id.startswith("certify --graph random-"):
            return self._oracle_certify(job.graph)
        return self.expected.get(job.id)

    def check(self, job, rc, out):
        """List of problems with one execution; empty when it is correct."""
        key = (job.id, rc, out)
        if key not in self._done:
            self._done[key] = self._check(job, rc, out)
        return self._done[key]

    def _check(self, job, rc, out):
        if rc == "raised":
            return [f"{job.id}: raised {out}"]
        if rc == 2:
            return [f"{job.id}: exited 2"]
        exp = self.expected_for(job)
        if exp is None:
            return [f"{job.id}: no expected answer"]
        try:
            answer = json.loads(out)
        except ValueError:
            return [f"{job.id}: output is not one JSON document"]
        if "moves" in exp:
            errs = [] if len(answer) == exp["moves"] else [
                f"{job.id}: {len(answer)} moves, expected {exp['moves']}"]
        else:
            errs = _subset_errors(exp["answer"], answer, job.id)
        if rc != exp["exit"]:
            errs.append(f"{job.id}: exit code {rc}, expected {exp['exit']}")
        if errs:
            return errs
        verb = job.argv[0] if job.argv[0] not in ("zf", "red") else " ".join(job.argv[:2])
        recheck = getattr(self, "_recheck_" + verb.replace(" ", "_"))
        try:
            errs = recheck(job, answer, rc)
        except Exception as exc:  # a malformed answer or a failed replay
            errs = [f"re-check raised {exc!r}"]
        return [f"{job.id}: {e}" for e in errs]

    # -- certificate re-checks, one per verb ---------------------------------

    def _recheck_zf_number(self, job, a, rc):
        g = self.graph(job.graph)
        errs = []
        if not a["exact"]:
            errs.append("Z is not exact")
        if len(a["witness"]) != a["zf_number"] or not closes(g, a["witness"]):
            errs.append("witness is not a zero forcing set of size Z")
        formula = paper_z(job.graph)
        if formula is not None and formula != a["zf_number"]:
            errs.append(f"Z {a['zf_number']} contradicts the paper's {formula}")
        return errs

    def _recheck_certify(self, job, a, rc):
        errs = []
        z = a["zero_forcing_number"]
        equal = a["nullity_Q"] == z and all(v == z for v in a["nullities_mod_p"].values())
        if equal != (_verdict_class(a["verdict"]) == "Certified"):
            errs.append("verdict does not follow from Z and the nullities")
        if rc != (0 if equal else 1):
            errs.append("exit code does not match the verdict")
        formula = paper_z(job.graph)
        if formula is not None and formula != z:
            errs.append(f"Z {z} contradicts the paper's {formula}")
        return errs

    def _recheck_conjecture(self, job, a, rc):
        errs = []
        for row in a:
            if row["status"] != "pass" or not (
                row["nullity_Q"] == row["Z"] == row["conjectured"]
            ):
                errs.append(f"row {row['instance']} is not a resolved pass")
        return errs

    def _replay(self, spec, moves):
        g = self.graph(spec)
        return self.apply_red_sequence(g, [self.red_move_from_json(m) for m in moves])

    def _recheck_red_derive(self, job, a, rc):
        red = self._replay(job.graph, a)
        errs = []
        if len(set(red)) != len(a):
            errs.append("replayed red set has repeats")
        # Aztec(r) is certified, so its nullity, the move count, is Z = 2r
        formula = paper_z(job.graph) if job.graph.startswith("aztec:") else None
        if formula is not None and len(a) != formula:
            errs.append(f"{len(a)} moves, the paper's nullity is {formula}")
        return errs

    def _recheck_red_verify(self, job, a, rc):
        cert = json.loads(job.argv[job.argv.index("--cert") + 1])
        if a["red_set"] != self._replay(job.graph, cert):
            return ["red set differs from the replay"]
        return []

    def _recheck_report(self, job, a, rc):
        errs = []
        z = a["Z"]
        if not a["Z_exact"]:
            errs.append("Z is not exact")
        if not a["kappa"] <= a["M_lower_bound"] <= z:
            errs.append("kappa <= M lower bound <= Z does not hold")
        if any(v > z for v in a["nullities_Q"].values()):
            errs.append("a nullity exceeds Z")
        if a["min_degree"] < a["kappa"]:
            errs.append("kappa exceeds the minimum degree")
        return errs

    def _recheck_sap(self, job, a, rc):
        if a["has_sap"]:
            return [] if a["violation_dim"] == 0 else ["SAP with a violation"]
        g = self.graph(job.graph)
        x = [[Fraction(e) for e in row] for row in a["sample_violation"]]
        adj = adjacency_rows(g)
        errs = []
        if not any(any(row) for row in x):
            errs.append("sample violation is zero")
        for i in range(g.n):
            for j in range(g.n):
                if x[i][j] != x[j][i]:
                    errs.append("sample violation is not symmetric")
                    return errs
                if x[i][j] and (i == j or g.has_edge(i, j)):
                    errs.append("sample violation is nonzero on the pattern")
                    return errs
        for i in range(g.n):
            for j in range(g.n):
                if sum(adj[i][k] * x[k][j] for k in range(g.n)):
                    errs.append("A X != 0")
                    return errs
        return errs

    def _recheck_mr2(self, job, a, rc):
        g = self.graph(job.graph)
        diag = a["witness_diagonal"]
        rows = [0] * g.n
        for u, v in g.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        rows = [r | (diag[i] << i) for i, r in enumerate(rows)]
        errs = []
        if gf2_rank(rows) != a["min_rank_gf2"]:
            errs.append("witness diagonal does not attain the minimum rank")
        z = paper_z(job.graph)
        if z is not None and a["min_rank_gf2"] < g.n - z:
            errs.append("minimum rank below n - Z")
        if "target_rank" in a and rc != (0 if a["target_attained"] else 1):
            errs.append("exit code does not match target_attained")
        return errs

    def _recheck_kappa(self, job, a, rc):
        g = self.graph(job.graph)
        errs = []
        if len(a["separator"]) != a["kappa"] or not disconnects(g, a["separator"]):
            errs.append("separator of size kappa does not disconnect the graph")
        if a["kappa"] > min(len(g.neighbors(v)) for v in range(g.n)):
            errs.append("kappa exceeds the minimum degree")
        return errs

    def _recheck_decompose(self, job, a, rc):
        g = self.graph(job.graph)
        got = sorted(x for block in a["block_spectra"] for x in block)
        want = sorted(np.linalg.eigvalsh(np.array(adjacency_rows(g), dtype=float)))
        if len(got) != len(want) or max(abs(x - y) for x, y in zip(got, want)) > 1e-6:
            return ["block spectra do not make up the spectrum of A"]
        return []

    # -- oracles for the random graphs ---------------------------------------

    def _oracle_certify(self, path):
        """Expected certify answer from the independent oracles."""
        if path not in self._oracle:
            g = self.graph(path)
            z, _ = self.oracles.brute_zero_forcing(g)
            rows = adjacency_rows(g)
            nu = g.n - self.oracles.naive_rational_rank(rows)
            nulls = {str(p): g.n - rank_mod_p(rows, p) for p in (2, 3, 5)}
            certified = nu == z and all(v == z for v in nulls.values())
            self._oracle[path] = {
                "exit": 0 if certified else 1,
                "answer": {
                    "zero_forcing_number": z,
                    "nullity_Q": nu,
                    "nullities_mod_p": nulls,
                    "verdict": "Certified" if certified else "NotCertified",
                },
            }
        return self._oracle[path]
