"""The field-independence certification pipeline and assembled reports.

The pipeline rests on two facts: the nullity of A(G) - lambda*I over any
field is at most M(F,G) <= Z(G), and reducing an integer matrix mod p can
only lower its rank. `certify`, `report` and `conjecture` are views of one
sandwich: the nullities of A - lambda*I at the shifts the verb asks for,
over Q and (but for `report`) each GF(p), and one forcing search, which
floors itself at the GF(2) nullities of A and A + I (see `forcing`) and so
settles Z wherever mod-2 rank already proves it. A - lambda*I is built and
eliminated over Q once per shift; `linalg.nullities` reads each GF(p)
nullity off that pass unless p divides its pivot minor. Each nullity meeting Z makes A - lambda*I attain
the minimum rank over its field; when the rational one does, the whole
chain collapses: the nullity over every GF(p) is Z as well, and
A - lambda*I attains the minimum rank over every field. The bounds are
compared once the search has run: a lower bound above the search's best
set contradicts the chain, budget or not, and every view reports a chain
violation. Only a spent budget with no violation gives bounds alone
("skipped" in the harness).

For GF(2) the minimum rank over all matrices with the graph's off-diagonal
pattern is exact: off-diagonal entries are forced (the only nonzero element
is 1), so the search space is the 2^n free diagonals. The incumbent is
the better of D = 0 and D = I, at rank min(rank A, rank (A + I)); when
that meets the floor n - |greedy zero forcing set| <= n - Z <= mr it is
the answer at any order and nothing is searched. Else a branch and bound
walks the diagonals for strictly lower ranks and stops at the floor; only
this search is capped, at GF2_ORDER_CAP vertices. A prefix with
rows F fixed at rank r is pruned once 2r - rank M[F,F] reaches the
incumbent: by the partitioned-rank inequality (Marsaglia and Styan, 1974)
and symmetry, no completion ranks lower. The witness is a minimizing
diagonal, not in general the least one. The attained ranks form the
interval [mr, n], so the minimum alone decides whether a target rank is
attained.
"""

from __future__ import annotations

from typing import NamedTuple

from . import forcing
from .forcing import ZfResult, zero_forcing_number
from .linalg import _gf2_reduce, adjacency_matrix, gf2_rank, nullities
from .structure import has_sap, min_degree, vertex_connectivity

PRIMES = (2, 3, 5)  # the prime fields certify and the harness check
REPORT_SHIFTS = (-2, -1, 0, 1, 2)  # the shifts lambda parameter_report tries
GF2_ORDER_CAP = 24  # largest order the GF(2) minimum rank search runs at


class CertifyVerdict(NamedTuple):
    graph_id: str
    lam: int
    nullities: dict  # field ("Q" or a prime p) -> nullity of A - lam*I
    zf: ZfResult
    reason: str | None
    claims: tuple

    def to_json_obj(self):
        return {
            "graph": self.graph_id,
            "lambda": self.lam,
            "zero_forcing_number": self.zf.zf_number if self.zf.is_exact else None,
            "nullity_Q": self.nullities["Q"],
            "nullities_mod_p": {str(f): v for f, v in self.nullities.items() if f != "Q"},
            "verdict": "Certified" if self.claims else f"NotCertified({self.reason})",
            "claims": list(self.claims),
        }


def _violates_chain(lower_bounds, zf):
    """Whether a lower bound on M(G) exceeds the search's best set. That set
    forces, so its size bounds Z from above whether or not the search is
    exact, and such a bound contradicts lower <= M(G) <= Z(G)."""
    return max(lower_bounds) > zf.zf_number


def certify_universal_optimality(g, lam=0, primes=PRIMES, graph_id="G"):
    """Certified verdict that Z(G) equals the nullity of A - lambda*I over
    the rationals and over each requested prime field.

    A rational nullity below Z makes the verdict negative, which is
    inconclusive about field independence in general: only the tested shift
    and primes are refuted. A nullity above the search's best set, over Q or
    any GF(p), is a chain violation, budget or not. Otherwise a search that
    spends its state budget gives bounds on Z and no verdict on Z itself.
    """
    if not primes or len(set(primes)) < len(primes):
        raise ValueError(f"need one or more distinct primes, got {tuple(primes)}")
    nulls = nullities(adjacency_matrix(g, lam), primes)
    zf = zero_forcing_number(g)
    z = zf.zf_number
    claims, reason = (), None
    if _violates_chain(nulls.values(), zf):
        above = {f: v for f, v in nulls.items() if v > z}
        z_known = f"Z = {z}" if zf.is_exact else f"{zf.lower_bound} <= Z <= {z}"
        reason = (
            f"nullity above Z at {above}, {z_known} (chain violation: check implementation)"
        )
    elif not zf.is_exact:
        lower = max(zf.lower_bound, *nulls.values())
        reason = (
            f"the Z search used its budget of {forcing.STATE_BUDGET} states: {lower} <= Z <= {z}"
        )
    elif all(v == z for v in nulls.values()):
        claims = (
            f"M(F,G) = Z(G) = {z} for all fields F",
            f"A(G) - {lam}*I is universally optimal; minimum rank is field independent",
        )
    else:
        reason = f"nullity_Q {nulls['Q']} != Z {z} (inconclusive for other shifts/matrices)"
    return CertifyVerdict(graph_id, lam, nulls, zf, reason, claims)


# ---------------------------------------------------------------------------
# GF(2) minimum rank by branch and bound


class Gf2MinRank(NamedTuple):
    min_rank: int
    witness_diagonal: tuple
    nodes_examined: int = 0  # diagonal prefixes whose rank was computed


def _gf2_min_rank(base, floor, best, best_diag):
    """(minimum rank, a diagonal attaining it, prefixes examined) by a
    depth-first search fixing the diagonal bits of vertices n-1 down to 0,
    0 before 1. The incumbent is rank `best` at diagonal `best_diag`; only
    strictly lower ranks are sought, each leaf reached is one, and an
    incumbent already at the proven floor examines no prefix.

    The echelon basis of the fixed rows is kept by lead, the highest set
    bit of each vector, with the mask `leads` of those bits, and a row is
    reduced by `linalg._gf2_reduce`, so a node reduces one row and one unit
    vector, not n rows; by linearity the d = 1 row reduces to the sum of
    the two. With rows F = i..n-1 fixed at rank r, the leads at bits >= i
    count rank M[F,F] (the other vectors vanish on columns F; these keep
    distinct leads), and rank [[X, B], [C, Y]] >= rank [C Y] + rank [B; Y]
    - rank Y with M symmetric bounds every completion's rank by
    2r - rank M[F,F]. A prefix is pruned once its bound reaches `best`, so
    no prefix of a diagonal ranking below the incumbent is pruned. A leaf
    at the proven floor ends the search. The diagonal returned is a
    minimizing one, not in general the least."""
    if best <= floor:
        return best, best_diag, 0
    nodes = 0
    pivots = [0] * len(base)  # pivots[b]: the basis vector with lead bit b

    def visit(i, rank, leads, diag):
        nonlocal best, best_diag, nodes
        if i < 0:
            best, best_diag = rank, diag
            return rank <= floor
        row = _gf2_reduce(base[i], leads, pivots)
        unit = _gf2_reduce(1 << i, leads, pivots)
        nodes += 2
        for bit, reduced in ((0, row), (1, row ^ unit)):
            top = reduced.bit_length()
            lead = 1 << top >> 1
            grown = rank + (lead != 0)
            if 2 * grown - ((leads | lead) >> i).bit_count() >= best:
                continue
            if lead:
                pivots[top - 1] = reduced
            if visit(i - 1, grown, leads | lead, diag | (bit << i)):
                return True
        return False

    visit(len(base) - 1, 0, 0, 0)
    return best, best_diag, nodes


def min_rank_gf2_exhaustive(g):
    """Exact minimum rank over the GF(2) matrices with the graph's
    off-diagonal pattern (the 2^n free diagonals), by branch and bound
    down to the floor n - |greedy zero forcing set| <= n - Z <= mr, with
    a minimizing witness diagonal, not in general the least. The incumbent
    is the better of D = 0 and D = I (D = 0 on a tie); when its rank meets
    the floor it is the answer and no prefix is examined, else the search
    seeks only strictly lower ranks, and the partitioned-rank bound never
    prunes a prefix of one (see `_gf2_min_rank`). A search past
    GF2_ORDER_CAP vertices is refused with ValueError. Some diagonal attains
    rank t exactly when min <= t <= n. One flipped diagonal bit moves the
    rank by at most 1 and single flips connect all diagonals, so the
    attained ranks form an interval; it ends at n because det(A + D) is
    multilinear in the diagonal bits with coefficient 1 on their product
    (only the identity permutation takes every diagonal entry), and a
    nonzero multilinear polynomial over GF(2) is nonzero at some point of
    {0,1}^n. The witness is replayed: A + D must have the minimum rank
    over GF(2), else ArithmeticError."""
    n, masks = g.n, g.adjacency_masks
    floor = n - forcing._greedy_upper_bound(g).bit_count()
    rank, diag = min((gf2_rank(masks, d), d) for d in (0, (1 << n) - 1))
    if rank > floor and n > GF2_ORDER_CAP:
        raise ValueError(
            f"graph order {n} exceeds the GF(2) search cap {GF2_ORDER_CAP}, and a "
            f"search is needed: D = 0 and D = I give rank {rank}, above the floor {floor}"
        )
    best, best_diag, nodes = _gf2_min_rank(masks, floor, rank, diag)
    if gf2_rank(masks, best_diag) != best:
        raise ArithmeticError(f"the witness diagonal does not attain rank {best}")
    return Gf2MinRank(best, tuple((best_diag >> i) & 1 for i in range(n)), nodes)


# ---------------------------------------------------------------------------
# assembled reports


class ParameterReport(NamedTuple):
    graph_id: str
    n: int
    min_degree: int
    kappa: int
    nullities_q: dict  # shift -> nullity of A - shift*I over Q
    zf: ZfResult
    sap_of_adjacency: bool
    best_lower_bound: int
    best_lower_source: str

    def chain_consistent(self):
        return not _violates_chain([self.kappa, *self.nullities_q.values()], self.zf)

    def to_json_obj(self):
        z_end = f"Z(G) {'=' if self.zf.is_exact else '<='} {self.zf.zf_number}"
        return {
            "graph": self.graph_id,
            "n": self.n,
            "min_degree": self.min_degree,
            "kappa": self.kappa,
            "nullities_Q": {str(s): v for s, v in self.nullities_q.items()},
            "Z": self.zf.zf_number,
            "Z_exact": self.zf.is_exact,
            "sap_of_adjacency": self.sap_of_adjacency,
            "M_lower_bound": self.best_lower_bound,
            "M_lower_source": self.best_lower_source,
            "sandwich": f"{self.best_lower_bound} <= M(G) <= {z_end}",
        }


def parameter_report(g, graph_id="G"):
    """Populated parameter table: the rational nullity at each shift in
    REPORT_SHIFTS, kappa, and Z. A contradiction of the recorded chain
    kappa, nullities <= Z is reported, not raised: chain_consistent() is
    False and `zflab report` exits 1."""
    nulls = {lam: adjacency_matrix(g, lam).rank_nullity()[1] for lam in REPORT_SHIFTS}
    zf = zero_forcing_number(g)
    kw = vertex_connectivity(g)
    sap = has_sap(g.adjacency_rows(), g).has_sap
    best_lam = max(nulls, key=lambda lam: (nulls[lam], -abs(lam)))
    if kw.kappa >= nulls[best_lam]:
        best, source = kw.kappa, "vertex connectivity"
    else:
        best, source = nulls[best_lam], f"nullity of A - ({best_lam})I"
    report = ParameterReport(
        graph_id,
        g.n,
        min_degree(g),
        kw.kappa,
        nulls,
        zf,
        sap,
        best,
        source,
    )
    return report


# ---------------------------------------------------------------------------
# conjecture harness


class HarnessRow(NamedTuple):
    n: int
    verdict: CertifyVerdict  # its graph_id names the instance
    conjectured: int
    status: str  # "pass" | "fail" | "skipped"

    def to_json_obj(self):
        v = self.verdict.to_json_obj()
        return {
            "instance": v["graph"],
            "n": self.n,
            "nullity_Q": v["nullity_Q"],
            "Z": v["zero_forcing_number"],
            "nullities_mod_p": v["nullities_mod_p"],
            "conjectured": self.conjectured,
            "status": self.status,
        }


def conjecture_harness(family, **ranges):
    """Instance tables for the two conjectured families.

    family "circ_l": circulants on (l^2 - 1)k vertices with connection set
    {1, l}, conjectured nullity = Z = 2l (ranges: l_values, k_values).
    family "ecg_tr": widened cubes ECG(t, 6r - t - 4), conjectured
    nullity = Z = 4 (ranges: t_values, r_values). Ranges that select no
    instance raise ValueError: an empty table would claim a check it never
    made. There is no order cap: an instance whose forcing search runs out
    of its budget is reported as skipped, never asserted, unless a nullity
    exceeds the search's best set: that chain violation fails its row,
    budget or not.
    """
    from .graphs import circulant, extended_cube

    if family == "circ_l":
        instances = [
            (f"Circ[{n},{{1,{ell}}}]", circulant(n, {1, ell}), 2 * ell)
            for ell in ranges["l_values"]
            for n in ((ell * ell - 1) * k for k in ranges["k_values"])
        ]
    elif family == "ecg_tr":
        instances = [
            (f"ECG({t},{k})", extended_cube(t, k), 4)
            for t in ranges["t_values"]
            for k in (6 * r - t - 4 for r in ranges["r_values"])
            if k >= t
        ]
    else:
        raise ValueError(f"unknown family {family!r}")
    if not instances:
        raise ValueError(f"the ranges select no instance of family {family!r}")
    return [_harness_row(g, name, conj) for name, g, conj in instances]


def _harness_row(g, name, conjectured):
    """The certify verdict at lambda = 0 over PRIMES, compared with the
    conjectured nullity. A chain violation fails the row, also when the
    search spent its budget; "skipped" means only a spent budget with no
    violation."""
    v = certify_universal_optimality(g, 0, PRIMES, name)
    skipped = not v.zf.is_exact and not _violates_chain(v.nullities.values(), v.zf)
    ok = v.claims and v.nullities["Q"] == conjectured
    status = "skipped" if skipped else "pass" if ok else "fail"
    return HarnessRow(g.n, v, conjectured, status)
