"""The field-independence certification pipeline and assembled reports.

The pipeline rests on two facts: the nullity of A(G) - lambda*I over any
field is at most Z(G), and reducing an integer matrix mod p can only lower
its rank. So when the rational nullity nu of A - lambda*I admits a zero
forcing set of size nu, the whole chain collapses: Z = nu, the nullity over
every GF(p) is nu as well, and A - lambda*I attains the minimum rank over
every field. The forcing search takes nu as its floor and stops at a forcing
set of size nu. A disagreement over some prime would contradict the chain;
computing the modular nullities anyway guards the implementation.

For GF(2) the minimum rank over all matrices with the graph's off-diagonal
pattern is exact: off-diagonal entries are forced (the only nonzero element
is 1), so the search space is the 2^n free diagonals. A branch and bound
walks them, pruning a prefix whose rank already reaches the best rank, and
stops at the floor n - |greedy zero forcing set|, which is at most
n - Z <= mr. The attained ranks form the interval [mr, n], so the minimum
alone decides whether a target rank is attained.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forcing
from .forcing import ZfResult, zero_forcing_number
from .linalg import QQ, adjacency_matrix, prime_field
from .structure import has_sap, min_degree, vertex_connectivity

PRIMES = (2, 3, 5)  # the prime fields certify and the harness check
REPORT_SHIFTS = (-2, -1, 0, 1, 2)  # the shifts lambda parameter_report tries
GF2_ORDER_CAP = 24  # largest order the GF(2) minimum rank search accepts
HARNESS_ORDER_CAP = 120  # conjecture instances beyond this order are skipped


@dataclass(frozen=True)
class CertifyVerdict:
    graph_id: str
    lam: int
    z_number: int
    nullity_q: int
    nullities_mod_p: dict
    certified: bool
    reason: str | None
    claims: tuple

    def to_json_obj(self):
        return {
            "graph": self.graph_id,
            "lambda": self.lam,
            "zero_forcing_number": self.z_number,
            "nullity_Q": self.nullity_q,
            "nullities_mod_p": {str(p): v for p, v in self.nullities_mod_p.items()},
            "verdict": "Certified" if self.certified else f"NotCertified({self.reason})",
            "claims": list(self.claims),
        }


def nullity_over(g, lam, domain):
    return adjacency_matrix(g, lam, domain).rank_nullity()[1]


def certify_universal_optimality(g, lam=0, primes=PRIMES, graph_id="G"):
    """Certified verdict that Z(G) equals the nullity of A - lambda*I over
    the rationals and over each requested prime field.

    The rational nullity nu is a proven lower bound for Z, so the forcing
    search stops as soon as it finds a forcing set of size nu; failing that,
    it computes the exact Z and the verdict is negative (which is
    inconclusive about field independence in general: only the tested shift
    and primes are refuted).
    """
    if not primes:
        raise ValueError("need at least one prime")
    nu_q = nullity_over(g, lam, QQ)
    nulls_p = {p: nullity_over(g, lam, prime_field(p)) for p in primes}
    res = zero_forcing_number(g, floor=nu_q)
    if not res.is_exact:
        raise ValueError(
            f"the forcing search used its budget of {forcing.STATE_BUDGET} states; "
            f"{res.lower_bound} <= Z <= {res.upper_bound}"
        )
    z = res.zf_number
    claims = []
    certified = nu_q == z and all(v == z for v in nulls_p.values())
    reason = None
    if certified:
        claims.append(f"M(F,G) = Z(G) = {z} for all fields F")
        claims.append(
            f"A(G) - {lam}*I is universally optimal; minimum rank is field independent"
        )
    elif nu_q != z:
        reason = f"nullity_Q {nu_q} != Z {z} (inconclusive for other shifts/matrices)"
    else:
        bad = {p: v for p, v in nulls_p.items() if v != z}
        reason = f"modular nullity disagrees at {bad} (chain violation: check implementation)"
    return CertifyVerdict(
        graph_id, lam, z, nu_q, nulls_p, certified, reason, tuple(claims)
    )


# ---------------------------------------------------------------------------
# GF(2) minimum rank by branch and bound


@dataclass(frozen=True)
class Gf2MinRank:
    min_rank: int
    witness_diagonal: tuple
    target_rank: int | None = None
    target_attained: bool | None = None
    nodes_examined: int = 0  # diagonal prefixes whose rank was computed


def _reduce(pivots, row):
    """Reduce row against an echelon basis whose k-th vector avoids the
    lowest set bits of the ones before it; the result avoids every such
    bit, so it is the canonical representative modulo the span and the
    reduction is linear."""
    for p in pivots:
        if row & p & -p:
            row ^= p
    return row


def _gf2_min_rank(base, floor):
    """(least rank, least diagonal attaining it, prefixes examined) by a
    depth-first search fixing the diagonal bits of vertices n-1 down to 0,
    0 before 1, so leaves come in increasing integer order of the diagonal.

    The echelon basis of the fixed rows lives on a stack, so a node reduces
    one row and one unit vector, not n rows; by linearity the d = 1 row
    reduces to the sum of the two. A prefix's rank bounds the whole
    matrix's rank from below, so a prefix that already reaches the best
    rank is pruned, and a leaf at the proven floor ends the search."""
    n = len(base)
    best, best_diag, nodes = n + 1, 0, 0
    pivots = []

    def visit(i, rank, diag):
        nonlocal best, best_diag, nodes
        if i < 0:
            best, best_diag = rank, diag
            return rank <= floor
        row = _reduce(pivots, base[i])
        unit = _reduce(pivots, 1 << i)
        nodes += 2
        for bit, reduced in ((0, row), (1, row ^ unit)):
            grown = rank + (reduced != 0)
            if grown >= best:
                continue
            if reduced:
                pivots.append(reduced)
            done = visit(i - 1, grown, diag | (bit << i))
            if reduced:
                pivots.pop()
            if done:
                return True
        return False

    visit(n - 1, 0, 0)
    return best, best_diag, nodes


def min_rank_gf2_exhaustive(g, target_rank=None):
    """Exact minimum rank over the GF(2) matrices with the graph's
    off-diagonal pattern (the 2^n free diagonals), by branch and bound
    down to the floor n - |greedy zero forcing set| <= n - Z <= mr.
    Returns the least witness diagonal and, when asked, whether some
    diagonal attains target_rank, which holds exactly when
    min <= target_rank <= n. One flipped diagonal bit moves the rank by at
    most 1 and single flips connect all diagonals, so the attained ranks
    form an interval; it ends at n because det(A + D) is multilinear in the
    diagonal bits with coefficient 1 on their product (only the identity
    permutation takes every diagonal entry), and a nonzero multilinear
    polynomial over GF(2) is nonzero at some point of {0,1}^n."""
    n = g.n
    if n > GF2_ORDER_CAP:
        raise ValueError(
            f"graph order {n} exceeds the GF(2) search cap {GF2_ORDER_CAP}"
        )
    floor = n - len(forcing._greedy_upper_bound(g))
    # adjacency_masks is cached on the graph: read, never written
    best, best_diag, nodes = _gf2_min_rank(g.adjacency_masks, floor)
    return Gf2MinRank(
        best,
        tuple((best_diag >> i) & 1 for i in range(n)),
        target_rank,
        None if target_rank is None else best <= target_rank <= n,
        nodes,
    )


# ---------------------------------------------------------------------------
# assembled reports


@dataclass(frozen=True)
class ParameterReport:
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
        z = self.zf.zf_number if self.zf.is_exact else self.zf.upper_bound
        if self.kappa > z:
            return False
        return all(nu <= z for nu in self.nullities_q.values())

    def to_json_obj(self):
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
            "sandwich": f"{self.best_lower_bound} <= M(G) <= Z(G) = {self.zf.zf_number}",
        }


def parameter_report(g, graph_id="G"):
    """Populated parameter table. A contradiction of the recorded chain
    kappa, nullities <= Z is reported, not raised: chain_consistent() is
    False and `zflab report` exits 1."""
    nulls = {lam: nullity_over(g, lam, QQ) for lam in REPORT_SHIFTS}
    kw = vertex_connectivity(g)
    zf = zero_forcing_number(g)
    sap = has_sap(adjacency_matrix(g, 0, QQ), g).has_sap
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


@dataclass(frozen=True)
class HarnessRow:
    instance: str
    n: int
    nullity_q: int | None
    z_number: int | None
    nullities_mod_p: dict
    conjectured: int
    status: str  # "pass" | "fail" | "skipped"


def conjecture_harness(family, **ranges):
    """Instance tables for the two conjectured families.

    family "circ_l": circulants on (l^2 - 1)k vertices with connection set
    {1, l}, conjectured nullity = Z = 2l (ranges: l_values, k_values).
    family "ecg_tr": widened cubes ECG(t, 6r - t - 4), conjectured
    nullity = Z = 4 (ranges: t_values, r_values). Instances on more than
    HARNESS_ORDER_CAP vertices, or whose forcing search runs out of its
    budget, are reported as skipped, never asserted.
    """
    from .graphs import circulant, extended_cube

    rows = []
    if family == "circ_l":
        for ell in ranges["l_values"]:
            for k in ranges["k_values"]:
                n = (ell * ell - 1) * k
                name = f"Circ[{n},{{1,{ell}}}]"
                conj = 2 * ell
                if n > HARNESS_ORDER_CAP:
                    rows.append(HarnessRow(name, n, None, None, {}, conj, "skipped"))
                    continue
                g = circulant(n, {1, ell})
                rows.append(_harness_row(g, name, conj))
    elif family == "ecg_tr":
        for t in ranges["t_values"]:
            for r in ranges["r_values"]:
                k = 6 * r - t - 4
                if k < t:
                    continue
                n = 8 + 2 * (t + k)
                name = f"ECG({t},{k})"
                if n > HARNESS_ORDER_CAP:
                    rows.append(HarnessRow(name, n, None, None, {}, 4, "skipped"))
                    continue
                g = extended_cube(t, k)
                rows.append(_harness_row(g, name, 4))
    else:
        raise ValueError(f"unknown family {family!r}")
    return rows


def _harness_row(g, name, conjectured):
    nu = nullity_over(g, 0, QQ)
    nulls_p = {p: nullity_over(g, 0, prime_field(p)) for p in PRIMES}
    try:
        res = zero_forcing_number(g, floor=nu)
    except ValueError:
        # the floor nu exceeds Z, which contradicts nu <= M <= Z
        return HarnessRow(name, g.n, nu, None, nulls_p, conjectured, "fail")
    if not res.is_exact:
        return HarnessRow(name, g.n, nu, None, nulls_p, conjectured, "skipped")
    z = res.zf_number
    ok = nu == conjectured == z and all(v == conjectured for v in nulls_p.values())
    return HarnessRow(name, g.n, nu, z, nulls_p, conjectured, "pass" if ok else "fail")
