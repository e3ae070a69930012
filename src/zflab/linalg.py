"""Dense exact matrices over the rationals and prime fields GF(p).

These are the two domains zflab eliminates over. Matrices pass between
modules as plain rows; an ExactMatrix, integer rows plus a modulus p (None
for Q), is built only to eliminate, and offers only that: rank and
nullity, and a nullspace basis. The decomposition blocks of `equitable`,
in Q(i) and Q(w), are plain rows that nothing eliminates over.

One elimination kernel, `_echelon`, serves both domains: one row operation
eliminates to row echelon form with first-nonzero pivoting, its result
reduced mod p over GF(p) and divided by its gcd over Q. Over Q it also
returns the pivot rows and the determinant of the pivot minor, so
`nullities` gets the nullity over every GF(p) whose prime does not divide
that minor from the one rational pass. Rank is the
pivot count; the nullspace basis is back-substituted with no reduction
pass: each pivot scales the vector by the least factor that makes its
entry integral over Q (by 1 over GF(p)), so over Q it stays primitive and
never meets a Fraction.
Rows of 0/1 entries packed into bitmasks have their own GF(2) rank,
`gf2_rank`, one XOR per reduction step.
Floating-point spectra of real symmetric / complex Hermitian matrices come
from numpy's eigvalsh, as descending tuples of floats; callers compare them
with their own tolerance. numpy loads at the first spectrum.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class _Field:
    """The field an ExactMatrix is over: Q when p is None, else GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, p):
        if p is not None and (p >= 2**31 or not is_prime(p)):
            raise ValueError(f"GF modulus must be a prime < 2^31, got {p}")
        self.kind = "Q" if p is None else "GF"
        self.p = p


class ExactMatrix:
    """Immutable dense matrix of integer rows over Q (p None) or GF(p), p a
    prime below 2^31; over GF(p) the rows are reduced mod p once, here."""

    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, data, p=None):
        self.domain = _Field(p)
        data = [tuple(row) for row in data]
        cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            if not set(map(type, row)) <= {int}:
                raise TypeError("matrix entries must be int")
        self.rows = len(data)
        self.cols = cols
        if p:
            data = [tuple(x % p for x in row) for row in data]
        self.data = tuple(data)

    # -- rank / nullspace ---------------------------------------------------

    def rank_nullity(self):
        """(rank, nullity) by exact elimination; pivots are always the first
        nonzero entry in column order, so runs are deterministic."""
        rank = len(_echelon(self)[1])
        return rank, self.cols - rank

    def nullspace_basis(self):
        """Basis of the right nullspace, one vector per free (non-pivot)
        column f, ordered by f: zero past f and at the other free columns,
        pivots back-substituted. Its entry at f is 1 over GF(p); over Q it is
        the primitive integer vector with a positive entry at f, which is the
        reduced-echelon vector with x[f] = 1 scaled by its lcm denominator."""
        rows, pivots, _, _ = _echelon(self)
        p = self.domain.p
        # each pivot row as its pivot and its nonzero entries past it
        pivot_rows = [
            (pc, row[pc], [(j, x) for j, x in enumerate(row) if x and j > pc])
            for pc, row in zip(pivots, rows)
        ][::-1]
        basis = []
        for free in sorted(set(range(self.cols)) - set(pivots)):
            vec = [0] * free + [1] + [0] * (self.cols - free - 1)
            for pc, piv, tail in pivot_rows:
                if pc < free:
                    # vec <- m * vec, vec[pc] = x (was 0): row . vec = piv*x + m*s = 0
                    s = sum(e * vec[j] for j, e in tail)
                    m, x = _back_solve(piv, s, p)
                    if m != 1:
                        vec = [m * y for y in vec]
                    vec[pc] = x
            basis.append(vec)
        return basis


def _echelon(matrix):
    """Row echelon form of an ExactMatrix, its pivot columns C and the rows
    R of the matrix its pivot rows came from, by forward elimination with
    the first nonzero entry of each column as pivot, so C is the
    lexicographically first column basis; over Q also d, the determinant
    of the pivot minor A[R, C] up to sign (None over GF(p)).

    One row operation serves both domains, on the rows with a nonzero
    entry f in the pivot column only: row <- piv * row - f * pivot_row,
    reduced mod p over GF(p) and divided by its gcd g over Q. Over Q each
    row stays proportional to its fraction-free (Bareiss) row, so pivots and the
    ratios nullspace_basis reads agree; the primitive row divides that row
    of input minors, so entries stay polynomially bounded.

    Row r of elimination without scaling is num[r] / den[r] times the
    stored row: each operation multiplies that factor by g / piv, held over
    den[r] = the pivot minor's determinant at the time. A pivot row's
    factor times its pivot is the next pivot of that elimination, and the
    product of those pivots is d. Every division below is exact, since it
    gives a determinant or the gcd of a row of Bareiss minors; a remainder
    raises ArithmeticError.
    """
    p = matrix.domain.p
    rows = [list(row) for row in matrix.data]
    n_rows, n_cols = len(rows), matrix.cols
    origin = list(range(n_rows))
    num, den, det = [1] * n_rows, [1] * n_rows, 1
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        for seq in (rows, origin, num, den):
            seq[rank], seq[pivot_row] = seq[pivot_row], seq[rank]
        piv, tail = rows[rank][col], rows[rank][col:]
        if not p:
            t = _exact(det * num[rank], den[rank])
            det = t * piv
        for r in range(rank + 1, n_rows):
            row = rows[r]
            f = row[col]
            if f:  # both rows are zero left of col
                new = [piv * x - f * y for x, y in zip(row[col:], tail)]
                if p:
                    new = [x % p for x in new]
                else:
                    g = math.gcd(*new)  # 0 for a row that vanished: factor 0
                    if g > 1:
                        new = [x // g for x in new]
                    num[r], den[r] = _exact(num[r] * g * t, den[r]), det
                rows[r] = row[:col] + new
        pivots.append(col)
        if rank + 1 == n_rows:
            break
    rank = len(pivots)
    return rows[:rank], pivots, origin[:rank], None if p else det


def _exact(a, b):
    """a / b, which must be an integer."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in elimination")
    return q


def _back_solve(piv, s, p):
    """(m, x) with piv * x + m * s = 0: m = 1 and x = -s / piv mod p over
    GF(p); over Q, m = piv / g > 0 and x = -s / g for g = gcd(piv, s) signed
    like piv, coprime, so a primitive vector scaled by m stays primitive."""
    if p:
        return 1, -s * pow(piv, -1, p) % p
    g = math.gcd(piv, s) if piv > 0 else -math.gcd(piv, s)
    return piv // g, -s // g


def nullities(matrix, primes):
    """{"Q": nullity over Q} of a matrix over Q, and the nullity over GF(p)
    at key p for each prime p in `primes`; a bad prime fails before any
    elimination.

    One elimination over Q gives the rank r, the pivot rows R and columns C,
    and d = det A[R, C] up to sign. Reducing mod p cannot raise the rank,
    and A[R, C] stays invertible mod p when p does not divide d, so then the
    rank over GF(p) is r as well. Only a prime that divides d is eliminated
    again mod p."""
    for p in primes:
        _Field(p)  # refuses a bad prime
    _, pivots, _, det = _echelon(matrix)
    nulls = {"Q": matrix.cols - len(pivots)}
    for p in primes:
        nulls[p] = nulls["Q"] if det % p else ExactMatrix(matrix.data, p).rank_nullity()[1]
    return nulls


def gf2_rank(rows):
    """Rank over GF(2) of rows given as bitmasks (bit j is column j). Each
    pivot is kept under its lowest set bit; XORing it out of a row clears
    that bit and touches only higher ones, so a row is reduced in one pass
    up its set bits, and one that is not zero by then becomes a pivot."""
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)


# ---------------------------------------------------------------------------
# adjacency matrices


def adjacency_matrix(g, shift=0):
    """A(G) - shift*I over Q."""
    rows = g.adjacency_rows()
    if shift:
        for i in range(g.n):
            rows[i][i] -= shift
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# floating-point spectra


def spectrum(rows):
    """All eigenvalues of a real symmetric / complex Hermitian matrix, given
    as rows of numbers complex() converts, as a descending tuple of
    floats, by LAPACK's Hermitian eigensolver (numpy.linalg.eigvalsh); its
    error is about machine precision times the matrix norm."""
    import numpy as np

    a = np.asarray([[complex(x) for x in row] for row in rows], dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not Hermitian")
    return tuple(sorted((float(x) for x in np.linalg.eigvalsh(a)), reverse=True))


# ---------------------------------------------------------------------------
# text form


def parse_matrix(text):
    """The rows, as lists of Fractions, of the text form: header "rows cols
    Q", then one line of rational entries per row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError('empty matrix text; expected a header "rows cols domain"')
    head = lines[0].split()
    bad_header = f'malformed header {lines[0]!r}; expected "rows cols domain"'
    if len(head) != 3:
        raise ValueError(bad_header)
    try:
        rows, cols, dom = int(head[0]), int(head[1]), head[2]
    except ValueError:
        raise ValueError(bad_header) from None
    if dom != "Q":
        raise ValueError(f'domain {dom!r}: the matrix must be rational ("Q")')
    try:
        data = [[Fraction(tok) for tok in ln.split()] for ln in lines[1:]]
    except ZeroDivisionError:
        raise ValueError("a matrix entry has denominator 0") from None
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("entry count mismatch")
    return data
