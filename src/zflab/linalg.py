"""Dense exact matrices over selectable coefficient domains.

Supported domains: the rationals, prime fields GF(p), and the two quadratic
extensions of the rationals generated by a 4th / 3rd root of unity (enough
for exact root-of-unity block arithmetic with orbit sizes 1, 2, 3, 4, 6).
An ExactMatrix offers only what zflab uses: entry and row access,
matmul, rank and nullity, and a nullspace basis.

One elimination kernel, `_echelon`, serves every domain: forward
elimination to row echelon form with first-nonzero pivoting. Rank is its
pivot count and the nullspace basis is back-substituted from it. Only the
row operation depends on the domain: fraction-free (Bareiss) on integer rows
over the rationals, a normalized pivot row over GF(p), division by the
pivot over the quadratic extensions. Floating-point spectra of real
symmetric / complex Hermitian matrices come from numpy's eigvalsh, as
descending tuples of floats; callers compare them with their own
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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


@dataclass(frozen=True)
class CoeffDomain:
    """Coefficient domain tag: "Q", "GF" (with prime p), "QI" (rationals
    adjoined i) or "QW" (rationals adjoined a primitive cube root of unity)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Q", "GF", "QI", "QW"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "GF":
            if self.p is None or self.p >= 2**31 or not is_prime(self.p):
                raise ValueError(f"GF modulus must be a prime < 2^31, got {self.p}")
        elif self.p is not None:
            raise ValueError("only GF takes a modulus")

    def __str__(self):
        return f"GF({self.p})" if self.kind == "GF" else self.kind


QQ = CoeffDomain("Q")
QI = CoeffDomain("QI")
QW = CoeffDomain("QW")


def prime_field(p):
    return CoeffDomain("GF", p)


class QuadRational:
    """Element a + b*g of a quadratic extension of Q.

    kind "i": g*g = -1. kind "w": g is a primitive cube root of unity,
    g*g = -1 - g. Arithmetic is exact via Fractions.
    """

    __slots__ = ("a", "b", "kind")

    def __init__(self, a, b=0, kind="i"):
        if kind not in ("i", "w"):
            raise ValueError("kind must be 'i' or 'w'")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.kind = kind

    def _coerce(self, other):
        if isinstance(other, QuadRational):
            if other.kind != self.kind:
                raise TypeError("mixed extension kinds")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadRational(other, 0, self.kind)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRational(self.a + o.a, self.b + o.b, self.kind)

    __radd__ = __add__

    def __neg__(self):
        return QuadRational(-self.a, -self.b, self.kind)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRational(self.a - o.a, self.b - o.b, self.kind)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.kind == "i":
            return QuadRational(
                self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, "i"
            )
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd(-1 - w)
        return QuadRational(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a - self.b * o.b,
            "w",
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = QuadRational(1, 0, self.kind)
        for _ in range(e):
            out = out * self
        return out

    def conjugate(self):
        if self.kind == "i":
            return QuadRational(self.a, -self.b, "i")
        return QuadRational(self.a - self.b, -self.b, "w")

    def norm(self):
        if self.kind == "i":
            return self.a * self.a + self.b * self.b
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        c = self.conjugate()
        return QuadRational(c.a / n, c.b / n, self.kind)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.kind))

    def to_complex(self):
        if self.kind == "i":
            return complex(self.a) + 1j * complex(self.b)
        w = complex(-0.5, math.sqrt(3) / 2)
        return complex(self.a) + complex(self.b) * w

    def __repr__(self):
        g = "i" if self.kind == "i" else "w"
        return f"({self.a}+{self.b}{g})"


def root_of_unity(k):
    """Primitive k-th root of unity: exact for k in {1, 2, 3, 4, 6},
    complex float otherwise."""
    if k == 1:
        return Fraction(1)
    if k == 2:
        return Fraction(-1)
    if k == 4:
        return QuadRational(0, 1, "i")
    if k == 3:
        return QuadRational(0, 1, "w")
    if k == 6:
        return QuadRational(1, 1, "w")
    return complex(math.cos(2 * math.pi / k), math.sin(2 * math.pi / k))


def _normalize(value, domain):
    if domain.kind == "GF":
        if isinstance(value, int):  # checked first: Fraction's check is slow
            return value % domain.p
        if isinstance(value, Fraction):
            if value.denominator % domain.p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return value.numerator * pow(value.denominator, -1, domain.p) % domain.p
        return int(value) % domain.p
    if domain.kind == "Q":
        return Fraction(value)
    kind = "i" if domain.kind == "QI" else "w"
    if isinstance(value, QuadRational):
        if value.kind != kind:
            raise TypeError("wrong extension kind for domain")
        return value
    return QuadRational(value, 0, kind)


class ExactMatrix:
    """Immutable dense matrix with exact entries in a CoeffDomain."""

    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, domain, data):
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise ValueError("dimensions must be positive")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        self.domain = domain
        self.rows = len(data)
        self.cols = cols
        self.data = tuple(
            tuple(_normalize(x, domain) for x in row) for row in data
        )

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def matmul(self, other):
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        p = self.domain.p if self.domain.kind == "GF" else None
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = sum(self.data[i][t] * other.data[t][j] for t in range(self.cols))
                row.append(s % p if p else s)
            out.append(row)
        return ExactMatrix(self.domain, out)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.domain == other.domain
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.domain, self.data))

    def __repr__(self):
        return f"ExactMatrix({self.domain}, {self.rows}x{self.cols})"

    # -- rank / nullspace ---------------------------------------------------

    def rank_nullity(self):
        """(rank, nullity) by exact elimination; pivots are always the first
        nonzero entry in column order, so runs are deterministic."""
        rank = len(_echelon(self)[1])
        return rank, self.cols - rank

    def nullspace_basis(self):
        """Basis of the right nullspace in reduced-echelon parametrization:
        each free coordinate is set to 1 in turn, pivots back-substituted.

        The vector of free column f is zero past f, so its last nonzero
        coordinate is f itself; the basis is ordered by free column."""
        rows, pivots = _echelon(self)
        p = self.domain.p
        zero = _normalize(0, self.domain)
        one = _normalize(1, self.domain)
        pivot_rows = list(zip(pivots, rows))[::-1]
        pivot_cols = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_cols:
                continue
            vec = [zero] * self.cols
            vec[free] = one
            for pc, row in pivot_rows:
                if pc > free:
                    continue
                s = zero
                for j in range(pc + 1, free + 1):
                    if row[j] and vec[j]:
                        s += row[j] * vec[j]
                # GF(p) pivot rows are normalized to pivot 1
                vec[pc] = -s % p if p else -s / row[pc]
            basis.append(vec)
        return basis


def _echelon(matrix):
    """Row echelon form of an ExactMatrix and its pivot columns, by forward
    elimination only.

    The pivot of each column is its first nonzero entry at or below the
    current row, so the pivot columns are the lexicographically first column
    basis whatever the domain. Over Q the rows are cleared to integers (row
    scaling keeps the rank and the right nullspace) and eliminated
    fraction-free (Bareiss), which keeps intermediate entries polynomially
    bounded; every row below the pivot must be updated for the exact
    divisions to hold. Over GF(p) the pivot row is normalized to pivot 1 and
    only rows with a nonzero entry in the pivot column are touched. Over the
    quadratic extensions the rows are eliminated by dividing by the pivot.
    """
    kind = matrix.domain.kind
    if kind == "Q":
        rows = []
        for row in matrix.data:
            lcm = math.lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (lcm // x.denominator) for x in row])
    else:
        rows = [list(row) for row in matrix.data]
    p = matrix.domain.p
    n_rows, n_cols = len(rows), matrix.cols
    pivots = []
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        row_p = rows[rank]
        piv = row_p[col]
        if kind == "Q":
            for r in range(rank + 1, n_rows):
                row_r = rows[r]
                factor = row_r[col]
                for c in range(col, n_cols):
                    row_r[c] = (row_r[c] * piv - factor * row_p[c]) // prev
            prev = piv
        elif kind == "GF":
            inv = pow(piv, -1, p)
            row_p = rows[rank] = [x * inv % p for x in row_p]
            for r in range(rank + 1, n_rows):
                f = rows[r][col]
                if f:
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], row_p)]
        else:
            for r in range(rank + 1, n_rows):
                f = rows[r][col]
                if f:
                    f = f / piv
                    rows[r] = [x - f * y for x, y in zip(rows[r], row_p)]
        pivots.append(col)
        if rank + 1 == n_rows:
            break
    return rows[: len(pivots)], pivots


# ---------------------------------------------------------------------------
# adjacency matrices


def adjacency_matrix(g, shift=0, domain=QQ):
    """A(G) - shift*I over the requested domain."""
    rows = g.adjacency_rows()
    if shift:
        for i in range(g.n):
            rows[i][i] -= shift
    return ExactMatrix(domain, rows)


# ---------------------------------------------------------------------------
# floating-point spectra


def _as_complex_array(m):
    if isinstance(m, ExactMatrix):
        if m.domain.kind in ("QI", "QW"):
            return np.array(
                [[x.to_complex() for x in row] for row in m.data], dtype=complex
            )
        if m.domain.kind == "GF":
            raise ValueError("spectra over finite fields are not defined here")
        return np.array([[float(x) for x in row] for row in m.data], dtype=complex)
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("need a square matrix")
    return arr


def spectrum(m):
    """All eigenvalues of a real symmetric / complex Hermitian matrix as a
    descending tuple of floats, by LAPACK's Hermitian eigensolver
    (numpy.linalg.eigvalsh); its error is about machine precision times the
    matrix norm."""
    a = _as_complex_array(m)
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not Hermitian")
    return tuple(sorted((float(x) for x in np.linalg.eigvalsh(a)), reverse=True))


# ---------------------------------------------------------------------------
# text form


def parse_matrix(text):
    """Text form: header "rows cols domain", then one line of entries per row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError('empty matrix text; expected a header "rows cols domain"')
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f'malformed header {lines[0]!r}; expected "rows cols domain"')
    rows, cols, dom = int(head[0]), int(head[1]), head[2]
    if dom == "Q":
        domain = QQ
    elif dom == "QI":
        domain = QI
    elif dom == "QW":
        domain = QW
    elif dom.startswith("GF(") and dom.endswith(")"):
        domain = prime_field(int(dom[3:-1]))
    else:
        raise ValueError(f"unknown domain {dom!r}")

    def parse_entry(tok):
        if domain.kind in ("QI", "QW"):
            g = "i" if domain.kind == "QI" else "w"
            if tok.endswith(g):
                body = tok[:-1]
                cut = max(body.rfind("+", 1), body.rfind("-", 1))
                return QuadRational(
                    Fraction(body[:cut]), Fraction(body[cut:]), g
                )
            return QuadRational(Fraction(tok), 0, g)
        if domain.kind == "GF":
            return int(tok)
        return Fraction(tok)

    data = [[parse_entry(tok) for tok in ln.split()] for ln in lines[1:]]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("entry count mismatch")
    return ExactMatrix(domain, data)
