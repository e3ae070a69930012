"""The red color-change calculus.

A white vertex u turns red when there are a white vertex v, multisets X and Y
of white vertices (u excluded from all of them) and an integer k >= 0 with

    (k+1) * row(u) = row(v) + sum over X of row(x) - sum over Y of row(y)

over the integer rows of the adjacency matrix. Moves are verified by this
row equation, summed exactly over the neighbour sets of the participants.
Certificates are sequences of moves replayed against a growing red set;
the maximum number of sequentially valid moves equals the rational nullity
of the adjacency matrix, and the constructive direction is implemented
here: every move is read off one rational nullspace basis of A.
Each basis vector is integral and writes a positive multiple of one
non-basis row as an integer combination of the lexicographically first row
basis; splitting its coefficients by sign gives the X / Y multisets.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import adjacency_matrix


def _check_int(x, what):
    # truncating a float would turn a malformed move into a valid one
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be an integer, got {x!r}")


def _as_multiset(m):
    """Check a dict vertex -> count (or None); return it without zeros."""
    out = {}
    for v, c in (m or {}).items():
        _check_int(v, "a multiset vertex")
        _check_int(c, "a multiset count")
        if c < 0:
            raise ValueError("multiset counts must be nonnegative")
        if c:
            out[v] = c
    return out


class RedMove(NamedTuple):
    """Color target u red via witness v, multisets X (added) / Y (subtracted)
    and repetition count k."""

    u: int
    v: int
    x: tuple = ()  # ((vertex, count), ...)
    y: tuple = ()
    k: int = 0

    @classmethod
    def make(cls, u, v, x=None, y=None, k=0):
        """The move with X and Y given as dicts vertex -> count, or None.
        Vertices, counts and k must be integers, counts and k nonnegative;
        zero counts are dropped. Counts have no upper limit."""
        for name, val in (("u", u), ("v", v), ("k", k)):
            _check_int(val, name)
        if k < 0:
            raise ValueError("k must be nonnegative")
        xs = _as_multiset(x)
        ys = _as_multiset(y)
        return cls(u, v, tuple(sorted(xs.items())), tuple(sorted(ys.items())), k)

    def participants(self):
        return {self.v} | {v for v, _ in self.x} | {v for v, _ in self.y}

    def to_json_obj(self):
        return {
            "u": self.u,
            "v": self.v,
            "X": {str(v): c for v, c in self.x},
            "Y": {str(v): c for v, c in self.y},
            "k": self.k,
        }

    @classmethod
    def from_json_obj(cls, obj):
        return cls.make(
            obj["u"],
            obj["v"],
            _vertex_keyed(obj.get("X", {})),
            _vertex_keyed(obj.get("Y", {})),
            obj.get("k", 0),
        )


def _vertex_keyed(m):
    """A JSON multiset with its keys as vertices. A key must be an integer
    written as str() writes it, so no two keys name one vertex."""
    for key in m:
        if not key.removeprefix("-").isdecimal() or str(int(key)) != key:
            raise ValueError(f"multiset key {key!r} is not a canonical integer")
    return {int(key): c for key, c in m.items()}


class RedCertificateError(ValueError):
    """A move in a certificate failed; .index is the first failing position."""

    def __init__(self, index, message):
        super().__init__(f"move {index}: {message}")
        self.index = index


def verify_red_move(g, red_so_far, move):
    """Check the integer row equation for one move.

    Structural violations (a vertex out of range, a participant already
    red, or the target inside its own witness data) raise before any
    arithmetic; an equation mismatch returns False. The equation is checked
    on the neighbour sets only: `diff` holds (k+1) row(u) - row(v)
    - sum_X c row(x) + sum_Y c row(y) on every column where some row is
    nonzero, and the move holds iff all of it is 0.
    """
    parts = move.participants()
    if move.u in parts:
        raise ValueError("target appears in its own move data")
    for v in parts | {move.u}:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        if v in red_so_far:
            raise ValueError(f"participant {v} is already red")
    diff = dict.fromkeys(g.neighbors(move.u), move.k + 1)
    for x, c in ((move.v, -1), *((x, -c) for x, c in move.x), *move.y):
        for w in g.neighbors(x):
            diff[w] = diff.get(w, 0) + c
    return not any(diff.values())


def apply_red_sequence(g, certificate):
    """Replay a certificate; returns the ordered red set. Raises
    RedCertificateError at the first move that fails (equation or
    whiteness)."""
    red = []
    red_set = set()
    for idx, move in enumerate(certificate):
        try:
            ok = verify_red_move(g, red_set, move)
        except ValueError as exc:
            raise RedCertificateError(idx, str(exc)) from None
        if not ok:
            raise RedCertificateError(idx, "row equation does not hold")
        red.append(move.u)
        red_set.add(move.u)
    return red


def derive_red_certificates(g):
    """Certificate with one verifying move per non-basis adjacency row, read
    off the rational nullspace basis of A.

    A is symmetric, so the pivot columns of its echelon form are the
    lexicographically first row basis, and the primitive integer basis
    vector x of free column u (zero past u, d = x[u] > 0) writes d row(u)
    over the basis rows b < u with integer weights -x[b]. The
    smallest-index positively weighted basis vertex becomes the witness v
    (with weight reduced by one inside X), the other positive weights fill
    X, the negated negative weights fill Y, and k = d - 1. A zero row
    (isolated vertex) is handled by the cancelling move (v, {}, {v}, 0)
    against any basis vertex, which stays white throughout since targets
    are never basis vertices. An edgeless graph has no basis vertex to lean
    on: its last vertex is unreachable by any move (every move needs a
    distinct white witness) and the certificate honestly stops one short of
    the nullity there.
    """
    if g.n == 0:
        return ()
    vectors = adjacency_matrix(g).nullspace_basis()
    # the free column of each vector is its last nonzero coordinate
    targets = [max(i for i, c in enumerate(x) if c) for x in vectors]
    basis = sorted(set(range(g.n)) - set(targets))
    moves = []
    if not basis:
        # edgeless: all rows zero; twin moves against the last vertex
        for u in targets[:-1]:
            moves.append(RedMove.make(u, targets[-1]))
        return tuple(moves)
    for u, x in zip(targets, vectors):
        d = x[u]
        weights = [-w for w in x[:u]]
        if not any(weights):
            moves.append(RedMove.make(u, basis[0], None, {basis[0]: 1}, 0))
            continue
        pos = [(b, w) for b, w in enumerate(weights) if w > 0]
        neg = [(b, -w) for b, w in enumerate(weights) if w < 0]
        if not pos:
            raise ArithmeticError(
                "a nonzero adjacency row decomposed with no positive weight"
            )
        v, wv = pos[0]
        x = {b: w for b, w in pos[1:]}
        if wv > 1:
            x[v] = wv - 1
        y = dict(neg)
        moves.append(RedMove.make(u, v, x, y, d - 1))
    return tuple(moves)
