"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (or int, which Fraction arithmetic
absorbs).  The one elimination routine is RowSpace, which keeps its rows in
reduced row echelon form.  That form of a row space is unique, so rref,
rank, nullspace and in_span read it from a RowSpace of the matrix rows,
whatever order they come in.  rank_mod_p is the one shortcut: a rank over
a prime field, which never exceeds the rank over the rationals.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

import numpy as np

PRIME = 2**31 - 1  # (p - 1)**2 < 2**62, so a product of residues fits in int64

Matrix = list[list[Fraction]]
Vector = list[Fraction]


class RowSpace:
    """Row space kept in reduced row echelon form, one row at a time.

    `rows` holds the nonzero rows in order of their pivot columns `pivots`;
    each pivot entry is 1 and the only nonzero entry of its column.
    """

    def __init__(self, cols: int, rows=()):
        self.cols = cols
        self.rows: Matrix = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row) -> Vector:
        """row minus its part in the space: zero at every pivot column."""
        v = [Fraction(x) for x in row]
        for r, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f != 0:  # r is zero left of pc
                v[pc:] = [x - f * y for x, y in zip(v[pc:], r[pc:])]
        return v

    def contains(self, row) -> bool:
        """Whether row lies in the space (exact), without adding it."""
        return not any(self._reduce(row))

    def add(self, row) -> bool:
        """Insert a row; returns True if the rank grew."""
        v = self._reduce(row)
        pc = next((c for c, x in enumerate(v) if x != 0), None)
        if pc is None:
            return False
        inv = 1 / v[pc]
        v[pc:] = [x * inv for x in v[pc:]]
        # clear the new pivot column from the stored rows; rows pivoting
        # right of pc are already zero there
        pos = bisect.bisect(self.pivots, pc)
        for r in self.rows[:pos]:
            f = r[pc]
            if f != 0:
                r[pc:] = [x - f * y for x, y in zip(r[pc:], v[pc:])]
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True

    def nullspace(self) -> list[Vector]:
        """Right nullspace basis: one vector per free column, which is 1
        there and 0 at every other free column."""
        basis = []
        for fc in sorted(set(range(self.cols)) - set(self.pivots)):
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in zip(self.rows, self.pivots):
                v[pc] = -r[fc]
            basis.append(v)
        return basis


def rref(m) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form as (nonzero rows, pivot columns)."""
    space = RowSpace(len(m[0]) if m else 0, m)
    return space.rows, space.pivots


def rank(m) -> int:
    return len(rref(m)[1])


def rank_mod_p(m) -> int:
    """Rank over the integers mod PRIME of an integer matrix.

    A minor that is nonzero mod PRIME is nonzero, so this is at most the
    rank over the rationals: it proves that rank only when it equals
    min(rows, cols).  Entries may be int64 or Python ints of any size; they
    are reduced mod PRIME first, and elimination runs in int64.
    """
    a = np.asarray(m)
    if a.size == 0:
        return 0
    a = (a % PRIME).astype(np.int64)
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, PRIME) % PRIME
        below = a[r + 1:]
        below -= below[:, c, None] * a[r]
        below %= PRIME
        r += 1
        if r == a.shape[0]:
            break
    return r


def nullspace(m, cols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace.  `cols` is required if m has no rows."""
    if not m and cols is None:
        raise ValueError("cols required for an empty matrix")
    return RowSpace(len(m[0]) if m else cols, m).nullspace()


def in_span(vectors: list[Vector], v: Vector) -> bool:
    """Whether v lies in the span of the given vectors (exact)."""
    return RowSpace(len(v), vectors).contains(v)
