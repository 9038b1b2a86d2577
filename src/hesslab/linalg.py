"""Exact linear algebra over the rationals.

Matrix entries may be ints of any size, numpy integers or Fractions; all but
an all-int row are read by tensor._clear, and results come back as
Fractions.  The one elimination routine is RowSpace.  It keeps its rows in
reduced row echelon form, stored as integer rows over one common
denominator, so elimination is integer arithmetic with exact divisions
(fraction-free Gauss-Jordan elimination, Bareiss 1968).  The reduced form of
a row space is unique, so rref, rank, nullspace and in_span read it from a
RowSpace of the matrix rows, whatever order they come in.  rank_mod_p, a rank
over a prime field, is the one shortcut: it never exceeds the rank over the
rationals, so rank returns it exactly when it equals min(rows, cols), the one
value that proves the rank, and asks RowSpace otherwise.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

from .tensor import _clear

PRIME = 2**31 - 1  # (p - 1)**2 < 2**62, so a product of residues fits in int64

Matrix = list[list[Fraction]]
Vector = list[Fraction]


class RowSpace:
    """Row space kept in reduced row echelon form, one row at a time.

    The form is held as integer rows over one denominator D, in order of
    their pivot columns `pivots`: each row holds D at its own pivot column
    and every other row holds 0 there.  `rows`, the form itself, divides
    them by D into Fractions.  Up to sign, D is the determinant of the
    rows that grew the rank (each cleared of denominators and divided by
    its content) at the pivot columns, and every stored entry is a minor of
    those rows too; by Sylvester's identity, then, the division by the old
    D in an update is exact.  A row that adds nothing is found without any
    division.
    """

    def __init__(self, cols: int, rows=()):
        self.cols = cols
        self.pivots: list[int] = []
        self._rows: list[list[int]] = []
        self._den = 1
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Matrix:
        """The nonzero rows of the reduced row echelon form."""
        d = self._den
        return [[Fraction(x, d) for x in r] for r in self._rows]

    def _integer_row(self, row) -> list[int]:
        """row times the lcm of its denominators, divided by its content."""
        if len(row) != self.cols:
            raise ValueError(f"row has {len(row)} entries, expected {self.cols}")
        v = list(row) if all(type(x) is int for x in row) else _clear(row)[0].tolist()
        g = math.gcd(*v)
        return [x // g for x in v] if g > 1 else v

    def _reduce(self, v: list[int]) -> list[int]:
        """D times (v minus its part in the space): zero at every pivot column."""
        d = self._den
        w = [d * x for x in v]
        for r, pc in zip(self._rows, self.pivots):
            f = v[pc]
            if f:  # r is zero left of pc
                w[pc:] = [x - f * y for x, y in zip(w[pc:], r[pc:])]
        return w

    def contains(self, row) -> bool:
        """Whether row lies in the space (exact), without adding it."""
        return not any(self._reduce(self._integer_row(row)))

    def add(self, row) -> bool:
        """Insert a row; returns True if the rank grew."""
        w = self._reduce(self._integer_row(row))
        pc = next((c for c, x in enumerate(w) if x), None)
        if pc is None:
            return False
        e, d = w[pc], self._den  # e becomes the denominator
        self._rows = [[(e * x - r[pc] * y) // d for x, y in zip(r, w)]
                      for r in self._rows]
        pos = bisect.bisect(self.pivots, pc)
        self._rows.insert(pos, w)
        self.pivots.insert(pos, pc)
        self._den = e
        return True

    def nullspace(self) -> list[Vector]:
        """Right nullspace basis: one vector per free column, which is 1
        there and 0 at every other free column."""
        d = self._den
        basis = []
        for fc in sorted(set(range(self.cols)) - set(self.pivots)):
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in zip(self._rows, self.pivots):
                v[pc] = Fraction(-r[fc], d)
            basis.append(v)
        return basis


def _read(m, cols: int | None = None) -> tuple:
    """RowSpace's (cols, rows) for matrix m: cols is the rows' length, or the
    given cols (else 0) if m has none.  An ndarray's rows come as Python lists."""
    if len(m) and cols not in (None, len(m[0])):
        raise ValueError(f"cols is {cols}, but the rows have {len(m[0])} entries")
    rows = map(np.ndarray.tolist, m) if isinstance(m, np.ndarray) else m
    return len(m[0]) if len(m) else cols or 0, rows


def rref(m) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form as (nonzero rows, pivot columns)."""
    space = RowSpace(*_read(m))
    return space.rows, space.pivots


def rank(m) -> int:
    """Exact rank: rank_mod_p(m) if that is min(rows, cols), else RowSpace's."""
    cols, rows = _read(m)
    r = rank_mod_p(m)
    return r if r == min(len(m), cols) else RowSpace(cols, rows).rank


def rank_mod_p(m) -> int:
    """Rank mod PRIME of m cleared of denominators: at most its rank over Q.

    Elimination runs in int64 on an integer array as it is, and on anything
    else as read by _clear, which clears rationals by one lcm and refuses floats.
    """
    a = m if isinstance(m, np.ndarray) and m.dtype.kind in "iu" else _clear(m)[0]
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
    if not len(m) and cols is None:
        raise ValueError("cols required for an empty matrix")
    return RowSpace(*_read(m, cols)).nullspace()


def in_span(vectors: list[Vector], v: Vector) -> bool:
    """Whether v lies in the span of the given vectors (exact)."""
    return RowSpace(len(v), vectors).contains(v)
