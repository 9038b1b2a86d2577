"""Reference elimination for tests: RowSpace in Fraction arithmetic.

This is the row space routine hesslab.linalg used before it moved to
fraction-free integer elimination.  It keeps the reduced row echelon form
as Fraction rows and scales every pivot to 1, so each step is plainly
right; tests compare hesslab.linalg.RowSpace against it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction


class FractionRowSpace:
    """Row space kept in reduced row echelon form, one row at a time.

    `rows` holds the nonzero rows in order of their pivot columns `pivots`;
    each pivot entry is 1 and the only nonzero entry of its column.
    """

    def __init__(self, cols: int, rows=()):
        self.cols = cols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row) -> list[Fraction]:
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

    def nullspace(self) -> list[list[Fraction]]:
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
