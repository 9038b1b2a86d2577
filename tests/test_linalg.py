from fractions import Fraction

from hesslab import linalg
from hesslab.rng import rational_at


def random_matrix(rows, cols, seed, tag="lin"):
    return [[rational_at(tag, seed, r * cols + c, 9) for c in range(cols)]
            for r in range(rows)]


class TestRank:
    def test_identity(self):
        m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert linalg.rank(m) == 4

    def test_rank_deficient(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        m = [[Fraction(x) for x in row] for row in m]
        assert linalg.rank(m) == 2

    def test_known_reduced_form(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert linalg.rref(m) == ([[1, 0, 1], [0, 1, 1]], [0, 1])

    def test_rank_via_transpose(self):
        m = random_matrix(5, 7, seed=3)
        t = [list(col) for col in zip(*m)]
        assert linalg.rank(m) == linalg.rank(t)


class TestNullspace:
    def test_orthogonality_to_rows(self):
        m = random_matrix(3, 6, seed=4)
        for v in linalg.nullspace(m):
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_dimension_count(self):
        m = random_matrix(3, 6, seed=5)
        assert len(linalg.nullspace(m)) == 6 - linalg.rank(m)

    def test_empty_matrix_full_kernel(self):
        assert len(linalg.nullspace([], cols=4)) == 4


class TestSpan:
    VS = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]

    def test_in_span(self):
        assert linalg.in_span(self.VS, [Fraction(5), Fraction(3)])
        assert not linalg.in_span([self.VS[0]], [Fraction(0), Fraction(1)])

    def test_rowspace_contains(self):
        assert linalg.RowSpace(2, self.VS).contains([Fraction(5), Fraction(3)])
        first = linalg.RowSpace(2, self.VS[:1])
        assert not first.contains([Fraction(0), Fraction(1)])
        assert first.rank == 1  # contains does not add


class TestRowSpace:
    def test_incremental_rank_matches_batch(self):
        m = random_matrix(8, 5, seed=7)
        space = linalg.RowSpace(5)
        for row in m:
            space.add(row)
        assert space.rank == linalg.rank(m)

    def test_add_reports_growth(self):
        space = linalg.RowSpace(3)
        assert space.add([Fraction(1), Fraction(0), Fraction(0)])
        assert not space.add([Fraction(2), Fraction(0), Fraction(0)])
        assert space.add([Fraction(0), Fraction(1), Fraction(1)])
        assert space.rank == 2

    def test_row_order_does_not_change_the_reduced_form(self):
        m = random_matrix(8, 5, seed=7)
        forward, backward = linalg.RowSpace(5, m), linalg.RowSpace(5, m[::-1])
        assert (forward.rows, forward.pivots) == (backward.rows, backward.pivots)
        assert (forward.rows, forward.pivots) == linalg.rref(m)

    def test_rows_are_reduced(self):
        m = random_matrix(3, 6, seed=8)
        rows, pivots = linalg.rref(m)
        for i, pc in enumerate(pivots):
            assert [r[pc] for r in rows] == [int(i == j) for j in range(len(rows))]

    def test_nullspace_matches_batch(self):
        m = random_matrix(3, 6, seed=4)
        assert linalg.RowSpace(6, m).nullspace() == linalg.nullspace(m)
