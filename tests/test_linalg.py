from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesslab import linalg, rng
from hesslab.rng import rational_at
from linalg_reference import FractionRowSpace


def random_matrix(rows, cols, seed, tag="lin"):
    return [[rational_at(tag, seed, r * cols + c, 9) for c in range(cols)]
            for r in range(rows)]


def exact_rank(m) -> int:
    """Rank by the Fraction reference elimination: no rank mod p in front of it."""
    return FractionRowSpace(len(m[0]) if len(m) else 0, m).rank


@pytest.fixture
def spaces(monkeypatch):
    """Rows of each RowSpace that linalg builds, recorded as they reach it."""
    seen = []
    space = linalg.RowSpace
    monkeypatch.setattr(linalg, "RowSpace",
                        lambda cols, rows=(): seen.append(list(rows)) or space(cols, seen[-1]))
    return seen


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

    def test_rank_mod_p_decides_only_at_min_rows_cols(self, monkeypatch, spaces):
        assert linalg.rank(np.eye(3, 4, dtype=np.int64)) == 3
        assert spaces == []
        # a rank mod p below min(rows, cols) is set aside for RowSpace
        assert linalg.rank(np.array([[1, 2], [2, 4]], dtype=np.int64)) == 1
        monkeypatch.setattr(linalg, "rank_mod_p", lambda m: 1)
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert spaces == [[[1, 2], [2, 4]], [[1, 0], [0, 1]]]
        # an integer array's rows reach RowSpace as Python ints
        assert {type(x) for rows in spaces for row in rows for x in row} == {int}


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
        with pytest.raises(ValueError, match="cols required"):
            linalg.nullspace([])


class TestArrays:
    """rref, rank and nullspace read a numpy array as they read its rows as a
    list: an int array, an object array and the equal list agree."""

    @pytest.mark.parametrize("rows, cols", [([[1, 2], [2, 4]], None),
                                            ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], None),
                                            ([], 3)])
    def test_int_and_object_arrays_read_as_the_list(self, rows, cols):
        shape = (len(rows), len(rows[0]) if rows else cols)
        forms = [rows, np.array(rows, dtype=np.int64).reshape(shape),
                 np.array(rows, dtype=object).reshape(shape)]
        results = [(linalg.rref(m), linalg.rank(m), linalg.nullspace(m, cols)) for m in forms]
        assert results[1] == results[2] == results[0]
        assert exact_rank(rows) == results[0][1] == linalg.rank_mod_p(forms[1])

    def test_empty_array_needs_cols(self):
        with pytest.raises(ValueError, match="cols required"):
            linalg.nullspace(np.zeros((0, 3), dtype=np.int64))


class TestSpan:
    VS =[[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]

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


class TestRaggedRows:
    def test_add_rejects_a_short_row(self):
        with pytest.raises(ValueError, match="2 entries, expected 3"):
            linalg.RowSpace(3).add([1, 2])

    def test_contains_rejects_a_long_row(self):
        with pytest.raises(ValueError):
            linalg.RowSpace(2, [[1, 0]]).contains([1, 0, 5])

    def test_rank_rejects_a_ragged_matrix(self):
        with pytest.raises(ValueError):
            linalg.rank([[1, 2], [3]])
        with pytest.raises(ValueError):
            linalg.nullspace([[1, 2], [3]])

    @pytest.mark.parametrize("m", [[[1, 2]], np.array([[1, 2]], dtype=np.int64)],
                             ids=["list", "ndarray"])
    def test_nullspace_refuses_cols_the_rows_disagree_with(self, m):
        with pytest.raises(ValueError, match="cols is 3, but the rows have 2 entries"):
            linalg.nullspace(m, cols=3)
        assert linalg.nullspace(m, cols=2) == [[Fraction(-2), Fraction(1)]]

    def test_in_span_rejects_a_vector_of_another_length(self):
        with pytest.raises(ValueError):
            linalg.in_span([[1, 0]], [1, 0, 5])

    def test_inexact_entries_are_refused(self):
        with pytest.raises(ValueError, match="entry 1.5 is not an integer or a Fraction"):
            linalg.rank([[1.5, 2], [1, 1]])
        with pytest.raises(ValueError, match="entry '1' is not an integer or a Fraction"):
            linalg.RowSpace(2).add(["1", 2])


class TestIntegerElimination:
    def test_integer_rows_build_no_fraction(self, monkeypatch):
        big = 2 ** 70 + 1
        rows = [[big, 3, -4, 0], [1, 0, 2, 5], np.array([4, 1, 1, 1], dtype=np.int64),
                [big + 1, 3, -2, 5], [2, 0, 4, 10]]

        def refuse(*args):
            raise AssertionError("Fraction built on an integer row")

        space = linalg.RowSpace(4)
        monkeypatch.setattr(linalg, "Fraction", refuse)
        grew = [space.add(r) for r in rows]
        inside = [space.contains(r) for r in ([0, 0, 0, 0], [big + 1, 3, -2, 5], [0, 0, 0, 1])]
        monkeypatch.undo()
        assert grew == [True, True, True, False, False]
        assert inside == [True, True, False]
        reference = FractionRowSpace(4, [[int(x) for x in r] for r in rows])
        assert (space.rows, space.pivots) == (reference.rows, reference.pivots)


# entries of every kind RowSpace takes: small ints, Fractions, and Python
# ints beyond int64
ENTRIES = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=7),
                    st.integers(2 ** 63, 2 ** 90), st.integers(-(2 ** 90), -(2 ** 63)))
COEFFS = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=4),
                   st.integers(2 ** 63, 2 ** 70))


@st.composite
def row_sequences(draw):
    """(cols, rows, probes): random rows with planted zero rows, scaled
    duplicates and combinations of earlier rows, and vectors to test for
    membership, some of them in the span."""
    cols = draw(st.integers(1, 6))
    vector = st.lists(ENTRIES, min_size=cols, max_size=cols)
    rows = draw(st.lists(vector, max_size=6))

    def combination(sources):
        used = draw(st.lists(st.sampled_from(sources), min_size=1, max_size=3))
        weights = [draw(COEFFS) for _ in used]
        return [sum(w * r[c] for w, r in zip(weights, used)) for c in range(cols)]

    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "scaled", "combination"]))
        if kind == "zero" or not rows:
            planted = [0] * cols
        elif kind == "scaled":
            c = draw(COEFFS.filter(bool))
            planted = [c * x for x in draw(st.sampled_from(rows))]
        else:
            planted = combination(rows)
        rows.insert(draw(st.integers(0, len(rows))), planted)
    probes = draw(st.lists(vector, max_size=2))
    if rows:
        probes.append(combination(rows))
    return cols, rows, probes


@settings(derandomize=True, deadline=None, database=None)
@given(row_sequences())
def test_rowspace_matches_the_fraction_reference(case):
    cols, rows, probes = case
    space, reference = linalg.RowSpace(cols), FractionRowSpace(cols)
    for row in rows:
        assert space.add(row) == reference.add(row)
        assert (space.rows, space.pivots, space.rank) == \
            (reference.rows, reference.pivots, reference.rank)
    for v in probes:
        assert space.contains(v) == reference.contains(v)
    kernel = space.nullspace()
    assert kernel == reference.nullspace()
    assert all(type(x) is Fraction for m in (space.rows, kernel) for v in m for x in v)


class TestRankModP:
    P = linalg.PRIME

    def integer_matrix(self, rows, cols, seed, bound=50):
        return [[rng.integer_at("modp", seed, r * cols + c, bound) for c in range(cols)]
                for r in range(rows)]

    @pytest.mark.parametrize("rows, cols", [(1, 4), (5, 3), (4, 4), (6, 9)])
    def test_matches_exact_rank(self, rows, cols):
        for seed in range(5):
            m = self.integer_matrix(rows, cols, seed)
            m.append([a - 2 * b for a, b in zip(m[0], m[-1])])  # a dependent row
            assert linalg.rank_mod_p(m) == exact_rank(m)
            assert linalg.rank_mod_p(np.array(m, dtype=np.int64)) == exact_rank(m)

    def test_dependent_rows(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
        assert linalg.rank_mod_p(m) == exact_rank(m) == 2

    def test_rank_can_drop_mod_p_but_never_rise(self):
        # det = p: singular mod p, so the certificate must not claim rank 2
        m = [[self.P, 0], [0, 1]]
        assert linalg.rank_mod_p(m) == 1
        assert exact_rank(m) == linalg.rank(m) == 2

    def test_python_ints_beyond_int64(self):
        big = 2 ** 80 + 3
        m = np.array([[big, 1], [2 * big, 2], [1, -big]], dtype=object)
        assert linalg.rank_mod_p(m) == exact_rank(m.tolist()) == 2

    def test_negative_entries_reduce_to_residues(self):
        assert linalg.rank_mod_p([[-1, 1], [1, -1]]) == 1
        assert linalg.rank_mod_p([[-1, 1], [1, 1]]) == 2

    def test_zero_and_empty(self):
        assert linalg.rank_mod_p([[0, 0], [0, 0]]) == 0
        assert linalg.rank_mod_p([]) == 0

    def test_big_ints_in_a_list_are_read_exactly(self):
        # numpy alone reads this list as float64, whose rows are independent
        m = [[-1, 2**62 + 700], [-3, 3 * 2**62 + 2100]]
        assert linalg.rank_mod_p(m) == exact_rank(m) == 1

    def test_rationals_are_cleared_not_truncated(self):
        m = [[Fraction(3, 2), Fraction(1, 2)], [3, 1]]
        assert linalg.rank_mod_p(m) == exact_rank(m) == 1

    @pytest.mark.parametrize("m", [[[1.5, 0.5], [3, 1]], np.array([[1.5, 0.5], [3, 1]])],
                             ids=["list", "ndarray"])
    def test_floats_are_refused(self, m):
        with pytest.raises(ValueError, match="entry 1.5 is not an integer or a Fraction"):
            linalg.rank_mod_p(m)


SMALL = st.integers(-3, 3)
BIG = st.integers(2**62, 2**66) | st.integers(-2**66, -2**62)
RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def exact_matrices(draw):
    """Lists of rows of small ints, ints past int64 and Fractions, some rows
    planted as combinations of others."""
    cols = draw(st.integers(1, 4))
    row = st.lists(SMALL | BIG | RATIONAL, min_size=cols, max_size=cols)
    m = draw(st.lists(row, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        (a, s), (b, t) = (draw(st.tuples(st.sampled_from(m), SMALL | RATIONAL)) for _ in "ab")
        m.insert(draw(st.integers(0, len(m))), [s * x + t * y for x, y in zip(a, b)])
    return m


@settings(derandomize=True, deadline=None, database=None)
@given(exact_matrices())
@example([[-1, 2**62 + 700], [-3, 3 * 2**62 + 2100]])
@example([[Fraction(3, 2), Fraction(1, 2)], [3, 1]])
def test_rank_mod_p_is_a_lower_bound(m):
    r, exact = linalg.rank_mod_p(m), exact_rank(m)
    assert r <= exact == linalg.rank(m)
    assert r == linalg.rank_mod_p(np.array(m, dtype=object))
