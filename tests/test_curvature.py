import itertools
from fractions import Fraction

import numpy as np
import pytest

from hesslab import curvature, linalg
from hesslab.curvature import (CurvTensor, RicciTensor, coordinates,
                               curvature_basis, curvature_space_dim,
                               cyclic_sum, materialize, random_curvature,
                               ricci, scalar_curvature, symmetry_failures)
from hesslab.hessmap import rho, rho2, rho_raw
from hesslab.tensor import MAX_DIM, Sym3Tensor, Tensor
from tensor_helpers import combine, integer_form_dtypes, random_rational


def constant_curvature(n):
    arr = np.full((n,) * 4, Fraction(0), dtype=object)
    for i in range(n):
        for j in range(n):
            arr[i, j, i, j] += Fraction(1)
            arr[i, j, j, i] -= Fraction(1)
    return CurvTensor(Tensor(n, arr))


class TestDimension:
    @pytest.mark.parametrize("n,expect", [(2, 1), (3, 6), (4, 20), (5, 50)])
    def test_formula(self, n, expect):
        assert curvature_space_dim(n) == expect

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            curvature_space_dim(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_size_matches_formula(self, n):
        assert len(curvature_basis(n)) == curvature_space_dim(n)


def cyclic_sum_basis(n):
    """The basis built column by column: each pair-symmetric unit tensor is
    materialized in full and its cyclic sum read at every i<j<k<l."""
    pairs = list(itertools.combinations(range(n), 2))
    sym_index = list(itertools.combinations_with_replacement(range(len(pairs)), 2))

    def dense(coords):
        arr = np.full((n,) * 4, Fraction(0), dtype=object)
        for c, (a, b) in zip(coords, sym_index):
            (i, j), (k, l) = pairs[a], pairs[b]
            for (p, q), s1 in (((i, j), 1), ((j, i), -1)):
                for (r, t), s2 in (((k, l), 1), ((l, k), -1)):
                    arr[p, q, r, t] += s1 * s2 * c
                    arr[r, t, p, q] += s1 * s2 * c
        return Tensor(n, arr)

    quads = list(itertools.combinations(range(n), 4))
    cols = [[cyclic_sum(dense([int(m == k) for k in range(len(sym_index))])).data[q]
             for q in quads] for m in range(len(sym_index))]
    return [dense(v) for v in linalg.nullspace(list(zip(*cols)), cols=len(sym_index))]


class TestBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_full_cyclic_sum_construction(self, n):
        assert list(curvature_basis(n)) == cyclic_sum_basis(n)

    def test_materialize_keeps_the_coefficient_type(self):
        coeffs = [(-1) ** m * (m % 4) for m in range(curvature_space_dim(4))]
        got = materialize(4, coeffs)
        assert {type(x) for x in got.data.flat} == {Fraction}
        assert got == materialize(4, [Fraction(c) for c in coeffs])

    @pytest.mark.parametrize("n", [9, 12])
    def test_dimension_past_max_is_refused(self, n):
        with pytest.raises(ValueError, match=r"dimension must be in \[2, 8\]"):
            materialize(n, [0] * curvature_space_dim(n))
        with pytest.raises(ValueError, match=r"dimension must be in \[2, 8\]"):
            curvature_basis(n)

    def test_zero_entries_share_one_object(self):
        # keeps the cached basis small: its tensors are mostly zero
        for b in curvature_basis(5):
            assert len({id(x) for x in b.data.flat if x == 0}) == 1


class TestInvariants:
    @pytest.mark.parametrize("n", range(2, MAX_DIM + 1))
    def test_random_samples_pass_all_symmetries(self, n):
        # random_curvature wraps its output unchecked, so every dimension is checked here
        for seed in range(100):
            R = random_curvature(n, seed=seed, bound=5)
            assert symmetry_failures(R) == []

    def test_constructor_rejects_invalid(self):
        t = random_rational(3, 4, seed=1)
        with pytest.raises(ValueError) as err:
            CurvTensor(t)
        assert "index" in str(err.value)

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_order_other_than_4_refused(self, order):
        t = random_rational(2, order, seed=1)
        with pytest.raises(ValueError, match="order-4"):
            cyclic_sum(t)
        with pytest.raises(ValueError, match="order 4"):
            CurvTensor(t)

    def test_failures_past_int64(self, monkeypatch):
        # one entry broken by 2**62 fails all four invariants first at its
        # own index, and scaling the tensor changes none of the residuals' zeros
        data = random_curvature(4, seed=1).data.copy()
        data[0, 1, 2, 3] += 2**62
        broken = Tensor(4, data)
        seen = integer_form_dtypes(monkeypatch, curvature)
        names = ["pair_antisymmetry_first", "pair_antisymmetry_second",
                 "pair_exchange", "first_bianchi"]
        for c in (1, Fraction(1, 3), -2**40):
            assert symmetry_failures(combine((c, broken)), limit=4) == [
                (name, (0, 1, 2, 3)) for name in names]
        assert seen == [np.dtype(object)] * 3

    def test_cyclic_sum_zero_on_curvature(self):
        R = random_curvature(4, seed=3)
        assert cyclic_sum(R).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sample_span_has_full_dimension(self, n):
        dim = curvature_space_dim(n)
        rows = [coordinates(random_curvature(n, seed=s, bound=7))
                for s in range(dim + 5)]
        assert linalg.rank(rows) == dim


class TestContractions:
    def test_ricci_of_zero(self):
        arr = np.full((3,) * 4, Fraction(0), dtype=object)
        assert ricci(CurvTensor(Tensor(3, arr))).is_zero()

    def test_constant_curvature_ricci(self):
        R = constant_curvature(3)
        r = ricci(R)
        assert r == RicciTensor.from_rows(
            [[2 if i == j else 0 for j in range(3)] for i in range(3)])
        assert scalar_curvature(R) == 6

    def test_scalar_is_ricci_trace(self):
        R = random_curvature(4, seed=9)
        assert scalar_curvature(R) == ricci(R).trace()

    def test_ricci_symmetric(self):
        r = ricci(random_curvature(4, seed=12))
        for i in range(4):
            for j in range(4):
                assert r[i, j] == r[j, i]

    def test_ricci_determines_curvature_in_3d(self):
        # the curvature -> Ricci map is injective on the 6-dim span at n=3
        rows = []
        for b in curvature_basis(3):
            r = ricci(CurvTensor(b))
            rows.append([r[i, j] for i in range(3) for j in range(3)])
        assert linalg.rank(rows) == 6

    def test_n2_single_component(self):
        R = random_curvature(2, seed=4)
        d = R.data
        for idx, val in np.ndenumerate(d):
            i, j, k, l = idx
            expected = 0
            if (i, j) in ((0, 1), (1, 0)) and (k, l) in ((0, 1), (1, 0)):
                sign = (1 if (i, j) == (0, 1) else -1) * (1 if (k, l) == (0, 1) else -1)
                expected = sign * d[0, 1, 0, 1]
            assert val == expected


class TestTypes:
    """The producers return the checked types, equal to what the checked
    constructors make of the same entries."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_producers_match_the_checked_constructors(self, n):
        A = Sym3Tensor.random(n, seed=n)
        R, S = rho(A), random_curvature(n, seed=n)
        assert type(R) is type(S) is CurvTensor
        assert CurvTensor(rho_raw(A)) == R and CurvTensor(S) == S
        for r in (ricci(S), rho2(A)):
            assert type(r) is RicciTensor
            assert RicciTensor.from_rows(r.data.tolist()) == r

    def test_curvature_tensor_equals_the_tensor_of_its_entries(self):
        R = random_curvature(4, seed=3)
        T = Tensor(4, R.data)
        assert R == T and hash(R) == hash(T)
        assert repr(R) == "CurvTensor(n=4, order=4)" and repr(T) == "Tensor(n=4, order=4)"

    @pytest.mark.parametrize("entries", [
        (1, -2, 0, 3), (Fraction(1, 2), Fraction(-2), Fraction(0), Fraction(3, 4)),
        (1, Fraction(1, 2), 0, -2)], ids=["int", "fraction", "mixed"])
    def test_every_entry_is_a_fraction(self, entries):
        t = Tensor(2, np.array(entries, dtype=object).reshape(2, 2))
        A = Sym3Tensor(2, entries)
        r = RicciTensor(2, [[entries[0], entries[1]], [entries[1], entries[3]]])
        values = [*t.data.flat, t[0, 1], *A.packed, *A.to_dense().data.flat,
                  *r.data.flat, r.trace()]
        assert {type(x) for x in values} == {Fraction}

    def test_division_stays_exact(self):
        assert Tensor(2, [1, 2]).data.tolist() == [1, 2]
        assert (Tensor(2, [1, 2]).data / 2).tolist() == [Fraction(1, 2), Fraction(1)]
        thirds = [x / 3 for x in Sym3Tensor(2, (1, 2, 3, 4)).packed]
        assert thirds == [Fraction(k, 3) for k in (1, 2, 3, 4)]
        s = scalar_curvature(materialize(4, list(range(20))))
        assert s == 260 and s / 7 == Fraction(260, 7)
        assert {type(x) for x in (*thirds, s / 7)} == {Fraction}

    def test_ricci_entries_follow_the_integer_form(self):
        ints = ricci(materialize(4, list(range(-10, 10))))
        assert not ints.is_zero() and all(type(x) is Fraction for x in ints.data.flat)
        assert type(scalar_curvature(materialize(4, list(range(20))))) is Fraction
        fractions = ricci(random_curvature(4, seed=1))
        assert all(type(x) is Fraction for x in fractions.data.flat)

    @pytest.mark.parametrize("rows, message", [
        ([[1, 2], [3, 4]], r"not symmetric at \(1, 0\)"),
        ([[1, 2], [2]], "n x n"),
        ([[1]], r"dimension must be in \[2, 8\]"),
    ])
    def test_ricci_rows_are_checked(self, rows, message):
        with pytest.raises(ValueError, match=message):
            RicciTensor.from_rows(rows)
        with pytest.raises(ValueError, match=message):
            RicciTensor(len(rows), rows)

    def test_ricci_rows_take_what_fraction_reads(self):
        r = RicciTensor.from_rows([[0.5, "1/3"], ["1/3", 2]])
        assert r == RicciTensor(2, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 2]])

    def test_random_curvature_checks_the_dimension_before_drawing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a coefficient before checking n")

        monkeypatch.setattr(curvature.rng, "rational_at", refuse)
        with pytest.raises(ValueError, match=r"dimension must be in \[2, 8\]"):
            random_curvature(1000, 1)


class TestCoordinates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip(self, n):
        R = random_curvature(n, seed=8)
        rebuilt = combine(*zip(coordinates(R), curvature_basis(n)))
        assert rebuilt == R

    @pytest.mark.parametrize("c", [2**61, 2**62, 2**63 - 1, 2**63, 2**64],
                             ids=["2**61", "2**62", "2**63-1", "2**63", "2**64"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["same", "opposite"])
    def test_round_trip_of_coefficients_past_int64(self, c, sign):
        # the coordinate sums reach 2 * c, past int64 from c = 2**62 on
        co = [c, sign * c] + [0] * 18
        assert coordinates(materialize(4, co)) == co
