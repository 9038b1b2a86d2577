from fractions import Fraction

import numpy as np
import pytest

from hesslab import curvature, linalg
from hesslab.curvature import (CurvTensor, RicciTensor, coordinates,
                               curvature_basis, curvature_space_dim,
                               cyclic_sum, random_curvature, ricci,
                               scalar_curvature, symmetry_failures)
from hesslab.tensor import Tensor, random_rational


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


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_samples_pass_all_symmetries(self, n):
        for seed in range(100):
            R = random_curvature(n, seed=seed, bound=5)
            assert symmetry_failures(R.tensor) == []

    def test_constructor_rejects_invalid(self):
        t = random_rational(3, 4, seed=1)
        with pytest.raises(ValueError) as err:
            CurvTensor(t)
        assert "index" in str(err.value)

    def test_cyclic_sum_zero_on_curvature(self):
        R = random_curvature(4, seed=3)
        assert cyclic_sum(R.tensor).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sample_span_has_full_dimension(self, n):
        dim = curvature_space_dim(n)
        rows = [coordinates(random_curvature(n, seed=s, bound=7).tensor)
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


class TestCoordinates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip(self, n):
        R = random_curvature(n, seed=8)
        coords = coordinates(R.tensor)
        rebuilt = None
        for c, b in zip(coords, curvature_basis(n)):
            term = Tensor(n, b.data * c)
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt == R.tensor

    def test_basis_without_a_lone_entry_is_rejected(self, monkeypatch):
        # two equal basis tensors share every nonzero position
        b = curvature_basis(3)[0]
        monkeypatch.setattr(curvature, "curvature_basis", lambda n: (b, b))
        with pytest.raises(AssertionError):
            curvature._coordinate_data.__wrapped__(3)
