from fractions import Fraction

import pytest

from hesslab.curvature import curvature_space_dim, ricci, symmetry_failures
from hesslab.hessmap import image_rank_census, rho, rho2, rho_jacobian, rho_raw
from hesslab.tensor import Sym3Tensor, sym3_basis, sym3_dim


def rho_scaling_check(A: Sym3Tensor, c) -> bool:
    """Degree-2 homogeneity: rho(c A) == c^2 rho(A), both sides exact."""
    c = Fraction(c)
    return rho_raw(A.scale(c)) == rho_raw(A).scale(c * c)


class TestRho:
    def test_zero_maps_to_zero(self):
        A = Sym3Tensor(2, tuple(Fraction(0) for _ in range(4)))
        assert rho_raw(A).is_zero()

    def test_rank_one_cube_is_flat(self):
        A = Sym3Tensor.from_monomials(2, {(0, 0, 0): Fraction(1)})
        assert rho_raw(A).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_output_is_always_a_curvature_tensor(self, n):
        for seed in range(100):
            A = Sym3Tensor.random(n, seed=seed, bound=5)
            assert symmetry_failures(rho_raw(A)) == []

    def test_component_formula_spot_check(self):
        A = Sym3Tensor.random(3, seed=2)
        d = A.to_dense().data
        R = rho_raw(A)
        for idx in [(0, 1, 0, 1), (0, 2, 1, 2), (1, 2, 0, 2)]:
            i, j, k, l = idx
            expect = sum(-d[i, k, a] * d[j, l, a] + d[i, l, a] * d[j, k, a]
                         for a in range(3))
            assert R.data[idx] == expect


class TestHomogeneityAndPolarization:
    @pytest.mark.parametrize("c", [0, 1, Fraction(3, 2), -2])
    def test_scaling(self, c):
        A = Sym3Tensor.random(4, seed=1)
        assert rho_scaling_check(A, c)

    def test_polarization_bilinear_symmetric(self):
        A = Sym3Tensor.random(3, seed=5)
        B = Sym3Tensor.random(3, seed=6)

        def polar(x, y):
            return rho_raw(x + y) - rho_raw(x) - rho_raw(y)

        assert polar(A, B) == polar(B, A)
        # linear in the second argument: polar(A, B + B) = 2 polar(A, B)
        twice = polar(A, B + B)
        once = polar(A, B)
        assert twice == once + once


class TestJacobian:
    def test_zero_point_has_zero_derivative(self):
        A = Sym3Tensor(3, tuple(Fraction(0) for _ in range(sym3_dim(3))))
        m = rho_jacobian(A)
        assert all(x == 0 for row in m for x in row)

    def test_shape(self):
        A = Sym3Tensor.random(3, seed=1)
        m = rho_jacobian(A)
        assert len(m) == curvature_space_dim(3)
        assert len(m[0]) == sym3_dim(3)

    def test_directional_derivative_matches_finite_difference(self):
        # for quadratic maps: rho(A + tB) = rho(A) + t drho(B) + t^2 rho(B)
        A = Sym3Tensor.random(3, seed=7)
        m = rho_jacobian(A)
        basis = sym3_basis(3)
        B = basis[4]
        col = [row[4] for row in m]
        from hesslab.curvature import coordinates
        lhs = coordinates(rho_raw(A + B) - rho_raw(A) - rho_raw(B))
        assert lhs == col


class TestCensus:
    def test_n4_image_dimension(self):
        report = image_rank_census(4, samples=5, seed=1)
        assert report.max_rank == 18
        assert report.codim == 2

    def test_n3_surjective(self):
        report = image_rank_census(3, samples=5, seed=1)
        assert report.max_rank == 6 == curvature_space_dim(3)

    def test_n2_rank_one(self):
        report = image_rank_census(2, samples=5, seed=1)
        assert report.max_rank == 1

    def test_report_json_fields(self):
        report = image_rank_census(2, samples=3, seed=2)
        doc = report.to_json()
        for key in ("n", "dim_s3", "dim_curv", "ranks", "max_rank", "codim"):
            assert key in doc

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            image_rank_census(3, samples=0, seed=0)


class TestRho2:
    def test_zero(self):
        A = Sym3Tensor(3, tuple(Fraction(0) for _ in range(sym3_dim(3))))
        assert rho2(A).is_zero()

    def test_matches_ricci_of_rho(self):
        A = Sym3Tensor.random(3, seed=9)
        assert rho2(A) == ricci(rho(A))

    def test_homogeneity(self):
        A = Sym3Tensor.random(3, seed=10)
        c = Fraction(5, 3)
        scaled = rho2(A.scale(c))
        base = rho2(A)
        for i in range(3):
            for j in range(3):
                assert scaled[i, j] == c * c * base[i, j]
