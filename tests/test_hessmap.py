from fractions import Fraction

import numpy as np
import pytest

from hesslab import curvature, hessmap, linalg, rng
from hesslab.curvature import coordinates, curvature_space_dim, ricci, symmetry_failures
from hesslab.hessmap import image_rank_census, rho, rho2, rho_jacobian, rho_raw
from hesslab.tensor import MAX_DIM, Sym3Tensor, sym3_dim
from tensor_helpers import combine, integer_form_dtypes, sym3_basis, sym3_combine


def polarized_jacobian(A: Sym3Tensor) -> list[list[Fraction]]:
    """rho_jacobian by polarization: column m is the coordinates of
    rho(A + B) - rho(A) - rho(B) for the m-th packed unit vector B."""
    base = rho_raw(A)
    cols = [coordinates(combine((1, rho_raw(sym3_combine((1, A), (1, B)))), (-1, base),
                                (-1, rho_raw(B))))
            for B in sym3_basis(A.n)]
    return [list(row) for row in zip(*cols)]


def refuse(*args, **kwargs):
    raise AssertionError("the certified census took the slow path")


def rho_scaling_check(A: Sym3Tensor, c) -> bool:
    """Degree-2 homogeneity: rho(c A) == c^2 rho(A), both sides exact."""
    c = Fraction(c)
    return rho_raw(sym3_combine((c, A))) == combine((c * c, rho_raw(A)))


class TestRho:
    def test_zero_maps_to_zero(self):
        A = Sym3Tensor(2, tuple(Fraction(0) for _ in range(4)))
        assert rho_raw(A).is_zero()

    def test_rank_one_cube_is_flat(self):
        A = Sym3Tensor.from_monomials(2, {(0, 0, 0): Fraction(1)})
        assert rho_raw(A).is_zero()

    @pytest.mark.parametrize("n", range(2, MAX_DIM + 1))
    def test_output_is_always_a_curvature_tensor(self, n):
        # rho wraps its output unchecked, so every dimension is checked here
        for seed in range(100):
            A = Sym3Tensor.random(n, seed=seed, bound=5)
            assert symmetry_failures(rho(A)) == []

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

    @pytest.mark.parametrize("c", [2**31, Fraction(-2**40, 7)])
    def test_scaling_past_int64(self, c, monkeypatch):
        # c A fits int64, but the products in rho(c A) do not
        seen = integer_form_dtypes(monkeypatch, hessmap)
        assert rho_scaling_check(Sym3Tensor.random(4, seed=1), c)
        assert seen == [np.dtype(object), np.dtype(np.int64)]

    def test_polarization_bilinear_symmetric(self):
        A = Sym3Tensor.random(3, seed=5)
        B = Sym3Tensor.random(3, seed=6)

        def polar(x, y):
            return combine((1, rho_raw(sym3_combine((1, x), (1, y)))), (-1, rho_raw(x)),
                           (-1, rho_raw(y)))

        assert polar(A, B) == polar(B, A)
        # linear in the second argument: polar(A, B + B) = 2 polar(A, B)
        twice = polar(A, sym3_combine((2, B)))
        once = polar(A, B)
        assert twice == combine((2, once))


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
        lhs = coordinates(combine((1, rho_raw(sym3_combine((1, A), (1, B)))),
                                  (-1, rho_raw(A)), (-1, rho_raw(B))))
        assert lhs == col

    @pytest.mark.parametrize("n, seed, bound", [(n, seed, 10) for n in (2, 3, 4, 5)
                                                for seed in (0, 1, 2)]
                             + [(3, 4, 100000), (4, 1_000_003, 100000), (5, 5, 100000)])
    def test_matches_polarization(self, n, seed, bound):
        A = Sym3Tensor.random(n, seed=seed, bound=bound)
        X, _ = hessmap._integer_jacobian(A)
        # entries this large leave int64 for Python ints
        assert X.dtype == (object if bound == 100000 else np.int64)
        m = rho_jacobian(A)
        assert m == polarized_jacobian(A)
        assert {type(x) for row in m for x in row} == {Fraction}


def exact_rank(m) -> int:
    """Rank by RowSpace alone, with no rank mod p in front of it."""
    return linalg.RowSpace(len(m[0]), m).rank


def census_rank(A: Sym3Tensor) -> int:
    """The rank image_rank_census records for A: linalg.rank of its integer Jacobian."""
    return linalg.rank(hessmap._integer_jacobian(A)[0])


class TestJacobianRank:
    @pytest.fixture
    def exact_ranks(self, monkeypatch):
        """Rows of each RowSpace built, recorded: one per exact fallback."""
        seen = []
        space = linalg.RowSpace
        monkeypatch.setattr(linalg, "RowSpace",
                            lambda cols, rows=(): seen.append(rows) or space(cols, rows))
        return seen

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_exact_rank_of_the_jacobian(self, n):
        ranks = image_rank_census(n, samples=2, seed=1).ranks
        for i, rank in enumerate(ranks):
            A = Sym3Tensor.random(n, seed=rng.sample_seed(1, i))
            assert census_rank(A) == rank == exact_rank(rho_jacobian(A))

    def test_zero_point_falls_back_to_exact_rank(self, exact_ranks):
        assert census_rank(Sym3Tensor(4, (0,) * 20)) == 0
        assert len(exact_ranks) == 1

    @pytest.mark.parametrize("n", [3, 5])
    def test_rank_one_cube_falls_back_to_exact_rank(self, n, exact_ranks):
        A = Sym3Tensor.from_monomials(n, {(0, 0, 0): Fraction(1)})
        expected = exact_rank(rho_jacobian(A))
        exact_ranks.clear()
        assert census_rank(A) == expected < min(curvature_space_dim(n), sym3_dim(n))
        assert len(exact_ranks) == 1

    def test_n4_generic_rank_is_exact_not_certified(self, exact_ranks):
        # 18 < min(20, 20): a rank mod p below the bound proves nothing
        assert image_rank_census(4, samples=2, seed=1).ranks == [18, 18]
        assert len(exact_ranks) == 2

    def test_a_rank_drop_mod_p_is_not_reported(self, monkeypatch, exact_ranks):
        # a prime dividing every maximal minor lowers the rank mod p; the
        # exact rank then decides
        monkeypatch.setattr(linalg, "rank_mod_p", lambda m: min(np.shape(m)) - 1)
        assert census_rank(Sym3Tensor.random(5, seed=1)) == 35
        assert len(exact_ranks) == 1

    def test_certified_census_needs_no_rho_coordinates_or_exact_rank(self, monkeypatch):
        monkeypatch.setattr(hessmap, "rho_raw", refuse)
        monkeypatch.setattr(curvature, "coordinates", refuse)
        monkeypatch.setattr(linalg, "RowSpace", refuse)
        assert image_rank_census(5, samples=3, seed=1).ranks == [35, 35, 35]

    @pytest.mark.parametrize("n, rank", [(7, 84), (8, 120)])
    def test_certified_generic_rank_is_dim_s3(self, n, rank, monkeypatch):
        monkeypatch.setattr(linalg, "RowSpace", refuse)
        assert image_rank_census(n, samples=1, seed=1).ranks == [rank] == [sym3_dim(n)]


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
        scaled = rho2(sym3_combine((c, A)))
        base = rho2(A)
        for i in range(3):
            for j in range(3):
                assert scaled[i, j] == c * c * base[i, j]
