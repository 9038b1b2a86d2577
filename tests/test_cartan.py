from fractions import Fraction

import pytest

from hesslab import cartan, linalg
from hesslab.curvature import scalar_curvature
from hesslab.hessmap import image_rank_census, rho
from hesslab.rng import rational_at
from hesslab.tensor import Sym3Tensor


# scalar_curvature(rho(A)) = SCALAR_CURVATURE_SCALE * s, where s is the
# value of the display polynomial (4/9)(3ac + 3bd - b^2 - c^2); frozen by
# exact evaluation.
SCALAR_CURVATURE_SCALE = Fraction(-1, 2)


def random_components(seed):
    return cartan.TwoDSym3(*(rational_at("c2d", seed, i, 9) for i in range(4)))


# The contracted curvature condition s + x*|A|^2 + y*|tr A|^2 = 0 holds
# identically with (x, y) = (2, -2): the first sign differs from one printed
# form of the relation, pinned here by exact cross-check against rho.
EQ_SIGNS = (Fraction(2), Fraction(-2))


def contracted_relation_residual(t: cartan.TwoDSym3, s) -> Fraction:
    """s + 2 |A|^2 - 2 |trace A|^2, the contracted curvature condition.

    Vanishes exactly when scalar_relation_residual does (same A, same s).
    """
    dn = t.to_sym3().to_dense().data
    full = sum(dn[i, al, j] * dn[j, i, al]
               for i in range(2) for j in range(2) for al in range(2))
    tr = [sum(dn[j, al, j] for j in range(2)) for al in range(2)]
    x, y = EQ_SIGNS
    return Fraction(s) + x * full + y * (tr[0] ** 2 + tr[1] ** 2)


def reconcile_signs(samples=10) -> tuple[Fraction, Fraction]:
    """Find the (x, y) sign pair making the contracted condition match the
    display polynomial identically; returns the unique successful pair."""
    cands = [(Fraction(x), Fraction(y)) for x in (2, -2) for y in (2, -2)]
    for i in range(samples):
        t = cartan.TwoDSym3(*(rational_at("cartan-signs", 7, 4 * i + j, 9)
                              for j in range(4)))
        s = cartan.display_polynomial(t)
        dn = t.to_sym3().to_dense().data
        full = sum(dn[p, al, q] * dn[q, p, al]
                   for p in range(2) for q in range(2) for al in range(2))
        tr = [sum(dn[q, al, q] for q in range(2)) for al in range(2)]
        t2 = tr[0] ** 2 + tr[1] ** 2
        cands = [(x, y) for x, y in cands if s + x * full + y * t2 == 0]
    if len(cands) != 1:
        raise AssertionError(f"sign reconciliation not unique: {cands}")
    return cands[0]


def nonzero_rational(token):
    return token not in ("a", "b", "g") and Fraction(token) != 0


def echelon_column_permutation():
    """A column order making the prolonged symbol upper-echelon for every
    parameter value: each pivot is a nonzero rational token with "0" tokens
    below it.  Existence certifies rank 6 irrespective of the parameters."""
    m = [row.split() for row in cartan._PROLONGED]
    rows, cols = len(m), len(m[0])

    def search(k, used):
        if k == rows:
            return []
        for c in range(cols):
            if c in used:
                continue
            if nonzero_rational(m[k][c]) and all(m[j][c] == "0"
                                                 for j in range(k + 1, rows)):
                rest = search(k + 1, used | {c})
                if rest is not None:
                    return [c] + rest
        return None

    pivots = search(0, set())
    if pivots is None:
        raise AssertionError("no parameter-independent echelon permutation exists")
    return pivots + [c for c in range(cols) if c not in pivots]


class TestScalarRelation:
    def test_zero_case(self):
        t = cartan.TwoDSym3.from_scalars(0, 0, 0, 0)
        assert cartan.scalar_relation_residual(t, 0) == 0

    def test_documented_example(self):
        t = cartan.TwoDSym3.from_scalars(1, 0, 1, 0)
        assert cartan.scalar_relation_residual(t, Fraction(8, 9)) == 0
        assert cartan.scalar_relation_residual(t, Fraction(4, 3)) != 0

    @pytest.mark.parametrize("seed", range(10))
    def test_display_and_contracted_forms_agree(self, seed):
        t = random_components(seed)
        s = cartan.display_polynomial(t)
        assert cartan.scalar_relation_residual(t, s) == 0
        assert contracted_relation_residual(t, s) == 0
        off = s + 1
        assert cartan.scalar_relation_residual(t, off) == \
            contracted_relation_residual(t, off)

    @pytest.mark.parametrize("seed", range(5))
    def test_frozen_curvature_normalization(self, seed):
        # scalar curvature of the induced curvature tensor is exactly -1/2
        # times the display polynomial value
        t = random_components(seed)
        s_curv = scalar_curvature(rho(t.to_sym3()))
        assert s_curv == SCALAR_CURVATURE_SCALE * cartan.display_polynomial(t)

    def test_sign_reconciliation_unique(self):
        assert reconcile_signs() == (Fraction(2), Fraction(-2))

    def test_component_round_trip(self):
        t = random_components(3)
        assert cartan.TwoDSym3.from_sym3(t.to_sym3()) == t

    @pytest.mark.parametrize("seed", range(5))
    def test_from_sym3_reads_the_dense_components(self, seed):
        A = Sym3Tensor.random(2, seed=seed)
        d = A.to_dense().data
        assert cartan.TwoDSym3.from_sym3(A) == cartan.TwoDSym3(
            d[0, 0, 0], 3 * d[0, 0, 1], 3 * d[0, 1, 1], d[1, 1, 1])

    def test_from_sym3_refuses_another_dimension(self):
        with pytest.raises(ValueError, match="planar"):
            cartan.TwoDSym3.from_sym3(Sym3Tensor.random(3, seed=1))


class TestSolveA:
    def test_unit_case(self):
        assert cartan.solve_a(0, 1, 0, 0) == Fraction(1, 3)

    def test_documented_case(self):
        assert cartan.solve_a(3, 1, 1, 0) == Fraction(1, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_postcondition(self, seed):
        b, c, d, s = (rational_at("solvea", seed, i, 9) for i in range(4))
        if c == 0:
            c = Fraction(1)
        a = cartan.solve_a(b, c, d, s)
        t = cartan.TwoDSym3(a, Fraction(b), Fraction(c), Fraction(d))
        assert cartan.scalar_relation_residual(t, s) == 0

    def test_degenerate_chart(self):
        with pytest.raises(ValueError):
            cartan.solve_a(1, 0, 1, 0)


class TestSymbolMatrices:
    def params(self, seed=0):
        return cartan.SymbolParameters(
            *(rational_at("sym", seed, i, 10) for i in range(3)))

    def test_symbol_shape_and_rank(self):
        m = cartan.symbol_matrix(self.params())
        assert len(m) == 3 and len(m[0]) == 6
        assert linalg.rank(m) == 3

    def test_symbol_matches_display_at_zero(self):
        p = cartan.SymbolParameters.from_scalars(0, 0, 0)
        assert cartan.symbol_matrix(p) == [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, -1, 0, 0],
            [0, 0, 3, 0, -1, 0],
        ]

    def test_matrices_at_rational_parameters(self):
        a, b, g = Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2)
        p = cartan.SymbolParameters.from_scalars(a, b, g)
        sym = cartan.symbol_matrix(p)
        assert sym == [
            [1, 0, 0, a, b, g],
            [0, 1, 0, -1, 0, 0],
            [0, 0, 3, 0, -1, 0],
        ]
        assert cartan.restricted_symbol_matrix(p) == [row[:3] for row in sym]
        prolonged = cartan.prolonged_symbol_matrix(p)
        assert prolonged == [
            [1, a, 0, 0, b, 0, 0, g, 0],
            [0, -1, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, -1, 0, 3, 0, 0],
            [0, 1, a, 0, 0, b, 0, 0, g],
            [0, 0, -1, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, -1, 0, 3, 0],
        ]
        for m in (sym, cartan.restricted_symbol_matrix(p), prolonged):
            assert all(type(x) is Fraction for row in m for x in row)
        # the first prolongation: entry (3d + i, 3j + d + e) is symbol entry
        # (i, 3e + j) for d, e in {0, 1}, and every other entry is 0
        expected = [[0] * 9 for _ in range(6)]
        for d in range(2):
            for e in range(2):
                for i in range(3):
                    for j in range(3):
                        expected[3 * d + i][3 * j + d + e] = sym[i][3 * e + j]
        assert prolonged == expected

    def test_prolonged_shape_and_rank(self):
        m = cartan.prolonged_symbol_matrix(self.params())
        assert len(m) == 6 and len(m[0]) == 9
        assert linalg.rank(m) == 6

    @pytest.mark.parametrize("seed", range(20))
    def test_prolonged_rank_parameter_sweep(self, seed):
        m = cartan.prolonged_symbol_matrix(self.params(seed))
        assert linalg.rank(m) == 6

    def test_restricted_symbol_injective(self):
        m = cartan.restricted_symbol_matrix(self.params())
        assert linalg.rank(m) == 3  # g_{0,1} = 0

    def test_echelon_column_permutation_exists(self):
        perm = echelon_column_permutation()
        assert sorted(perm) == list(range(9))
        # pivots are parameter-independent nonzero rationals with zero below
        sym = [row.split() for row in cartan._PROLONGED]
        for row in range(6):
            assert nonzero_rational(sym[row][perm[row]])
            for below in range(row + 1, 6):
                assert sym[below][perm[row]] == "0"


class TestCartanTest:
    def test_report_values(self):
        p = cartan.SymbolParameters.from_scalars(
            Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2))
        rep = cartan.cartan_test(p)
        assert (rep.g01, rep.g02, rep.g12) == (0, 3, 3)
        assert rep.involutive
        assert rep.g02 == 6 - rep.rank_symbol
        assert rep.g12 == 9 - rep.rank_prolonged

    def test_hundred_triple_sweep_identical(self):
        reports = cartan.parameter_sweep(100, seed=5)
        assert len(set(reports)) == 1
        assert reports[0].involutive

    def test_cross_module_2d_image_rank(self):
        # the scalar relation is the single constraint: the induced-curvature
        # map has generic rank exactly 1 in the plane
        assert image_rank_census(2, samples=5, seed=1).max_rank == 1
