import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hesslab import miner, tensor
from hesslab.curvature import (CurvTensor, curvature_space_dim, materialize,
                               random_curvature)
from hesslab.hessmap import rho
from hesslab.identities import (bianchi_residual, cubic_identity,
                                pontryagin_form, pontryagin_quadratic)
from hesslab.tensor import Sym3Tensor, Tensor, antisymmetrize, signed_permutations
from tensor_helpers import combine, integer_form_dtypes


def pontryagin_form_naive(R: CurvTensor, p: int) -> Tensor:
    """Direct (2p)!-term evaluation of pontryagin_form, kept as a test oracle."""
    if p < 1 or 2 * p > R.n:
        raise ValueError("invalid degree")
    n = R.n
    out = np.zeros((n,) * (2 * p), dtype=object)
    for idx in itertools.product(range(n), repeat=2 * p):
        acc = 0
        for sigma, sign in signed_permutations(2 * p):
            pi = [idx[s] for s in sigma]
            s = 0
            for avals in itertools.product(range(n), repeat=p):
                prod = 1
                for f in range(p):
                    prod *= R.data[pi[2 * f], pi[2 * f + 1],
                                   avals[f], avals[(f + 1) % p]]
                s += prod
            acc += sign * s
        out[idx] = acc
    return Tensor(n, out)


def full_array_form(R, terms, scale=1):
    """The weighted einsum over the whole n**k array, then antisymmetrize."""
    raw = sum(w * np.einsum(spec, *[R.data] * (spec.count(",") + 1))
              for spec, w in terms)
    return combine((scale, antisymmetrize(Tensor(R.n, raw), list(range(raw.ndim)))))


def zero_curvature(n):
    arr = np.full((n,) * 4, Fraction(0), dtype=object)
    return CurvTensor(Tensor(n, arr))


class TestQuadraticIdentity:
    def test_zero_input(self):
        assert pontryagin_quadratic(zero_curvature(4)).is_zero()

    @pytest.mark.parametrize("seed", range(10))
    def test_vanishes_on_image_n4(self, seed):
        R = rho(Sym3Tensor.random(4, seed=seed, bound=6))
        assert pontryagin_quadratic(R).is_zero()

    def test_nonzero_on_generic_sample(self):
        assert not pontryagin_quadratic(random_curvature(4, seed=1)).is_zero()

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            pontryagin_quadratic(zero_curvature(3))


class TestCubicIdentity:
    def test_zero_input(self):
        assert cubic_identity(zero_curvature(4)).is_zero()

    @pytest.mark.parametrize("seed", range(10))
    def test_vanishes_on_image_n4(self, seed):
        R = rho(Sym3Tensor.random(4, seed=seed, bound=6))
        assert cubic_identity(R).is_zero()

    def test_fails_on_image_n5(self):
        hits = [not cubic_identity(rho(Sym3Tensor.random(5, seed=s))).is_zero()
                for s in range(5)]
        assert any(hits)

    def test_nonzero_on_generic_sample(self):
        assert not cubic_identity(random_curvature(4, seed=2)).is_zero()


class TestPontryaginForm:
    def test_p1_always_zero(self):
        assert pontryagin_form(random_curvature(4, seed=3), 1).is_zero()

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_vanishes_on_image(self, n):
        for seed in range(3):
            R = rho(Sym3Tensor.random(n, seed=seed, bound=5))
            assert pontryagin_form(R, 2).is_zero()

    def test_nonzero_generic(self):
        assert not pontryagin_form(random_curvature(4, seed=1), 2).is_zero()

    def test_nonzero_generic_n8(self):
        assert not pontryagin_form(random_curvature(8, seed=1), 2).is_zero()

    def test_degree_bounds(self):
        R = random_curvature(4, seed=1)
        with pytest.raises(ValueError):
            pontryagin_form(R, 0)
        with pytest.raises(ValueError):
            pontryagin_form(R, 3)  # 2p = 6 > n = 4

    def test_order_above_max_rejected_before_contracting(self, monkeypatch):
        # 2p = 8 <= n = 8 passes the dimension check but not MAX_ORDER = 6;
        # a contraction here would build an 8**8-entry array first
        R = CurvTensor(Tensor(8, np.full((8,) * 4, Fraction(0), dtype=object)))

        def refuse(*args, **kwargs):
            raise AssertionError("contracted before validating the degree")

        monkeypatch.setattr(np, "einsum", refuse)
        monkeypatch.setattr(np, "tensordot", refuse)
        with pytest.raises(ValueError, match="maximum order"):
            pontryagin_form(R, 4)

    def test_matches_naive_oracle(self):
        R = random_curvature(4, seed=4, bound=3)
        assert pontryagin_form(R, 2) == pontryagin_form_naive(R, 2)

    def test_fixed_multiple_of_quadratic_pattern(self):
        # both 4-forms come from the same contraction pattern; the exact
        # ratio 24 = 4! is frozen here and asserted on independent samples
        for n, seed in ((4, 1), (4, 5), (4, 9), (5, 2), (6, 3)):
            R = random_curvature(n, seed=seed)
            assert pontryagin_form(R, 2) == combine((24, pontryagin_quadratic(R)))


class TestAgainstFullArrayPath:
    """Each form equals antisymmetrize of its contraction over the full array."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_quadratic(self, n):
        R = random_curvature(n, seed=11)
        assert pontryagin_quadratic(R) == full_array_form(R, [("ijab,klba->ijkl", 1)])

    @pytest.mark.parametrize("n", [4, 5])
    def test_cubic(self, n):
        R = random_curvature(n, seed=12)
        terms = [("iajb,kbcd,ldac->ijkl", 1), ("iajb,kcad,ldbc->ijkl", -2)]
        assert cubic_identity(R) == full_array_form(R, terms)

    @pytest.mark.parametrize("n", [4, 5])
    def test_pontryagin(self, n):
        R = random_curvature(n, seed=13)
        assert pontryagin_form(R, 1) == full_array_form(R, [("ijaa->ij", 1)], 2)
        assert pontryagin_form(R, 2) == full_array_form(R, [("ijab,klba->ijkl", 1)], 24)

    def test_image_values_keep_their_strings(self):
        R = rho(Sym3Tensor.random(5, seed=3, bound=6))
        new = cubic_identity(R)
        old = full_array_form(R, [("iajb,kbcd,ldac->ijkl", 1), ("iajb,kcad,ldbc->ijkl", -2)])
        assert [str(x) for x in new.data.flat] == [str(x) for x in old.data.flat]


def pontryagin(p):
    return lambda R: pontryagin_form(R, p)


def first_quadratic_pattern(R):
    return miner.evaluate_pattern(miner.enumerate_patterns(2)[0], R)


class TestOneFormConstructor:
    """Every form is a weighted list of slot tuples for miner.alternating_form."""

    @pytest.mark.parametrize("form, terms", [
        (pontryagin_quadratic, [("ijab,klba->ijkl", Fraction(1, 24))]),
        (cubic_identity, [("iajb,kbcd,ldac->ijkl", Fraction(1, 24)),
                          ("iajb,kcad,ldbc->ijkl", Fraction(-1, 12))]),
        (pontryagin(1), [("ijaa->ij", 1)]),
        (pontryagin(2), [("ijab,klba->ijkl", 1)]),
        (pontryagin(3), [("ijab,klbc,mnca->ijklmn", 1)]),
    ], ids=["quad", "cubic", "p1", "p2", "p3"])
    def test_specs_and_weights(self, form, terms, monkeypatch):
        seen = []
        rows = miner.alternating_rows

        def spy(batch, specs):
            seen.append((specs, rows(batch, specs)))
            return seen[-1][1]

        monkeypatch.setattr(miner, "alternating_rows", spy)
        R = random_curvature(6, seed=1)
        got = form(R)
        [(specs, [values])] = seen
        assert specs == [spec for spec, _ in terms]
        # the rows are of D * R: each term's weight over D**deg
        D = math.lcm(*(x.denominator for x in R.data.flat))
        expect = sum(Fraction(weight, D ** (spec.count(",") + 1)) * row
                     for (spec, weight), row in zip(terms, values))
        tuples = itertools.combinations(range(6), got.order)
        assert [got.data[q] for q in tuples] == list(expect)
        assert {type(x) for x in got.data.flat} == {Fraction}

    def test_number_type_follows_data_and_weights(self):
        """Every form reads back Fractions: of an integer tensor under integer
        weights and under a Fraction weight, and of a rational tensor."""
        R = materialize(4, list(range(-9, curvature_space_dim(4) - 9)))
        assert {type(x) for x in R.data.flat} == {Fraction}
        ints, fractions = pontryagin_form(R, 2), pontryagin_quadratic(R)
        assert not ints.is_zero() and {type(x) for x in ints.data.flat} == {Fraction}
        assert {type(x) for x in fractions.data.flat} == {Fraction}
        assert combine((24, fractions)) == ints
        rational = pontryagin_form(combine((Fraction(1, 3), R)), 2)
        assert {type(x) for x in rational.data.flat} == {Fraction}
        assert combine((9, rational)) == ints

    @pytest.mark.parametrize("form, k", [
        (pontryagin_quadratic, 4), (cubic_identity, 4), (pontryagin(2), 4),
        (pontryagin(3), 6), (first_quadratic_pattern, 4),
    ], ids=["quad", "cubic", "p2", "p3", "evaluate_pattern"])
    def test_refuses_dimension_below_order(self, form, k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("contracted before checking the dimension")

        monkeypatch.setattr(miner, "alternating_rows", refuse)
        for n in range(2, k):
            with pytest.raises(ValueError, match=f"degree-{k} .* n={n} < {k}"):
                form(random_curvature(n, seed=1))


class TestPastInt64:
    """Scaled so that int64 would overflow, the forms stay homogeneous."""

    @pytest.mark.parametrize("form, degree", [(pontryagin_quadratic, 2), (cubic_identity, 3)])
    def test_homogeneous(self, form, degree, monkeypatch):
        seen = integer_form_dtypes(monkeypatch, tensor)
        R = random_curvature(5, seed=1)
        c = 2**31  # the scaled entries fit int64, their products do not
        small, big = form(R), form(CurvTensor(combine((c, R))))
        assert not small.is_zero()
        assert big == combine((c**degree, small))
        assert seen == [np.dtype(np.int64), np.dtype(object)]


class TestOddDegree:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_odd_p_vanishes_on_generic_curvature(self, seed):
        """The curvature 2-form Omega is antisymmetric as a matrix, so
        tr Omega^p = tr (Omega^T)^p = (-1)^p tr Omega^p and the form vanishes
        at odd p on every curvature tensor: p = 3 is never evidence."""
        R = random_curvature(6, seed)
        assert pontryagin_form(R, 3).is_zero()
        assert not pontryagin_form(R, 2).is_zero()  # R is generic


class TestBianchiResidual:
    def test_zero_on_curvature(self):
        assert bianchi_residual(random_curvature(4, seed=6)).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_zero_on_image_before_validation(self, n):
        from hesslab.hessmap import rho_raw
        for seed in range(5):
            assert bianchi_residual(rho_raw(Sym3Tensor.random(n, seed=seed))).is_zero()

    def test_negative_control(self):
        arr = np.full((2,) * 4, Fraction(0), dtype=object)
        arr[0, 1, 0, 1] = Fraction(1)  # e1 (x) e2 (x) e1 (x) e2
        assert not bianchi_residual(Tensor(2, arr)).is_zero()
