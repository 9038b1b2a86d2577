"""Tensors built from integers against the Fraction arrays they stand for.

Every Tensor holds an integer form (X, D) and makes its entries only when
.data is read; Tensor(n, data) clears given entries into its own form.
rho_raw, materialize and cyclic_sum build theirs from integers.  Each is
compared with the entries the direct Fraction computation gives: the same
integer form, the same values, every one a Fraction, read-only, with one
shared zero.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hesslab import cli, curvature, hessmap, linalg, miner, ricci3d, rng, tensor
from hesslab.curvature import (coordinates, curvature_space_dim, cyclic_sum, materialize,
                               random_curvature, ricci, scalar_curvature)
from hesslab.hessmap import rho, rho2, rho_jacobian, rho_raw
from hesslab.identities import pontryagin_form
from hesslab.tensor import Sym3Tensor, Tensor, integer_form
from tensor_helpers import combine, evaluate_pattern, random_rational, sym3_combine

# the second bound is past 2**62 for every M, so it forces the object path
BOUNDS = [lambda M: 3 * M, lambda M: 2**62]


def rho_raw_reference(A):
    """R_ijkl = -A_ika A_jla + A_ila A_jka, by einsum on A's own entries."""
    d = A.to_dense().data
    t = np.einsum("ika,jla->ijkl", d, d)
    return t.transpose(0, 1, 3, 2) - t


def materialize_reference(n, coeffs):
    """The kernel coordinates summed in the coefficients' own number type."""
    terms, where = curvature._bianchi_kernel(n)
    coords = np.array([sum(coeffs[m] * v for m, v in t) for t in terms], dtype=object)
    return np.concatenate([coords, -coords, coords[:1] * 0])[where]


def cyclic_reference(data):
    return data + data.transpose(2, 0, 1, 3) + data.transpose(1, 2, 0, 3)


def check_against(t, reference):
    """t, built from integers, stands for the object array reference."""
    forms = [integer_form(t, bound) for bound in BOUNDS]
    assert t._data is None  # the stored forms, no entry read
    for (X, D), bound in zip(forms, BOUNDS):
        for Y, E in (integer_form(reference, bound), integer_form(t.data, bound)):
            assert (X.dtype, D) == (Y.dtype, E)
            assert X.tolist() == Y.tolist()
            assert [type(x) for x in X.flat] == [type(x) for x in Y.flat]
    data = t.data
    assert data.tolist() == reference.tolist()
    assert {type(x) for x in data.flat} == {Fraction}
    assert not data.flags.writeable
    assert len({id(x) for x in data.flat if x == 0}) == 1
    assert t.is_zero() == (not any(data.flat))


@pytest.mark.parametrize("n", [4, 5, 6])
class TestEquivalence:
    def test_rho_raw(self, n):
        A = Sym3Tensor.random(n, seed=n)
        # scaled by 2**31, the einsum itself runs on Python ints
        for B in (A, miner._int_sym3(n, n, 5), sym3_combine((2**31, A))):
            check_against(rho_raw(B), rho_raw_reference(B))

    def test_materialize(self, n):
        dim = curvature_space_dim(n)
        fractions = [Fraction(m - 3, m % 4 + 1) for m in range(dim)]
        unit = [Fraction(int(m == 1)) for m in range(dim)]
        for coeffs in (fractions, list(range(-3, dim - 3)), unit):
            check_against(materialize(n, coeffs), materialize_reference(n, coeffs))

    def test_cyclic_sum(self, n):
        rational = random_rational(n, 4, seed=n, bound=3)
        ints = tensor.Tensor(n, np.frompyfunc(lambda x: x.numerator, 1, 1)(rational.data))
        for t in (rho_raw(Sym3Tensor.random(n, seed=1)), rational, ints):
            check_against(cyclic_sum(t), cyclic_reference(t.data))
        assert cyclic_sum(rho_raw(Sym3Tensor.random(n, seed=1))).is_zero()
        assert not cyclic_sum(rational).is_zero()


def kernel_reference(n):
    """_bianchi_kernel(n) derived from the Fraction nullspace() of its rows."""
    pairs = list(itertools.combinations(range(n), 2))
    slots = list(itertools.combinations_with_replacement(pairs, 2))
    col = {s: c for c, s in enumerate(slots)}
    rows = []
    for i, j, k, l in itertools.combinations(range(n), 4):
        row = [0] * len(slots)
        row[col[(i, j), (k, l)]], row[col[(i, k), (j, l)]], row[col[(i, l), (j, k)]] = 1, -1, 1
        rows.append(row)
    kernel = linalg.RowSpace(len(slots), rows).nullspace()
    assert all(x.denominator == 1 for v in kernel for x in v)
    terms = tuple(tuple((m, int(v[c]) * (2 if a == b else 1))
                        for m, v in enumerate(kernel) if v[c])
                  for c, (a, b) in enumerate(slots))
    where = np.full((n,) * 4, 2 * len(slots), dtype=np.intp)
    for c, (ij, kl) in enumerate(slots):
        for (p, q), (r, t) in itertools.product((ij, ij[::-1]), (kl, kl[::-1])):
            where[p, q, r, t] = where[r, t, p, q] = c + len(slots) * ((p > q) != (r > t))
    return terms, where


@pytest.mark.parametrize("n", range(2, 9))
def test_bianchi_kernel_matches_fraction_nullspace(n):
    terms, where = curvature._bianchi_kernel(n)
    expect_terms, expect_where = kernel_reference(n)
    assert terms == expect_terms
    assert {type(x) for t in terms for pair in t for x in pair} == {int}
    assert np.array_equal(where, expect_where)


def test_bianchi_kernel_runs_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Bianchi kernel ran an elimination")
    monkeypatch.setattr(linalg, "RowSpace", refuse)
    for n in range(2, 9):
        terms, where = curvature._bianchi_kernel.__wrapped__(n)
        assert len({m for t in terms for m, _ in t}) == curvature_space_dim(n)
        assert where.shape == (n,) * 4


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("identity", ["quad", "cubic", "pontryagin", "bianchi"])
def test_verify_never_builds_curvature_entries(identity, n, monkeypatch):
    # every R that verify checks is built from integers; its n**4 entries
    # would be made only by tensor._entries
    built = []
    entries = tensor._entries
    monkeypatch.setattr(tensor, "_entries", lambda *form: built.append(form) or entries(*form))
    degree = ["--degree", "2"] if identity == "pontryagin" else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "--identity", identity, *degree, "--dim", str(n),
                        "--seeds", "2", "--seed", "1", "--no-meta"])
    vanishes = identity != "cubic" or n == 4
    assert (code, json.loads(out.getvalue())["all_zero"]) == (0 if vanishes else 1, vanishes)
    assert built == []


@pytest.mark.parametrize("n", [4, 5])
def test_evaluate_pattern_never_builds_curvature_entries(n, monkeypatch):
    built = []
    entries = tensor._entries
    monkeypatch.setattr(tensor, "_entries", lambda *form: built.append(form) or entries(*form))
    R = rho(Sym3Tensor.random(n, seed=n))
    for pat in miner.enumerate_patterns(2):
        evaluate_pattern(pat, R)
    assert built == []


def test_sym3_consumers_build_no_entries(monkeypatch):
    # rho, its Jacobian and ricci3d's frame relabeling read A's integer form
    built = []
    entries = tensor._entries
    monkeypatch.setattr(tensor, "_entries", lambda *form: built.append(form) or entries(*form))
    A = Sym3Tensor.random(4, seed=3)
    assert rho_raw(A) == rho(A) and len(rho_jacobian(A)) == curvature_space_dim(4)
    assert hessmap.jacobian_rank(A) == 18
    ricci3d._permute_sym3(Sym3Tensor.random(3, seed=3), (2, 0, 1))
    assert built == []


class TestGivenEntries:
    """Tensor(n, data) holds the same integer form as a tensor built from integers."""

    def test_constructor_leaves_the_callers_array_alone(self):
        a = random_rational(4, 4, seed=1).data.copy()
        expect = a.tolist()
        t = Tensor(4, a)
        assert a.flags.writeable
        a[0, 1, 2, 3] += 1
        assert t.data.tolist() == expect

    def test_ints_and_equal_fractions_are_one_tensor(self):
        ints = np.arange(-8, 8, dtype=object).reshape(4, 4)
        fractions = np.array([Fraction(2 * x, 2) for x in ints.flat], dtype=object).reshape(4, 4)
        t, u = Tensor(4, ints), Tensor(4, fractions)
        assert t == u and hash(t) == hash(u)
        assert ({type(x) for x in t.data.flat}, {type(x) for x in u.data.flat}) == (
            {Fraction}, {Fraction})
        # 3X / 6 is held as X / 2, the form of the halved entries
        halves = Tensor(4, fractions / 2)
        scaled = Tensor.from_integers(np.arange(-8, 8).reshape(4, 4) * 3, 6)
        assert scaled == halves and hash(scaled) == hash(halves)
        assert halves != u

    def test_comparisons_and_coordinates_read_no_entries(self, monkeypatch):
        built = []
        entries = tensor._entries
        monkeypatch.setattr(tensor, "_entries", lambda *form: built.append(form) or entries(*form))
        n, dim = 5, curvature_space_dim(5)
        R, S = random_curvature(n, seed=1), random_curvature(n, seed=1)
        assert not R.is_zero() and R == S and hash(R) == hash(S)
        assert R != random_curvature(n, seed=2)
        assert materialize(n, [0] * dim).is_zero()
        assert coordinates(R) == [rng.rational_at(f"curv|{n}|10", 1, i, 10) for i in range(dim)]
        assert built == []


@pytest.mark.parametrize("n", range(2, 9))
def test_coordinates_are_the_drawn_rationals(n):
    # read at the kernel's single-term coordinates, past the dimensions
    # that test_curvature's round trip builds the basis for
    assert coordinates(random_curvature(n, seed=1)) == [
        rng.rational_at(f"curv|{n}|10", 1, i, 10) for i in range(curvature_space_dim(n))]


def test_pontryagin_form_builds_no_entries_until_read(monkeypatch):
    built = []
    entries = tensor._entries
    monkeypatch.setattr(tensor, "_entries", lambda *form: built.append(form) or entries(*form))
    form = pontryagin_form(random_curvature(6, seed=1), 3)
    assert form.is_zero() and built == []
    assert not any(form.data.flat)
    assert len(built) == 1


def test_ricci_and_scalar_curvature_build_no_entries(monkeypatch):
    built = []
    entries = tensor._entries
    monkeypatch.setattr(tensor, "_entries", lambda *form: built.append(form) or entries(*form))
    R, A = random_curvature(5, seed=1), Sym3Tensor.random(5, seed=1)
    r, s, r2 = ricci(R), scalar_curvature(R), rho2(A)
    assert built == []
    assert s == r.trace() == sum(R.data[i, j, i, j] for i in range(5) for j in range(5))
    assert r2 == ricci(rho(A))


class TestCombineOracle:
    """tensor_helpers.combine, the tests' entry-path oracle for sums and
    multiples, against the integer forms on seeded random rational tensors."""

    @pytest.mark.parametrize("n, order", [(2, 2), (3, 3), (4, 4), (5, 4)])
    def test_matches_integer_forms(self, n, order):
        a, b = random_rational(n, order, seed=n), random_rational(n, order, seed=n + 1)
        (X1, D1), (X2, D2) = (integer_form(t, lambda M: 2**62) for t in (a, b))
        for c1, c2 in [(1, 1), (1, -1), (Fraction(3, 7), -2**40), (0, Fraction(-5, 2))]:
            D = math.lcm(D1 * Fraction(c1).denominator, D2 * Fraction(c2).denominator)
            w1, w2 = Fraction(c1 * D, D1), Fraction(c2 * D, D2)
            assert w1.denominator == w2.denominator == 1
            expect = Tensor.from_integers(int(w1) * X1 + int(w2) * X2, D)
            assert combine((c1, a), (c2, b)) == expect

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            combine((1, random_rational(3, 2, seed=1)), (1, random_rational(3, 3, seed=1)))
        with pytest.raises(ValueError, match="shape mismatch"):
            combine((1, random_rational(3, 2, seed=1)), (1, random_rational(4, 2, seed=1)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rho_raw_polarization_is_the_jacobian(self, n):
        def polar(x, y):
            return combine((1, rho_raw(sym3_combine((1, x), (1, y)))), (-1, rho_raw(x)),
                           (-1, rho_raw(y)))

        for seed in (1, 2):
            A, B = Sym3Tensor.random(n, seed=seed), Sym3Tensor.random(n, seed=seed + 10)
            AB = polar(A, B)
            assert AB == polar(B, A)
            assert polar(A, sym3_combine((Fraction(-7, 3), B))) == combine((Fraction(-7, 3), AB))
            J = rho_jacobian(A)
            assert coordinates(AB) == [sum(x * b for x, b in zip(row, B.packed)) for row in J]
