import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hesslab import miner, rng, tensor
from hesslab.tensor import (Sym3Tensor, Tensor, alternating_rows, antisymmetrize,
                            signed_permutations, sym3_dim, sym3_triples)
from tensor_helpers import (alternating_contraction_reference, check_greedy_plan, contract,
                            integer_form_dtypes, random_rational, sym3_basis,
                            sym3_from_dense, symmetrize)


@pytest.mark.parametrize("make", [
    lambda: Sym3Tensor.random(10**5, seed=1),
    lambda: Sym3Tensor.from_monomials(3000, {}),
], ids=["random", "from_monomials"])
def test_sym3_dimension_checked_before_drawing_or_allocating(make, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew or allocated before checking n")

    for name in ("sym3_dim", "sym3_triples"):
        monkeypatch.setattr(tensor, name, refuse)
    monkeypatch.setattr(rng, "_digests", refuse)
    with pytest.raises(ValueError, match=r"dimension must be in \[2, 8\]"):
        make()


def basis_tensor(n, order, index):
    arr = np.full((n,) * order, Fraction(0), dtype=object)
    arr[index] = Fraction(1)
    return Tensor(n, arr)


class TestContract:
    def test_trace_of_identity(self):
        arr = np.full((4, 4), Fraction(0), dtype=object)
        for i in range(4):
            arr[i, i] = Fraction(1)
        out = contract(Tensor(4, arr), 0, 1)
        assert out.order == 0
        assert out.data[()] == 4

    def test_single_term_trace(self):
        t = basis_tensor(2, 3, (0, 1, 0))  # e1 (x) e2 (x) e1
        out = contract(t, 0, 2)
        assert out.data[0] == 0 and out.data[1] == 1

    def test_double_contraction_grouping(self):
        t = random_rational(3, 4, seed=5)
        a = contract(contract(t, 0, 1), 0, 1)
        b = contract(contract(t, 2, 3), 0, 1)
        assert a == b
        brute = sum(t.data[i, i, j, j] for i in range(3) for j in range(3))
        assert a.data[()] == brute

    def test_axis_errors(self):
        t = random_rational(2, 2, seed=1)
        with pytest.raises(ValueError):
            contract(t, 0, 0)
        with pytest.raises(ValueError):
            contract(t, 0, 5)


class TestAlternators:
    def test_antisymmetrize_kills_symmetric(self):
        t = random_rational(3, 2, seed=2)
        sym = symmetrize(t, [0, 1])
        assert antisymmetrize(sym, [0, 1]).is_zero()

    def test_symmetrize_kills_antisymmetric(self):
        t = random_rational(3, 2, seed=3)
        anti = antisymmetrize(t, [0, 1])
        assert symmetrize(anti, [0, 1]).is_zero()

    def test_rank_one_split(self):
        t = basis_tensor(2, 2, (0, 1))
        anti = antisymmetrize(t, [0, 1])
        assert anti.data[0, 1] == Fraction(1, 2)
        assert anti.data[1, 0] == Fraction(-1, 2)
        sym = symmetrize(t, [0, 1])
        assert sym.data[0, 1] == sym.data[1, 0] == Fraction(1, 2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_idempotent(self, seed):
        t = random_rational(3, 3, seed=seed)
        for op in (antisymmetrize, symmetrize):
            once = op(t, [0, 2])
            assert op(once, [0, 2]) == once

    def test_repeated_axis_rejected(self):
        t = random_rational(2, 3, seed=4)
        with pytest.raises(ValueError):
            antisymmetrize(t, [0, 0])
        with pytest.raises(ValueError, match="axis 3 out of range for order 3"):
            antisymmetrize(t, [0, 3])

    @pytest.mark.parametrize("k", range(6))
    def test_signed_permutations_by_cycle_parity(self, k):
        perms = signed_permutations(k)
        assert [p for p, _ in perms] == list(itertools.permutations(range(k)))
        for perm, sign in perms:
            seen, transpositions = set(), 0
            for start in range(k):
                length = 0
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
                    length += 1
                transpositions += max(length - 1, 0)
            assert sign == (-1) ** transpositions

    @pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_alternating_contraction_matches_antisymmetrize(self, n, k):
        t = random_rational(n, k, seed=n + k)
        slots = "ijkl"[:k]
        row = alternating_rows([t], [f"{slots}->{slots}"])[0, 0]
        # the row is of the integer form D * t, and has no 1/k! factor
        scale = Fraction(1, denominator(t.data) * math.factorial(k))
        anti = antisymmetrize(t, list(range(k)))
        assert [scale * v for v in row] == [
            anti.data[q] for q in itertools.combinations(range(n), k)]

    def test_alternating_contraction_weights_terms(self):
        t = random_rational(3, 2, seed=5)
        one, transpose = alternating_rows([t], ["ij->ij", "ji->ij"])[0]
        both = 3 * one + transpose
        assert list(both) == list(one * 2)  # the transpose enters with sign -1

    @pytest.mark.parametrize("seed", [7, 8])
    def test_commutes_with_contraction_on_untouched_axes(self, seed):
        t = random_rational(3, 4, seed=seed)
        a = contract(antisymmetrize(t, [0, 1]), 2, 3)
        b = antisymmetrize(contract(t, 2, 3), [0, 1])
        assert a == b
        a = contract(symmetrize(t, [2, 3]), 0, 1)
        b = symmetrize(contract(t, 0, 1), [0, 1])  # axes shift down after trace
        assert a == b


# orders k = 2, 3 and 4 up to n = 8; the degree-3 terms stay at small n,
# where the reference's einsum on the entries themselves is quick
ORACLE_CASES = [
    (2, [("ijaa->ij", 1)]),
    (8, [("ijaa->ij", 1), ("iabc,jcba->ij", -3)]),
    (3, [("ijka->ijk", 1)]),
    (8, [("ijab,kabc->ijk", 2)]),
    (5, [("ijab,kbcd,acdd->ijk", 1)]),
    (4, [("ijkl->ijkl", 1), ("ijab,klba->ijkl", 5)]),
    (8, [("ijab,klba->ijkl", 1)]),
    (5, [("iajb,kbcd,ldac->ijkl", 1), ("iajb,kcad,ldbc->ijkl", -2)]),
]


def denominator(data) -> int:
    """D of the integer form D * data: the lcm of the entries' denominators."""
    return math.lcm(*(Fraction(x).denominator for x in np.asarray(data).flat))


class TestIntegerContraction:
    @pytest.mark.parametrize("n, terms", ORACLE_CASES)
    def test_types_and_values_match_reference(self, n, terms, monkeypatch):
        rational = random_rational(n, 4, seed=n, bound=3).data
        ints = np.array([x.numerator for x in rational.flat], dtype=object).reshape(rational.shape)
        seen = integer_form_dtypes(monkeypatch, tensor)
        for data in (rational, ints, ints.astype(np.int64)):
            D = denominator(data)
            rows = alternating_rows([data], [spec for spec, _ in terms])[0]
            assert {type(x) for x in rows.flat} == {int}
            # the weighted sum of the rows, each over its own D**deg
            got = sum(Fraction(weight, D ** (spec.count(",") + 1)) * row
                      for (spec, weight), row in zip(terms, rows))
            assert list(got) == list(alternating_contraction_reference(data, terms))
        assert seen == [np.dtype(np.int64)] * 3

    def test_integer_form_clears_denominators(self):
        X, D = tensor.integer_form([Fraction(1, 6), Fraction(-3, 4), 2], abs)
        assert (X.tolist(), D, X.dtype) == ([2, -9, 24], 12, np.int64)
        X, D = tensor.integer_form(np.array([2**40, -3]), lambda M: M * M)
        assert (X.tolist(), D, X.dtype) == ([2**40, -3], 1, object)
        assert {type(x) for x in X} == {int}

    def test_integer_form_reads_ints_past_int64(self):
        # numpy alone reads this list as float64
        X, D = tensor.integer_form([2**63, -1], lambda M: M)
        assert (X.tolist(), D, X.dtype) == ([2**63, -1], 1, object)
        assert {type(x) for x in X} == {int}

    def test_integer_form_reads_numpy_ints_as_python_ints(self):
        # a numpy int's numerator times the lcm would wrap in int64
        X, D = tensor.integer_form([np.int64(2**62), Fraction(1, 3)], lambda M: M)
        assert (X.tolist(), D) == ([3 * 2**62, 1], 3)
        assert {type(x) for x in X} == {int}


# degrees 1, 2 and 3 in one call, so each row needs its own D**deg
MIXED_SPECS = ["ijkl->ijkl", "ijab,klba->ijkl", "iajb,kbcd,ldac->ijkl", "iajb,kcad,ldbc->ijkl"]


def numerators(data):
    return np.array([x.numerator for x in data.flat], dtype=object).reshape(data.shape)


class TestAlternatingRows:
    def check_rows(self, data, D):
        """Each row is D**deg times its spec's reference values, in Python ints."""
        rows = alternating_rows([data], MIXED_SPECS)[0]
        assert rows.shape == (len(MIXED_SPECS), math.comb(data.shape[0], 4))
        assert {type(x) for x in rows.flat} == {int}
        assert all(any(row) for row in rows)
        for spec, row in zip(MIXED_SPECS, rows):
            deg = spec.count(",") + 1
            expect = alternating_contraction_reference(data, [(spec, 1)])
            assert list(row) == [D**deg * v for v in expect]

    @pytest.mark.parametrize("n", [4, 5])
    def test_each_row_is_its_spec_alone(self, n, monkeypatch):
        rational = random_rational(n, 4, seed=n, bound=3).data
        ints = numerators(rational)
        D = denominator(rational)
        assert D > 1
        seen = integer_form_dtypes(monkeypatch, tensor)
        for data, scale in ((rational, D), (ints, 1), (ints.astype(np.int64), 1)):
            self.check_rows(data, scale)
        # one integer_form per evaluation, whatever the number of specs
        assert seen == [np.dtype(np.int64)] * 3

    def test_large_entries_take_the_object_path(self, monkeypatch):
        rational = random_rational(4, 4, seed=2, bound=3).data * (2**31 + 1)
        D = denominator(rational)
        seen = integer_form_dtypes(monkeypatch, tensor)
        for data, scale in ((rational, D), (numerators(rational), 1)):
            self.check_rows(data, scale)
        assert seen == [np.dtype(object)] * 2

    @pytest.mark.parametrize("make", [lambda X: Tensor(4, over(X, 6)), lambda X: over(X, 6)],
                             ids=["tensor", "array"])
    def test_rational_sample_makes_no_fraction(self, make):
        """A sample X / 6 gives 6**deg times its values: the rows of X itself."""
        X = integer_sample(4, 3)
        rows = alternating_rows([make(X)], MIXED_SPECS)[0]
        assert {type(x) for x in rows.flat} == {int}
        assert rows.tolist() == alternating_rows([X], MIXED_SPECS)[0].tolist()
        for spec, row in zip(MIXED_SPECS, rows):
            deg = spec.count(",") + 1
            expect = alternating_contraction_reference(over(X, 6), [(spec, 1)])
            assert list(row) == [6**deg * v for v in expect]


# the forms identities evaluates: three of order 4, the Pontryagin forms
# at p = 1 and p = 3 of orders 2 and 6
IDENTITY_SPECS = ["ijab,klba->ijkl", "iajb,kbcd,ldac->ijkl", "iajb,kcad,ldbc->ijkl"]
PONTRYAGIN_SPECS = ["ijaa->ij", "ijab,klbc,mnca->ijklmn"]


def integer_sample(n, seed, scale=1):
    """A generic n**4 object array of Python ints in [-5, 5], times scale."""
    flat = [scale * x for x in rng.integers(f"batch|{n}", seed, range(n**4), 5)]
    return np.array(flat, dtype=object).reshape((n,) * 4)


def over(X, D):
    """The Fractions X / D, for a sample with its own denominator."""
    return np.array([Fraction(x, D) for x in X.flat], dtype=object).reshape(X.shape)


class TestBatchedRows:
    """One alternating_rows call on a batch equals one call per sample, and
    the reference: a sample X / D has the integer form X, so its degree-deg
    rows are D**deg times its values ref(X) / D**deg, that is ref(X)."""

    def check(self, batch, specs, numerators):
        rows = alternating_rows(batch, specs)
        k = len(specs[0].split("->")[1])
        n = len(numerators[0])
        assert rows.shape == (len(batch), len(specs), math.comb(n, k))
        for sample, got, X in zip(batch, rows, numerators):
            assert got.tolist() == alternating_rows([sample], specs)[0].tolist()
            assert {type(x) for x in got.flat} == {int}
            for spec, row in zip(specs, got):
                assert list(row) == list(alternating_contraction_reference(X, [(spec, 1)]))
        return rows

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_patterns_and_identities(self, n, monkeypatch):
        specs = [miner._einsum_spec(pat.slots) for p in (2, 3)
                 for pat in miner.enumerate_patterns(p)] + IDENTITY_SPECS
        X = [integer_sample(n, seed) for seed in (1, 2, 3)]
        seen = integer_form_dtypes(monkeypatch, tensor)
        # an int sample and two Fraction samples with different denominators
        batch = [X[0], Tensor(n, over(X[1], 6)), over(X[2], 35)]
        rows = self.check(batch, specs, X)
        assert seen[:3] == [np.dtype(np.int64)] * 3
        assert all(row.any() for sample in rows for row in sample)

    def test_object_path(self, monkeypatch):
        specs = [miner._einsum_spec(pat.slots) for pat in miner.enumerate_patterns(3)]
        seen = integer_form_dtypes(monkeypatch, tensor)
        # 2**31 * 5 past int64 at degree 3: the whole batch takes Python ints
        big, small = integer_sample(5, 4, scale=2**31), integer_sample(5, 5)
        self.check([big, over(small, 6)], specs, [big, small])
        assert seen[:2] == [np.dtype(object), np.dtype(np.int64)]

    @pytest.mark.parametrize("spec", PONTRYAGIN_SPECS)
    def test_other_orders(self, spec):
        X = [integer_sample(6, seed) for seed in (6, 7)]
        self.check([X[0], over(X[1], 10)], [spec], X)

    def test_shared_first_steps_run_once(self, monkeypatch):
        specs = [miner._einsum_spec(pat.slots) for pat in miner.enumerate_patterns(3)]
        assert sum(len(tensor._einsum_steps(spec)) for spec in specs) == 70
        steps = []
        step = tensor._step
        monkeypatch.setattr(tensor, "_step",
                            lambda s, operands, n: steps.append(s) or step(s, operands, n))
        alternating_rows([integer_sample(5, seed) for seed in (8, 9, 10)], specs)
        assert len(steps) <= 52

    # every pairwise intermediate of these degree-4 specs has n**6 entries,
    # more than numpy's default memory limit, under which they planned as
    # one 4-operand step
    @pytest.mark.parametrize("spec", ["abcw,adex,befy,cdfz->wxyz",
                                      "abcw,adex,befy,cfdz->wxyz",
                                      "abcw,adex,befy,czdf->wxyz"])
    def test_degree4_plans_are_pairwise(self, spec):
        steps = tensor._einsum_steps(spec)
        assert len(steps) == 3 and all(len(pos) == 2 for pos, _, _ in steps)
        X = integer_sample(4, 12)
        self.check([X], [spec], [X])

    # every degree-4 pattern plans as three pairwise steps; the plans run on
    # one sample, checked against the reference at every 24th spec
    def test_every_degree4_plan_is_pairwise(self):
        specs = [miner._einsum_spec(pat.slots) for pat in miner.enumerate_patterns(4)]
        assert len(specs) == 288
        for spec in specs:
            assert [len(pos) for pos, _, _ in tensor._einsum_steps(spec)] == [2, 2, 2]
        X = integer_sample(4, 13)
        rows = alternating_rows([X], specs)[0]
        assert rows.any()
        for spec, row in list(zip(specs, rows))[::24]:
            assert list(row) == list(alternating_contraction_reference(X, [(spec, 1)]))

    def test_every_plan_contracts_pairs_of_least_greedy_key(self):
        specs = [miner._einsum_spec(pat.slots) for p in (2, 3, 4)
                 for pat in miner.enumerate_patterns(p)]
        specs += [miner._einsum_spec(miner.trace_pattern(p)) for p in (2, 3)]
        specs += [miner._einsum_spec(slots) for slots, _ in miner.cubic_identity_combination()]
        for spec in specs + PONTRYAGIN_SPECS:
            check_greedy_plan(spec, tensor._einsum_steps(spec))

    @pytest.mark.parametrize("spec, positions", [
        # b joins the first two factors, a smaller saving than c, d of the last two
        ("iajb,kbcd,ldac->ijkl", [(1, 0), (1, 0)]),
        # no factor shares a letter; once the scalars are contracted, the
        # pairs found then are the candidates, not the new scalar's
        ("abab,cdcd,efef,ijkl->ijkl", [(1, 0), (2, 0), (1, 0)]),
    ])
    def test_the_plan_check_refuses_other_pairs(self, spec, positions):
        with pytest.raises(AssertionError):
            check_greedy_plan(spec, [(pos, None, None) for pos in positions])
        check_greedy_plan(spec, tensor._einsum_steps(spec))

    @pytest.mark.parametrize("n, specs, scale", [
        (4, ["ijkl->ijkl"], None),
        (6, IDENTITY_SPECS[1:], 20_000),
    ])
    def test_int64_contraction_with_a_python_int_sum(self, n, specs, scale, monkeypatch):
        """A sample with n**s * M**deg < 2**62 <= k! * n**s * M**deg."""
        if scale is None:  # 24 * 2**61 at (0, 1, 2, 3) overflows an int64 sum
            X = np.zeros((4,) * 4, dtype=object)
            for perm, sign in signed_permutations(4):
                X[perm] = sign * 2**61
        else:
            X = integer_sample(n, 11, scale)
        M = max(abs(x) for x in X.flat)
        for spec in specs:
            deg, s = tensor._term_size(spec)
            assert n**s * M**deg < 2**62 <= 24 * n**s * M**deg
        seen = integer_form_dtypes(monkeypatch, tensor)
        self.check([X], specs, [X])
        assert seen[0] == np.dtype(np.int64)


class TestRandomRational:
    def test_deterministic(self):
        assert random_rational(4, 3, seed=7) == random_rational(4, 3, seed=7)

    def test_seed_sensitivity(self):
        assert random_rational(4, 3, seed=7) != random_rational(4, 3, seed=8)

    def test_bound_one(self):
        t = random_rational(3, 2, seed=1, bound=1)
        for x in t.data.flat:
            assert x in (Fraction(-1), Fraction(0), Fraction(1))

    def test_entries_within_bound(self):
        t = random_rational(3, 3, seed=9, bound=10)
        for x in t.data.flat:
            assert abs(x.numerator) <= 10 and 1 <= x.denominator <= 10

    def test_counter_rng_order_independent(self):
        a = [rng.rational_at("t", 1, i, 10) for i in range(5)]
        b = [rng.rational_at("t", 1, i, 10) for i in reversed(range(5))]
        assert a == list(reversed(b))

    @pytest.mark.parametrize("bound", [1, 7, 10])
    def test_integer_draw_is_the_rational_numerator(self, bound):
        # integer_at is the numerator p that rational_at draws before
        # Fraction reduces p / q, so p / rational_at is the denominator q
        for counter in range(50):
            p = rng.integer_at("t", 3, counter, bound)
            x = rng.rational_at("t", 3, counter, bound)
            if x == 0:
                assert p == 0
            else:
                q = p / x
                assert q.denominator == 1 and 1 <= q <= bound

    @pytest.mark.parametrize("tag, seed, counters, bound", [
        ("t", 1, range(50), 10), ("mine-rho|5|5", 3_000_003, range(35), 5),
        ("cartan-sweep", 7, range(9, 12), 10), ("t", -2, [40, 3, 3, 0], 1)])
    def test_a_run_of_draws_hashes_each_counter_in_full(self, tag, seed, counters, bound):
        # the oracle hashes f"{tag}|{seed}|{counter}" afresh per counter
        expected = []
        for counter in counters:
            d = hashlib.blake2b(f"{tag}|{seed}|{counter}".encode(), digest_size=16).digest()
            p = int.from_bytes(d[:8], "big") % (2 * bound + 1) - bound
            expected.append((p, Fraction(p, int.from_bytes(d[8:], "big") % bound + 1)))
        assert rng.integers(tag, seed, counters, bound) == [p for p, _ in expected]
        assert rng.rationals(tag, seed, counters, bound) == [x for _, x in expected]
        assert [(rng.integer_at(tag, seed, c, bound), rng.rational_at(tag, seed, c, bound))
                for c in counters] == expected

    @pytest.mark.parametrize("draw", [rng.rational_at, rng.integer_at])
    def test_bound_below_one_refused(self, draw):
        with pytest.raises(ValueError, match="bound must be >= 1, got 0"):
            draw("t", 0, 0, 0)


class TestSym3:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_packed_dimension_formula(self, n):
        assert sym3_dim(n) == math.comb(n + 2, 3) == n * (n + 1) * (n + 2) // 6
        assert len(sym3_triples(n)) == sym3_dim(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pack_unpack_round_trip_on_basis(self, n):
        for b in sym3_basis(n):
            dense = b.to_dense()
            assert sym3_from_dense(dense) == b

    def test_dense_is_fully_symmetric(self):
        A = Sym3Tensor.random(3, seed=11)
        d = A.to_dense().data
        import itertools
        for idx in itertools.product(range(3), repeat=3):
            for perm in itertools.permutations(idx):
                assert d[idx] == d[perm]

    def test_is_a_tensor_with_the_same_entries(self):
        A = Sym3Tensor.random(3, seed=4)
        dense = A.to_dense()
        assert isinstance(A, Tensor) and Sym3Tensor.__slots__ == ()
        assert not hasattr(A, "__dict__") and type(dense) is Tensor
        assert A == dense and hash(A) == hash(dense)
        assert A == Tensor(3, dense.data) and A != Sym3Tensor.random(3, seed=5)
        assert repr(A) == "Sym3Tensor(n=3, order=3)"

    def test_packed_reads_back_in_the_stored_number_type(self):
        ints = Sym3Tensor(2, (1, 0, -2, 3))
        assert ints.packed == (1, 0, -2, 3) and {type(x) for x in ints.packed} == {Fraction}
        mixed = Sym3Tensor(2, [1, Fraction(1, 2), 0, -2])
        assert mixed.packed == (1, Fraction(1, 2), 0, -2)
        assert {type(x) for x in mixed.packed} == {Fraction}

    def test_constructor_checks_its_entries(self):
        with pytest.raises(ValueError, match="expected 4 packed entries, got 3"):
            Sym3Tensor(2, (1, 2, 3))
        with pytest.raises(ValueError, match="entry 1.5 is not an integer or a Fraction"):
            Sym3Tensor(2, (1.5, 0, 0, 0))

    def test_from_dense_rejects_asymmetric(self):
        t = basis_tensor(2, 3, (0, 0, 1))
        with pytest.raises(ValueError):
            sym3_from_dense(t)

    def test_monomial_convention(self):
        # coefficient b on the monomial e1*e1*e2 spreads as b/3 per slot
        A = Sym3Tensor.from_monomials(2, {(0, 0, 1): Fraction(1)})
        d = A.to_dense().data
        assert d[0, 0, 1] == d[0, 1, 0] == d[1, 0, 0] == Fraction(1, 3)
        assert d[0, 0, 0] == 0

    def test_monomial_out_of_range_refused(self):
        with pytest.raises(ValueError, match=r"index triple \(0, 0, 5\) out of range for n=2"):
            Sym3Tensor.from_monomials(2, {(0, 0, 5): 1})


class TestTensorValidation:
    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            random_rational(1, 2, seed=0)
        with pytest.raises(ValueError):
            random_rational(9, 2, seed=0)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            random_rational(2, 7, seed=0)

    def test_shape_must_be_n_per_slot(self):
        with pytest.raises(ValueError, match=r"expected shape \(2, 2\), got \(2, 3\)"):
            Tensor(2, [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("data, entry", [
        ([[1, 2], [3]], r"\[1, 2\]"),  # a ragged list reads as an order-1 array of lists
        ([[0.5, 0], [0, 1]], "0.5"),
    ], ids=["ragged", "float"])
    def test_entries_must_be_exact(self, data, entry):
        with pytest.raises(ValueError, match=f"entry {entry} is not an integer or a Fraction"):
            Tensor(2, data)
