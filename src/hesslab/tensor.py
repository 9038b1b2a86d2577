"""Dense tensor arithmetic in a fixed orthonormal frame.

The frame is orthonormal, so the metric is the identity and every trace is
a plain contraction of two slots.

Arithmetic runs on integers, not on ``Fraction`` entries.  Every Tensor
holds its integer form: an integer array X and one denominator D, the tensor
being X / D, reduced by their gcd.  _clear is the one reader of a caller's
numbers, here and in linalg: it reads them with dtype=object, so numpy
guesses no dtype, refuses all but ints and Fractions, and clears them by
their lcm.  Tensor(n, data) and Sym3Tensor(n, packed) clear their entries
once; rho_raw, materialize, cyclic_sum and miner.alternating_form build X
directly; the entries are made only if ``data`` is read.  integer_form hands
the form over and alone picks int64, where the caller's a-priori bound rules
out overflow.  The one evaluator, alternating_rows, runs a list of einsum
specs on a batch of samples: their integer forms are stacked, each pairwise
step of a spec's plan is one np.matmul over the sample axis, a first step
that specs share up to renaming of letters runs once, and each spec is read
at the sorted index tuples as soon as it is done.  Its rows stay integers,
D**deg times a sample's values: miner.alternating_form weighs them over one
denominator and scatters them into an antisymmetric Tensor.

A Tensor, a Sym3Tensor too, has no +, - or scalar multiple, which
nothing in the package needs; antisymmetrize is the one function left
that computes on ``data``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import rng

MAX_DIM = 8
MAX_ORDER = 6


def check_dim(n: int) -> None:
    """Refuse a dimension outside [2, MAX_DIM], before anything of its size is made."""
    if not 2 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {n}")


@lru_cache(maxsize=None)
def signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(perm, sign) for every permutation of range(k), in itertools order."""
    return tuple((perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
                 for perm in itertools.permutations(range(k)))


class Tensor:
    """Dense order-k tensor on an n-dimensional space, held as its integer form."""

    __slots__ = ("n", "order", "_data", "_int")

    def __init__(self, n: int, data):
        check_dim(n)
        arr = np.asarray(data, dtype=object)
        if arr.ndim > MAX_ORDER:
            raise ValueError(f"order must be <= {MAX_ORDER}, got {arr.ndim}")
        if arr.shape != (n,) * arr.ndim:
            raise ValueError(f"expected shape {(n,) * arr.ndim}, got {arr.shape}")
        self._store(n, *_clear(arr))

    @classmethod
    def from_integers(cls, X: np.ndarray, D: int) -> "Tensor":
        """X / D."""
        t = cls.__new__(cls)
        t._store(X.shape[0], X, D)
        return t

    def _store(self, n: int, X: np.ndarray, D: int) -> None:
        """Hold X and D over their gcd: D is the lcm of the denominators."""
        g = math.gcd(D, int(np.gcd.reduce(X, axis=None)))
        if g > 1:
            X, D = X // g, D // g
        X.flags.writeable = False
        self.n, self.order, self._data, self._int = n, X.ndim, None, (X, D)

    @property
    def data(self) -> np.ndarray:
        """The read-only object array of entries, built on first read."""
        if self._data is None:
            self._data = _entries(*self._int)
        return self._data

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor) and self.n == other.n
                and self.order == other.order and self._int[1] == other._int[1]
                and np.array_equal(self._int[0], other._int[0]))

    def __hash__(self):
        return hash((self.n, self.order, self._int[1], tuple(self._int[0].ravel().tolist())))

    def __getitem__(self, idx):
        return self.data[idx]

    def is_zero(self) -> bool:
        return not self._int[0].any()

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, order={self.order})"


def antisymmetrize(t: Tensor, axes: list[int]) -> Tensor:
    """(1/|axes|!) sum of signed permutations over the listed slots."""
    axes = list(axes)
    if len(set(axes)) != len(axes):
        raise ValueError("axes must be distinct")
    for ax in axes:
        if not 0 <= ax < t.order:
            raise ValueError(f"axis {ax} out of range for order {t.order}")
    total = np.zeros_like(t.data)
    for perm, sign in signed_permutations(len(axes)):
        full = list(range(t.order))
        for i, ax in enumerate(axes):
            full[ax] = axes[perm[i]]
        term = np.transpose(t.data, full)
        total = total - term if sign < 0 else total + term
    return Tensor(t.n, total * Fraction(1, math.factorial(len(axes))))


def _entries(X: np.ndarray, D: int) -> np.ndarray:
    """X / D in Fractions, read-only; zeros share one object."""
    zero = Fraction(0)
    flat = [Fraction(v, D) if v else zero for v in X.ravel().tolist()]
    arr = np.array(flat, dtype=object).reshape(X.shape)
    arr.flags.writeable = False
    return arr


def _clear(data) -> tuple[np.ndarray, int]:
    """(X, D) of integer_form for the entries of data, in a new array."""
    a = np.asarray(data, dtype=object)
    flat = a.ravel().tolist()
    for x in [x for x in flat if not hasattr(x, "denominator")]:
        raise ValueError(f"entry {x!r} is not an integer or a Fraction")
    D = math.lcm(*(x.denominator for x in flat))
    X = np.array([int(x.numerator) * (D // x.denominator) for x in flat], dtype=object)
    return X.reshape(a.shape), D


def integer_form(data, bound) -> tuple[np.ndarray, int]:
    """(X, D): X = D * data in integers, D the lcm of data's denominators.

    A Tensor hands over its stored form; an array, list or tuple is read by
    _clear.  bound(M) is the caller's a-priori limit on every intermediate
    its integer arithmetic on X forms, given M = max|X|.  X is int64 when
    bound(M) < 2**62 and holds Python ints otherwise.
    """
    X, D = data._int if isinstance(data, Tensor) else _clear(data)
    M = max(int(X.max(initial=0)), -int(X.min(initial=0)))
    return X.astype(np.int64 if bound(M) < 2**62 else object, copy=False), D


@lru_cache(maxsize=None)
def _alternating_index(n: int, k: int):
    """at[t][r, s] = slot t of sorted k-tuple r under permutation s; their signs."""
    perms = signed_permutations(k)
    tuples = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    at = np.moveaxis(tuples[:, [perm for perm, _ in perms]], -1, 0)
    signs = np.array([sign for _, sign in perms], dtype=object)
    at.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return tuple(at), signs


@lru_cache(maxsize=None)
def _einsum_steps(spec: str) -> tuple[tuple[tuple[int, ...], tuple | str, str | None], ...]:
    """The pairwise plan of spec by numpy's greedy rule, made once for every dimension.

    Each step contracts the candidate pair of least _greedy_key at
    n = MAX_DIM, the earliest candidate on a tie.  The candidates are the
    pairs of operands that share a letter, in the order they arise: the
    pairs of inputs, then each contraction with the operands before it.
    When there is none, every pair of the operands is one, and stays one
    while both its operands live.  No memory limit applies, so every step
    has two operands; np.einsum_path is not called, so the plan does not
    depend on the installed numpy.  Each step is (pos, plan, key): it pops
    the operands at positions pos and appends their contraction, which
    keeps every letter a later step or the output still needs.  plan is
    how _step runs it: _matmul_plan's for two operands, an einsum spec for
    the one operand of a degree-1 spec.  A step whose operands are all
    inputs carries a key, its spec with the letters renamed in order of
    first appearance: steps with equal keys compute the same array.
    """
    inputs, output = spec.split("->")
    if "," not in inputs:
        return (((0,), f"...{inputs}->...{output}", _renamed(spec)),)
    subs = dict(enumerate(inputs.split(",")))  # operand id -> letters, in position order
    m = len(subs)
    fresh, candidates, steps = itertools.combinations(subs, 2), {}, []
    for new in range(m, 2 * m - 1):  # the id of each step's contraction
        candidates.update((pair, _greedy_key(subs, pair, output)) for pair in fresh
                          if set(subs[pair[0]]) & set(subs[pair[1]]))
        candidates = candidates or {pair: _greedy_key(subs, pair, output)
                                    for pair in itertools.combinations(subs, 2)}
        x, y = min(candidates, key=candidates.get)  # x before y
        candidates = {pair: c for pair, c in candidates.items() if x not in pair and y not in pair}
        pos = (list(subs).index(y), list(subs).index(x))
        taken = [subs.pop(y), subs.pop(x)]
        keep = set("".join(subs.values()) + output)
        out = "".join(dict.fromkeys(c for c in "".join(taken) if c in keep)) if subs else output
        key = _renamed(f"{taken[0]},{taken[1]}->{out}") if y < m else None
        steps.append((pos, _matmul_plan(*taken, out), key))
        fresh = [(i, new) for i in subs]
        subs[new] = out
    return tuple(steps)


def _greedy_key(subs: dict, pair: tuple, output: str) -> tuple[int, int]:
    """numpy's greedy key of contracting the pair at n = MAX_DIM: the
    negated removed size (the operands' sizes less the result's, each
    letter counted once) and the flop cost (the size of all their letters,
    doubled if a letter is summed)."""
    a, b = set(subs[pair[0]]), set(subs[pair[1]])
    keep = set(output).union(*(s for i, s in subs.items() if i not in pair))
    both, out = len(a | b), len((a | b) & keep)
    n = MAX_DIM
    return n**out - n**len(a) - n**len(b), n**both * (2 if out < both else 1)


def _renamed(spec: str) -> str:
    """spec with its letters renamed in order of first appearance."""
    names: dict = {}
    return "".join(names.setdefault(c, chr(97 + len(names))) if c.isalpha() else c
                   for c in spec)


def _matmul_plan(a: str, b: str, out: str):
    """How _step runs the step a,b->out as one np.matmul per sample.

    A letter of both operands and the output is a matmul batch axis, one of
    both operands only is summed by the matmul, and the other output
    letters are the rows of the first operand and the columns of the
    second.  Returns, per operand, the einsum spec that arranges it as
    batch, rows, summed or batch, summed, columns; the sizes of the four
    letter groups; and the transpose of the product onto the output letters.
    """
    batch = [c for c in out if c in a and c in b]
    rows = [c for c in dict.fromkeys(a) if c in out and c not in b]
    cols = [c for c in dict.fromkeys(b) if c in out and c not in a]
    summed = [c for c in dict.fromkeys(a) if c in b and c not in out]
    product = batch + rows + cols
    return (f"...{a}->...{''.join(batch + rows + summed)}",
            f"...{b}->...{''.join(batch + summed + cols)}",
            (len(batch), len(rows), len(summed), len(cols)),
            (0,) + tuple(1 + product.index(c) for c in out))


def _step(plan, operands: list, n: int) -> np.ndarray:
    """One step of a plan on operands that carry a leading sample axis.

    Each of two operands is arranged by np.einsum, a view unless a letter
    is repeated or summed inside it, reshaped and multiplied by np.matmul
    over the sample axis; the product is transposed onto the output letters
    as a view.  One operand is contracted by np.einsum alone.
    """
    if len(operands) == 1:
        return np.einsum(plan, operands[0])
    spec_a, spec_b, (nb, nr, ns, nc), back = plan
    a, b = np.einsum(spec_a, operands[0]), np.einsum(spec_b, operands[1])
    S = len(a)
    product = np.matmul(a.reshape(S, n**nb, n**nr, n**ns), b.reshape(S, n**nb, n**ns, n**nc))
    return product.reshape((S,) + (n,) * (nb + nr + nc)).transpose(back)


def _contract(steps, X: np.ndarray, deg: int, shared: dict) -> np.ndarray:
    """einsum of deg copies of each sample of X along the steps of its plan.

    shared maps the key of a step on the inputs to [result, uses left]:
    the result is computed at its first use and dropped after its last.
    """
    n = X.shape[-1]
    operands = [X] * deg
    for pos, plan, key in steps:
        taken = [operands.pop(p) for p in pos]
        if key is None:
            operands.append(_step(plan, taken, n))
            continue
        entry = shared[key]
        if entry[0] is None:
            entry[0] = _step(plan, taken, n)
        entry[1] -= 1
        operands.append(entry[0] if entry[1] else shared.pop(key)[0])
    return operands[0]


@lru_cache(maxsize=None)
def _term_size(spec: str) -> tuple[int, int]:
    """(factors, contracted letters) of an einsum spec."""
    inputs, output = spec.split("->")
    return inputs.count(",") + 1, len(set(inputs) - set(output) - {","})


def alternating_rows(batch, specs) -> np.ndarray:
    """Row [b, r]: sum_s sign(s) T[q_s(1), ..., q_s(k)] at each sorted k-tuple q,
    T = einsum(specs[r], X, ..., X) on the sample X = batch[b].

    batch is a list of Tensors or arrays of one dimension n, and every spec
    has k free slots.  No 1/k! factor.  Returns a (len(batch), len(specs),
    C(n, k)) object array of Python ints: X is a sample's integer form,
    X = D * sample, so a row of degree deg is D**deg times the sample's
    values (the values themselves for an integer sample, D = 1).

    The samples' integer forms are stacked, so each pairwise step runs once
    for the batch, and a step on the inputs that several specs share up to
    renaming runs once.  With M the largest |X| in the batch, a spec of
    degree deg with s contracted letters forms intermediates of at most
    n**s * M**deg: the batch is contracted in int64 when that is below
    2**62 for every spec and in Python ints otherwise.  The signed sum over
    k! permutations is k! times as large, so a spec's values at the sorted
    tuples become Python ints before it where that reaches 2**62.
    """
    n = batch[0].n if isinstance(batch[0], Tensor) else len(batch[0])
    k = len(specs[0].split("->")[1])
    sizes = [_term_size(spec) for spec in specs]
    terms = set(sizes)
    X = np.stack([integer_form(data, lambda M: max(n**s * M**deg for deg, s in terms))[0]
                  for data in batch])
    M = max(int(X.max()), -int(X.min())) if X.dtype == np.int64 else None
    at, signs = _alternating_index(n, k)
    plans = [_einsum_steps(spec) for spec in specs]
    shared = {}
    for key in (key for steps in plans for _, _, key in steps if key):
        shared.setdefault(key, [None, 0])[1] += 1
    rows = []
    for steps, (deg, s) in zip(plans, sizes):
        # gathered per spec, so no (batch, specs, n**k) array is ever stacked
        values = _contract(steps, X, deg, shared)[(slice(None),) + at]
        if M is not None and math.factorial(k) * n**s * M**deg >= 2**62:
            values = values.astype(object)
        rows.append(values @ signs.astype(values.dtype))
    return np.stack(rows, axis=1).astype(object)


# --- packed fully symmetric order-3 storage -------------------------------

def sym3_dim(n: int) -> int:
    """dim S^3 of an n-dimensional space: C(n+2, 3) = n(n+1)(n+2)/6."""
    return math.comb(n + 2, 3)


def sym3_triples(n: int) -> list[tuple[int, int, int]]:
    """Sorted multisets i <= j <= k in lexicographic order."""
    return [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]


@lru_cache(maxsize=None)
def sym3_index(n: int) -> np.ndarray:
    """index[i, j, k] = position of the multiset {i, j, k} in sym3_triples(n)."""
    index = np.empty((n,) * 3, dtype=np.intp)
    for m, ijk in enumerate(sym3_triples(n)):
        for p in itertools.permutations(ijk):
            index[p] = m
    index.flags.writeable = False  # shared by every caller
    return index


class Sym3Tensor(Tensor):
    """Fully symmetric order-3 tensor, built from its packed multiset entries.

    Sym3Tensor(n, packed) checks n and the number of entries, clears them
    once and stores their dense gather over sym3_index(n).  It is a Tensor:
    equal to, and hashing like, any Tensor with the same entries.
    """

    __slots__ = ()

    def __init__(self, n: int, packed):
        check_dim(n)
        if len(packed) != sym3_dim(n):
            raise ValueError(f"expected {sym3_dim(n)} packed entries, got {len(packed)}")
        X, D = _clear(packed)
        self._store(n, X[sym3_index(n)], D)

    @property
    def packed(self) -> tuple:
        """The entries at sym3_triples(n)."""
        return tuple(self.data[ijk] for ijk in sym3_triples(self.n))

    @classmethod
    def from_monomials(cls, n: int, coeffs: dict) -> "Sym3Tensor":
        """Build from cubic-monomial coefficients.

        A coefficient c on the monomial e_i e_j e_k (as a cubic polynomial
        in the frame covectors) contributes c / (#distinct permutations of
        ijk) to each dense component, i.e. the symmetrized-product
        convention.
        """
        check_dim(n)
        triples = sym3_triples(n)
        vals = {t: Fraction(0) for t in triples}
        for ijk, c in coeffs.items():
            key = tuple(sorted(ijk))
            if key not in vals:
                raise ValueError(f"index triple {ijk} out of range for n={n}")
            mult = len(set(itertools.permutations(key)))
            vals[key] += Fraction(c) / mult
        return cls(n, tuple(vals[t] for t in triples))

    @classmethod
    def random(cls, n: int, seed: int, bound: int = 10) -> "Sym3Tensor":
        check_dim(n)
        tag = f"sym3|{n}|{bound}"
        return cls(n, rng.rationals(tag, seed, range(sym3_dim(n)), bound))

    def to_dense(self) -> Tensor:
        """The same entries as a plain Tensor."""
        return Tensor.from_integers(*self._int)
