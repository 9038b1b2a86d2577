"""Tensor and span operations the package does not need, kept as test tools."""

import itertools
import math
from fractions import Fraction

import numpy as np

from hesslab import linalg, rng
from hesslab.tensor import Sym3Tensor, Tensor, signed_permutations, sym3_dim, sym3_triples


# by name, order-3 index keys that int() and str.split() would read as a
# sorted index of n = 3, yet are not ASCII digits one space apart
MALFORMED_INDEX_KEYS = {
    "underscore": "0_0 0 1", "plus": "+0 1 1", "minus": "-0 1 1",
    "arabic-indic-digit": "\u0661 1 1", "double-space": "0  1 1",
    "leading-space": " 0 1 1", "trailing-space": "0 1 1 ", "tab": "0\t1 1",
}

# an n = 3 sym3 document with 2,500-digit entries at every other sorted
# triple and "5" at the rest: its curvature has entries longer than the
# 4,300 digits Python converts between int and str by default
LONG_DIGITS_DOCUMENT = {"n": 3, "order": 3, "packing": "sym3", "entries": [
    [" ".join(map(str, ijk)), "7" * 2500 if i % 2 == 0 else "5"]
    for i, ijk in enumerate(sym3_triples(3))]}


def combine(*terms) -> Tensor:
    """sum c * T over the (c, T) terms, computed on the entries T.data.

    The tests' oracle for sums and multiples of tensors: it never reads an
    integer form, so it stays independent of the arithmetic it checks.
    """
    (_, first), *rest = terms
    if any(t.n != first.n or t.order != first.order for _, t in rest):
        raise ValueError("tensor shape mismatch")
    return Tensor(first.n, sum(c * t.data for c, t in terms))


def sym3_combine(*terms) -> Sym3Tensor:
    """sum c * A over the (c, A) terms, computed on the packed entries A.packed."""
    (_, first), *rest = terms
    if any(A.n != first.n for _, A in rest):
        raise ValueError("dimension mismatch")
    columns = zip(*(A.packed for _, A in terms))
    return Sym3Tensor(first.n, tuple(sum(c * x for (c, _), x in zip(terms, column))
                                     for column in columns))


def identity_spans(basis) -> tuple[linalg.RowSpace, linalg.RowSpace]:
    """Row spaces of a mined basis's image identities and universal identities."""
    cols = len(basis.patterns)
    return (linalg.RowSpace(cols, basis.image_identities),
            linalg.RowSpace(cols, basis.universal_identities))


def sym3_from_dense(t: Tensor) -> Sym3Tensor:
    """The packed form of a fully symmetric order-3 Tensor, read off its entries."""
    if t.order != 3:
        raise ValueError("expected an order-3 tensor")
    for idx in itertools.product(range(t.n), repeat=3):
        if t.data[idx] != t.data[tuple(sorted(idx))]:
            raise ValueError(f"tensor is not symmetric at index {idx}")
    return Sym3Tensor(t.n, tuple(t.data[ijk] for ijk in sym3_triples(t.n)))


def contract(t: Tensor, axis_a: int, axis_b: int) -> Tensor:
    """Trace over two slots (metric = identity, so this is g^{ab}-contraction)."""
    if axis_a == axis_b:
        raise ValueError("contraction axes must differ")
    for ax in (axis_a, axis_b):
        if not 0 <= ax < t.order:
            raise ValueError(f"axis {ax} out of range for order {t.order}")
    return Tensor(t.n, np.trace(t.data, axis1=axis_a, axis2=axis_b))


def symmetrize(t: Tensor, axes: list[int]) -> Tensor:
    """(1/|axes|!) sum of permutations over the listed slots."""
    total = 0
    for perm in itertools.permutations(axes):
        full = list(range(t.order))
        for ax, source in zip(axes, perm):
            full[ax] = source
        total = total + np.transpose(t.data, full)
    return Tensor(t.n, total * Fraction(1, math.factorial(len(axes))))


def random_rational(n: int, order: int, seed: int, bound: int = 10,
                    tag: str = "tensor") -> Tensor:
    """Seeded random tensor with i.i.d. uniform rational entries p/q.

    Entries are addressed by flat index, so the result is independent of
    evaluation order and identical across runs for fixed arguments.
    """
    full_tag = f"{tag}|{n}|{order}|{bound}"
    flat = [rng.rational_at(full_tag, seed, i, bound) for i in range(n ** order)]
    return Tensor(n, np.array(flat, dtype=object).reshape((n,) * order))


def sym3_basis(n: int) -> list[Sym3Tensor]:
    """The packed unit vectors, one per multiset index."""
    d = sym3_dim(n)
    return [Sym3Tensor(n, tuple(Fraction(int(i == m)) for i in range(d))) for m in range(d)]


def alternating_contraction_reference(data, terms) -> np.ndarray:
    """sum_s sign(s) T[q_s(1), ..., q_s(k)] at each sorted k-tuple q, T the sum
    of weight * einsum(spec, data, ..., data) over the (spec, weight) terms.

    Every product and sum runs in the entries' own number type, over the
    whole n**k array, before the sorted k-tuples are read.
    """
    n, k = data.shape[0], len(terms[0][0].split("->")[1])
    data = np.asarray(data, dtype=object)
    tuples = list(itertools.combinations(range(n), k))
    total = 0
    for spec, weight in terms:
        # a shared size-1 axis Z keeps every intermediate an array: numpy's pairwise
        # einsum fails on the bare scalar an object-dtype full contraction returns
        spec = spec.replace(",", "Z,").replace("->", "Z->") + "Z"
        raw = np.einsum(spec, *[data[..., None]] * (spec.count(",") + 1), optimize=True)
        values = [sum(sign * raw[tuple(q[p] for p in perm) + (0,)]
                      for perm, sign in signed_permutations(k)) for q in tuples]
        total = total + weight * np.array(values, dtype=object)
    return total


def integer_form_dtypes(monkeypatch, module) -> list:
    """Record the dtype of every integer_form result that module asks for."""
    seen = []
    original = module.integer_form

    def spy(*args):
        out = original(*args)
        seen.append(out[0].dtype)
        return out

    monkeypatch.setattr(module, "integer_form", spy)
    return seen
