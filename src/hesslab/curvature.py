"""Algebraic curvature tensors: symmetries, dimension, sampling, traces."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg, rng
from .tensor import Tensor


def curvature_space_dim(n: int) -> int:
    """Dimension n^2(n^2-1)/12 of the space of algebraic curvature tensors."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return n * n * (n * n - 1) // 12


def cyclic_sum(t: Tensor) -> Tensor:
    """R_{ijkl} + R_{jkil} + R_{kijl}, the first-Bianchi cyclic sum."""
    if t.order != 4:
        raise ValueError("expected an order-4 tensor")
    d = t.data
    return Tensor(t.n, d + d.transpose(2, 0, 1, 3) + d.transpose(1, 2, 0, 3))


def symmetry_failures(t: Tensor, limit: int = 1) -> list[tuple[str, tuple]]:
    """First `limit` violated curvature invariants as (name, index) pairs."""
    d = t.data
    checks = [
        ("pair_antisymmetry_first", d + d.transpose(1, 0, 2, 3)),
        ("pair_antisymmetry_second", d + d.transpose(0, 1, 3, 2)),
        ("pair_exchange", d - d.transpose(2, 3, 0, 1)),
        ("first_bianchi", cyclic_sum(t).data),
    ]
    failures = []
    for name, resid in checks:
        for idx in zip(*np.nonzero(resid != 0)):
            failures.append((name, tuple(int(i) for i in idx)))
            break
        if len(failures) >= limit:
            break
    return failures


class CurvTensor:
    """Order-4 tensor with all algebraic curvature symmetries, checked eagerly."""

    __slots__ = ("n", "tensor")

    def __init__(self, tensor: Tensor):
        if tensor.order != 4:
            raise ValueError("curvature tensors have order 4")
        bad = symmetry_failures(tensor)
        if bad:
            name, idx = bad[0]
            raise ValueError(f"invariant {name} fails at index {idx}")
        self.n = tensor.n
        self.tensor = tensor

    @property
    def data(self):
        return self.tensor.data

    def __eq__(self, other):
        return isinstance(other, CurvTensor) and self.tensor == other.tensor

    def __repr__(self):
        return f"CurvTensor(n={self.n})"


@dataclass(frozen=True)
class RicciTensor:
    """Symmetric n x n matrix of exact scalars."""

    n: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n x n matrix")
        for i in range(self.n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows) -> "RicciTensor":
        return cls(len(rows), tuple(tuple(Fraction(x) for x in r) for r in rows))

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def trace(self):
        return sum(self.entries[i][i] for i in range(self.n))


def ricci(R: CurvTensor) -> RicciTensor:
    """r_{ik} = sum_a R_{iaka}."""
    m = np.trace(R.data, axis1=1, axis2=3)
    return RicciTensor.from_rows(m.tolist())


def scalar_curvature(R: CurvTensor):
    """s = sum_{ij} R_{ijij}."""
    return ricci(R).trace()


@lru_cache(maxsize=None)
def curvature_basis(n: int) -> tuple[Tensor, ...]:
    """Fixed basis of the Bianchi kernel inside pair-symmetric Lambda^2 (x) Lambda^2.

    Built once per dimension by exact nullspace of the cyclic-sum operator;
    the result has exactly curvature_space_dim(n) elements.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sym_index = [(a, b) for a in range(len(pairs)) for b in range(a, len(pairs))]

    def materialize(coords) -> Tensor:
        arr = np.full((n,) * 4, Fraction(0), dtype=object)
        for c, (a, b) in zip(coords, sym_index):
            if c == 0:
                continue
            (i, j), (k, l) = pairs[a], pairs[b]
            for (p, q), s1 in (((i, j), 1), ((j, i), -1)):
                for (r, t), s2 in (((k, l), 1), ((l, k), -1)):
                    arr[p, q, r, t] += s1 * s2 * c
                    arr[r, t, p, q] += s1 * s2 * c
        return Tensor(n, arr)

    quads = list(itertools.combinations(range(n), 4))
    rows = []
    for m, _ in enumerate(sym_index):
        coords = [Fraction(0)] * len(sym_index)
        coords[m] = Fraction(1)
        b = cyclic_sum(materialize(coords))
        rows.append([b.data[q] for q in quads])
    # the operator's rows are the columns collected above
    kernel = linalg.nullspace(list(zip(*rows)), cols=len(sym_index))
    basis = tuple(materialize(v) for v in kernel)
    if len(basis) != curvature_space_dim(n):
        raise AssertionError("Bianchi-kernel dimension mismatch")
    return basis


def random_curvature(n: int, seed: int, bound: int = 10,
                     tag: str = "curv") -> CurvTensor:
    """Random rational element of the span of the curvature basis."""
    basis = curvature_basis(n)
    full_tag = f"{tag}|{n}|{bound}"
    acc = np.full((n,) * 4, Fraction(0), dtype=object)
    for i, b in enumerate(basis):
        c = rng.rational_at(full_tag, seed, i, bound)
        if c != 0:
            acc = acc + b.data * c
    return CurvTensor(Tensor(n, acc))


@lru_cache(maxsize=None)
def _coordinate_data(n: int):
    """Flat dense positions and values that read off basis coordinates.

    Each curvature_basis(n) tensor comes from a nullspace vector that is 1
    at its own free column and 0 at the other free columns, so it is the
    only basis tensor nonzero at that column's dense index.  The scan takes
    the first such lone nonzero of each basis tensor, and fails if one has
    none: the positions are checked, not assumed.
    """
    stacked = np.array([b.data.ravel() for b in curvature_basis(n)])
    nonzero = stacked != 0
    lone = nonzero & (nonzero.sum(axis=0) == 1)
    if not lone.any(axis=1).all():
        raise AssertionError("a curvature basis tensor has no lone nonzero entry")
    positions = lone.argmax(axis=1)
    return positions, stacked[np.arange(len(positions)), positions]


def coordinates(R: Tensor) -> list[Fraction]:
    """Coordinates of a curvature-symmetric tensor in curvature_basis(R.n).

    Only basis tensor i is nonzero at positions[i], so there R equals its
    coordinate i times values[i]: an exact gather, with no inverse.
    """
    positions, values = _coordinate_data(R.n)
    return list(R.data.take(positions) / values)
