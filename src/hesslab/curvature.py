"""Algebraic curvature tensors: symmetries, dimension, sampling, traces.

CurvTensor and RicciTensor are Tensors, held in its one integer form; each
adds only its check.  CurvTensor(tensor) checks the curvature symmetries and
RicciTensor(n, rows) the n x n shape and symmetry.  The producers whose
results hold them by construction (hessmap.rho_raw, materialize and so
random_curvature, ricci) build them from an integer form with from_integers,
unchecked; ricci traces R's integer form, so it forms no entry.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import rng
from .tensor import Tensor, check_dim, integer_form


def curvature_space_dim(n: int) -> int:
    """Dimension n^2(n^2-1)/12 of the space of algebraic curvature tensors."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return n * n * (n * n - 1) // 12


def cyclic_sum(t: Tensor) -> Tensor:
    """R_{ijkl} + R_{jkil} + R_{kijl}, the first-Bianchi cyclic sum."""
    if t.order != 4:
        raise ValueError("expected an order-4 tensor")
    X, D = integer_form(t, lambda M: 3 * M)
    return Tensor.from_integers(_cyclic(X), D)


def _cyclic(d: np.ndarray) -> np.ndarray:
    return d + d.transpose(2, 0, 1, 3) + d.transpose(1, 2, 0, 3)


def symmetry_failures(t: Tensor, limit: int = 1) -> list[tuple[str, tuple]]:
    """First `limit` violated curvature invariants as (name, index) pairs.

    The residuals are taken on integer_form(t), whose zeros are those of t:
    each residual entry sums at most three entries, so it is at most 3 M.
    """
    d = integer_form(t, lambda M: 3 * M)[0]
    checks = [
        ("pair_antisymmetry_first", d + d.transpose(1, 0, 2, 3)),
        ("pair_antisymmetry_second", d + d.transpose(0, 1, 3, 2)),
        ("pair_exchange", d - d.transpose(2, 3, 0, 1)),
        ("first_bianchi", _cyclic(d)),
    ]
    failures = []
    for name, resid in checks:
        for idx in zip(*np.nonzero(resid != 0)):
            failures.append((name, tuple(int(i) for i in idx)))
            break
        if len(failures) >= limit:
            break
    return failures


class CurvTensor(Tensor):
    """Order-4 tensor with all algebraic curvature symmetries.

    CurvTensor(tensor) checks the symmetries of a tensor from outside the
    package.  Producers whose output is curvature-symmetric by construction
    (rho_raw, materialize) build it with CurvTensor.from_integers, which
    skips the check.
    """

    __slots__ = ()

    def __init__(self, tensor: Tensor):
        if tensor.order != 4:
            raise ValueError("curvature tensors have order 4")
        bad = symmetry_failures(tensor)
        if bad:
            name, idx = bad[0]
            raise ValueError(f"invariant {name} fails at index {idx}")
        self._store(tensor.n, *tensor._int)


class RicciTensor(Tensor):
    """Symmetric n x n matrix of exact scalars."""

    __slots__ = ()

    def __init__(self, n: int, rows):
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("entries must form an n x n matrix")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")
        super().__init__(n, rows)

    @classmethod
    def from_rows(cls, rows) -> "RicciTensor":
        """RicciTensor(n, rows) of the entries read by Fraction: floats and strings exactly."""
        return cls(len(rows), [[Fraction(x) for x in r] for r in rows])

    def trace(self) -> Fraction:
        X, D = self._int
        return Fraction(sum(X.diagonal().tolist()), D)


def ricci(R: CurvTensor) -> RicciTensor:
    """r_{ik} = sum_a R_{iaka}, traced on the integer form X / D of R."""
    X, D = integer_form(R, lambda M: R.n * M)
    return RicciTensor.from_integers(np.trace(X, axis1=1, axis2=3), D)


def scalar_curvature(R: CurvTensor) -> Fraction:
    """s = sum_{ij} R_{ijij}."""
    return ricci(R).trace()


@lru_cache(maxsize=None)
def _bianchi_kernel(n: int):
    """Integer basis of the Bianchi kernel in pair-symmetric coordinates.

    Coordinate c[ij,kl], with i<j, k<l and (i,j) <= (k,l), is the dense
    entry R_ijkl.  On such a tensor the cyclic sum vanishes except at
    i<j<k<l, where it is c[ij,kl] - c[ik,jl] + c[il,jk].  Each such row
    has its least column ij|kl to itself and shares none of its three
    columns with another row, so the rows are their own reduced row
    echelon form, with pivot entries 1, and the kernel is written down
    with no elimination: one vector per free column (any column that is
    no ij|kl), 1 there and 0 at the other free columns, and at ij|kl +1
    for the free column ik|jl and -1 for il|jk.  A vector weighs the
    symmetric products e_ij e_kl + e_kl e_ij of 2-forms, so its diagonal
    coordinates c[ij,ij] count twice in R_ijij.  An ij|kl coordinate has
    two terms, so those with one are the free columns, in vector order.

    Returns, per coordinate, the (vector, integer value) pairs of the
    kernel that are nonzero there, and for every dense index the coordinate
    it reads: c, c + C for its negative (C coordinates), or 2C for zero.
    """
    check_dim(n)
    pairs = list(itertools.combinations(range(n), 2))
    slots = list(itertools.combinations_with_replacement(pairs, 2))
    bianchi = {((i, j), (k, l)): (((i, k), (j, l)), ((i, l), (j, k)))
               for i, j, k, l in itertools.combinations(range(n), 4)}
    free = {s: m for m, s in enumerate(s for s in slots if s not in bianchi)}
    if len(free) != curvature_space_dim(n):
        raise AssertionError("Bianchi-kernel dimension mismatch")
    terms = tuple(((free[bianchi[s][0]], 1), (free[bianchi[s][1]], -1)) if s in bianchi
                  else ((free[s], 2 if s[0] == s[1] else 1),) for s in slots)
    where = np.full((n,) * 4, 2 * len(slots), dtype=np.intp)
    for c, (ij, kl) in enumerate(slots):
        for (p, q), (r, t) in itertools.product((ij, ij[::-1]), (kl, kl[::-1])):
            where[p, q, r, t] = where[r, t, p, q] = c + len(slots) * ((p > q) != (r > t))
    where.flags.writeable = False  # shared by every caller
    return terms, where


def materialize(n: int, coeffs) -> CurvTensor:
    """sum_m coeffs[m] * curvature_basis(n)[m].

    The kernel vectors combine the coefficients, cleared once by the lcm L of
    their denominators, into integer pair coordinates of at most 2 max|c|, the
    bound that picks their dtype; one gather spreads them over the n**4 array.
    """
    terms, where = _bianchi_kernel(n)
    X, L = integer_form(coeffs, lambda M: 2 * M)
    c = X.tolist()  # the coordinate sums run on Python ints
    coords = np.array([sum(c[m] * v for m, v in t) for t in terms], dtype=X.dtype)
    return CurvTensor.from_integers(np.concatenate([coords, -coords, [0]])[where], L)


@lru_cache(maxsize=None)
def curvature_basis(n: int) -> tuple[CurvTensor, ...]:
    """Fixed basis of the curvature space: the Bianchi kernel."""
    dim = curvature_space_dim(n)
    return tuple(materialize(n, [int(m == k) for k in range(dim)])
                 for m in range(dim))


def random_curvature(n: int, seed: int, bound: int = 10) -> CurvTensor:
    """Random rational element of the span of the curvature basis."""
    check_dim(n)
    tag = f"curv|{n}|{bound}"
    return materialize(n, [rng.rational_at(tag, seed, i, bound)
                           for i in range(curvature_space_dim(n))])


@lru_cache(maxsize=None)
def _coordinate_data(n: int):
    """Flat dense positions and values that read off basis coordinates.

    Kernel vector m alone is nonzero at the m-th coordinate with one term, so
    curvature_basis(n)[m] alone is nonzero at that coordinate's dense index.
    """
    terms, where = _bianchi_kernel(n)
    cols, values = zip(*((c, t[0][1]) for c, t in enumerate(terms) if len(t) == 1))
    # where reads coordinate c with a plus sign at its first dense index
    first = np.unique(where.ravel(), return_index=True)[1]
    return first[list(cols)], np.array([Fraction(v) for v in values], dtype=object)


def coordinates(R: Tensor) -> list[Fraction]:
    """Coordinates of a curvature-symmetric tensor in curvature_basis(R.n).

    Only basis tensor i is nonzero at positions[i], so there R equals its
    coordinate i times values[i]: an exact gather from X / D, with no inverse.
    """
    positions, values = _coordinate_data(R.n)
    X, D = R._int
    return [Fraction(x, D) / v for x, v in zip(X.take(positions).tolist(), values)]
