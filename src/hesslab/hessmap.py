"""The quadratic map from packed symmetric 3-tensors to curvature tensors.

In the orthonormal frame,
    R_{ijkl} = - sum_a A_{ika} A_{jla} + sum_a A_{ila} A_{jka},
a quadratic equivariant map whose exact Jacobian rank measures the
dimension of its image.  The map and its Jacobian (the derivative of a
quadratic map is bilinear) run on the integer form A stores: its dense
entries cleared by the lcm of their denominators.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import linalg, rng
from .curvature import (CurvTensor, RicciTensor, _coordinate_data,
                        curvature_space_dim, ricci)
from .tensor import Sym3Tensor, integer_form, sym3_dim, sym3_index


def rho_raw(A: Sym3Tensor) -> CurvTensor:
    """The map, built unchecked: its result is curvature-symmetric by construction.

    It runs on L A, with L the lcm of A's denominators: each entry of the
    einsum is at most n M**2 in size for M = max|L A|, the difference
    twice that.  The tensor is held as that integer array over L**2; its
    entries are formed only if they are read.
    """
    a, L = integer_form(A, lambda M: 2 * A.n * M * M)
    t = np.einsum("ika,jla->ijkl", a, a)
    return CurvTensor.from_integers(t.transpose(0, 1, 3, 2) - t, L * L)


def rho(A: Sym3Tensor) -> CurvTensor:
    """Curvature tensor induced by a symmetric 3-tensor (exact): rho_raw(A)."""
    return rho_raw(A)


def rho2(A: Sym3Tensor) -> RicciTensor:
    """Ricci contraction of rho(A)."""
    return ricci(rho(A))


def _integer_jacobian(A: Sym3Tensor) -> tuple[np.ndarray, int]:
    """(X, L) with L the lcm of A's denominators and X[c, m] = L * values[c] * J[c][m].

    J is rho_jacobian(A) and values the dense basis entries of
    _coordinate_data.  Column m is the derivative along the m-th packed
    unit vector B, read at coordinate c's dense position ijkl:
        -(A_ika B_jla + B_ika A_jla) + (A_ila B_jka + B_ila A_jka), summed over a.
    B_rsa is 1 exactly where sym3_index(n)[r, s, a] == m, so each product
    adds A's entry into that column.  Each entry is at most 4 n max|L A| in
    size; below 2**62 the build runs in int64, otherwise in Python ints.
    """
    n = A.n
    a, L = integer_form(A, lambda M: 4 * n * M)
    index = sym3_index(n)
    pos = _coordinate_data(n)[0]
    i, j, k, l = np.unravel_index(pos, (n,) * 4)
    rows = np.arange(len(pos))[:, None]
    X = np.zeros((len(pos), sym3_dim(n)), dtype=a.dtype)
    for sign, (p, q, r, s) in ((1, (i, l, j, k)), (-1, (i, k, j, l))):
        np.add.at(X, (rows, index[r, s]), sign * a[p, q])
        np.add.at(X, (rows, index[p, q]), sign * a[r, s])
    return X, L


def rho_jacobian(A: Sym3Tensor) -> list[list[Fraction]]:
    """Exact derivative matrix of rho at A.

    Rows are coordinates in the fixed curvature basis, columns the packed
    symmetric basis.
    """
    X, L = _integer_jacobian(A)
    values = _coordinate_data(A.n)[1]
    return (X.astype(object) / (L * values[:, None])).tolist()


@dataclass
class ImageRankReport:
    n: int
    dim_s3: int
    dim_curv: int
    ranks: list[int]
    max_rank: int
    codim: int
    samples: int
    seed: int
    bound: int
    max_rank_fraction: float
    # generic-rank protocol: flag if under 80% of samples reach the max
    degenerate_flag: bool

    def to_json(self) -> dict:
        return asdict(self)


def image_rank_census(n: int, samples: int, seed: int,
                      bound: int = 10) -> ImageRankReport:
    """Exact Jacobian ranks of rho at random rational points.

    The maximum over samples estimates the generic image dimension; per-sample
    seeds are derived from (seed, sample index) so the loop order is
    irrelevant.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim_s3, dim_curv = sym3_dim(n), curvature_space_dim(n)
    ranks = [linalg.rank(_integer_jacobian(Sym3Tensor.random(n, seed=rng.sample_seed(seed, i),
                                                             bound=bound))[0])
             for i in range(samples)]
    max_rank = max(ranks)
    fraction = ranks.count(max_rank) / samples
    return ImageRankReport(n, dim_s3, dim_curv, ranks, max_rank, dim_curv - max_rank,
                           samples, seed, bound, fraction, fraction < 0.8)
