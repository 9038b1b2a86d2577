"""The quadratic map from packed symmetric 3-tensors to curvature tensors.

In the orthonormal frame,
    R_{ijkl} = - sum_a A_{ika} A_{jla} + sum_a A_{ila} A_{jka},
a quadratic equivariant map whose exact Jacobian rank measures the
dimension of its image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .curvature import (CurvTensor, RicciTensor, coordinates,
                        curvature_space_dim, ricci)
from .tensor import Sym3Tensor, Tensor, sym3_basis, sym3_dim


def rho_raw(A: Sym3Tensor) -> Tensor:
    """The map as a raw order-4 tensor, before invariant validation."""
    a = A.to_dense().data
    t = np.einsum("ika,jla->ijkl", a, a)
    return Tensor(A.n, t.transpose(0, 1, 3, 2) - t)


def rho(A: Sym3Tensor) -> CurvTensor:
    """Curvature tensor induced by a symmetric 3-tensor (exact)."""
    return CurvTensor(rho_raw(A))


def rho2(A: Sym3Tensor) -> RicciTensor:
    """Ricci contraction of rho(A)."""
    return ricci(rho(A))


def rho_jacobian(A: Sym3Tensor) -> list[list[Fraction]]:
    """Exact derivative matrix of rho at A.

    Rows are coordinates in the fixed curvature basis, columns the packed
    symmetric basis.  Since rho is quadratic, the directional derivative is
    the polarization rho(A+B) - rho(A) - rho(B), exact on basis vectors B.
    """
    base = rho_raw(A)
    cols = []
    for B in sym3_basis(A.n):
        d = rho_raw(A + B) - base - rho_raw(B)
        cols.append(coordinates(d))
    return [list(row) for row in zip(*cols)]


@dataclass
class ImageRankReport:
    n: int
    dim_s3: int
    dim_curv: int
    ranks: list[int] = field(default_factory=list)
    seed: int = 0
    samples: int = 0
    bound: int = 10

    @property
    def max_rank(self) -> int:
        return max(self.ranks) if self.ranks else 0

    @property
    def codim(self) -> int:
        return self.dim_curv - self.max_rank

    @property
    def max_rank_fraction(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r == self.max_rank for r in self.ranks) / len(self.ranks)

    @property
    def degenerate_flag(self) -> bool:
        # generic-rank protocol: flag if under 80% of samples reach the max
        return self.max_rank_fraction < 0.8

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim_s3": self.dim_s3,
            "dim_curv": self.dim_curv,
            "ranks": self.ranks,
            "max_rank": self.max_rank,
            "codim": self.codim,
            "samples": self.samples,
            "seed": self.seed,
            "bound": self.bound,
            "max_rank_fraction": self.max_rank_fraction,
            "degenerate_flag": self.degenerate_flag,
        }


def image_rank_census(n: int, samples: int, seed: int,
                      bound: int = 10) -> ImageRankReport:
    """Exact Jacobian ranks of rho at random rational points.

    The maximum over samples estimates the generic image dimension; per-sample
    seeds are derived from (seed, sample index) so the loop order is
    irrelevant.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = ImageRankReport(n=n, dim_s3=sym3_dim(n),
                             dim_curv=curvature_space_dim(n),
                             seed=seed, samples=samples, bound=bound)
    for i in range(samples):
        A = Sym3Tensor.random(n, seed=seed * 1_000_003 + i, bound=bound)
        report.ranks.append(linalg.rank(rho_jacobian(A)))
    return report
