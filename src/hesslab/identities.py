"""Exact verification of curvature identities satisfied on the image of rho.

All free indices are kept as tensor slots; an identity "vanishes" when
every component is the exact rational zero.  Index placement follows the
orthonormal frame, so upper and lower positions coincide; the slot maps
for the cubic identity are pinned here once and cross-checked by the
dimension-4 vanishing tests.  Each form is a weighted list of einsum specs
for tensor.alternating_contraction, which works at sorted index tuples only
and contracts the integer form of R: the lcm of R's denominators times R,
in int64 under a checked overflow bound, so that only those values become
Fractions.
"""

from __future__ import annotations

from .curvature import CurvTensor, cyclic_sum
from .tensor import (MAX_ORDER, Tensor, alternating_contraction, alternating_tensor,
                     antisymmetrized)


def _require_min_dim(R: CurvTensor, k: int) -> None:
    if R.n < k:
        raise ValueError(
            f"a degree-{k} antisymmetric form is identically zero for n={R.n} < {k}")


def pontryagin_quadratic(R: CurvTensor) -> Tensor:
    """Antisymmetrization over (i,j,k,l) of sum_{ab} R_{ijab} R_{klba}."""
    _require_min_dim(R, 4)
    return antisymmetrized(R.n, R.tensor, [("ijab,klba->ijkl", 1)])


def cubic_identity(R: CurvTensor) -> Tensor:
    """Antisymmetrization of the two triple-contraction patterns, weights (1, -2).

    Slot maps (all indices lowered): term1 = R_{iajb} R_{kbcd} R_{ldac},
    term2 = R_{iajb} R_{kcad} R_{ldbc}.
    """
    _require_min_dim(R, 4)
    return antisymmetrized(R.n, R.tensor, [("iajb,kbcd,ldac->ijkl", 1),
                                           ("iajb,kcad,ldbc->ijkl", -2)])


def pontryagin_form(R: CurvTensor, p: int) -> Tensor:
    """The order-2p alternating cyclic contraction of p curvature factors.

    Equals sum over permutations of the 2p free indices, with sign, of
    R_{i1 i2 a1 a2} R_{i3 i4 a2 a3} ... R_{i(2p-1) i(2p) ap a1} (the naive
    (2p)!-term sum is kept in the tests as an oracle for p=2).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if 2 * p > MAX_ORDER:
        raise ValueError(f"form degree 2p={2 * p} exceeds the maximum order {MAX_ORDER}")
    if 2 * p > R.n:
        raise ValueError(f"form degree 2p={2 * p} exceeds dimension n={R.n}")
    free, inner = "ijklmn", "abc"
    factors = [free[2 * f:2 * f + 2] + inner[f] + inner[(f + 1) % p] for f in range(p)]
    spec = ",".join(factors) + "->" + free[:2 * p]
    return alternating_tensor(R.n, 2 * p, alternating_contraction(R.tensor, [(spec, 1)]))


def bianchi_residual(R: Tensor) -> Tensor:
    """First-Bianchi cyclic sum of a raw order-4 tensor."""
    return cyclic_sum(R)
