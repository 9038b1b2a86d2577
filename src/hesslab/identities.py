"""Exact verification of curvature identities satisfied on the image of rho.

All free indices are kept as tensor slots; an identity "vanishes" when
every component is the exact rational zero.  Index placement follows the
orthonormal frame, so upper and lower positions coincide.  Each form is a
weighted list of the miner's slot tuples for miner.alternating_form, which
contracts the integer form of R at sorted index tuples only and keeps
integers until it stores the form's own.  The module builds no slot tuple
itself: tr Omega^p is miner.trace_pattern(p), the degree-2 identity
trace_pattern(2) and the degree-3 one miner.cubic_identity_combination, the
last two with the antisymmetrizer's 1/4! in their weights.
R is a CurvTensor, itself a Tensor, so its integer form is contracted with
no unwrapping; a plain order-4 Tensor with the curvature symmetries is
accepted the same way.
"""

from __future__ import annotations

from fractions import Fraction

from .curvature import CurvTensor, cyclic_sum
from .miner import alternating_form, cubic_identity_combination, trace_pattern
from .tensor import MAX_ORDER, Tensor


def pontryagin_quadratic(R: CurvTensor) -> Tensor:
    """Antisymmetrization over (i,j,k,l) of sum_{ab} R_{ijab} R_{klba}."""
    return alternating_form(R, [(trace_pattern(2), Fraction(1, 24))])


def cubic_identity(R: CurvTensor) -> Tensor:
    """Antisymmetrization of the two triple-contraction patterns, weights (1, -2).

    Slot maps (all indices lowered): term1 = R_{iajb} R_{kbcd} R_{ldac},
    term2 = R_{iajb} R_{kcad} R_{ldbc}.
    """
    return alternating_form(R, [(slots, weight / 24)
                                for slots, weight in cubic_identity_combination()])


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
    return alternating_form(R, [(trace_pattern(p), 1)])


def bianchi_residual(R: Tensor) -> Tensor:
    """First-Bianchi cyclic sum of a raw order-4 tensor."""
    return cyclic_sum(R)
