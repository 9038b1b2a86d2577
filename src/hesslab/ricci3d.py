"""Constructive inverse in dimension 3: prescribe the Ricci tensor of rho.

Works inside a seven-parameter ansatz family of symmetric 3-tensors whose
Ricci image is diagonal-plus-one-off-term.  Closed forms solve the diagonal
problem whenever two designated eigenvalues differ; an isotropic formula
covers the equal-eigenvalue case.  Every solution is re-verified exactly
before it is returned.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import linalg
from .curvature import RicciTensor
from .hessmap import rho2
from .tensor import Sym3Tensor

# rho2 of the ansatz family is exactly 1/72 of its quadratic display
# polynomials (ansatz_ricci_scaled in tests/test_ricci3d.py); the solvers
# compensate by feeding 72*lambda into the closed forms.
RHO2_DISPLAY_SCALE = Fraction(1, 72)


class VerificationError(RuntimeError):
    """An internal exact-verification oracle failed; the result is not returned."""


def build_ansatz(a1, a2, a3, b13, b31) -> Sym3Tensor:
    """The ansatz family, as cubic-monomial coefficients (n = 3)."""
    return Sym3Tensor.from_monomials(3, {
        (0, 0, 0): a1, (1, 1, 1): a2, (2, 2, 2): a3,
        (0, 0, 2): b13, (1, 1, 0): 1, (1, 1, 2): 1, (2, 2, 0): b31,
    })


def ansatz_coefficients(l1, l2, l3):
    """Closed-form (a1, a2, a3, b13, b31) with scaled Ricci (l1, l2, l3, 0).

    Requires l1 != l3.  Solving the affine equations for a1, b13, b31 first
    leaves a linear equation for a3 (the quadratic terms cancel).
    """
    l1, l2, l3 = map(Fraction, (l1, l2, l3))
    if l1 == l3:
        raise ValueError("closed forms require the first and third values to differ")
    a3 = (l1 ** 2 + 16 * l2 - l1 * l2 - 16 * l3 - 2 * l1 * l3 + l2 * l3 + l3 ** 2) \
        / (48 * (l1 - l3))
    a1 = (8 - 24 * a3 - l2) / 24
    b13 = 3 * a3 + (-l1 + l2 + l3) / 16
    b31 = 1 - 3 * a3 + (l1 - l2 - l3) / 16
    return a1, Fraction(1), a3, b13, b31


def isotropic_coefficients(lam):
    """Coefficients whose scaled Ricci is lam times the identity."""
    lam = Fraction(lam)
    return {(0, 0, 0): (20 - lam) / 48, (1, 1, 0): Fraction(1),
            (2, 2, 0): (4 - lam) / 16, (0, 1, 2): Fraction(1)}


def _permute_sym3(A: Sym3Tensor, perm) -> Sym3Tensor:
    """Relabel the orthonormal frame: result_{ijk} = A_{perm(i) perm(j) perm(k)}."""
    X, D = A._int
    return Sym3Tensor.from_integers(X[np.ix_(perm, perm, perm)], D)


def solve_from_eigenvalues(l1, l2, l3) -> Sym3Tensor:
    """A symmetric 3-tensor with rho2(A) = diag(l1, l2, l3), exact.

    A single-point spectrum takes the isotropic formula; any other is
    permuted so that the closed-form branch (slots 1 and 3 distinct)
    applies.  Either way the result is verified by evaluating rho2 before
    it is returned.
    """
    lams = tuple(map(Fraction, (l1, l2, l3)))
    scale = 1 / RHO2_DISPLAY_SCALE
    if lams[0] == lams[1] == lams[2]:
        A = Sym3Tensor.from_monomials(3, isotropic_coefficients(scale * lams[0]))
    else:
        perm = next(p for p in itertools.permutations(range(3))
                    if lams[p[0]] != lams[p[2]])
        solved = build_ansatz(*ansatz_coefficients(*(scale * lams[p] for p in perm)))
        A = _permute_sym3(solved, [perm.index(i) for i in range(3)])
    actual = rho2(A)
    if actual != RicciTensor.from_rows([[lam if i == j else 0 for j in range(3)]
                                        for i, lam in enumerate(lams)]):
        raise VerificationError(f"solution failed verification: rho2 = {actual.data.tolist()}")
    return A


# --- diagonalization of a general symmetric input -------------------------

def _char_poly(m) -> list[Fraction]:
    """Coefficients [c0, c1, c2] of det(xI - m) = x^3 + c2 x^2 + c1 x + c0."""
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
                 for i in range(3) for j in range(i + 1, 3))
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return [-det, minors, -tr]


def _rational_eigenvalues(rows) -> list[Fraction]:
    """Exact rational spectrum of a symmetric rational 3x3 matrix, ascending.

    With D the lcm of the characteristic polynomial's denominators, y = D*x
    turns it into a monic integer cubic, whose rational roots are integers.
    Integer bisection brackets one real root, deflating by it leaves a
    quadratic that math.isqrt solves; a root that is not an integer means
    the spectrum is irrational, and raises.
    """
    c0, c1, c2 = _char_poly(rows)
    d = math.lcm(c0.denominator, c1.denominator, c2.denominator)
    b2, b1, b0 = int(c2 * d), int(c1 * d ** 2), int(c0 * d ** 3)

    def q(y):
        return ((y + b2) * y + b1) * y + b0

    # every root lies strictly inside (-bound, bound) (Cauchy), so
    # q(lo) < 0 <= q(hi) holds throughout and brackets a root in (lo, hi]
    bound = 1 + max(abs(b2), abs(b1), abs(b0))
    lo, hi = -bound, bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if q(mid) < 0 else (lo, mid)
    # q(y) = (y - hi) (y^2 + e1 y + e0) when q(hi) == 0
    e1 = b2 + hi
    e0 = b1 + hi * e1
    disc = e1 * e1 - 4 * e0
    s = math.isqrt(max(disc, 0))
    if q(hi) != 0 or s * s != disc:
        raise ValueError("matrix spectrum is not rational; use float mode")
    return sorted(Fraction(y, d) for y in (hi, (-e1 - s) // 2, (-e1 + s) // 2))


def _exact_eigenvectors(rows, lams) -> list[list[Fraction]]:
    """One rational eigenvector of rows per entry of the sorted lams, in order.

    The vectors are unnormalized and pairwise orthogonal: each eigenspace's
    nullspace basis is orthogonalized by exact Gram-Schmidt, which keeps
    the entries rational.
    """
    vectors = []
    for lam in sorted(set(lams)):
        shifted = [[rows[i][j] - (lam if i == j else 0) for j in range(3)] for i in range(3)]
        eigenspace: list = []
        for v in linalg.nullspace(shifted):
            for u in eigenspace:
                f = sum(a * b for a, b in zip(v, u)) / sum(a * a for a in u)
                v = [a - f * b for a, b in zip(v, u)]
            top = max(map(abs, v))  # scaled into (1/2, 2), so float() cannot overflow
            eigenspace.append([x * Fraction(2) ** (top.denominator.bit_length()
                                                   - top.numerator.bit_length()) for x in v])
        vectors += eigenspace
    return vectors


def solve_from_ricci(r, mode: str = "exact", tol: float = 1e-9):
    """Diagonalize a symmetric 3x3 matrix and solve the diagonal problem.

    r is a RicciTensor, or rows that RicciTensor.from_rows reads and checks.
    Returns (rotation, A, residual) with rotation an orthogonal matrix of
    floats whose columns are the eigenvectors; residual is the measured
    float round-trip error, at most tol (finite and >= 0), or 0 in exact
    mode, where the round-trip rotation @ diag(lams) @ rotation.T == r is
    verified exactly.
    """
    if not isinstance(r, RicciTensor):
        r = RicciTensor.from_rows(r)
    if r.n != 3:
        raise ValueError("expected a 3x3 matrix")
    rows = r.data.tolist()

    if mode == "float":
        if not 0 <= tol < math.inf:  # "resid > nan" is never true
            raise ValueError(f"tol must be a finite number >= 0, got {tol}")
        try:  # an entry, or an eigenvalue, past float range
            sym = np.array([[float(x) for x in row] for row in rows], dtype=float)
            w, rotation = np.linalg.eigh(sym)
            lams = [Fraction(float(x)) for x in w]
        except OverflowError as exc:
            raise ValueError(f"float mode needs values within float range: {exc}") from exc
        residual = float(np.max(np.abs(rotation @ np.diag(w) @ rotation.T - sym)))
        if residual > tol:
            raise VerificationError(f"float round-trip residual {residual} > {tol}")
    elif mode == "exact":
        lams = _rational_eigenvalues(rows)
        V = _exact_eigenvectors(rows, lams)
        # exact round-trip: sum of lam v v^T / |v|^2 over the eigenvectors v == r
        norms = [sum(x * x for x in v) for v in V]
        if any(sum(v[i] * lam / norm * v[j] for v, lam, norm in zip(V, lams, norms))
               != rows[i][j] for i in range(3) for j in range(3)):
            raise VerificationError("exact eigendecomposition round-trip failed")
        rotation = np.array([[float(v[i]) / math.sqrt(float(norm)) for v, norm in zip(V, norms)]
                             for i in range(3)], dtype=float)
        residual = 0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return rotation, solve_from_eigenvalues(*lams), residual
