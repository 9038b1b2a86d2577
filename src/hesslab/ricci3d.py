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
from .tensor import Sym3Tensor, integer_form

# rho2 of the ansatz family equals exactly 1/72 of the quadratic display
# polynomials below (frozen by exact evaluation); the solvers compensate by
# feeding 72*lambda into the closed forms.
RHO2_DISPLAY_SCALE = Fraction(1, 72)


class VerificationError(RuntimeError):
    """An internal exact-verification oracle failed; the result is not returned."""


def build_ansatz(a1, a2, a3, b13, b31) -> Sym3Tensor:
    """The ansatz family, as cubic-monomial coefficients (n = 3)."""
    return Sym3Tensor.from_monomials(3, {
        (0, 0, 0): a1, (1, 1, 1): a2, (2, 2, 2): a3,
        (0, 0, 2): b13, (1, 1, 0): 1, (1, 1, 2): 1, (2, 2, 0): b31,
    })


def ansatz_ricci_scaled(a1, a3, b13, b31):
    """(alpha, beta, gamma, delta) = 72 * the nonzero entries of rho2(ansatz).

    alpha, beta, gamma are the diagonal entries and delta the (1,3) entry,
    each scaled by 1/RHO2_DISPLAY_SCALE.  The e2-cube coefficient a2 drops
    out entirely.
    """
    a1, a3, b13, b31 = map(Fraction, (a1, a3, b13, b31))
    alpha = 8 * (1 - (1 + 3 * a3) * b13 + b13 ** 2 + b31 ** 2 - 3 * a1 * (1 + b31))
    beta = -8 * (-2 + 3 * a1 + 3 * a3 + b13 + b31)
    gamma = 8 * (1 + b13 ** 2 - 3 * a3 * (1 + b13) - b31 - 3 * a1 * b31 + b31 ** 2)
    delta = -8 * (-1 + b13 + b31)
    return alpha, beta, gamma, delta


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
    X, D, rational = integer_form(A, lambda M: M)
    return Sym3Tensor.from_integers(X[np.ix_(perm, perm, perm)], D, rational)


def _diag_ricci(lams) -> RicciTensor:
    return RicciTensor.from_rows(
        [[lams[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)])


def solve_from_eigenvalues(l1, l2, l3) -> Sym3Tensor:
    """A symmetric 3-tensor with rho2(A) = diag(l1, l2, l3), exact.

    Eigenvalues are permuted so the closed-form branch (slots 1 and 3
    distinct) applies whenever the spectrum is not a single point; the
    fully isotropic case dispatches to solve_isotropic.  The result is
    verified by evaluating rho2 before returning.
    """
    lams = tuple(map(Fraction, (l1, l2, l3)))
    if lams[0] == lams[1] == lams[2]:
        return solve_isotropic(lams[0])
    perm = next(p for p in itertools.permutations(range(3))
                if lams[p[0]] != lams[p[2]])
    mu = [lams[p] for p in perm]
    scale = 1 / RHO2_DISPLAY_SCALE
    coeffs = ansatz_coefficients(*(scale * m for m in mu))
    solved = build_ansatz(*coeffs)
    inv = [perm.index(i) for i in range(3)]
    A = _permute_sym3(solved, inv)
    if rho2(A) != _diag_ricci(lams):
        raise VerificationError(
            f"closed-form solution failed verification: rho2 = {rho2(A).data.tolist()}")
    return A


def solve_isotropic(lam) -> Sym3Tensor:
    """A with rho2(A) = lam * identity, guarded by a runtime oracle."""
    lam = Fraction(lam)
    A = Sym3Tensor.from_monomials(
        3, isotropic_coefficients(lam / RHO2_DISPLAY_SCALE))
    actual = rho2(A)
    if actual != _diag_ricci((lam, lam, lam)):
        raise VerificationError(
            "isotropic formula did not reproduce lam * identity; "
            f"rho2 = {actual.data.tolist()}")
    return A


# --- diagonalization of a general symmetric input -------------------------

def _char_poly(r) -> list[Fraction]:
    """Coefficients [c0, c1, c2] of det(xI - r) = x^3 + c2 x^2 + c1 x + c0."""
    m = [[Fraction(r[i][j]) for j in range(3)] for i in range(3)]
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


def _exact_eigenvectors(rows, lams):
    """Rational eigenvector columns V (unnormalized, pairwise orthogonal)."""
    seen: dict[Fraction, list] = {}
    cols = []
    for lam in lams:
        if lam not in seen:
            shifted = [[Fraction(rows[i][j]) - (lam if i == j else 0)
                        for j in range(3)] for i in range(3)]
            basis = linalg.nullspace(shifted)
            # exact Gram-Schmidt without normalization keeps entries rational
            ortho: list = []
            for v in basis:
                w = list(v)
                for u in ortho:
                    f = sum(a * b for a, b in zip(w, u)) / sum(a * a for a in u)
                    w = [a - f * b for a, b in zip(w, u)]
                ortho.append(w)
            seen[lam] = ortho
        cols.append(seen[lam].pop(0))
    return [[cols[j][i] for j in range(3)] for i in range(3)]  # columns


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
            sym = np.array([[float(x) for x in row] for row in rows])
            w, q = np.linalg.eigh(sym)
            lams = [Fraction(float(x)) for x in w]
        except OverflowError as exc:
            raise ValueError(f"float mode needs values within float range: {exc}") from exc
        A = solve_from_eigenvalues(*lams)
        back = q @ np.diag([float(x) for x in lams]) @ q.T
        resid = float(np.max(np.abs(back - sym)))
        if resid > tol:
            raise VerificationError(f"float round-trip residual {resid} > {tol}")
        return q, A, resid
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    lams = _rational_eigenvalues(rows)
    V = _exact_eigenvectors(rows, lams)
    # exact round-trip: V diag(lam_i / |v_i|^2) V^T == r
    norms = [sum(V[i][j] ** 2 for i in range(3)) for j in range(3)]
    back = [[sum(V[i][k] * lams[k] / norms[k] * V[j][k] for k in range(3))
             for j in range(3)] for i in range(3)]
    if any(back[i][j] != Fraction(rows[i][j]) for i in range(3) for j in range(3)):
        raise VerificationError("exact eigendecomposition round-trip failed")
    A = solve_from_eigenvalues(*lams)
    rotation = np.array([[float(V[i][j]) / math.sqrt(float(norms[j]))
                          for j in range(3)] for i in range(3)])
    return rotation, A, 0
