"""Two-dimensional involutivity analysis of the flat-dual-connection system.

Everything here is finite exact linear algebra: the scalar relation on the
four components of a symmetric 3-tensor in the plane, the 3x6 symbol matrix
of the resulting first-order system, its 6x9 first prolongation, the kernel
dimensions g_{i,m}, and the involutivity verdict they imply.  The three
symbol entries alpha, beta, gamma are kept as opaque parameters; every
conclusion is parameter-independent and checked as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .tensor import Sym3Tensor

# scalar_curvature(rho(A)) = SCALAR_CURVATURE_SCALE * s, where s is the
# value of the display polynomial (4/9)(3ac + 3bd - b^2 - c^2); frozen by
# exact evaluation.
SCALAR_CURVATURE_SCALE = Fraction(-1, 2)


@dataclass(frozen=True)
class TwoDSym3:
    """Symmetric 3-tensor in the plane by symmetrized-monomial coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def from_scalars(cls, a, b, c, d) -> "TwoDSym3":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def to_sym3(self) -> Sym3Tensor:
        return Sym3Tensor.from_monomials(2, {
            (0, 0, 0): self.a, (0, 0, 1): self.b,
            (0, 1, 1): self.c, (1, 1, 1): self.d,
        })

    @classmethod
    def from_sym3(cls, A: Sym3Tensor) -> "TwoDSym3":
        if A.n != 2:
            raise ValueError("expected a planar symmetric 3-tensor")
        d = A.to_dense().data
        return cls(d[0, 0, 0], 3 * d[0, 0, 1], 3 * d[0, 1, 1], d[1, 1, 1])


def display_polynomial(t: TwoDSym3) -> Fraction:
    """(4/9)(3ac + 3bd - b^2 - c^2), the value of s forced by the relation."""
    a, b, c, d = t.a, t.b, t.c, t.d
    return Fraction(4, 9) * (3 * a * c + 3 * b * d - b * b - c * c)


def scalar_relation_residual(t: TwoDSym3, s) -> Fraction:
    """s - (4/9)(3ac + 3bd - b^2 - c^2); zero iff the scalar relation holds."""
    return Fraction(s) - display_polynomial(t)


def solve_a(b, c, d, s) -> Fraction:
    """Solve the scalar relation for the leading coefficient; requires c != 0."""
    b, c, d, s = map(Fraction, (b, c, d, s))
    if c == 0:
        raise ValueError("the chart assumption c != 0 fails; re-parameterize")
    return (Fraction(9, 4) * s + b * b + c * c - 3 * b * d) / (3 * c)


# --- symbol matrices: entries are linear polynomials in (alpha, beta, gamma)
# encoded as 4-tuples (constant, alpha-, beta-, gamma-coefficient) ----------

_Z = (Fraction(0),) * 4


def _const(x):
    return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))


_ALPHA = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
_BETA = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
_GAMMA = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def _symbolic_symbol():
    return [
        [_const(1), _Z, _Z, _ALPHA, _BETA, _GAMMA],
        [_Z, _const(1), _Z, _const(-1), _Z, _Z],
        [_Z, _Z, _const(3), _Z, _const(-1), _Z],
    ]


def _symbolic_prolonged():
    c = _const
    return [
        [c(1), _ALPHA, _Z, _Z, _BETA, _Z, _Z, _GAMMA, _Z],
        [_Z, c(-1), _Z, c(1), _Z, _Z, _Z, _Z, _Z],
        [_Z, _Z, _Z, _Z, c(-1), _Z, c(3), _Z, _Z],
        [_Z, c(1), _ALPHA, _Z, _Z, _BETA, _Z, _Z, _GAMMA],
        [_Z, _Z, c(-1), _Z, c(1), _Z, _Z, _Z, _Z],
        [_Z, _Z, _Z, _Z, _Z, c(-1), _Z, c(3), _Z],
    ]


@dataclass(frozen=True)
class SymbolParameters:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    @classmethod
    def from_scalars(cls, alpha, beta, gamma) -> "SymbolParameters":
        return cls(Fraction(alpha), Fraction(beta), Fraction(gamma))

    def _eval(self, entry) -> Fraction:
        c0, ca, cb, cg = entry
        return c0 + ca * self.alpha + cb * self.beta + cg * self.gamma


def symbol_matrix(p: SymbolParameters):
    """The 3x6 symbol of the first-order system, at concrete parameters."""
    return [[p._eval(e) for e in row] for row in _symbolic_symbol()]


def restricted_symbol_matrix(p: SymbolParameters):
    """The 3x3 restriction to the first cotangent direction (used for g_{0,1})."""
    return [row[:3] for row in symbol_matrix(p)]


def prolonged_symbol_matrix(p: SymbolParameters):
    """The 6x9 first prolongation of the symbol, at concrete parameters."""
    return [[p._eval(e) for e in row] for row in _symbolic_prolonged()]


@dataclass(frozen=True)
class CartanReport:
    rank_symbol: int
    rank_prolonged: int
    g01: int
    g02: int
    g12: int
    involutive: bool

    def to_json(self) -> dict:
        return {
            "rank_symbol": self.rank_symbol,
            "rank_prolonged": self.rank_prolonged,
            "g01": self.g01,
            "g02": self.g02,
            "g12": self.g12,
            "involutive": self.involutive,
        }


def cartan_test(p: SymbolParameters) -> CartanReport:
    """Kernel dimensions of the restricted symbols and the involutivity check
    g_{1,2} = g_{0,1} + g_{0,2}."""
    r_sigma = linalg.rank(symbol_matrix(p))
    r_sigma1 = linalg.rank(prolonged_symbol_matrix(p))
    g01 = 3 - linalg.rank(restricted_symbol_matrix(p))
    g02 = 6 - r_sigma
    g12 = 9 - r_sigma1
    return CartanReport(rank_symbol=r_sigma, rank_prolonged=r_sigma1,
                        g01=g01, g02=g02, g12=g12,
                        involutive=g12 == g01 + g02)


def parameter_sweep(count: int, seed: int) -> list[CartanReport]:
    """Reports at `count` random rational parameter triples."""
    from . import rng
    out = []
    for i in range(count):
        p = SymbolParameters(*(rng.rational_at("cartan-sweep", seed, 3 * i + j, 10)
                               for j in range(3)))
        out.append(cartan_test(p))
    return out
