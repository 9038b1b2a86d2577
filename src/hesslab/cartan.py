"""Two-dimensional involutivity analysis of the flat-dual-connection system.

Everything here is finite exact linear algebra: the 3x6 symbol matrix of
the first-order system, its 6x9 first prolongation, the kernel dimensions
g_{i,m}, and the involutivity verdict they imply.  The symbol and its
prolongation are tables whose entries are each a rational or one of the
three parameters alpha, beta, gamma; every conclusion is
parameter-independent and checked as such.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from . import linalg, rng


# --- symbol matrices: each entry a rational, or a, b, g for alpha, beta, gamma

_SYMBOL = ("1  0  0  a  b  g",
           "0  1  0 -1  0  0",
           "0  0  3  0 -1  0")

_PROLONGED = ("1  a  0  0  b  0  0  g  0",
              "0 -1  0  1  0  0  0  0  0",
              "0  0  0  0 -1  0  3  0  0",
              "0  1  a  0  0  b  0  0  g",
              "0  0 -1  0  1  0  0  0  0",
              "0  0  0  0  0 -1  0  3  0")


@dataclass(frozen=True)
class SymbolParameters:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def _read(self, table) -> list[list[Fraction]]:
        """The rows of a symbol table at these parameters."""
        named = {"a": self.alpha, "b": self.beta, "g": self.gamma}
        return [[Fraction(named.get(t, t)) for t in row.split()] for row in table]


def symbol_matrix(p: SymbolParameters):
    """The 3x6 symbol of the first-order system, at concrete parameters."""
    return p._read(_SYMBOL)


def restricted_symbol_matrix(p: SymbolParameters):
    """The 3x3 restriction to the first cotangent direction (used for g_{0,1})."""
    return [row[:3] for row in symbol_matrix(p)]


def prolonged_symbol_matrix(p: SymbolParameters):
    """The 6x9 first prolongation of the symbol, at concrete parameters."""
    return p._read(_PROLONGED)


@dataclass(frozen=True)
class CartanReport:
    rank_symbol: int
    rank_prolonged: int
    g01: int
    g02: int
    g12: int
    involutive: bool

    def to_json(self) -> dict:
        return asdict(self)


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
    out = []
    for i in range(count):
        p = SymbolParameters(*rng.rationals("cartan-sweep", seed, range(3 * i, 3 * i + 3), 10))
        out.append(cartan_test(p))
    return out
