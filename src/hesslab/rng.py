"""Counter-based deterministic random rationals.

Every random value is derived by hashing (tag, seed, counter) with
blake2b, so a given entry of a given random object is reproducible
independently of how many other values were drawn before it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def _draw(tag: str, seed: int, counter: int, bound: int) -> tuple[int, int]:
    """The integer draw p in [-bound, bound] and a second 64-bit word v."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    d = hashlib.blake2b(f"{tag}|{seed}|{counter}".encode(), digest_size=16).digest()
    u, v = int.from_bytes(d[:8], "big"), int.from_bytes(d[8:], "big")
    return u % (2 * bound + 1) - bound, v


def sample_seed(seed: int, i: int) -> int:
    """The seed of sample i in a run seeded with seed."""
    return seed * 1_000_003 + i


def rational_at(tag: str, seed: int, counter: int, bound: int) -> Fraction:
    """Uniform rational p/q with |p| <= bound and 1 <= q <= bound.

    The same (tag, seed, counter, bound) always yields the same value.
    """
    p, v = _draw(tag, seed, counter, bound)
    return Fraction(p, v % bound + 1)


def integer_at(tag: str, seed: int, counter: int, bound: int) -> int:
    """Uniform integer in [-bound, bound]: the numerator p that rational_at draws."""
    return _draw(tag, seed, counter, bound)[0]
