"""Counter-based deterministic random rationals.

Every random value is derived by hashing (tag, seed, counter) with
blake2b, so a given entry of a given random object is reproducible
independently of how many other values were drawn before it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def _digest(tag: str, seed: int, counter: int) -> bytes:
    msg = f"{tag}|{seed}|{counter}".encode()
    return hashlib.blake2b(msg, digest_size=16).digest()


def sample_seed(seed: int, i: int) -> int:
    """The seed of sample i in a run seeded with seed."""
    return seed * 1_000_003 + i


def rational_at(tag: str, seed: int, counter: int, bound: int) -> Fraction:
    """Uniform rational p/q with |p| <= bound and 1 <= q <= bound.

    The same (tag, seed, counter, bound) always yields the same value.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    d = _digest(tag, seed, counter)
    u = int.from_bytes(d[:8], "big")
    v = int.from_bytes(d[8:], "big")
    p = u % (2 * bound + 1) - bound
    q = v % bound + 1
    return Fraction(p, q)


def integer_at(tag: str, seed: int, counter: int, bound: int) -> int:
    """Uniform integer in [-bound, bound], counter-addressed like rational_at."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    d = _digest(tag, seed, counter)
    u = int.from_bytes(d[:8], "big")
    return u % (2 * bound + 1) - bound
