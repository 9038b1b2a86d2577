"""Counter-based deterministic random rationals.

Every random value is derived by hashing f"{tag}|{seed}|{counter}" with
blake2b, so a given entry of a given random object is reproducible
independently of how many other values were drawn before it.  _digests is
the one routine that hashes: for a run of counters it hashes the
f"{tag}|{seed}|" prefix once and completes a copy of that state per
counter, which gives the digest of the whole string.  integers and
rationals draw a run of counters through it; integer_at and rational_at
are their views at one counter.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

_LOW = (1 << 64) - 1


def _digests(tag: str, seed: int, counters, bound: int) -> list[int]:
    """Per int counter, the 16-byte blake2b digest of f"{tag}|{seed}|{counter}"
    read as a big-endian integer: its high 64 bits draw the integer in
    [-bound, bound], its low 64 bits a rational's denominator."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    prefix = hashlib.blake2b(f"{tag}|{seed}|".encode(), digest_size=16)
    digests = []
    for counter in counters:
        h = prefix.copy()
        h.update(b"%d" % counter)
        digests.append(int.from_bytes(h.digest(), "big"))
    return digests


def sample_seed(seed: int, i: int) -> int:
    """The seed of sample i in a run seeded with seed."""
    return seed * 1_000_003 + i


def rationals(tag: str, seed: int, counters, bound: int) -> list[Fraction]:
    """Per counter, a uniform rational p/q with |p| <= bound and 1 <= q <= bound.

    The same (tag, seed, counter, bound) always yields the same value.
    """
    m = 2 * bound + 1
    return [Fraction((d >> 64) % m - bound, (d & _LOW) % bound + 1)
            for d in _digests(tag, seed, counters, bound)]


def integers(tag: str, seed: int, counters, bound: int) -> list[int]:
    """Per counter, a uniform integer in [-bound, bound]: the numerator p
    that rationals draws."""
    m = 2 * bound + 1
    return [(d >> 64) % m - bound for d in _digests(tag, seed, counters, bound)]


def rational_at(tag: str, seed: int, counter: int, bound: int) -> Fraction:
    """rationals at the one counter."""
    return rationals(tag, seed, (counter,), bound)[0]


def integer_at(tag: str, seed: int, counter: int, bound: int) -> int:
    """integers at the one counter."""
    return integers(tag, seed, (counter,), bound)[0]
