"""Tensor JSON interchange format.

Schema: {"n": int, "order": int, "packing": "dense"|"sym3",
         "entries": [["i j k", "p/q"], ...]}
Zero entries are omitted and rationals are serialized as reduced
"p/q" strings with positive denominator.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np

from .tensor import MAX_DIM, MAX_ORDER, Sym3Tensor, Tensor, sym3_triples


def format_rational(x) -> str:
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # no point, exponent, space or "_"
_INDEX = re.compile(r"([0-9]+( [0-9]+)*)?")  # ASCII digits, one space apart; "" at order 0


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"expected a p/q rational string, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


def tensor_to_json(t) -> dict:
    if not isinstance(t, Tensor):
        raise TypeError(f"cannot serialize {type(t).__name__}")
    X, D = t._int
    sym3 = isinstance(t, Sym3Tensor)
    indices = sym3_triples(t.n) if sym3 else itertools.product(range(t.n), repeat=t.order)
    entries = [[" ".join(map(str, idx)), format_rational(Fraction(int(X[idx]), D))]
               for idx in indices if X[idx]]
    return {"n": t.n, "order": t.order, "packing": "sym3" if sym3 else "dense",
            "entries": entries}


def _parse_index(key: str) -> tuple:
    if not _INDEX.fullmatch(key):
        raise ValueError(f"index key {key!r} is not ASCII digits separated by single spaces")
    return tuple(int(s) for s in key.split())


def tensor_from_json(doc: dict):
    try:
        n, order, packing = doc["n"], doc["order"], doc["packing"]
        entries = doc["entries"]
        if type(entries) is not list or any(
                type(e) is not list or [type(s) for s in e] != [str, str] for e in entries):
            raise TypeError("entries is not a list of [index, value] pairs of strings")
        raw = [(_parse_index(key), parse_rational(val)) for key, val in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tensor document: {exc}") from exc
    if not (type(n) is type(order) is int and 2 <= n <= MAX_DIM and 0 <= order <= MAX_ORDER):
        raise ValueError(f"dimension must be in [2, {MAX_DIM}] and order in [0, {MAX_ORDER}], "
                         f"got n={n!r}, order={order!r}")  # checked before anything is allocated
    seen = set()
    for idx, _ in raw:
        if len(idx) != order or any(not 0 <= i < n for i in idx):
            raise ValueError(f"index {idx} out of range for n={n}, order={order}")
        if idx in seen:
            raise ValueError(f"malformed tensor document: index {idx} appears twice")
        seen.add(idx)
    if packing == "sym3":
        if order != 3:
            raise ValueError("sym3 packing requires order 3")
        pos = {ijk: i for i, ijk in enumerate(sym3_triples(n))}
        packed = [Fraction(0)] * len(pos)
        for idx, val in raw:
            if tuple(sorted(idx)) != idx:
                raise ValueError(f"sym3 index {idx} is not sorted")
            packed[pos[idx]] = val
        return Sym3Tensor(n, tuple(packed))
    if packing == "dense":
        arr = np.full((n,) * order, Fraction(0), dtype=object)
        for idx, val in raw:
            arr[idx] = val
        return Tensor(n, arr)
    raise ValueError(f"unknown packing {packing!r}")
