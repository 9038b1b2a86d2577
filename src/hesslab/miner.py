"""Search for equivariant curvature conditions.

Conditions of degree p are spanned by full contractions of p curvature
factors with four antisymmetrized free indices.  Patterns are enumerated
up to the symmetries of the curvature tensor (pair antisymmetries with
sign, pair exchange), factor reordering, and signed relabeling of the
free indices; the enumeration canonicalizes one raw pattern per orbit and
marks the rest of the orbit as done.  Evaluating every pattern (one einsum
spec for tensor.alternating_contraction) on random points of the image of
rho and on random generic curvature tensors turns the search for
identities into exact nullspace computations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg, rng
from .curvature import CurvTensor, curvature_basis
from .hessmap import rho
from .tensor import (Sym3Tensor, Tensor, alternating_contraction,
                     alternating_tensor, signed_permutations, sym3_dim)

# slot encoding: value >= 0 is the partner slot of a contraction,
# value -(label+1) marks a free slot carrying label 0..3
_FREE = tuple(-(label + 1) for label in range(4))

_FACTOR_SYMS = []
for _e in (0, 1):
    for _a in (0, 1):
        for _b in (0, 1):
            base = [2, 3, 0, 1] if _e else [0, 1, 2, 3]
            if _a:
                base[0], base[1] = base[1], base[0]
            if _b:
                base[2], base[3] = base[3], base[2]
            _FACTOR_SYMS.append((tuple(base), -1 if (_a + _b) % 2 else 1))


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class ContractionPattern:
    """Canonical full-contraction pattern of p curvature factors."""

    degree: int
    slots: tuple  # length 4p, canonical partner encoding

    def __post_init__(self):
        if len(self.slots) != 4 * self.degree:
            raise PatternError("slot count must be 4 * degree")
        frees = [s for s in self.slots if s < 0]
        if sorted(frees, reverse=True) != list(_FREE):
            raise PatternError("exactly one slot per free label is required")
        for i, s in enumerate(self.slots):
            if s >= 0 and (s == i or self.slots[s] != i):
                raise PatternError(f"slot {i} is not consistently paired")

    def slot_names(self) -> list[str]:
        """Human-readable slot map: free labels i/j/k/l, contractions e0, e1, ..."""
        names = [""] * len(self.slots)
        edge = 0
        for i, s in enumerate(self.slots):
            if s < 0:
                names[i] = "ijkl"[-s - 1]
            elif s > i:
                names[i] = names[s] = f"e{edge}"
                edge += 1
        return names


def _encode(slots, old_of_new, state):
    """Scan-encode 4 slots of one factor, updating relabeling state in place.

    state = [label_map, edge_map, sign_unused]; returns the 4-symbol chunk.
    Free labels rename to first-appearance order; edges are numbered by the
    first scanned endpoint, keyed by their (old) slot pair.
    """
    label_map, edge_map = state
    chunk = []
    for o in old_of_new:
        s = slots[o]
        if s < 0:
            lab = -s - 1
            if lab not in label_map:
                label_map[lab] = len(label_map)
            chunk.append(1000 + label_map[lab])
        else:
            key = (min(o, s), max(o, s))
            if key not in edge_map:
                edge_map[key] = len(edge_map)
            chunk.append(edge_map[key])
    return tuple(chunk)


def canonicalize(slots) -> tuple[tuple, int, bool]:
    """Canonical form of a raw slot tuple.

    Returns (canonical_slots, sign, is_zero): sign relates the input pattern
    to its canonical representative; is_zero means some symmetry fixes the
    pattern with sign -1, so it vanishes identically.
    """
    slots = tuple(slots)
    p = len(slots) // 4
    best = None          # (encoding, canonical slots)
    best_signs: set = set()
    for order in itertools.permutations(range(p)):
        # branch-and-bound over per-factor symmetries, factor by factor
        cands = [((), {}, {}, 1, [])]  # chunks, label_map, edge_map, sign, old_of_new
        for fpos in range(p):
            fac = order[fpos]
            extended = []
            for chunks, lmap, emap, sign, oon in cands:
                for perm, psign in _FACTOR_SYMS:
                    lm, em = dict(lmap), dict(emap)
                    old = [4 * fac + q for q in perm]
                    chunk = _encode(slots, old, [lm, em])
                    extended.append((chunks + (chunk,), lm, em,
                                     sign * psign, oon + old))
            mins = min(e[0] for e in extended)
            cands = [e for e in extended if e[0] == mins]
        for chunks, lmap, emap, sign, oon in cands:
            # account for the signed relabeling of the four free indices
            lperm = tuple(lmap[i] for i in range(4))
            total = sign * dict(signed_permutations(4))[lperm]
            enc = tuple(x for c in chunks for x in c)
            if best is None or enc < best[0]:
                best = (enc, _decode(enc))
                best_signs = {total}
            elif enc == best[0]:
                best_signs.add(total)
    sign = next(iter(best_signs))
    return best[1], sign, len(best_signs) > 1


def _decode(encoding) -> tuple:
    out = [None] * len(encoding)
    first: dict = {}
    for i, sym in enumerate(encoding):
        if sym >= 1000:
            out[i] = -(sym - 1000) - 1
        elif sym in first:
            out[i] = first[sym]
            out[first[sym]] = i
        else:
            first[sym] = i
    return tuple(out)


def _matchings(items):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1:]
        for m in _matchings(rest):
            yield [(a, b)] + m


def _orbit_maps(p: int):
    """Slot maps of the group canonicalize minimises over, free labels aside.

    Each map sends old slot s to map[s]: factor reordering times one
    _FACTOR_SYMS element per factor, p! * 8**p maps in all.
    """
    for order in itertools.permutations(range(p)):
        for perms in itertools.product([perm for perm, _ in _FACTOR_SYMS],
                                       repeat=p):
            g = [0] * (4 * p)
            for fpos, (fac, perm) in enumerate(zip(order, perms)):
                for q in range(4):
                    g[4 * fac + perm[q]] = 4 * fpos + q
            yield g


@lru_cache(maxsize=None)
def enumerate_patterns(p: int) -> tuple[ContractionPattern, ...]:
    """All canonical degree-p patterns with 4 free slots, deterministic order.

    Raw patterns are swept as (free-slot set, matching) pairs; the first raw
    of each orbit is canonicalized and its whole orbit under _orbit_maps is
    marked done, so canonicalize runs once per orbit.  Free labels follow
    slot order, so a free-slot set and a matching fix a raw pattern.
    Patterns with a contraction inside one antisymmetric index pair, or that
    vanish identically by a sign-reversing symmetry, are dropped.
    """
    if p not in (2, 3):
        raise PatternError(f"degree {p} not supported (use 2 or 3)")
    nslots, m = 4 * p, 4 * p - 4
    pair_of = [s // 2 for s in range(nslots)]
    frees = list(itertools.combinations(range(nslots), 4))
    rests = [[s for s in range(nslots) if s not in free] for free in frees]
    # _matchings(rest) is _matchings of the positions 0..m-1 within rest
    pos_matchings = list(_matchings(list(range(m))))
    # an image is ranked by the bit mask of its free slots and by one bit
    # per matched pair of positions within its remainder
    free_of_mask = np.zeros(1 << nslots, dtype=np.int64)
    pos_of = np.zeros((len(frees), nslots), dtype=np.int64)
    for fi, (free, rest) in enumerate(zip(frees, rests)):
        free_of_mask[sum(1 << s for s in free)] = fi
        pos_of[fi, rest] = range(m)
    match_keys = np.array([sum(1 << (m * x + y) for x, y in pm)
                           for pm in pos_matchings])
    key_order = np.argsort(match_keys)
    sorted_keys = match_keys[key_order]
    # images[s] holds the image of slot s under every orbit map
    count = math.factorial(p) * len(_FACTOR_SYMS) ** p * nslots
    images = np.fromiter(itertools.chain.from_iterable(_orbit_maps(p)),
                         dtype=np.int64, count=count).reshape(-1, nslots).T
    done = bytearray(len(frees) * len(pos_matchings))
    marks = np.frombuffer(done, dtype=np.uint8)  # writable view of done
    seen: dict[tuple, tuple] = {}
    for fi, (free, rest) in enumerate(zip(frees, rests)):
        for mi, pm in enumerate(pos_matchings):
            if done[fi * len(pos_matchings) + mi]:
                continue
            matching = [(rest[x], rest[y]) for x, y in pm]
            if any(pair_of[a] == pair_of[b] for a, b in matching):
                continue  # trace inside an antisymmetric pair: identically zero
            slots = [None] * nslots
            for lab, s in enumerate(free):
                slots[s] = -(lab + 1)
            for a, b in matching:
                slots[a], slots[b] = b, a
            canon, _, zero = canonicalize(slots)
            if not zero:
                seen.setdefault(canon, canon)
            # mark the whole orbit: rank each image's free-slot set, then
            # its matching by positions within the image's remainder
            img_fi = free_of_mask[sum(1 << images[s] for s in free)]
            key = 0
            for a, b in matching:
                x, y = pos_of[img_fi, images[a]], pos_of[img_fi, images[b]]
                key = key | 1 << (m * np.minimum(x, y) + np.maximum(x, y))
            img_mi = key_order[np.searchsorted(sorted_keys, key)]
            marks[img_fi * len(pos_matchings) + img_mi] = 1
    return tuple(ContractionPattern(p, c) for c in sorted(seen))


def pattern_from_slot_names(names) -> tuple:
    """Raw slot tuple from a list like ["i","j","a","b","k","l","b","a"]."""
    labels = {"i": 0, "j": 1, "k": 2, "l": 3}
    slots = [None] * len(names)
    where: dict = {}
    for pos, nm in enumerate(names):
        if nm in labels:
            slots[pos] = -(labels[nm] + 1)
        elif nm in where:
            other = where.pop(nm)
            slots[pos], slots[other] = other, pos
        else:
            where[nm] = pos
    if where:
        raise PatternError(f"unpaired contraction names: {sorted(where)}")
    return tuple(slots)


def quadratic_trace_pattern() -> tuple:
    """Raw slot map of the double-trace pattern R_{ijab} R_{klba}."""
    return pattern_from_slot_names(["i", "j", "a", "b", "k", "l", "b", "a"])


def cubic_identity_combination() -> list[tuple[tuple, Fraction]]:
    """The two triple-contraction patterns with weights (1, -2)."""
    t1 = pattern_from_slot_names(
        ["i", "a", "j", "b", "k", "b", "c", "d", "l", "d", "a", "c"])
    t2 = pattern_from_slot_names(
        ["i", "a", "j", "b", "k", "c", "a", "d", "l", "d", "b", "c"])
    return [(t1, Fraction(1)), (t2, Fraction(-2))]


def coefficient_vector(patterns, combination) -> list[Fraction]:
    """Express a list of (raw slots, weight) in the canonical pattern basis."""
    index = {pat.slots: i for i, pat in enumerate(patterns)}
    vec = [Fraction(0)] * len(patterns)
    for raw, weight in combination:
        canon, sign, zero = canonicalize(raw)
        if zero:
            continue
        if canon not in index:
            raise PatternError("pattern is not in the enumerated basis")
        vec[index[canon]] += Fraction(weight) * sign
    return vec


def _einsum_spec(pat: ContractionPattern) -> str:
    letters = "abcdefgh"
    subs = [""] * (4 * pat.degree)
    edge = 0
    for i, s in enumerate(pat.slots):
        if s < 0:
            subs[i] = "wxyz"[-s - 1]
        elif s > i:
            subs[i] = subs[s] = letters[edge]
            edge += 1
    ops = ",".join("".join(subs[4 * f:4 * f + 4]) for f in range(pat.degree))
    return f"{ops}->wxyz"


def evaluate_pattern(pat: ContractionPattern, R) -> Tensor:
    """Contract degree copies of R per the pattern, antisymmetrize free slots."""
    data = R.data if isinstance(R, (CurvTensor, Tensor)) else np.asarray(R, dtype=object)
    n = data.shape[0]
    if n < 4:
        raise PatternError("patterns need n >= 4 for a nonzero 4-form")
    values = alternating_contraction(data, [(_einsum_spec(pat), 1)])
    return alternating_tensor(n, 4, values * Fraction(1, 24))


def _evaluate_rows(patterns, data_int):
    """24 x (antisymmetrized pattern values) at the sorted index quadruples, as ints.

    data_int is an integer numpy array; the uniform factor 24 clears the
    antisymmetrizer denominator, which leaves the nullspace unchanged.
    """
    cols = [alternating_contraction(data_int, [(_einsum_spec(pat), 1)])
            for pat in patterns]
    return [list(row) for row in zip(*cols)]


def _int_sym3(n: int, seed: int, bound: int) -> Sym3Tensor:
    vals = tuple(rng.integer_at(f"mine-rho|{n}|{bound}", seed, i, bound)
                 for i in range(sym3_dim(n)))
    return Sym3Tensor(n, vals)


@lru_cache(maxsize=None)
def _int_curvature_basis(n: int) -> tuple:
    scaled = []
    for b in curvature_basis(n):
        lcm = 1
        for x in b.data.flat:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        arr = np.empty(b.data.shape, dtype=object)
        for idx in np.ndindex(b.data.shape):
            arr[idx] = int(b.data[idx] * lcm)
        scaled.append(arr)
    return tuple(scaled)


def _int_generic_curvature(n: int, seed: int, bound: int):
    basis = _int_curvature_basis(n)
    acc = np.zeros((n,) * 4, dtype=object)
    for i, b in enumerate(basis):
        c = rng.integer_at(f"mine-generic|{n}|{bound}", seed, i, bound)
        if c:
            acc = acc + b * c
    return acc


@dataclass
class MinedIdentityBasis:
    n: int
    degree: int
    patterns: tuple
    image_identities: list = field(default_factory=list)     # basis of N1
    universal_identities: list = field(default_factory=list)  # basis of N2
    quotient_representatives: list = field(default_factory=list)
    rho_samples_used: int = 0
    generic_samples_used: int = 0
    seed: int = 0

    @property
    def quotient_dim(self) -> int:
        return len(self.image_identities) - len(self.universal_identities)

    def contains_image_identity(self, vec) -> bool:
        return linalg.in_span(self.image_identities, [Fraction(x) for x in vec])

    def contains_universal_identity(self, vec) -> bool:
        return linalg.in_span(self.universal_identities, [Fraction(x) for x in vec])

    def to_json(self) -> dict:
        def fr(v):
            return [f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in v]
        return {
            "n": self.n,
            "degree": self.degree,
            "pattern_count": len(self.patterns),
            "patterns": [p.slot_names() for p in self.patterns],
            "image_identities": [fr(v) for v in self.image_identities],
            "universal_identities": [fr(v) for v in self.universal_identities],
            "quotient_representatives": [fr(v) for v in self.quotient_representatives],
            "quotient_dim": self.quotient_dim,
            "rho_samples_used": self.rho_samples_used,
            "generic_samples_used": self.generic_samples_used,
            "seed": self.seed,
        }


class StabilizationError(RuntimeError):
    """Sample ranks kept increasing up to the configured cap."""


_STABLE_RUN = 5


def mine(n: int, p: int, rho_samples: int | None = None,
         generic_samples: int | None = None, seed: int = 0,
         bound: int = 5) -> MinedIdentityBasis:
    """Separate image-of-rho identities from universal curvature identities.

    Evaluation rows are added sample by sample until the matrix rank is
    stable for 5 consecutive additions (the sample-count arguments are
    caps).  N1 is the exact nullspace of the rho-sample rows; N2 is that of
    the same row space with the generic-curvature rows added on top, so
    universal identities are, by construction, a subspace of the image
    identities.
    """
    if n < 4:
        raise ValueError("mining needs n >= 4")
    patterns = enumerate_patterns(p)
    cap_default = len(patterns) + 40
    rho_cap = cap_default if rho_samples is None else rho_samples
    gen_cap = cap_default if generic_samples is None else generic_samples
    for name, cap in (("rho_samples", rho_cap), ("generic_samples", gen_cap)):
        if cap < len(patterns) + 5:
            raise ValueError(f"{name} cap must be >= pattern count + 5")

    def collect(make_sample, cap):
        used, stable = 0, 0
        while used < cap:
            new = _evaluate_rows(patterns, make_sample(used))
            grew = any([space.add(r) for r in new])
            used += 1
            stable = 0 if grew else stable + 1
            if stable >= _STABLE_RUN and used >= _STABLE_RUN + 1:
                return used
        raise StabilizationError(
            f"rank still increasing after {cap} samples (rank {space.rank})")

    def rho_sample(i):
        A = _int_sym3(n, seed * 1_000_003 + i, bound)
        return rho(A).data

    def generic_sample(i):
        return _int_generic_curvature(n, seed * 1_000_003 + i, bound)

    # one sample space: N1 is its nullspace after the rho rows, N2 after
    # the generic rows have been added on top
    space = linalg.RowSpace(len(patterns))
    rho_used = collect(rho_sample, rho_cap)
    n1 = space.nullspace()
    gen_used = collect(generic_sample, gen_cap)
    n2 = space.nullspace()
    # greedily pick an exact complement of N2 in N1: keep each N1 vector
    # that grows the span of N2 and the vectors kept so far
    complement = linalg.RowSpace(len(patterns), n2)
    kept = [v for v in n1 if complement.add(v)]
    return MinedIdentityBasis(
        n=n, degree=p, patterns=patterns,
        image_identities=n1, universal_identities=n2,
        quotient_representatives=kept,
        rho_samples_used=rho_used, generic_samples_used=gen_used, seed=seed)
