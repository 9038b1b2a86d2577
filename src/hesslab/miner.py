"""Search for equivariant curvature conditions.

Conditions of degree p are spanned by full contractions of p curvature
factors with four antisymmetrized free indices.  Patterns are enumerated
up to the symmetries of the curvature tensor (pair antisymmetries with
sign, pair exchange), factor reordering, and signed relabeling of the
free indices.  One cached group of slot maps (_orbit_maps) and one integer
key per pattern (_keys) serve both steps: canonicalize takes the least key
over a pattern's images, choosing the maps one factor at a time so that it
keys only those that can still reach the least key (_placements).  The
enumeration keys only the raw patterns whose free slots sit in a normal
form (_normal_frees), which every orbit meets, canonicalizes one per orbit
and marks the rest by keying its images in normal form, so each orbit is
marked once.  On a 2-CPU x86-64 host, enumerate_patterns(4) takes about
0.45 s and 49 MB, and enumerate_patterns(3) about 17 ms in a new process.
Evaluating every pattern on random points of the image of rho and on
random generic curvature tensors turns the search for identities into
exact nullspace computations.  Each pattern is one einsum spec, and one
tensor.alternating_rows call evaluates a batch of samples: as many as a
sampling phase can take before it could next stop, so the batches hold
exactly the samples a one-at-a-time run would evaluate.  This module alone
owns the pattern language: enumerate_patterns decides which degrees exist,
and the identities module writes its forms as weighted slot tuples taken
from trace_pattern and cubic_identity_combination, for alternating_form,
the one form constructor: it weighs one tensor's integer rows over one
denominator and scatters them, with their signs, into the form's own
integer array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg, rng
from .curvature import curvature_space_dim, materialize
from .hessmap import rho
from .tensor import (Sym3Tensor, Tensor, _alternating_index, alternating_rows, check_dim,
                     sym3_dim)

# slot encoding: value >= 0 is the partner slot of a contraction,
# value -(label+1) marks a free slot carrying label 0..5, named _LABELS[label]
_LABELS = "ijklmn"
_FREE = tuple(-(label + 1) for label in range(4))

# the 8 slot symmetries of one curvature factor, as (slot permutation, sign):
# pair exchange and a swap within either pair, each swap reversing the sign
_FACTOR_SYMS = (
    ((0, 1, 2, 3), 1), ((0, 1, 3, 2), -1), ((1, 0, 2, 3), -1), ((1, 0, 3, 2), 1),
    ((2, 3, 0, 1), 1), ((2, 3, 1, 0), -1), ((3, 2, 0, 1), -1), ((3, 2, 1, 0), 1),
)

# by free count, the free slots of one factor in normal form: _FACTOR_SYMS
# is transitive on a factor's single slots and on its 3-subsets, and has
# two orbits on its 2-subsets, {0, 1} ~ {2, 3} and the four cross pairs
_NORMAL_PLACES = (((),), ((0,),), ((0, 1), (0, 2)), ((0, 1, 2),), ((0, 1, 2, 3),))


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
        if not all(isinstance(s, int) for s in self.slots):
            raise PatternError("slots must be ints")
        frees = [s for s in self.slots if s < 0]
        if sorted(frees, reverse=True) != list(_FREE):
            raise PatternError("exactly one slot per free label is required")
        for i, s in enumerate(self.slots):
            if s >= 0 and (s == i or s >= len(self.slots) or self.slots[s] != i):
                raise PatternError(f"slot {i} is not consistently paired")

    def slot_names(self) -> list[str]:
        """Human-readable slot map: free labels i/j/k/l, contractions e0, e1, ..."""
        return _slot_letters(self.slots, [f"e{e}" for e in range(2 * self.degree)])


def _slot_letters(slots, edges) -> list[str]:
    """The name of each slot: free label l is _LABELS[l], and both ends of
    the e-th contraction, counted by the slot of its first end, are edges[e]."""
    names = [""] * len(slots)
    edge = 0
    for i, s in enumerate(slots):
        if s < 0:
            names[i] = _LABELS[-s - 1]
        elif s > i:
            names[i] = names[s] = edges[edge]
            edge += 1
    return names


def canonicalize(slots) -> tuple[tuple, int, bool]:
    """Canonical form of a raw slot tuple.

    Returns (canonical_slots, sign, is_zero): sign relates the input pattern
    to its canonical representative; is_zero means some symmetry fixes the
    pattern with sign -1, so it vanishes identically.  The canonical form
    is the image under _orbit_maps with the least _keys key; its sign is the
    map's sign times the parity of the free-label renaming, taken at the
    first such map.  Raises PatternError when slots is not a pattern of
    degree at most 4.

    The first 4k digits of a key depend only on which factors a map puts at
    positions 0..k-1 and with which symmetries, so the maps are chosen one
    factor at a time (_placements), keeping only those whose digits so far
    are least: 184 maps are keyed for a pattern of degree 4 with no
    symmetry, of the 98,304 in the group.
    """
    slots = ContractionPattern(len(slots) // 4, tuple(slots)).slots
    p = len(slots) // 4
    if p > 4:  # the keys fit in int64 up to degree 4
        raise PatternError(f"degree {p} not supported (use at most 4)")
    maps, signs = _orbit_maps(p)
    g = np.zeros(1, dtype=np.intp)
    for offsets, rest in _placements(p):
        g = (g[:, None] + offsets).reshape(-1)
        keys, before = _keys(*_images(slots, maps[g]))
        prefix = keys // rest
        least = prefix == prefix.min()
        g, keys, before = g[least], keys[least], before[least]
    # the parity of the renaming counts the pairs of free labels out of order
    inversions = before[:, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]].sum(1)
    total = signs[g] * (1 - 2 * (inversions % 2))
    sign = total[g == g.min()][0]  # at the first least map of the group
    return _pattern(keys[0], p), int(sign), bool((total != sign).any())


def _images(slots, maps):
    """(free, a, b): under each row of maps, a slot map of _orbit_maps, one
    row of the new slots of free labels 0..3 and of the two ends of each
    contraction."""
    ends = [(s, t) for s, t in enumerate(slots) if t > s]
    return (maps[:, [slots.index(-1 - label) for label in range(4)]],
            maps[:, [s for s, _ in ends]], maps[:, [t for _, t in ends]])


def _keys(free, a, b):
    """One integer key per pattern, its free labels renamed in slot order.

    Row i puts free label l at slot free[i, l] and pairs slot a[i, e] with
    slot b[i, e].  The key reads the 4p slots left to right as base-(2p + 4)
    digits: a free slot reads 2p + its rank, a contracted slot the number of
    contractions opened left of its pair.  Distinct patterns get distinct
    keys, which fit in int64 up to degree 4.  Also returns before[i, l, k]:
    free label k sits left of free label l.  The counts of both are below
    2p + 4, so they are summed in int8.
    """
    p = (free.shape[1] + 2 * a.shape[1]) // 4
    before = free[:, :, None] > free[:, None, :]
    opened = np.minimum(a, b)
    edge = (opened[:, :, None] > opened[:, None, :]).sum(2, dtype=np.int8)
    place = (2 * p + 4) ** np.arange(4 * p - 1, -1, -1)
    keys = ((place[free] * (2 * p + before.sum(2, dtype=np.int8))).sum(1)
            + ((place[a] + place[b]) * edge).sum(1))
    return keys, before


def _pattern(key, p: int) -> tuple:
    """The slot tuple of degree p whose _keys key is key."""
    digits = key // (2 * p + 4) ** np.arange(4 * p - 1, -1, -1) % (2 * p + 4)
    # ordered by digit, the two ends of each contraction sit side by side
    by_digit = digits.argsort(kind="stable")
    partner = np.empty_like(by_digit)
    partner[by_digit] = by_digit[np.arange(4 * p) ^ 1]
    return tuple(np.where(digits < 2 * p, partner, 2 * p - 1 - digits).tolist())


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


@lru_cache(maxsize=None)
def _orbit_maps(p: int):
    """The slot-map group of degree-p patterns, free labels aside.

    Returns (maps, signs), read-only int8 arrays with one row per map:
    factor reordering times one _FACTOR_SYMS element per factor, p! * 8**p
    maps in all, in the order that _placements reads.  maps[g] sends old
    slot s to new slot maps[g, s], and signs[g] is the product of the
    factor symmetry signs.
    """
    perms, signs = (np.array(x, dtype=np.int8) for x in zip(*_FACTOR_SYMS))
    # factor order (outer) times one symmetry per factor position (inner)
    order = np.array(list(itertools.permutations(range(p))), dtype=np.int8)[:, None, :, None]
    syms = np.indices((8,) * p, dtype=np.int8).reshape(p, -1).T
    # new slot 4 * f + q is old slot 4 * order[f] + perm[q], perm that of syms[f]
    old = (4 * order + perms[syms]).reshape(-1, 4 * p)
    maps = np.empty_like(old)
    np.put_along_axis(maps, old, np.arange(4 * p, dtype=np.int8), axis=1)
    signs = np.tile(signs[syms].prod(1), len(order)).astype(np.int8)
    maps.flags.writeable = signs.flags.writeable = False
    return maps, signs


@lru_cache(maxsize=None)
def _placements(p: int) -> tuple:
    """The steps in which canonicalize chooses its maps, as (offsets, rest).

    Map sum_k (c_k * (p-1-k)! * 8**p + s_k * 8**(p-1-k)) of _orbit_maps
    puts the c_k-th factor not yet placed at position k, with factor
    symmetry s_k, so a map whose later choices are all 0 stands for the
    choices made so far.  A step adds each of its offsets to each map kept,
    which places one more factor; the last step places the last two, since
    one _keys call on their 128 choices costs less than two calls on 16 and
    8.  rest is (2p + 4) ** (the digits the step leaves open), so key // rest
    reads the digits decided so far.
    """
    steps = [((np.arange(p - k)[:, None] * math.factorial(p - 1 - k) * 8 ** p
               + np.arange(8) * 8 ** (p - 1 - k)).reshape(-1), (2 * p + 4) ** (4 * (p - 1 - k)))
             for k in range(p)]
    if p > 1:
        (last, _), (offsets, rest) = steps[-2:]
        steps[-2:] = [((last[:, None] + offsets).reshape(-1), rest)]
    for offsets, _ in steps:
        offsets.flags.writeable = False
    return tuple(steps)


def _normal_frees(p: int) -> list[list[int]]:
    """The free-slot sets of degree p in normal form.

    The factors carry non-increasing free counts, and each factor's free
    slots are one of _NORMAL_PLACES.  Factor reordering sorts the counts and
    one _FACTOR_SYMS element per factor moves its free slots there, so some
    map of _orbit_maps takes every free-slot set to one of these.
    """
    frees = []
    for counts in itertools.combinations_with_replacement(range(4, -1, -1), p):
        if sum(counts) == 4:
            for places in itertools.product(*(_NORMAL_PLACES[c] for c in counts)):
                frees.append([4 * f + q for f, place in enumerate(places) for q in place])
    return frees


@lru_cache(maxsize=None)
def enumerate_patterns(p: int) -> tuple[ContractionPattern, ...]:
    """All canonical degree-p patterns with 4 free slots, deterministic order.

    A raw pattern is a free-slot set, labelled in slot order, and a matching
    of the other slots.  Every orbit holds a raw whose free slots are in
    normal form (_normal_frees: 8 sets of the 495 at degree 3), so only
    those raws are keyed, in one _keys call; raws with a trace inside one
    antisymmetric index pair vanish and are dropped.  Until every key is
    marked, the least unmarked one is read back into its raw, which is
    canonicalized, and its images under the maps of _orbit_maps that carry
    its free slots to a normal form are keyed: they are the keyed raws of
    its orbit, which they mark.  Patterns that vanish by a sign-reversing
    symmetry go too.  Degrees 2, 3 and 4 are supported.
    """
    if p not in (2, 3, 4):
        raise PatternError(f"degree {p} not supported (use 2, 3 or 4)")
    frees = _normal_frees(p)
    rests = np.array([[s for s in range(4 * p) if s not in free] for free in frees],
                     dtype=np.int8)
    # a matching pairs positions within a free set's remaining slots
    matchings = np.array(list(_matchings(list(range(4 * p - 4)))), dtype=np.int8)
    ends = rests[:, matchings].reshape((-1,) + matchings.shape[1:])
    a, b = ends[..., 0], ends[..., 1]
    free = np.repeat(np.array(frees, dtype=np.int8), len(matchings), axis=0)
    # a trace inside an antisymmetric index pair is identically zero
    kept = (a // 2 != b // 2).all(1)
    # keys of distinct raws are distinct, so a sort does what np.unique would
    # (a stable sort runs the code of _pattern's argsort: numpy's quicksort
    # would page in more of numpy for the whole process)
    keys = np.sort(_keys(free[kept], a[kept], b[kept])[0], kind="stable")
    # per normal free set, the maps that carry it to a normal free set
    maps = _orbit_maps(p)[0]
    normal = np.zeros(1 << 4 * p, dtype=bool)
    normal[[sum(1 << s for s in f) for f in frees]] = True
    into = {tuple(f): normal[(1 << maps[:, f].astype(np.int64)).sum(1)].nonzero()[0]
            for f in frees}
    marked = np.zeros(len(keys), dtype=bool)
    canons = []
    while not marked.all():
        raw = _pattern(keys[marked.argmin()], p)
        canon, _, zero = canonicalize(raw)
        if not zero:
            canons.append(canon)
        # maps carry index pairs to index pairs, so no image has a trace in
        # one, and these images have their free slots in normal form: each
        # is a keyed raw
        moves = into[tuple(s for s, t in enumerate(raw) if t < 0)]
        marked[np.searchsorted(keys, _keys(*_images(raw, maps[moves]))[0])] = True
    return tuple(ContractionPattern(p, c) for c in sorted(canons))


def pattern_from_slot_names(names) -> tuple:
    """Raw slot tuple from a list like ["i","j","a","b","k","l","b","a"]."""
    slots = [None] * len(names)
    where: dict = {}
    for pos, nm in enumerate(names):
        if nm in _LABELS:
            slots[pos] = -(_LABELS.index(nm) + 1)
        elif nm in where:
            other = where.pop(nm)
            slots[pos], slots[other] = other, pos
        else:
            where[nm] = pos
    if where:
        raise PatternError(f"unpaired contraction names: {sorted(where)}")
    return tuple(slots)


def trace_pattern(p: int) -> tuple:
    """Raw slot tuple of tr Omega^p: factor f carries free labels 2f and
    2f + 1, and its slot 3 contracts with slot 2 of factor (f + 1) mod p;
    trace_pattern(2) is the double trace R_{ijab} R_{klba}."""
    return tuple(s for f in range(p)
                 for s in (-2 * f - 1, -2 * f - 2, 4 * ((f - 1) % p) + 3, 4 * ((f + 1) % p) + 2))


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


@lru_cache(maxsize=None)
def _einsum_spec(slots: tuple) -> str:
    """einsum spec of a raw slot tuple: contractions a..h, free labels from
    _LABELS, which in label order are the output."""
    names = _slot_letters(slots, "abcdefgh")
    ops = ",".join("".join(names[f:f + 4]) for f in range(0, len(slots), 4))
    return f"{ops}->{_LABELS[:sum(s < 0 for s in slots)]}"


def alternating_form(R: Tensor, terms) -> Tensor:
    """The alternating tensor of sum weight * (contraction of copies of R by
    slots) over the (slots, weight) terms, all with k free labels, with no
    1/k! factor (callers put it in the weights).  Refuses n < k.

    The rows are of R's integer form D * R, so D**deg times the terms'
    values: over L, the lcm of each weight's denominator times D**deg, the
    weighted sum is one of integers, scattered with its signs into the
    form's integer array over L.
    """
    k = sum(s < 0 for s in terms[0][0])
    if R.n < k:
        raise ValueError(f"a degree-{k} antisymmetric form is identically zero "
                         f"for n={R.n} < {k}")
    rows = alternating_rows([R], [_einsum_spec(slots) for slots, _ in terms])[0]
    D = R._int[1]
    scales = [weight.denominator * D ** (len(slots) // 4) for slots, weight in terms]
    L = math.lcm(*scales)
    values = sum(weight.numerator * (L // scale) * row
                 for (_, weight), scale, row in zip(terms, scales, rows))
    at, signs = _alternating_index(R.n, k)
    X = np.zeros((R.n,) * k, dtype=object)
    X[at] = values[:, None] * signs
    return Tensor.from_integers(X, L)


def evaluate_pattern(pat: ContractionPattern, R) -> Tensor:
    """Contract degree copies of R per the pattern, antisymmetrize free slots."""
    if not isinstance(R, Tensor):
        R = Tensor(len(R), R)
    return alternating_form(R, [(pat.slots, Fraction(1, 24))])


def _int_sym3(n: int, seed: int, bound: int) -> Sym3Tensor:
    vals = tuple(rng.integer_at(f"mine-rho|{n}|{bound}", seed, i, bound)
                 for i in range(sym3_dim(n)))
    return Sym3Tensor(n, vals)


@dataclass
class MinedIdentityBasis:
    n: int
    degree: int
    patterns: tuple
    image_identities: list      # basis of N1
    universal_identities: list  # basis of N2
    quotient_representatives: list
    rho_samples_used: int
    generic_samples_used: int
    seed: int

    @property
    def quotient_dim(self) -> int:
        return len(self.image_identities) - len(self.universal_identities)

    def to_json(self) -> dict:
        from .serialize import format_rational  # census and verify never load serialize

        def fr(v):
            return [format_rational(q) for q in v]
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
_SAMPLE_BOUND = 5  # entries of the rho and generic samples lie in [-5, 5]


def mine(n: int, p: int, max_samples: int | None = None,
         seed: int = 0) -> MinedIdentityBasis:
    """Separate image-of-rho identities from universal curvature identities.

    Evaluation rows are added sample by sample until the matrix rank is
    stable for 5 consecutive additions, at most max_samples per phase
    (default: pattern count + 40), evaluated in batches that end where
    the run could first stop.  N1 is the exact nullspace of the
    rho-sample rows; N2 is that of the same row space with the
    generic-curvature rows added on top, so universal identities are, by
    construction, a subspace of the image identities.
    """
    if n < 4:
        raise ValueError("mining needs n >= 4")
    check_dim(n)
    patterns = enumerate_patterns(p)
    cap = len(patterns) + 40 if max_samples is None else max_samples
    if cap < len(patterns) + 5:
        raise ValueError("max_samples must be >= pattern count + 5")
    specs = [_einsum_spec(pat.slots) for pat in patterns]

    def collect(make_sample):
        used, stable = 0, 0
        while used < cap:
            # no sample before the last of this batch can end the run, so
            # the batch holds exactly the samples the run evaluates
            size = min(cap - used, max(_STABLE_RUN - stable, _STABLE_RUN + 1 - used))
            batch = [make_sample(used + i) for i in range(size)]
            # per sample, one row per sorted quadruple of 24 x the pattern
            # values: the samples are integer, and the uniform 24 leaves the
            # nullspace unchanged
            for rows in alternating_rows(batch, specs).transpose(0, 2, 1).tolist():
                grew = any([space.add(r) for r in rows])
                used += 1
                stable = 0 if grew else stable + 1
            if stable >= _STABLE_RUN and used >= _STABLE_RUN + 1:
                return used
        raise StabilizationError(
            f"rank still increasing after {cap} samples (rank {space.rank})")

    def rho_sample(i):
        A = _int_sym3(n, rng.sample_seed(seed, i), _SAMPLE_BOUND)
        return rho(A)

    def generic_sample(i):
        tag, sample = f"mine-generic|{n}|{_SAMPLE_BOUND}", rng.sample_seed(seed, i)
        coeffs = [rng.integer_at(tag, sample, m, _SAMPLE_BOUND)
                  for m in range(curvature_space_dim(n))]
        return materialize(n, coeffs)

    # one sample space: N1 is its nullspace after the rho rows, N2 after
    # the generic rows have been added on top
    space = linalg.RowSpace(len(patterns))
    rho_used = collect(rho_sample)
    n1 = space.nullspace()
    free1 = [c for c in range(len(patterns)) if c not in space.pivots]
    gen_used = collect(generic_sample)
    n2 = space.nullspace()
    # the representatives are the N1 vectors whose free column the generic
    # rows made a pivot: an N2 vector is nonzero only at its own free column
    # and at pivot columns left of it, so these are the N1 vectors that a
    # greedy complement of N2 in N1, taken in order, keeps
    kept = [v for fc, v in zip(free1, n1) if fc in space.pivots]
    return MinedIdentityBasis(
        n=n, degree=p, patterns=patterns,
        image_identities=n1, universal_identities=n2,
        quotient_representatives=kept,
        rho_samples_used=rho_used, generic_samples_used=gen_used, seed=seed)
