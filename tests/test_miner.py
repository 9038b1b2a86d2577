import collections
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hesslab import linalg, miner
from hesslab.curvature import curvature_space_dim, materialize, random_curvature
from hesslab.hessmap import rho
from hesslab.tensor import Sym3Tensor, Tensor, signed_permutations
from tensor_helpers import combine, identity_spans

# golden values frozen at first enumeration; the degree-2 count is
# independently cross-checked below by evaluation-based deduplication
GOLDEN_PATTERN_COUNT = {2: 5, 3: 35, 4: 288}

# SHA-256 of the JSON list of degree-4 slot tuples in enumeration order,
# recorded from the enumeration that keyed every image of each orbit
DEGREE4_DIGEST = "4a6c036ce1885423c69681d2df8559b58060dda93c580e2158ec7a629a953af7"

# canonical slot tuples in enumeration order, recorded from the
# brute-force enumerator (one canonicalize per raw pattern)
PINNED_PATTERNS = {
    2: (
        (2, 3, 0, 1, -1, -2, -3, -4),
        (2, 4, 0, -1, 1, -2, -3, -4),
        (4, -1, 6, -2, 0, -3, 2, -4),
        (4, 5, -1, -2, 0, 1, -3, -4),
        (4, 6, -1, -2, 0, -3, 1, -4),
    ),
    3: (
        (2, 3, 0, 1, 6, 7, 4, 5, -1, -2, -3, -4),
        (2, 3, 0, 1, 6, 8, 4, -1, 5, -2, -3, -4),
        (2, 3, 0, 1, 8, -1, 10, -2, 4, -3, 6, -4),
        (2, 3, 0, 1, 8, 9, -1, -2, 4, 5, -3, -4),
        (2, 3, 0, 1, 8, 10, -1, -2, 4, -3, 5, -4),
        (2, 4, 0, -1, 1, -2, 8, -3, 6, 10, 9, -4),
        (2, 4, 0, -1, 1, -2, 8, 9, 6, 7, -3, -4),
        (2, 4, 0, -1, 1, -2, 8, 10, 6, -3, 7, -4),
        (2, 4, 0, -1, 1, 8, -2, -3, 5, 10, 9, -4),
        (2, 4, 0, -1, 1, 8, 9, -2, 5, 6, -3, -4),
        (2, 4, 0, -1, 1, 8, 10, -2, 5, -3, 6, -4),
        (2, 4, 0, 6, 1, 7, 3, 5, -1, -2, -3, -4),
        (2, 4, 0, 6, 1, 8, 3, -1, 5, -2, -3, -4),
        (2, 4, 0, 8, 1, -1, 10, -2, 3, -3, 6, -4),
        (2, 4, 0, 8, 1, 6, 5, -1, 3, -2, -3, -4),
        (2, 4, 0, 8, 1, 9, -1, -2, 3, 5, -3, -4),
        (2, 4, 0, 8, 1, 10, -1, -2, 3, -3, 5, -4),
        (4, 5, 6, 7, 0, 1, 2, 3, -1, -2, -3, -4),
        (4, 5, 6, 8, 0, 1, 2, -1, 3, -2, -3, -4),
        (4, 5, 8, -1, 0, 1, 9, -2, 2, 6, -3, -4),
        (4, 5, 8, -1, 0, 1, 10, -2, 2, -3, 6, -4),
        (4, 5, 8, 9, 0, 1, -1, -2, 2, 3, -3, -4),
        (4, 5, 8, 10, 0, 1, -1, -2, 2, -3, 3, -4),
        (4, 6, 5, 7, 0, 2, 1, 3, -1, -2, -3, -4),
        (4, 6, 5, 8, 0, 2, 1, -1, 3, -2, -3, -4),
        (4, 6, 8, 10, 0, -1, 1, -2, 2, -3, 3, -4),
        (4, 8, 5, -1, 0, 2, 9, -2, 1, 6, -3, -4),
        (4, 8, 5, -1, 0, 2, 10, -2, 1, -3, 6, -4),
        (4, 8, 5, 9, 0, 2, -1, -2, 1, 3, -3, -4),
        (4, 8, 5, 10, 0, 2, -1, -2, 1, -3, 3, -4),
        (4, 8, 6, -1, 0, -2, 2, 10, 1, -3, 7, -4),
        (4, 8, 6, -1, 0, 9, 2, -2, 1, 5, -3, -4),
        (4, 8, 6, -1, 0, 10, 2, -2, 1, -3, 5, -4),
        (4, 8, 6, 10, 0, -1, 2, -2, 1, -3, 3, -4),
        (4, 8, 10, -1, 0, 11, -2, -3, 1, -4, 2, 5),
    ),
}


def brute_force_patterns(p):
    """Oracle: canonicalize every raw (free-slot set, matching) pattern."""
    nslots = 4 * p
    pair_of = [s // 2 for s in range(nslots)]
    seen = set()
    for free in itertools.combinations(range(nslots), 4):
        rest = [s for s in range(nslots) if s not in free]
        for matching in miner._matchings(rest):
            if any(pair_of[a] == pair_of[b] for a, b in matching):
                continue
            slots = [None] * nslots
            for lab, s in enumerate(free):
                slots[s] = -(lab + 1)
            for a, b in matching:
                slots[a], slots[b] = b, a
            canon, _, zero = miner.canonicalize(slots)
            if not zero:
                seen.add(canon)
    return tuple(sorted(seen))


def random_raw(rnd, p):
    """A seeded raw slot tuple of degree p: free labels on 4 random slots,
    in random order, and a random matching of the rest, traces included."""
    order = rnd.sample(range(4 * p), 4 * p)
    slots = [None] * (4 * p)
    for label, s in enumerate(order[:4]):
        slots[s] = -1 - label
    for s, t in zip(order[4::2], order[5::2]):
        slots[s], slots[t] = t, s
    return tuple(slots)


def moved_pattern(slots, g):
    """Raw slots of a pattern moved by slot map g, free labels in slot order."""
    out = [None] * len(slots)
    for s, t in enumerate(slots):
        if t >= 0:
            out[g[s]] = g[t]
    for lab, i in enumerate(i for i, t in enumerate(out) if t is None):
        out[i] = -(lab + 1)
    return tuple(out)


@pytest.fixture(scope="module")
def patterns2():
    return miner.enumerate_patterns(2)


@pytest.fixture(scope="module")
def patterns3():
    return miner.enumerate_patterns(3)


@pytest.fixture(scope="module")
def patterns4():
    return miner.enumerate_patterns(4)


class TestEnumeration:
    def test_degree2_count(self, patterns2):
        assert len(patterns2) == GOLDEN_PATTERN_COUNT[2]

    def test_degree3_count(self, patterns3):
        assert len(patterns3) == GOLDEN_PATTERN_COUNT[3]

    def test_degree4_count_and_digest(self, patterns4):
        assert len(patterns4) == GOLDEN_PATTERN_COUNT[4]
        slots = json.dumps([list(pat.slots) for pat in patterns4])
        assert hashlib.sha256(slots.encode()).hexdigest() == DEGREE4_DIGEST
        assert list(patterns4) == sorted(patterns4, key=lambda p: p.slots)

    @pytest.mark.parametrize("p", (2, 3))
    def test_pinned_slot_tuples(self, p, patterns2, patterns3):
        pats = {2: patterns2, 3: patterns3}[p]
        assert tuple(pat.slots for pat in pats) == PINNED_PATTERNS[p]

    def test_brute_force_oracle_degree2(self, patterns2):
        oracle = brute_force_patterns(2)
        assert oracle == PINNED_PATTERNS[2]
        assert tuple(pat.slots for pat in patterns2) == oracle

    # every orbit map at degree 2; at degree 3, every 61st of the 3072 maps,
    # which meets each factor order and each factor symmetry in each position
    @pytest.mark.parametrize("p, stride", ((2, 1), (3, 61)))
    def test_orbit_marking_is_sound(self, p, stride, patterns2, patterns3):
        pats = {2: patterns2, 3: patterns3}[p]
        maps = miner._orbit_maps(p)[0].tolist()
        for pat in pats:
            for g in maps[::stride]:
                canon, _, zero = miner.canonicalize(moved_pattern(pat.slots, g))
                assert canon == pat.slots and not zero

    @pytest.mark.parametrize("raw", (
        miner.pattern_from_slot_names(["i", "i", "a", "b", "k", "l", "b", "a"]),
        miner.pattern_from_slot_names(["i", "j", "a", "a", "k", "l"]),
        (-1, -2, -3, -4, 5, 4, 8, 6),
        (-1, -2, -3, -4) + tuple(s ^ 1 for s in range(4, 20)),  # degree 5
        (None,) * 8,
        (2.0, 3, 0, 1, -1, -2, -3, -4),
        tuple("ijabklba"),
    ))
    def test_canonicalize_rejects_bad_slot_tuples(self, raw):
        with pytest.raises(miner.PatternError):
            miner.canonicalize(raw)

    def test_unsupported_degree(self):
        with pytest.raises(miner.PatternError):
            miner.enumerate_patterns(5)
        # mine checks the dimension, then the degree
        with pytest.raises(miner.PatternError, match="degree 5 not supported"):
            miner.mine(4, 5)
        with pytest.raises(ValueError, match="dimension must be in"):
            miner.mine(100000, 5)

    def test_canonicalization_idempotent(self, patterns2):
        for pat in patterns2:
            canon, sign, zero = miner.canonicalize(pat.slots)
            assert canon == pat.slots and sign == 1 and not zero

    def test_contains_double_trace_pattern(self, patterns2):
        # tr Omega^2 is R_{ijab} R_{klba}
        assert miner.trace_pattern(2) == miner.pattern_from_slot_names(list("ijabklba"))
        canon, _, zero = miner.canonicalize(miner.trace_pattern(2))
        assert not zero
        assert canon in {p.slots for p in patterns2}

    def test_contains_both_cubic_patterns(self, patterns3):
        slots = {p.slots for p in patterns3}
        for raw, _ in miner.cubic_identity_combination():
            canon, _, zero = miner.canonicalize(raw)
            assert not zero
            assert canon in slots

    def test_deterministic_order(self, patterns2):
        assert patterns2 == miner.enumerate_patterns(2)
        assert list(patterns2) == sorted(patterns2, key=lambda p: p.slots)

    def test_degree2_count_cross_check_by_evaluation(self, patterns2):
        # independent oracle: enumerate raw patterns with NO canonicalization
        # and group them by the orbit of their raw (pre-antisymmetrization)
        # evaluation tensors under signed permutations of the output axes.
        # Classes whose antisymmetrization is forced to vanish by a
        # sign-reversing symmetry are excluded, mirroring the enumerator.
        import numpy as np
        samples = [random_curvature(4, seed=s, bound=4) for s in (1, 2)]

        def orbit_info(slot_tuple):
            pat = miner.ContractionPattern(2, slot_tuple)
            spec = miner._einsum_spec(pat.slots)
            outs = [np.einsum(spec, R.data, R.data, optimize=True)
                    for R in samples]
            base = tuple(x for o in outs for x in o.flat)
            variants, degenerate = [], False
            for perm, sgn in signed_permutations(4):
                flat = tuple(x for o in outs
                             for x in np.transpose(o, perm).flat)
                neg = tuple(-x for x in flat)
                variants.extend((flat, neg))
                for s, moved in ((1, flat), (-1, neg)):
                    if moved == base and s * sgn == -1:
                        degenerate = True
            return min(variants), degenerate

        classes: dict = {}
        pair_of = [s // 2 for s in range(8)]
        for free in itertools.combinations(range(8), 4):
            rest = [s for s in range(8) if s not in free]
            for matching in miner._matchings(rest):
                if any(pair_of[a] == pair_of[b] for a, b in matching):
                    continue
                slots = [None] * 8
                for lab, s in enumerate(free):
                    slots[s] = -(lab + 1)
                for a, b in matching:
                    slots[a], slots[b] = b, a
                key, deg = orbit_info(tuple(slots))
                classes[key] = classes.get(key, False) or deg
        nondegenerate = sum(1 for d in classes.values() if not d)
        assert nondegenerate == len(patterns2)


def raw_rows(p):
    """(free, a, b) int8 rows of every raw degree-p pattern, traced ones too:
    the free slots in label order, then both ends of each contraction."""
    free, a, b = [], [], []
    for fr in itertools.combinations(range(4 * p), 4):
        rest = [s for s in range(4 * p) if s not in fr]
        for matching in miner._matchings(rest):
            free.append(fr)
            a.append([s for s, _ in matching])
            b.append([t for _, t in matching])
    return tuple(np.array(x, dtype=np.int8) for x in (free, a, b))


@pytest.fixture(scope="module", params=(2, 3))
def raws(request):
    p = request.param
    free, a, b = raw_rows(p)
    return p, (free, a, b), miner._keys(free, a, b)[0]


class TestKeys:
    def test_raw_keys_are_distinct(self, raws):
        p, _, keys = raws
        assert len(np.unique(keys)) == len(keys) == {2: 210, 3: 51_975}[p]

    def test_keys_read_back_to_their_raws(self, raws):
        p, (free, a, b), keys = raws
        for r in range(0, len(keys), 1 if p == 2 else 97):
            raw = [None] * (4 * p)
            for label, s in enumerate(free[r].tolist()):
                raw[s] = -1 - label
            for s, t in zip(a[r].tolist(), b[r].tolist()):
                raw[s], raw[t] = t, s
            assert miner._pattern(keys[r], p) == tuple(raw)

    def test_orbit_keys_are_raw_keys_and_canonical_key_is_least(self, raws):
        p, _, keys = raws
        for slots in PINNED_PATTERNS[p]:
            orbit = miner._keys(*miner._images(slots, miner._orbit_maps(p)[0]))[0]
            assert np.isin(orbit, keys).all()
            own = (
                np.array([[slots.index(-1 - label) for label in range(4)]]),
                np.array([[s for s, t in enumerate(slots) if t > s]]),
                np.array([[t for s, t in enumerate(slots) if t > s]]))
            assert miner._keys(*own)[0][0] == orbit.min()

    @pytest.mark.parametrize("p, calls", ((2, 6), (3, 42)))
    def test_canonicalize_runs_once_per_orbit(self, p, calls, monkeypatch):
        count, canonicalize = [], miner.canonicalize

        def counted(slots):
            count.append(slots)
            return canonicalize(slots)

        monkeypatch.setattr(miner, "canonicalize", counted)
        pats = miner.enumerate_patterns.__wrapped__(p)  # bypass the cache
        assert tuple(pat.slots for pat in pats) == PINNED_PATTERNS[p]
        assert len(count) == calls

    # one _keys call for the normal-form raws and, besides canonicalize's own,
    # one per orbit (6 at p = 2, 42 at p = 3) that marks it: the marking keys
    # only keyed raws, and each keyed raw in one orbit only
    @pytest.mark.parametrize("p, sweeps, orbits", ((2, 1, 6), (3, 1, 42)))
    def test_each_orbit_is_keyed_once(self, p, sweeps, orbits, monkeypatch):
        marks, inside = [], []
        keys, canonicalize = miner._keys, miner.canonicalize

        def counted(*args):
            result = keys(*args)
            if not inside:
                marks.append(result[0])
            return result

        def canonical(slots):
            inside.append(slots)
            try:
                return canonicalize(slots)
            finally:
                inside.pop()

        monkeypatch.setattr(miner, "_keys", counted)
        monkeypatch.setattr(miner, "canonicalize", canonical)
        pats = miner.enumerate_patterns.__wrapped__(p)  # bypass the cache
        assert tuple(pat.slots for pat in pats) == PINNED_PATTERNS[p]
        assert len(marks) == sweeps + orbits
        swept, orbit_keys = marks[0], [np.unique(k) for k in marks[sweeps:]]
        assert np.array_equal(np.sort(np.concatenate(orbit_keys)), np.sort(swept))

    # the maps of a factor chosen with no tie: 8p for the first, 8(p - 1)
    # for the second, then 128 for the last two together
    @pytest.mark.parametrize("p, fewest, share", ((3, 152, 1), (4, 184, 7)))
    def test_canonicalize_keys_part_of_the_group(self, p, fewest, share, monkeypatch):
        rows, keys = [], miner._keys
        monkeypatch.setattr(miner, "_keys",
                            lambda *args: rows.append(len(args[0])) or keys(*args))
        group = len(miner._orbit_maps(p)[0])
        per_call = []
        for pat in miner.enumerate_patterns(p):
            rows.clear()
            assert miner.canonicalize(pat.slots)[0] == pat.slots
            per_call.append(sum(rows))
        assert min(per_call) == fewest
        assert max(per_call) * share < group

    # every raw at degree 2, every 97th at degree 3, which meets each of the
    # 495 free-slot sets (945 raws each)
    @pytest.mark.parametrize("p, stride, count", ((2, 1, 6), (3, 97, 8)))
    def test_some_map_puts_the_free_slots_in_normal_form(self, p, stride, count):
        normal = {sum(1 << s for s in free) for free in miner._normal_frees(p)}
        assert len(normal) == count
        maps = miner._orbit_maps(p)[0].astype(np.int64)
        for free in raw_rows(p)[0][::stride]:
            moved = (1 << maps[:, free]).sum(1)
            assert np.isin(moved, list(normal)).any()


class TestCanonicalForms:
    """canonicalize on seeded random raws, whose free slots are mostly not in
    normal form and whose free labels come in any order, checked against
    the whole group and by evaluation."""

    @pytest.mark.parametrize("p, count", ((2, 300), (3, 150), (4, 30)))
    def test_least_key_over_the_whole_group(self, p, count):
        maps, signs = miner._orbit_maps(p)
        normal = {tuple(free) for free in miner._normal_frees(p)}
        rnd, outside = random.Random(100 + p), 0
        for _ in range(count):
            raw = random_raw(rnd, p)
            outside += tuple(s for s, t in enumerate(raw) if t < 0) not in normal
            keys, before = miner._keys(*miner._images(raw, maps))
            tied = np.flatnonzero(keys == keys.min())
            # the map's sign times the parity of the free-label renaming
            total = signs[tied] * (1 - 2 * (np.triu(before[tied], 1).sum((1, 2)) % 2))
            assert miner.canonicalize(raw) == (
                miner._pattern(keys.min(), p), int(total[0]), bool((total != total[0]).any()))
        assert outside > count // 2

    @pytest.mark.parametrize("p, count", ((3, 40), (4, 30)))
    def test_raws_evaluate_to_sign_times_canonical_form(self, p, count):
        R = random_curvature(5, seed=p)
        rnd, nonzero = random.Random(200 + p), 0
        for _ in range(count):
            raw = random_raw(rnd, p)
            canon, sign, zero = miner.canonicalize(raw)
            value = miner.evaluate_pattern(miner.ContractionPattern(p, raw), R)
            if zero:
                assert value.is_zero()
            else:
                canonical = miner.evaluate_pattern(miner.ContractionPattern(p, canon), R)
                assert value == combine((sign, canonical))
                nonzero += not value.is_zero()
        assert nonzero > count // 4


class TestGroup:
    @pytest.mark.parametrize("p", (2, 3, 4))
    def test_maps_are_distinct_slot_permutations(self, p):
        maps, signs = miner._orbit_maps(p)
        assert maps.shape == (math.factorial(p) * 8 ** p, 4 * p)
        assert len({tuple(g) for g in maps.tolist()}) == len(maps)
        assert (np.sort(maps, axis=1) == np.arange(4 * p)).all()
        assert set(signs.tolist()) == {-1, 1}

    # every pair at degree 2; at degree 3, every 61st map followed by every map
    @pytest.mark.parametrize("p, stride", ((2, 1), (3, 61)))
    def test_signs_multiply_under_composition(self, p, stride):
        maps, signs = miner._orbit_maps(p)
        index = {g: i for i, g in enumerate(map(tuple, maps.tolist()))}
        for g in range(0, len(maps), stride):
            # row h of maps[:, maps[g]] is g followed by h
            composed = [index[hg] for hg in map(tuple, maps[:, maps[g]].tolist())]
            assert (signs[composed] == signs[g] * signs).all()

    # each step of _placements decides the old slots of the next new slots:
    # every map that completes a choice agrees there with the map that
    # stands for it, and the completions of the last step are the group
    @pytest.mark.parametrize("p", (1, 2, 3, 4))
    def test_placements_choose_factors_in_order(self, p):
        old = np.argsort(miner._orbit_maps(p)[0], axis=1)  # new slot -> old slot
        steps = miner._placements(p)
        g = np.zeros(1, dtype=np.intp)
        for i, (offsets, rest) in enumerate(steps):
            g = (g[:, None] + offsets).reshape(-1)
            later = np.zeros(1, dtype=np.intp)
            for more, _ in steps[i + 1:]:
                later = (later[:, None] + more).reshape(-1)
            placed = p if i == len(steps) - 1 else i + 1
            assert rest == (2 * p + 4) ** (4 * (p - placed))
            lead = old[g[:, None] + later][..., :4 * placed]
            assert (lead == lead[:, :1]).all()
        assert np.array_equal(np.sort(g), np.arange(len(old)))


class TestEvaluation:
    def test_zero_input(self, patterns2):
        import numpy as np
        from hesslab.curvature import CurvTensor
        Z = CurvTensor(Tensor(4, np.full((4,) * 4, Fraction(0), dtype=object)))
        for pat in patterns2:
            assert miner.evaluate_pattern(pat, Z).is_zero()

    def test_double_trace_matches_quadratic_identity(self, patterns2):
        from hesslab.identities import pontryagin_quadratic
        R = random_curvature(4, seed=7)
        vec = miner.coefficient_vector(
            patterns2, [(miner.trace_pattern(2), 1)])
        acc = combine(*[(c, miner.evaluate_pattern(pat, R))
                        for pat, c in zip(patterns2, vec) if c])
        assert acc == pontryagin_quadratic(R)

    def test_vanishing_raw_pattern_adds_nothing(self, patterns2):
        # R_{aaij} R_{klbb} traces both antisymmetric pairs: it is zero
        raw = miner.pattern_from_slot_names(list("aaijklbb"))
        assert miner.canonicalize(raw)[2]
        trace = [(miner.trace_pattern(2), 1)]
        assert miner.coefficient_vector(patterns2, [(raw, 5)] + trace) == \
            miner.coefficient_vector(patterns2, trace)

    def test_unpaired_names_and_patterns_outside_the_basis_refused(self, patterns2):
        with pytest.raises(miner.PatternError, match=r"unpaired contraction names: \['a', 'c'\]"):
            miner.pattern_from_slot_names(list("ijabklbc"))
        # the cubic combination's degree-3 patterns are not in the degree-2 basis
        with pytest.raises(miner.PatternError, match="pattern is not in the enumerated basis"):
            miner.coefficient_vector(patterns2, miner.cubic_identity_combination())

    def test_cubic_combination_matches_cubic_identity(self, patterns3):
        from hesslab.identities import cubic_identity
        R = random_curvature(4, seed=8)
        vec = miner.coefficient_vector(patterns3, miner.cubic_identity_combination())
        acc = combine(*[(c, miner.evaluate_pattern(pat, R))
                        for pat, c in zip(patterns3, vec) if c])
        assert acc == cubic_identity(R)

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_full_array_antisymmetrization(self, patterns2, patterns3, n):
        import numpy as np
        from hesslab.tensor import antisymmetrize
        R = random_curvature(n, seed=14)
        # patterns3[0] has two fully traced factors: numpy's optimized
        # einsum cannot take the bare Fraction scalars they contract to
        for pat in patterns2 + (patterns3[::6] if n == 4 else ()):
            raw = np.einsum(miner._einsum_spec(pat.slots), *[R.data] * pat.degree)
            old = antisymmetrize(Tensor(n, raw), [0, 1, 2, 3])
            assert miner.evaluate_pattern(pat, R) == old

    @pytest.mark.parametrize("n, p", [(4, 2), (4, 3), (5, 2), (5, 3)])
    def test_integer_rows_are_24_times_pattern_values(self, n, p):
        pats = miner.enumerate_patterns(p)
        quads = list(itertools.combinations(range(n), 4))
        generic = materialize(n, list(range(-3, curvature_space_dim(n) - 3))).data
        for data in (rho(miner._int_sym3(n, 2, 5)).data, generic):
            specs = [miner._einsum_spec(pat.slots) for pat in pats]
            rows = miner.alternating_rows([data], specs)[0].T.tolist()
            vals = [miner.evaluate_pattern(pat, data) for pat in pats]
            assert rows == [[24 * v.data[q] for v in vals] for q in quads]
            assert all(type(x) is int for row in rows for x in row)

    def test_bilinearity_degree2(self, patterns2):
        R1 = random_curvature(4, seed=9)
        R2 = random_curvature(4, seed=10)
        both = Tensor(4, R1.data + R2.data)
        for pat in patterns2[:2]:
            phi1, phi2 = miner.evaluate_pattern(pat, R1), miner.evaluate_pattern(pat, R2)
            # the quadratic expansion leaves exactly the two mixed terms:
            # phi(R1+R2) - phi(R1) - phi(R2) must be bilinear, so scaling
            # R2 by 2 doubles it
            mixed = combine((1, miner.evaluate_pattern(pat, both)), (-1, phi1), (-1, phi2))
            doubled = Tensor(4, R1.data + 2 * R2.data)
            mixed2 = combine((1, miner.evaluate_pattern(pat, doubled)), (-1, phi1), (-4, phi2))
            assert mixed2 == combine((2, mixed))


@pytest.fixture(scope="module")
def mined42():
    return miner.mine(4, 2, seed=3)


class TestMine:
    def test_quotient_contains_double_trace(self, mined42):
        vec = miner.coefficient_vector(
            mined42.patterns, [(miner.trace_pattern(2), 1)])
        image, universal = identity_spans(mined42)
        assert mined42.quotient_dim >= 1
        assert image.contains(vec)
        assert not universal.contains(vec)

    def test_universal_subspace_of_image(self, mined42):
        image = identity_spans(mined42)[0]
        for v in mined42.universal_identities:
            assert image.contains(v)

    def test_soundness_on_fresh_samples(self, mined42):
        quads = list(itertools.combinations(range(4), 4))
        for s in range(50):
            R = rho(Sym3Tensor.random(4, seed=10_000 + s, bound=5))
            vals = [miner.evaluate_pattern(p, R) for p in mined42.patterns]
            for v in mined42.image_identities:
                for q in quads:
                    assert sum(c * t.data[q] for c, t in zip(v, vals)) == 0

    def test_quotient_representatives_nonzero_generically(self, mined42):
        quads = list(itertools.combinations(range(4), 4))
        for v in mined42.quotient_representatives:
            hit = False
            for s in range(5):
                R = random_curvature(4, seed=20_000 + s, bound=5)
                vals = [miner.evaluate_pattern(p, R) for p in mined42.patterns]
                if any(sum(c * t.data[q] for c, t in zip(v, vals)) != 0
                       for q in quads):
                    hit = True
                    break
            assert hit

    @pytest.mark.parametrize("n, p, seed", [(n, p, seed) for p in (2, 3) for n in range(4, 9)
                                            for seed in (0, 1, 2)])
    def test_quotient_representatives_are_the_greedy_complement(self, n, p, seed):
        # keep each N1 vector that grows the span of N2 and the vectors kept so far
        basis = miner.mine(n, p, seed=seed)
        complement = linalg.RowSpace(len(basis.patterns), basis.universal_identities)
        greedy = [v for v in basis.image_identities if complement.add(v)]
        assert basis.quotient_representatives == greedy
        assert len(greedy) == basis.quotient_dim

    def test_determinism(self, mined42):
        again = miner.mine(4, 2, seed=3)
        assert again.image_identities == mined42.image_identities
        assert again.universal_identities == mined42.universal_identities

    def test_sample_cap_precondition(self):
        with pytest.raises(ValueError):
            miner.mine(4, 2, max_samples=3, seed=0)

    def test_builds_exactly_the_samples_it_uses(self, monkeypatch):
        built = collections.Counter()
        for name in ("rho", "materialize"):
            make = getattr(miner, name)
            monkeypatch.setattr(miner, name, lambda *args, name=name, make=make: (
                built.update([name]) or make(*args)))
        result = miner.mine(5, 3, seed=1)
        assert built == {"rho": result.rho_samples_used,
                         "materialize": result.generic_samples_used}

    def test_unstable_rank_raises_at_the_cap(self, monkeypatch):
        """With every row reported as growing the rank, the run never
        stabilizes: it evaluates exactly the cap, in batches of 6, then 5
        (each as many samples as the run could take before a stable end),
        and raises the text the one-sample-at-a-time loop raised."""
        add = linalg.RowSpace.add
        monkeypatch.setattr(linalg.RowSpace, "add", lambda self, row: add(self, row) or True)
        batches = []
        evaluate = miner.alternating_rows
        monkeypatch.setattr(miner, "alternating_rows", lambda samples, specs: (
            batches.append(len(samples)) or evaluate(samples, specs)))
        cap = GOLDEN_PATTERN_COUNT[3] + 5
        with pytest.raises(miner.StabilizationError) as err:
            miner.mine(5, 3, max_samples=cap, seed=1)
        assert str(err.value) == "rank still increasing after 40 samples (rank 3)"
        assert batches == [6, 5, 5, 5, 5, 5, 5, 4] and sum(batches) == cap

    def test_json_round_trippable(self, mined42):
        import json
        doc = mined42.to_json()
        json.dumps(doc)
        assert doc["pattern_count"] == GOLDEN_PATTERN_COUNT[2]
