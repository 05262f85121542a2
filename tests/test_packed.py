"""Tests for the packed bitmap layer (DESIGN.md §4).

Each layer holds a set in exactly one representation: big ints for
algorithm state and offline solvers, ``(rows, words)`` ``uint64`` blocks
inside the scan kernels, and frozensets only in the seed's reference
implementations.  The load-bearing property: the big-int family, the
greedy heap, domination pruning and the iterSetCover driver reproduce
those frozenset references exactly — including tie-breaks — on
randomized instances.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IterSetCoverConfig, iter_set_cover
from repro.offline import InfeasibleInstanceError, greedy_cover
from repro.offline.greedy import _greedy_cover_frozenset
from repro.sampling import project_onto_sample
from repro.setsystem import SetSystem, non_dominated_reference, pack, pack_rows
from repro.setsystem.packed import (
    Captures,
    ScanMask,
    accept_rows,
    chunk_gains,
    scan_chunk,
)
from repro.streaming import SetStream
from repro.utils.bitset import bits_of, mask_of

from test_iter_set_cover import _reference_iter_set_cover

#: The seed's reference form, the big int, and a one-row ``uint64`` block.
REPRESENTATIONS = ("frozenset", "python", "numpy")
#: Domination pruning: the seed's pairwise loop and the big-int kernel.
PRUNERS = ("frozenset", "python")


def random_system(rng: np.random.Generator, max_n: int = 40, max_m: int = 30) -> SetSystem:
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(0, max_m + 1))
    sets = []
    for _ in range(m):
        size = int(rng.integers(0, n + 1))
        sets.append(rng.choice(n, size=size, replace=False).tolist())
    if m > 1 and rng.random() < 0.4:
        # Inject duplicates: the domination tie-break must handle them.
        sets[int(rng.integers(m))] = list(sets[int(rng.integers(m))])
    return SetSystem(n, sets)


def feasible_random_system(rng: np.random.Generator, **kwargs) -> SetSystem:
    system = random_system(rng, **kwargs)
    sets = [set(r) for r in system.sets] or [set()]
    covered = set().union(*sets)
    for e in range(system.n):
        if e not in covered:
            sets[e % len(sets)].add(e)
    return SetSystem(system.n, sets)


def _encode(representation: str, elements, n: int):
    mask = mask_of(elements)
    if representation == "numpy":
        return pack_rows([mask], (n + 63) // 64)
    return mask if representation == "python" else frozenset(elements)


def _read(representation: str, bitmap, n: int) -> tuple[list[int], int]:
    """``(sorted elements, popcount)`` of an encoded bitmap."""
    if representation == "frozenset":
        return sorted(bitmap), len(bitmap)
    if representation == "python":
        return bits_of(bitmap), bitmap.bit_count()
    count = int(chunk_gains(bitmap, ScanMask(n, (1 << n) - 1).arr)[0])
    return bits_of(int.from_bytes(bitmap.tobytes(), "little")), count


# ----------------------------------------------------------------------
# Representations: round trips, counts and intersections
# ----------------------------------------------------------------------
class TestBitmapKernels:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 200])
    def test_roundtrip_and_counts(self, representation, n):
        # n = 65, 127, 200 leave a partial tail word in the uint64 block.
        for elements in (list(range(0, n, 3)), list(range(n)), []):
            bitmap = _encode(representation, elements, n)
            assert _read(representation, bitmap, n) == (elements, len(elements))

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_algebra_matches_sets(self, representation):
        rng = np.random.default_rng(3)
        n = 70
        for _ in range(50):
            a = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
            b = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
            ka, kb = _encode(representation, a, n), _encode(representation, b, n)
            if representation == "numpy":
                # The scan kernel: one gain and one captured projection.
                gains, captured = scan_chunk(
                    5, ka, ScanMask(n, mask_of(b)), min_capture_gain=0
                )
                assert (gains.tolist(), captured) == ([len(a & b)], [(5, mask_of(a & b))])
            elif representation == "python":
                assert bits_of(ka & kb) == sorted(a & b)
                assert bits_of(ka | kb) == sorted(a | b)
                assert bits_of(ka & ~kb) == sorted(a - b)
            else:
                assert (ka & kb, ka | kb, ka - kb) == (a & b, a | b, a - b)


# ----------------------------------------------------------------------
# The big-int family against plain set expressions
# ----------------------------------------------------------------------
class TestFamilyKernels:
    def test_family_kernels_agree_across_backends(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            system = random_system(rng)
            n, m, sets = system.n, system.m, system.sets
            family = pack(sets, n)
            residual = frozenset(range(0, n, 2))
            residual_mask = mask_of(residual)
            selection = list(range(0, m, 3))
            gains = [len(r & residual) for r in sets]
            best = max(gains, default=0)
            assert family.sizes() == [len(r) for r in sets]
            assert bits_of(family.union(selection)) == sorted(
                frozenset().union(*(sets[i] for i in selection))
            )
            assert family.gains(residual_mask) == gains
            assert family.best_gain(residual_mask) == (
                (best, gains.index(best)) if best else (0, -1)
            )
            assert family.covers(range(m)) == (
                frozenset().union(*sets) == frozenset(range(n))
            )
            assert family.project(residual_mask).to_frozensets() == [
                r & residual for r in sets
            ]
            assert family.non_dominated() == non_dominated_reference(sets)

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.lists(
                st.sets(st.integers(min_value=0, max_value=n - 1)),
                min_size=0,
                max_size=10,
            ).map(lambda sets: (n, sets))
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_domination_property(self, case):
        n, sets = case
        system = SetSystem(n, sets)
        assert system.packed().non_dominated() == non_dominated_reference(system.sets)

    def test_project_onto_sample_matches_frozensets(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            system = random_system(rng)
            sample = frozenset(
                rng.choice(system.n, size=system.n // 2, replace=False).tolist()
            )
            expected = [r & sample for r in system.sets]
            assert project_onto_sample(system.n, system.sets, sample) == expected


# ----------------------------------------------------------------------
# Solver-output equivalence with the frozenset references
# ----------------------------------------------------------------------
class TestSolverEquivalence:
    def test_greedy_identical_on_200_random_instances(self):
        rng = np.random.default_rng(1234)
        compared = 0
        for _ in range(220):
            system = random_system(rng)
            outcomes = []
            for solve in (greedy_cover, _greedy_cover_frozenset):
                try:
                    outcomes.append(("cover", solve(system)))
                except InfeasibleInstanceError:
                    outcomes.append(("infeasible", None))
            assert outcomes[0] == outcomes[1]
            compared += 1
        assert compared >= 200

    def test_domination_identical_on_200_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(210):
            system = random_system(rng)
            reference = non_dominated_reference(system.sets)
            pruned, keep = system.without_dominated_sets()
            assert keep == reference
            assert [pruned[i] for i in range(pruned.m)] == [system[i] for i in keep]

    def test_iter_set_cover_identical_across_backends(self):
        """The driver against the row-by-row frozenset oracle."""
        rng = np.random.default_rng(5150)
        config = IterSetCoverConfig(delta=0.5, use_polylog_factors=False)
        for _ in range(25):
            system = feasible_random_system(rng)
            stream_seed = int(rng.integers(0, 2**31))
            result = iter_set_cover(
                SetStream(system),
                delta=0.5,
                seed=stream_seed,
                use_polylog_factors=False,
            )
            selection, passes, *_ = _reference_iter_set_cover(
                system, config, stream_seed
            )
            assert (result.selection, result.passes) == (selection, passes)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(TypeError):
            IterSetCoverConfig(backend="python")


# ----------------------------------------------------------------------
# Tie-breaking regression: without_dominated_sets keeps seed semantics
# ----------------------------------------------------------------------
def _prune(pruner: str, system: SetSystem):
    if pruner == "frozenset":
        keep = non_dominated_reference(system.sets)
        return system.subfamily(keep), keep
    return system.without_dominated_sets()


class TestDominationTieBreaks:
    @pytest.mark.parametrize("pruner", PRUNERS)
    def test_first_duplicate_survives(self, pruner):
        system = SetSystem(4, [[0, 1], [0], [2, 3], [2, 3], [1]])
        pruned, keep = _prune(pruner, system)
        assert keep == [0, 2]  # {0} ⊂ {0,1}; {1} ⊂ {0,1}; first {2,3} wins
        assert pruned.sets == (frozenset({0, 1}), frozenset({2, 3}))

    @pytest.mark.parametrize("pruner", PRUNERS)
    def test_duplicate_of_dominated_set_is_dropped(self, pruner):
        # Both copies of {0} are strict subsets of {0,1}: neither survives.
        _, keep = _prune(pruner, SetSystem(2, [[0], [0, 1], [0]]))
        assert keep == [1]

    @pytest.mark.parametrize("pruner", PRUNERS)
    def test_empty_sets(self, pruner):
        # An empty set is dominated by any non-empty set; among only empty
        # sets, the first survives.
        _, keep = _prune(pruner, SetSystem(2, [[], [0, 1], []]))
        assert keep == [1]
        _, keep = _prune(pruner, SetSystem(2, [[], []]))
        assert keep == [0]

    @pytest.mark.parametrize("pruner", PRUNERS)
    def test_incomparable_sets_all_survive(self, pruner):
        system = SetSystem(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
        _, keep = _prune(pruner, system)
        assert keep == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Threshold accept over a capture block (DESIGN.md §8.4)
# ----------------------------------------------------------------------
def _accept_reference(rows, residual, threshold):
    """The big-int accept loop ``accept_rows`` must reproduce."""
    picked = []
    for row_id, row in rows:
        hit = row & residual
        if hit.bit_count() >= threshold:
            picked.append(row_id)
            residual &= ~hit
    return picked, residual


def _words_of(value: int, words: int) -> "np.ndarray":
    return np.frombuffer(value.to_bytes(words * 8, "little"), dtype="<u8").copy()


def _check_accept(rows, residual, threshold, words):
    captured = Captures([row_id for row_id, _ in rows],
                        pack_rows([row for _, row in rows], words))
    live = _words_of(residual, words)
    picked = accept_rows(captured, live, threshold)
    expected_ids, expected_residual = _accept_reference(rows, residual, threshold)
    assert picked == expected_ids
    assert live.tolist() == _words_of(expected_residual, words).tolist()


#: One ``uint64`` word, biased towards the top bit and all-ones patterns.
_WORD = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0, 1 << 63, (1 << 63) | 1, 2**64 - 1, 0xFF00FF00FF00FF00]),
)


@st.composite
def _accept_cases(draw):
    words = draw(st.integers(min_value=1, max_value=3))

    def as_int(parts):
        return sum(word << (64 * i) for i, word in enumerate(parts))

    def draw_int():
        return as_int(draw(st.lists(_WORD, min_size=words, max_size=words)))

    residual = draw_int()
    # Rows share bits with a few "hot" masks so accepts collide mid-chunk.
    hot = [draw_int() for _ in range(draw(st.integers(1, 3)))]
    rows = []
    row_id = draw(st.integers(min_value=0, max_value=1000))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        row = draw_int()
        if hot and draw(st.booleans()):
            row = hot[draw(st.integers(0, len(hot) - 1))] & (row | draw_int())
        rows.append((row_id, row))
        row_id += draw(st.integers(min_value=1, max_value=5))
    threshold = draw(st.integers(min_value=1, max_value=64 * words))
    return rows, residual, threshold, words


class TestAcceptRows:
    @given(_accept_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_big_int_accept_loop(self, case):
        _check_accept(*case)

    def test_empty_record(self):
        live = _words_of(0b1011, 1)
        assert accept_rows(Captures.empty(1), live, 1) == []
        assert live.tolist() == [0b1011]

    def test_threshold_one_takes_every_row_with_a_live_bit(self):
        rows = [(0, 0b0011), (1, 0b0001), (2, 0b0110), (3, 1 << 63)]
        _check_accept(rows, (1 << 63) | 0b0111, 1, 1)
        live = _words_of((1 << 63) | 0b0111, 1)
        captured = Captures([0, 1, 2, 3], pack_rows([r for _, r in rows], 1))
        assert accept_rows(captured, live, 1) == [0, 2, 3]
        assert live.tolist() == [0]

    def test_live_hit_equal_to_the_threshold_is_accepted(self):
        # Row 1 reaches 3 against the chunk-start residual and exactly 2
        # once row 0's accept removed element 0; row 2 has nothing left.
        rows = [(0, 0b0000011), (1, 0b0001101), (2, 0b0000110)]
        _check_accept(rows, 0b1111111, 2, 1)
        live = _words_of(0b1111111, 1)
        captured = Captures([0, 1, 2], pack_rows([r for _, r in rows], 1))
        assert accept_rows(captured, live, 2) == [0, 1]
        assert live.tolist() == [0b1110000]


@st.composite
def _capture_records(draw):
    """Rows over ``width`` words, from a few scattered bits to all-ones
    words, so the byte rule picks either layout."""
    width = draw(st.integers(min_value=1, max_value=12))
    n = 64 * width
    scattered = st.lists(st.integers(0, n - 1), max_size=6).map(mask_of)
    words = st.lists(_WORD, min_size=width, max_size=width).map(
        lambda parts: sum(word << (64 * i) for i, word in enumerate(parts))
    )
    rows = draw(st.lists(st.one_of(scattered, st.just(0), words), max_size=10))
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=len(rows),
                              max_size=len(rows))))
    return ids, rows, width


def _check_record(record, ids, rows, width, data):
    assert record.ids == ids and record.width == width
    assert record.sparse == (2 * sum(r.bit_count() for r in rows) < len(rows) * width)
    assert list(record) == list(zip(ids, rows))
    assert record.words() == sum(r.bit_count() + 1 for r in rows)
    for j, row in enumerate(rows):
        where, bits = record.row_words(j)
        full = _words_of(0, width)
        full[where] = bits
        assert full.tolist() == _words_of(row, width).tolist()
    mask = data.draw(st.integers(0, (1 << (64 * width)) - 1), label="mask")
    mask_words = _words_of(mask, width)
    assert record.gains(mask_words).tolist() == [(r & mask).bit_count() for r in rows]
    index = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)),
                               max_size=len(rows)), label="index") if rows else []
    assert record.gains_at(np.array(index, dtype=np.int64), mask_words).tolist() == [
        (rows[j] & mask).bit_count() for j in index
    ]
    threshold = data.draw(st.integers(1, 8), label="threshold")
    expected_ids, expected_residual = _accept_reference(
        list(zip(ids, rows)), mask, threshold
    )
    assert accept_rows(record, mask_words, threshold) == expected_ids
    assert mask_words.tolist() == _words_of(expected_residual, width).tolist()


class TestCaptures:
    @given(_capture_records(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_methods_match_the_big_int_rows(self, case, data):
        """Every way to build a record — from a full-width block, from
        split word parts, by concatenation, through a pickle — gives the
        layout the byte rule predicts and methods that agree with the
        rows as big ints."""
        ids, rows, width = case
        block = pack_rows(rows, width)
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        # Two word parts with interleaved rows, as a mixed-codec chunk has.
        side = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                           max_size=len(rows)), label="side"))
        flat = np.flatnonzero(block.reshape(-1))
        bits = block.reshape(-1)[flat]
        first = side[flat // width] if rows else np.zeros(0, dtype=bool)
        parts = [(flat[first], bits[first]), (flat[~first], bits[~first])]
        records = [
            Captures(ids, block),
            Captures.from_words(ids, width, parts),
            Captures.concat([Captures(ids[:cut], block[:cut]),
                             Captures(ids[cut:], block[cut:])]),
        ]
        records.append(pickle.loads(pickle.dumps(records[0])))
        for record in records:
            _check_record(record, ids, rows, width, data)


# ----------------------------------------------------------------------
# Memoized views
# ----------------------------------------------------------------------
class TestMemoization:
    def test_packed_views_are_cached(self):
        system = SetSystem(5, [[0, 1], [2, 3, 4]])
        assert system.packed() is system.packed()

    def test_universe_is_cached(self):
        system = SetSystem(5, [[0]])
        assert system.universe is system.universe

    def test_masks_returns_fresh_list_from_cached_tuple(self):
        system = SetSystem(4, [[0, 1], [2, 3]])
        first = system.masks()
        first.append(12345)  # caller mutation must not poison the cache
        assert system.masks() == [0b0011, 0b1100]

    def test_is_cover_short_circuits(self):
        # A selection whose first set already covers U must not index
        # further: an out-of-range id later in the iterable is never touched.
        system = SetSystem(3, [[0, 1, 2], [0]])

        def ids():
            yield 0
            raise AssertionError("short-circuit failed: second id was consumed")

        assert system.is_cover(ids())
