"""Tests for the paper's main algorithm, ``iterSetCover`` (Figure 1.3)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ThresholdGreedy
from repro.core import IterSetCover, IterSetCoverConfig, iter_set_cover
from repro.core.iter_set_cover import _GuessState, _SampleChunk, guess_window
from repro.offline import ExactSolver, GreedySolver
from repro.offline.greedy import _greedy_cover_frozenset
from repro.sampling import draw_sample
from repro.setsystem import Captures, SetSystem
from repro.setsystem.packed import ScanMask
from repro.streaming import MemoryMeter, SetStream
from repro.utils.bitset import mask_of
from repro.utils.mathutil import powers_of_two_up_to
from repro.utils.rng import as_generator
from repro.workloads import planted_instance, uniform_random_instance


class TestConfig:
    def test_iterations(self):
        assert IterSetCoverConfig(delta=1.0).iterations == 1
        assert IterSetCoverConfig(delta=0.5).iterations == 2
        assert IterSetCoverConfig(delta=0.34).iterations == 3
        assert IterSetCoverConfig(delta=0.25).iterations == 4

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_delta_validated(self, bad):
        with pytest.raises(ValueError):
            IterSetCoverConfig(delta=bad)

    def test_sample_size_grows_with_k(self):
        config = IterSetCoverConfig(delta=0.5)
        assert config.sample_size(256, 256, 8, 1.0) > config.sample_size(
            256, 256, 2, 1.0
        )

    def test_sample_size_grows_with_delta(self):
        low = IterSetCoverConfig(delta=0.25).sample_size(4096, 100, 2, 1.0)
        high = IterSetCoverConfig(delta=0.75).sample_size(4096, 100, 2, 1.0)
        assert high > low

    def test_polylog_toggle(self):
        with_logs = IterSetCoverConfig(delta=0.5)
        without = IterSetCoverConfig(delta=0.5, use_polylog_factors=False)
        assert with_logs.sample_size(256, 256, 2, 1.0) > without.sample_size(
            256, 256, 2, 1.0
        )


class TestCorrectness:
    def test_covers_tiny(self, tiny_system):
        stream = SetStream(tiny_system)
        result = iter_set_cover(stream, delta=1.0, seed=0)
        assert stream.verify_solution(result.selection)
        assert result.feasible

    def test_empty_universe(self):
        result = iter_set_cover(SetStream(SetSystem(0, [])), seed=0)
        assert result.selection == []
        assert result.passes == 0

    def test_infeasible_reported(self, infeasible_system):
        result = iter_set_cover(SetStream(infeasible_system), delta=0.5, seed=0)
        assert not result.feasible

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.34])
    def test_covers_uniform_instances(self, delta):
        system = uniform_random_instance(60, 50, density=0.12, seed=5)
        stream = SetStream(system)
        result = iter_set_cover(stream, delta=delta, seed=3)
        assert stream.verify_solution(result.selection)

    def test_deterministic_given_seed(self, planted_small):
        a = iter_set_cover(SetStream(planted_small.system), delta=0.5, seed=9)
        b = iter_set_cover(SetStream(planted_small.system), delta=0.5, seed=9)
        assert a.selection == b.selection


class TestResourceShape:
    def test_pass_bound(self, planted_small):
        """Theorem 2.8: at most 2/delta passes plus the cleanup pass."""
        for delta in (1.0, 0.5, 0.25):
            stream = SetStream(planted_small.system)
            result = iter_set_cover(stream, delta=delta, seed=1)
            assert result.passes <= 2 * math.ceil(1 / delta) + 1
            assert result.passes == stream.passes

    def test_cleanup_accounted_in_passes(self, planted_small):
        stream = SetStream(planted_small.system)
        result = iter_set_cover(stream, delta=0.5, seed=1)
        assert result.cleanup_passes in (0, 1)

    def test_early_exit_when_covered(self):
        # One giant set: first iteration covers everything; later
        # iterations are skipped, so only 2 passes happen even at small delta.
        system = SetSystem(10, [list(range(10)), [0], [1]])
        stream = SetStream(system)
        result = iter_set_cover(stream, delta=0.25, seed=0)
        assert result.passes == 2
        assert result.solution_size == 1

    def test_memory_scales_with_parallel_guesses(self, planted_small):
        result = iter_set_cover(SetStream(planted_small.system), delta=0.5, seed=2)
        n = planted_small.system.n
        guesses = len(result.guess_stats)
        # Each guess holds at least the n-word uncovered bitmap.
        assert result.peak_memory_words >= n * guesses

    def test_guess_stats_present_for_all_powers(self, planted_small):
        result = iter_set_cover(SetStream(planted_small.system), delta=0.5, seed=2)
        n = planted_small.system.n
        expected_guesses = math.floor(math.log2(n)) + 1
        assert len(result.guess_stats) == expected_guesses

    def test_guess_window_guesses_all_finish(self, planted_small):
        """Every guess from 2^ceil(log2 ceil(n/Δ)) up to n completes."""
        system = planted_small.system
        result = iter_set_cover(SetStream(system), delta=0.5, seed=2)
        n = system.n
        lower_bound = math.ceil(n / system.max_set_size())
        floor = 2 ** math.ceil(math.log2(lower_bound))
        window = [k for k in result.guess_stats if k >= floor]
        assert window == guess_window(n, lower_bound)
        assert all(result.guess_stats[k].covered_after_iterations for k in window)
        assert SetStream(system).lower_bound == lower_bound


class TestApproximation:
    def test_recovers_planted_optimum_with_exact_solver(self):
        planted = planted_instance(n=80, m=50, opt=5, seed=21)
        stream = SetStream(planted.system)
        result = IterSetCover(
            config=IterSetCoverConfig(delta=0.5),
            solver=ExactSolver(),
            seed=4,
        ).solve(stream)
        assert stream.verify_solution(result.selection)
        # O(rho/delta) with rho=1, delta=1/2: small constant times OPT.
        assert result.solution_size <= 4 * planted.opt

    def test_greedy_solver_stays_logarithmic(self, planted_small):
        stream = SetStream(planted_small.system)
        result = iter_set_cover(stream, delta=0.5, seed=5)
        n = planted_small.system.n
        bound = 4 * (math.log(n) + 1) * planted_small.opt / 0.5
        assert result.solution_size <= bound

    def test_best_k_is_reported(self, planted_small):
        result = iter_set_cover(SetStream(planted_small.system), delta=0.5, seed=5)
        assert result.best_k in result.guess_stats


class TestSizeTestSemantics:
    def test_heavy_sets_picked_immediately(self):
        """A set covering everything passes any Size Test and is picked in
        the first pass without being stored."""
        system = SetSystem(20, [list(range(20))] + [[i] for i in range(20)])
        stream = SetStream(system)
        result = iter_set_cover(stream, delta=1.0, seed=0)
        assert result.solution_size == 1
        stats = result.guess_stats[result.best_k]
        assert stats.heavy_picks >= 1

    def test_solution_indices_valid(self, planted_small):
        result = iter_set_cover(SetStream(planted_small.system), delta=0.5, seed=6)
        m = planted_small.system.m
        assert all(0 <= i < m for i in result.selection)
        assert len(set(result.selection)) == len(result.selection)


class _ReferenceGuess:
    """One guess of the seed's row-by-row frozenset iterSetCover (the oracle)."""

    def __init__(self, k: int, n: int):
        self.k = k
        self.uncovered = frozenset(range(n))
        self.solution: list[int] = []
        self.current = self.peak = n  # the uncovered bitmap: n words
        self.sample_size = 0
        self.leftover = frozenset()
        self.light: list[tuple[int, frozenset]] = []
        self.new_picks: set[int] = set()
        self.scratch = 0
        self.stats = {"heavy": 0, "offline": 0, "cleanup": 0, "samples": []}

    def charge(self, words: int) -> None:
        self.current += words
        self.peak = max(self.peak, self.current)

    def pick(self, set_id: int) -> None:
        if set_id not in self.solution:
            self.solution.append(set_id)
            self.charge(1)

    def begin(self, config, n, m, rho, rng) -> None:
        if not self.uncovered:
            self.sample_size, self.leftover = 0, frozenset()
            return
        sample = draw_sample(sorted(self.uncovered), config.sample_size(n, m, self.k, rho), seed=rng)
        self.sample_size = len(sample)
        self.stats["samples"].append(len(sample))
        self.leftover, self.light, self.new_picks = sample, [], set()
        self.scratch = len(sample)
        self.charge(len(sample))

    def size_test(self, set_id: int, r: frozenset) -> None:
        """The Size Test of Figure 1.3 on one streamed set."""
        hit = r & self.leftover
        if not hit or set_id in self.solution:
            return
        if len(hit) * self.k >= self.sample_size:
            self.pick(set_id)
            self.new_picks.add(set_id)
            self.leftover -= hit
            self.stats["heavy"] += 1
        else:
            self.light.append((set_id, hit))
            self.scratch += len(hit) + 1
            self.charge(len(hit) + 1)

    def solve_offline(self, solver, n: int) -> None:
        if not self.leftover:
            return
        coverable = frozenset().union(*(hit for _, hit in self.light))
        picked = solver.solve_partial(
            n, [hit for _, hit in self.light], self.leftover & coverable
        )
        for index in picked:
            self.pick(self.light[index][0])
            self.new_picks.add(self.light[index][0])
            self.stats["offline"] += 1
        self.leftover = frozenset()


class _FrozensetGreedy(GreedySolver):
    """Greedy on the seed's frozenset heap: the oracle's ``algOfflineSC``."""

    def solve(self, system):
        return _greedy_cover_frozenset(system)


def _reference_iter_set_cover(system, config, seed):
    """iterSetCover exactly as the paper states it, one row at a time."""
    rng = as_generator(seed)
    n, m = system.n, system.m
    solver = _FrozensetGreedy()
    rho = solver.rho(n)
    guesses = [_ReferenceGuess(k, n) for k in powers_of_two_up_to(n)]
    # The passes stop once the guesses k >= 2^ceil(log2 ceil(n/Δ)) are
    # done (the top guess at least); the smaller ones ride along.
    floor = 1 << (-(-n // max(system.max_set_size(), 1)) - 1).bit_length()
    window = [g for g in guesses if g.k >= floor] or guesses[-1:]
    passes = 0
    for _ in range(config.iterations):
        if all(not g.uncovered for g in window):
            break
        for g in guesses:
            g.begin(config, n, m, rho, rng)
        for set_id, r in enumerate(system.sets):
            for g in guesses:
                g.size_test(set_id, r)
        for g in guesses:
            g.solve_offline(solver, n)
        for set_id, r in enumerate(system.sets):
            for g in guesses:
                if set_id in g.new_picks:
                    g.uncovered -= r
        for g in guesses:
            g.current -= g.scratch
            g.scratch = 0
        passes += 2
    if config.cleanup_pass and any(g.uncovered for g in window):
        passes += 1
        for set_id, r in enumerate(system.sets):
            for g in guesses:
                hit = r & g.uncovered
                if hit and set_id not in g.solution:
                    g.pick(set_id)
                    g.uncovered -= hit
                    g.stats["cleanup"] += 1
    complete = [g for g in guesses if not g.uncovered]
    best = (
        min(complete, key=lambda g: len(g.solution))
        if complete
        else min(guesses, key=lambda g: len(g.uncovered))
    )
    return best.solution, passes, bool(complete), sum(g.peak for g in guesses), guesses


class _SlicedSetStream(SetStream):
    """An in-memory stream whose gains scans arrive as six row slices."""

    def _scan_gains_chunked(
        self, mask_int, min_capture_gain, capture_ids, best_only, include_gains
    ):
        matrix, rows = self._matrix(), max(1, -(-self.m // 6))
        return self._executor.iter_scan_chunks(
            self.n,
            [(start, matrix[start:start + rows]) for start in range(0, self.m, rows)],
            ScanMask(self.n, mask_int),
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
            include_gains=include_gains,
        )


def _oracle_instances():
    rng = np.random.default_rng(2016)
    for case in range(40):
        n = int(rng.integers(8, 160))
        m = int(rng.integers(6, 120))
        seed = int(rng.integers(1 << 30))
        if case % 2:
            opt = int(rng.integers(1, max(2, min(n, m) // 3)))
            yield case, planted_instance(n=n, m=max(m, opt), opt=opt, seed=seed).system
        else:
            density = float(rng.uniform(0.02, 0.3))
            yield case, uniform_random_instance(n, m, density=density, seed=seed)


class TestFusedSizeTest:
    """Whole solves with the per-chunk Size-Test, at the default config, are
    pinned bit-identical to the row-by-row replay of the oracle."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_whole_solve_matches_row_replay(self, seed):
        system = uniform_random_instance(n=120, m=90, density=0.08, seed=seed)
        config = IterSetCoverConfig(delta=0.5)
        result = IterSetCover(config=config, seed=seed).solve(SetStream(system))
        selection, passes, feasible, peak, ref = _reference_iter_set_cover(
            system, config, seed
        )
        assert result.selection == selection
        assert result.passes == passes
        assert result.feasible == feasible
        assert result.peak_memory_words == peak
        for g in ref:
            stats = result.guess_stats[g.k]
            assert stats.heavy_picks == g.stats["heavy"]
            assert stats.offline_picks == g.stats["offline"]
            assert stats.cleanup_picks == g.stats["cleanup"]
            assert stats.sample_sizes == g.stats["samples"]
            assert stats.peak_memory_words == g.peak


class TestSizeTestOracle:
    """The per-chunk Size-Test driver against the row-by-row frozenset oracle.

    The driver must make exactly the oracle's picks, passes and meter
    charges, guess by guess, whatever the chunking of the sample pass.
    """

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_matches_row_by_row_oracle(self, delta):
        for case, system in _oracle_instances():
            config = IterSetCoverConfig(
                delta=delta, use_polylog_factors=False,
                sample_constant=(0.3, 1.0, 3.0)[case % 3],
            )
            selection, passes, feasible, peak, ref = _reference_iter_set_cover(
                system, config, case
            )
            # Cases 2 and 3 (mod 4) split the sample pass into chunks.
            stream = (
                _SlicedSetStream(system) if case % 4 > 1 else SetStream(system)
            )
            result = IterSetCover(config=config, seed=case).solve(stream)
            where = (case, delta)
            assert result.selection == selection, where
            assert result.passes == passes, where
            assert result.peak_memory_words == peak, where
            assert result.feasible == feasible, where
            for g in ref:
                stats = result.guess_stats[g.k]
                assert stats.heavy_picks == g.stats["heavy"], where
                assert stats.offline_picks == g.stats["offline"], where
                assert stats.cleanup_picks == g.stats["cleanup"], where
                assert stats.sample_sizes == g.stats["samples"], where
                assert stats.peak_memory_words == g.peak, where


class _FullLadderStream(SetStream):
    """A stream that withholds its largest set: Δ reads as n, so nothing is cut."""

    @property
    def max_set_size(self) -> int:
        return self.n


@st.composite
def _tiny_feasible_systems(draw):
    n = draw(st.integers(1, 9))
    sets = draw(st.lists(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True),
        min_size=1, max_size=8,
    ))
    covered = set().union(*sets)
    sets += [[e] for e in range(n) if e not in covered]  # keep it feasible
    return SetSystem(n, sets)


class TestGuessWindowSoundness:
    """The Δ cut removes only guesses and passes that cannot matter."""

    @settings(max_examples=60, deadline=None)
    @given(_tiny_feasible_systems())
    def test_window_keeps_the_optimum_power(self, system):
        n, opt = system.n, len(ExactSolver().solve(system))
        window = guess_window(n, -(-n // system.max_set_size()))
        ladder = powers_of_two_up_to(n)
        assert min(1 << (opt - 1).bit_length(), ladder[-1]) in window
        assert window == [k for k in ladder if k >= window[0]]

    @settings(max_examples=60, deadline=None)
    @given(_tiny_feasible_systems())
    def test_threshold_picks_equal_every_threshold_run(self, system):
        cut = ThresholdGreedy().solve(SetStream(system))
        full = ThresholdGreedy().solve(_FullLadderStream(system))
        assert cut.selection == full.selection
        assert cut.feasible == full.feasible
        assert cut.passes <= full.passes
        assert SetStream(system).lower_bound == -(-system.n // system.max_set_size())


def _size_test_in_chunks(k, n, sample, solution, rows, split):
    """Run the production Size-Test over ``rows`` cut into two chunks."""
    guess = _GuessState(k, n, MemoryMeter(label="pin"))
    guess.sample_size = len(sample)
    guess.leftover = mask_of(sample)
    for set_id in solution:
        guess._pick(set_id)
    # The scan captures each row's projection onto the sampled elements.
    captured = [
        (set_id, mask_of(r) & guess.leftover)
        for set_id, r in rows
        if mask_of(r) & guess.leftover
    ]
    for part in (captured[:split], captured[split:]):
        if part:
            guess.size_test(_SampleChunk(Captures.from_pairs(part, (n + 63) // 64)))
    return guess


def _size_test_rows(k, n, sample, solution, rows):
    ref = _ReferenceGuess(k, n)
    ref.sample_size, ref.leftover = len(sample), frozenset(sample)
    for set_id in solution:
        ref.pick(set_id)
    for set_id, r in rows:
        ref.size_test(set_id, frozenset(r))
    return ref


_EDGE_CASES = {
    # k=4 over 32 sampled elements: the threshold is 8 hits.
    "first_row_and_back_to_back_accepts": (4, 40, range(32), (), [
        (0, range(10)),                    # heavy on the chunk's first row
        (1, range(10, 18)),                # heavy right after it
        (2, [*range(5, 13), 18]),          # 9 hits at chunk start, 1 by now
        (3, [18, 19, 33]),
        (4, range(20, 28)),                # heavy after a light segment
        (5, [0, 1]),                       # hits only picked elements
        (6, [*range(28, 32), 35]),
    ]),
    # k=1 over 16 sampled elements: one set must hit all of them.
    "leftover_emptied_mid_chunk": (1, 20, range(16), (), [
        (0, [1, 2]),
        (1, range(16)),                    # empties the leftover
        (2, [3, 4]),
        (3, range(18)),                    # heavy at chunk start only
    ]),
    "row_already_in_solution": (2, 24, range(12), (7, 9), [
        (7, range(12)),                    # would be heavy, already picked
        (8, [0, 1]),
        (9, [2, 3]),                       # would be light, already picked
        (10, range(6)),
        (11, range(6, 12)),
    ]),
    "empty_leftover": (2, 24, (), (), [(0, range(12)), (1, [3])]),
}


class TestSizeTestChunkEdges:
    @pytest.mark.parametrize("name", sorted(_EDGE_CASES))
    def test_chunk_matches_rows_at_every_split(self, name):
        k, n, sample, solution, rows = _EDGE_CASES[name]
        ref = _size_test_rows(k, n, sample, solution, rows)
        final = mask_of(ref.leftover)
        for split in range(len(rows) + 1):
            guess = _size_test_in_chunks(k, n, sample, solution, rows, split)
            assert guess.solution == ref.solution, split
            assert guess.new_picks == ref.new_picks, split
            assert guess.leftover == final, split
            assert guess.stats.heavy_picks == ref.stats["heavy"], split
            assert guess.projection_ids == [set_id for set_id, _ in ref.light], split
            # Stored by reference, the rows agree with the oracle's
            # projections on every element still to be covered.
            for row, (_, hit) in zip(guess.projections, ref.light):
                assert row & final == mask_of(hit) & final, split
                assert row & mask_of(hit) == mask_of(hit), split
            assert guess.meter.current == ref.current, split
            assert guess.meter.peak == ref.peak, split


def test_size_test_reads_the_capture_block_and_converts_only_used_rows():
    """One captured record, one heavy pick partway through the chunk.

    k=4 over 24 sampled elements (threshold 6).  Row 1 is heavy and
    removes elements 0..7 from the leftover; row 3 counted 7 hits at
    chunk start but only 5 afterwards, so it is stored light; row 4
    stays heavy.  Rows 2 and 6 miss this guess's leftover (another
    guess's sample put them in the capture), so they never become ints;
    the light rows become ints only when read.
    At n=90 the record is full width, at n=4096 word-sparse (byte rule:
    35 bits against 7 rows of 2 or 64 words); the Size-Test reads both
    through the record's methods alike.
    """
    k, sample = 4, range(24)
    rows = [
        (10, [0, 1, 30]),                  # light before the pick
        (11, range(8)),                    # heavy: 8 hits
        (12, [40, 41, 42]),                # no hit in this sample
        (13, [6, 7, 8, 9, 10, 11, 12]),    # 7 hits at start, 5 after the pick
        (14, range(16, 24)),               # still heavy after the pick
        (15, [0, 12, 13]),                 # light after both picks
        (16, [50, 60, 70]),                # no hit in this sample
    ]
    for n, sparse in ((90, False), (4096, True)):
        ref = _size_test_rows(k, n, sample, (), rows)
        guess = _GuessState(k, n, MemoryMeter(label="pin"))
        guess.sample_size = len(sample)
        guess.leftover = mask_of(sample)
        union = guess.leftover | mask_of(range(40, 90))  # another guess's sample
        captures = Captures.from_pairs(
            [(set_id, mask_of(r) & union) for set_id, r in rows], (n + 63) // 64
        )
        assert captures.sparse == sparse
        guess.size_test(_SampleChunk(captures))
        # Ints exist for the rows the Size-Test read: the picks and the
        # re-tested candidate 13.  Light rows stay words until read.
        converted = [set_id for set_id, value in zip(captures.ids, captures._ints)
                     if value is not None]
        assert converted == [11, 13, 14]

        assert ref.solution == [11, 14] and [i for i, _ in ref.light] == [10, 13, 15]
        assert guess.solution == ref.solution
        assert guess.new_picks == ref.new_picks
        assert guess.leftover == mask_of(ref.leftover)
        assert guess.stats.heavy_picks == ref.stats["heavy"]
        assert guess.projection_ids == [set_id for set_id, _ in ref.light]
        for row, (_, hit) in zip(guess.projections, ref.light):
            assert row & guess.leftover == mask_of(hit) & guess.leftover
            assert row & mask_of(hit) == mask_of(hit)
        assert guess.meter.current == ref.current
        assert guess.meter.peak == ref.peak
        # Reading the light rows converts exactly those.
        converted = [set_id for set_id, value in zip(captures.ids, captures._ints)
                     if value is not None]
        assert converted == [10, 11, 13, 14, 15]
