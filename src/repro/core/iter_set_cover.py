"""``iterSetCover`` — the paper's main algorithm (Figure 1.3, Theorem 2.8).

A O(1/delta)-pass, O~(m n^delta)-space streaming algorithm with
O(rho/delta) approximation factor:

* the optimal cover size ``k`` is guessed (powers of two) and all guesses
  run *in parallel*: this implementation executes them in lockstep over
  shared passes, so the pass count is that of a single guess.  The
  passes stop once the guesses ``k >= 2^ceil(log2 ceil(n/Δ))`` are done
  (:func:`guess_window`; the largest set ``Δ`` is metadata, as ``m`` is,
  and costs no pass): the smaller guesses, which the theorem never
  needs, share those passes and count only if they finish in them;
* each of the ceil(1/delta) iterations makes two passes:

  1. **sample pass** — draw a relative-approximation sample ``S`` of the
     uncovered elements; a streamed set covering at least ``|S|/k`` of the
     still-uncovered sample (the *Size Test*) is picked immediately; light
     sets have their projection onto the sample stored explicitly;
     afterwards ``algOfflineSC`` covers the remaining sampled elements from
     the stored projections;
  2. **update pass** — recompute the true uncovered set given this
     iteration's picks.

* with the right guess, each iteration shrinks the uncovered set by a factor
  ``n^delta`` (Lemma 2.6), so all elements are covered after 1/delta
  iterations while only O(rho k) sets are added per iteration.

A final cleanup pass (mirroring Figure 4.1's last pass) handles runs where
the with-high-probability event did not materialize at the configured
sampling constants; it is reported separately (DESIGN.md §3.2).

Implementation note (DESIGN.md §4): the sample pass of each iteration runs
one per-chunk Size-Test shared by every parallel guess.  The scan hands
each chunk's captures over as one
:class:`~repro.setsystem.packed.Captures` record — ids plus the rows'
``uint64`` intersection words, word-sparse when that is smaller — which
:class:`_SampleChunk` takes as it is; a guess gets the hits of all its
rows from one popcount against its leftover sample at chunk start, and
only rows whose count reaches the Size-Test threshold are re-tested one
by one once a heavy pick has shrunk the leftover.  Light sets are
stored by reference into the record, with their hit counts, and handed
to ``algOfflineSC`` packed — big-int rows plus a target mask
(:meth:`~repro.offline.base.OfflineSolver.solve_partial`); the default
greedy starts its heap from the counts, so a row becomes a big int
only when some guess reads it — a pick, a heavy re-test, a pop of its
greedy — and then once for all guesses.  Every other piece of a
guess's state — the true uncovered set included — is a big int too, so
the update and cleanup passes read each captured row's int from the
record as it arrives.

The passes themselves are executor-driven capture scans (DESIGN.md §6):
the stream decides how the repository is scanned — serial and in order,
or cost-balanced batches over remote workers — while the replay over
captured projections stays bit-identical on both.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import IterSetCoverConfig
from repro.core.result import GuessStats, StreamingCoverResult
from repro.offline.base import OfflineSolver
from repro.offline.greedy import GreedySolver
from repro.sampling.relative_approximation import draw_sample
from repro.setsystem.packed import Captures
from repro.engine import capture_words
from repro.streaming.memory import MemoryMeter
from repro.streaming.stream import SetStream, stream_resident_words
from repro.utils.bitset import bits_of, mask_of, universe_mask
from repro.utils.mathutil import ceil_log2, powers_of_two_up_to
from repro.utils.rng import as_generator

__all__ = ["IterSetCover", "guess_window", "iter_set_cover"]


def guess_window(n: int, lower_bound: int) -> list[int]:
    """The guesses ``k`` of ``powers_of_two_up_to(n)`` with ``k >= 2^ceil(log2 LB)``.

    The guesses whose completion sets the pass count.  A guess below the
    window is below ``OPT >= LB``, so the one Theorem 2.8 needs,
    ``OPT <= k < 2 OPT``, is in it; with none left, the top guess is kept.

    >>> guess_window(100, 7), guess_window(100, 1000)
    ([8, 16, 32, 64], [64])
    """
    ladder = powers_of_two_up_to(n)
    floor = 1 << ceil_log2(max(lower_bound, 1))
    return [k for k in ladder if k >= floor] or ladder[-1:]


class _SampleChunk:
    """One captured chunk of a sample pass, shared by every guess.

    ``captures`` is the scan's :class:`~repro.setsystem.packed.Captures`
    record: the rows' ids and their projections ``r ∩ (union of
    leftovers)`` as ``uint64`` words — only the nonzero ones when the
    record is word-sparse — taken as the scan built it.  Hit counts
    against a chunk-start leftover are memoized, so guesses whose
    leftovers coincide (every guess whose sample is the whole uncovered
    set, say) share one popcount; a row becomes a big int only when
    some guess reads it, and then once for all guesses
    (:meth:`Captures.row`).
    """

    def __init__(self, captures: Captures):
        self.ids = captures.ids
        self.row = captures.row
        self.captures = captures
        self._gains: dict[int, np.ndarray] = {}

    def gains(self, leftover: int) -> "np.ndarray":
        """``|row ∩ leftover|`` for every row of the chunk."""
        gains = self._gains.get(leftover)
        if gains is None:
            gains = self.captures.gains(self._words_of(leftover))
            self._gains[leftover] = gains
        return gains

    def count(self, index: "np.ndarray", leftover: int) -> "np.ndarray":
        """``|row ∩ leftover|`` for the rows at ``index`` only."""
        return self.captures.gains_at(index, self._words_of(leftover))

    def _words_of(self, mask: int) -> "np.ndarray":
        """``mask`` as the record's ``width`` little-endian ``uint64`` words."""
        width = self.captures.width
        return np.frombuffer(mask.to_bytes(width * 8, "little"), dtype="<u8")


def _sample_pass(parts, guesses) -> "tuple[int, int]":
    """Run every guess's Size-Test over a sample pass, chunk by chunk.

    Returns the largest chunk's capture words (``scan_capture_peak_words``,
    DESIGN.md §6.1) and the union of the captured rows: a guess's final
    leftover element lies in one of its stored light rows exactly when
    it lies in some captured row (every row holding it streamed by while
    it was in the leftover, and none was picked).
    """
    capture_peak = coverable = 0
    for _, _, captured in parts:
        capture_peak = max(capture_peak, capture_words(captured))
        if captured:
            coverable |= captured.union()
            chunk = _SampleChunk(captured)
            for guess in guesses:
                guess.size_test(chunk)
    return capture_peak, coverable


class _LightRows(Sequence):
    """A guess's stored light rows, by reference into the capture records.

    Row ``i`` is row ``at[i]`` of ``records[i]`` and becomes a big int when
    read (:meth:`Captures.row`).  ``gains`` are the rows' hit counts when
    stored; the leftover only shrinks, so they bound the rows' gains on
    the offline targets, and greedy starts its heap from them
    (:meth:`~repro.offline.greedy.GreedySolver.solve_packed`), converting
    only the rows it pops.
    """

    def __init__(self, records: "list[Captures]", at: "list[int]", gains: "list[int]"):
        self._records, self._at, self.gains = records, at, gains

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i: int) -> int:
        return self._records[i].row(self._at[i])


def _replay(parts, guesses, observe) -> int:
    """Feed every captured row of a pass to ``observe(guess, set_id, row)``.

    Rows are the capture record's ``int`` projections, each converted
    once and shared by every guess; returns the largest chunk's capture
    words, as :func:`_sample_pass` does.
    """
    capture_peak = 0
    for _, _, captured in parts:
        capture_peak = max(capture_peak, capture_words(captured))
        for set_id, row in captured:
            for guess in guesses:
                observe(guess, set_id, row)
    return capture_peak


class _GuessState:
    """Execution state of one parallel guess of the optimal cover size.

    The true uncovered set, the leftover sample and the stored light rows
    are all big ints, the form in which the scan engine captures rows.
    """

    def __init__(self, k: int, n: int, meter: MemoryMeter):
        self.k = k
        self.n = n
        self.meter = meter
        self.uncovered = universe_mask(n)
        # Cached |uncovered|, maintained by the two mutating passes so the
        # per-set done/satisfied checks stay O(1) instead of a popcount.
        self._uncovered_count = n
        # The uncovered bitmap of the ground set is held for the whole run
        # (needed by the update pass), cf. Lemma 2.2's O(n) term.
        self.meter.charge(n)
        self.solution: list[int] = []
        self.solution_set: set[int] = set()
        self.stats = GuessStats(
            k=k,
            solution_size=None,
            covered_after_iterations=False,
            peak_memory_words=0,
        )
        # Per-iteration scratch:
        self.sample_size = 0
        self.leftover = 0  # still-uncovered sampled elements, as a mask
        # Light rows by reference: row light_at[i] of light_records[i].
        self.light_records: "list[Captures]" = []
        self.light_at: list[int] = []
        self.projection_ids: list[int] = []
        # Each stored row's hit count: its projection's length, so charged
        # with it (``_LightRows.gains``).
        self.projection_hits: list[int] = []
        self.new_picks: set[int] = set()
        self._scratch_words = 0

    @property
    def done(self) -> bool:
        """Is the true uncovered set empty?"""
        return self._uncovered_count == 0

    def uncovered_count(self) -> int:
        return self._uncovered_count

    # ------------------------------------------------------------------
    def begin_iteration(
        self, config: IterSetCoverConfig, n: int, m: int, rho: float, rng
    ) -> None:
        if self.done:
            self.sample_size = 0
            self.leftover = 0
            return
        target = config.sample_size(n, m, self.k, rho)
        # ``bits_of`` is sorted, so the rng stream matches the seed's
        # frozenset implementation exactly (draw_sample sorts anyway).
        sampled = draw_sample(bits_of(self.uncovered), target, seed=rng)
        self.sample_size = len(sampled)
        self.stats.sample_sizes.append(self.sample_size)
        self.leftover = mask_of(sampled)
        self.light_records, self.light_at = [], []
        self.projection_ids = []
        self.projection_hits = []
        self.new_picks = set()
        self._scratch_words = self.sample_size
        self.meter.charge(self._scratch_words)

    def size_test(self, chunk: _SampleChunk) -> None:
        """First pass of the iteration, one chunk: Size Test or storage.

        Equivalent to testing the chunk's rows one at a time in stream
        order — pinned against a row-by-row frozenset oracle in
        ``tests/test_iter_set_cover.py``: a row hitting at least
        ``ceil(|S| / k)`` leftover sampled elements is picked at once
        (heavy) and its hit leaves the leftover; any other row with a hit
        is stored (light) and charged ``hit + 1`` words.

        The leftover only shrinks, and only at a heavy pick, so only rows
        whose chunk-start count reaches the threshold can be heavy.  After
        a pick those are re-tested one by one, and the light segment up to
        the next pick is recounted in one popcount.  Light rows are kept by
        reference to the shared captured row instead of a per-guess
        ``row ∩ leftover`` copy: since the leftover only shrinks,
        ``(row ∩ leftover_t) ∩ targets = row ∩ targets`` for
        ``algOfflineSC``'s targets.
        """
        leftover = self.leftover
        if not leftover:
            return
        hits = chunk.gains(leftover)
        # Rows already in the solution are neither picked nor stored.
        ids, solution = chunk.ids, self.solution_set
        skip = [i for i in np.flatnonzero(hits).tolist() if ids[i] in solution]
        if skip:
            hits = hits.copy()
            hits[skip] = 0
        threshold = -(-self.sample_size // self.k)
        row = chunk.row
        start, fresh = 0, True
        for stop in [*np.flatnonzero(hits >= threshold).tolist(), len(ids)]:
            heavy = stop < len(ids)
            if heavy and not fresh and (row(stop) & leftover).bit_count() < threshold:
                continue  # no longer heavy: a light row of the next segment
            self._store_light(chunk, start, stop, hits, None if fresh else leftover)
            if not heavy:
                break
            set_id = ids[stop]
            self._pick(set_id)
            self.new_picks.add(set_id)
            self.stats.heavy_picks += 1
            leftover &= ~row(stop)
            start, fresh = stop + 1, False
            if not leftover:
                break
        self.leftover = leftover

    def _store_light(self, chunk, start, stop, hits, leftover) -> None:
        """Store the hit rows of ``chunk[start:stop]`` as light projections.

        ``hits`` are the chunk-start counts; ``leftover`` is the current
        leftover when a pick has shrunk it since (``None`` otherwise), and
        the segment is then recounted against it.
        """
        if start == stop:
            return
        index = np.flatnonzero(hits[start:stop]) + start
        if not index.size:
            return
        if leftover is None:
            counts = hits[index]
        else:
            counts = chunk.count(index, leftover)
            index = index[counts > 0]
            counts = counts[counts > 0]
        ids, index = chunk.ids, index.tolist()
        self.light_records.extend([chunk.captures] * len(index))
        self.light_at.extend(index)
        self.projection_ids.extend([ids[i] for i in index])
        self.projection_hits.extend(counts.tolist())
        words = int(counts.sum()) + len(index)  # elements + one id per set
        self._scratch_words += words
        self.meter.charge(words)

    @property
    def projections(self) -> _LightRows:
        """The stored light rows, in storage order."""
        return _LightRows(self.light_records, self.light_at, self.projection_hits)

    def solve_offline(self, solver: OfflineSolver, n: int, coverable: int) -> None:
        """Run ``algOfflineSC`` on (leftover sample, stored projections).

        ``coverable`` is the union of the pass's captured rows
        (:func:`_sample_pass`): the leftover elements in it are those some
        stored projection covers.  On feasible instances that is every
        one; on infeasible ones the uncoverable residue is left to surface
        as ``feasible=False`` at the end of the run.
        """
        if not self.leftover:
            return
        picked = solver.solve_partial(n, self.projections, self.leftover & coverable)
        for local_index in picked:
            set_id = self.projection_ids[local_index]
            self._pick(set_id)
            self.new_picks.add(set_id)
            self.stats.offline_picks += 1
        self.leftover = 0

    def observe_update_pass(self, set_id: int, row: int) -> None:
        """Second pass: recompute the true uncovered set."""
        if set_id in self.new_picks:
            newly = (row & self.uncovered).bit_count()
            if newly:
                self.uncovered &= ~row
                self._uncovered_count -= newly

    def end_iteration(self) -> None:
        """Drop per-iteration scratch; prior iterations' memory is not kept."""
        self.light_records, self.light_at = [], []
        self.projection_ids = []
        self.projection_hits = []
        self.sample_size = 0
        self.meter.release(self._scratch_words)
        self._scratch_words = 0

    def observe_cleanup_pass(self, set_id: int, row: int) -> None:
        """Final pass: pick any set covering a leftover element."""
        if self.done:
            return
        hit = row & self.uncovered
        hit_count = hit.bit_count()
        if hit_count and set_id not in self.solution_set:
            self._pick(set_id)
            self.uncovered &= ~hit
            self._uncovered_count -= hit_count
            self.stats.cleanup_picks += 1

    # ------------------------------------------------------------------
    def _pick(self, set_id: int) -> None:
        if set_id not in self.solution_set:
            self.solution.append(set_id)
            self.solution_set.add(set_id)
            self.meter.charge(1)  # remembering the picked set id

    def finalize_stats(self) -> GuessStats:
        self.stats.solution_size = len(self.solution) if self.done else None
        self.stats.covered_after_iterations = self.done
        self.stats.peak_memory_words = self.meter.peak
        return self.stats


class IterSetCover:
    """The paper's algorithm as a reusable object.

    Parameters
    ----------
    config:
        Trade-off and sampling parameters (see
        :class:`~repro.core.config.IterSetCoverConfig`).
    solver:
        The offline black box ``algOfflineSC``; defaults to greedy
        (rho = H_n).  Pass
        :class:`~repro.offline.exact.ExactSolver` for the rho = 1 regime of
        Theorem 2.8.
    seed:
        Seed or generator for the sampling randomness.

    Examples
    --------
    >>> from repro.setsystem import SetSystem
    >>> from repro.streaming import SetStream
    >>> system = SetSystem(4, [[0, 1], [2, 3], [0, 2], [1, 3]])
    >>> result = IterSetCover(seed=0).solve(SetStream(system))
    >>> sorted(system.uncovered_by(result.selection))
    []
    """

    name = "iterSetCover"

    def __init__(
        self,
        config: "IterSetCoverConfig | None" = None,
        solver: "OfflineSolver | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ):
        self.config = config or IterSetCoverConfig()
        self.solver = solver or GreedySolver()
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------
    def solve(self, stream: SetStream) -> StreamingCoverResult:
        """Run the algorithm over ``stream`` and return the best cover."""
        n, m = stream.n, stream.m
        if n == 0:
            return StreamingCoverResult(
                selection=[], passes=0, peak_memory_words=0, algorithm=self.name
            )

        rho = self.solver.rho(n)
        guesses = [
            _GuessState(k, n, MemoryMeter(label=f"k={k}"))
            for k in powers_of_two_up_to(n)
        ]
        # Only the window's guesses buy passes; the rest ride along.
        window = guesses[-len(guess_window(n, stream.lower_bound)):]
        passes_before = stream.passes
        # The largest chunk's captures, reported as scan scratch.
        capture_peak = 0

        for _ in range(self.config.iterations):
            if all(g.done for g in window):
                break
            for guess in guesses:
                guess.begin_iteration(self.config, n, m, rho, self._rng)
            # Sample pass as a gains scan (DESIGN.md §6): rows are
            # filtered against the union of all guesses' leftover
            # samples, and only intersecting rows are replayed — their
            # projection onto the union determines every guess's hit
            # exactly (leftovers only shrink within the union), so the
            # replay is bit-identical to the serial per-row pass.  One
            # captured projection per set, shared across all guesses.
            sample_mask = 0
            for guess in guesses:
                sample_mask |= guess.leftover
            parts = stream.scan_gains_chunked(
                sample_mask, min_capture_gain=1, include_gains=False
            )
            sample_peak, coverable = _sample_pass(parts, guesses)
            capture_peak = max(capture_peak, sample_peak)
            for guess in guesses:
                guess.solve_offline(self.solver, n, coverable)
            # Update pass: only this iteration's picks can change any
            # uncovered set, so the scan captures exactly those rows.
            picked: set[int] = set()
            update_mask = 0
            for guess in guesses:
                if guess.new_picks:
                    picked |= guess.new_picks
                    update_mask |= guess.uncovered
            parts = stream.scan_gains_chunked(
                update_mask, min_capture_gain=1, capture_ids=picked,
                include_gains=False,
            )
            capture_peak = max(
                capture_peak, _replay(parts, guesses, _GuessState.observe_update_pass)
            )
            for guess in guesses:
                guess.end_iteration()

        cleanup_passes = 0
        if self.config.cleanup_pass and any(not g.done for g in window):
            cleanup_passes = 1
            cleanup_mask = 0
            for guess in guesses:
                if not guess.done:
                    cleanup_mask |= guess.uncovered
            parts = stream.scan_gains_chunked(
                cleanup_mask, min_capture_gain=1, include_gains=False
            )
            capture_peak = max(
                capture_peak, _replay(parts, guesses, _GuessState.observe_cleanup_pass)
            )

        stats = {g.k: g.finalize_stats() for g in guesses}
        complete = [g for g in guesses if g.done]
        # The stream's resident chunk buffer counts toward the peak; the
        # repository itself never does (DESIGN.md §3.6).
        buffer_words = stream_resident_words(stream)
        total_peak = sum(g.meter.peak for g in guesses) + buffer_words
        passes = stream.passes - passes_before
        buffer_extra = {"stream_buffer_words": buffer_words} if buffer_words else {}
        buffer_extra["scan_capture_peak_words"] = capture_peak

        if not complete:
            # The family itself cannot cover U; report the best effort.
            best = min(guesses, key=lambda g: g.uncovered_count())
            return StreamingCoverResult(
                selection=list(best.solution),
                passes=passes,
                peak_memory_words=total_peak,
                algorithm=self.name,
                feasible=False,
                best_k=best.k,
                cleanup_passes=cleanup_passes,
                guess_stats=stats,
                extra=dict(buffer_extra),
            )

        best = min(complete, key=lambda g: len(g.solution))
        return StreamingCoverResult(
            selection=list(best.solution),
            passes=passes,
            peak_memory_words=total_peak,
            algorithm=self.name,
            best_k=best.k,
            cleanup_passes=cleanup_passes,
            guess_stats=stats,
            extra={"rho": rho, "delta": self.config.delta, **buffer_extra},
        )


def iter_set_cover(
    stream: SetStream,
    delta: float = 0.5,
    solver: "OfflineSolver | None" = None,
    seed: "int | np.random.Generator | None" = None,
    **config_kwargs,
) -> StreamingCoverResult:
    """Functional one-shot entry point for :class:`IterSetCover`.

    >>> from repro.setsystem import SetSystem
    >>> from repro.streaming import SetStream
    >>> system = SetSystem(3, [[0], [1], [2], [0, 1, 2]])
    >>> iter_set_cover(SetStream(system), delta=1.0, seed=1).solution_size
    1
    """
    config = IterSetCoverConfig(delta=delta, **config_kwargs)
    return IterSetCover(config=config, solver=solver, seed=seed).solve(stream)
