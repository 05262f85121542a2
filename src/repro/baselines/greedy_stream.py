"""Streaming implementations of the greedy algorithm (Figure 1.1, rows 1-2).

The paper's summary table opens with the two trivial ways to stream greedy:

* ``StoreAllGreedy`` — one pass, O(mn) space: read the whole repository
  into memory and run offline greedy.  The space row every sub-linear
  algorithm is measured against.
* ``MultiPassGreedy`` — n passes, O(n) space: each pass scans the stream to
  find the set with the largest residual coverage and picks it; the
  uncovered bitmap is the only persistent state.  One pass per picked set.
* ``ThresholdGreedy`` — the classic thresholding trick: O(log n) passes,
  O~(n) space, O(log n) approximation.  Pass ``t`` picks, on the fly, every
  set whose residual coverage is at least the current threshold; the
  threshold halves between passes.

All three run over any :class:`~repro.streaming.stream.SetStreamBase`
repository — in-memory or sharded — and report the stream's resident
chunk buffer in their peak (DESIGN.md §3.6).  ``MultiPassGreedy`` and
``ThresholdGreedy`` drive their passes through the stream's scan
executor (DESIGN.md §6, §8): per-pass residual gains are computed
chunk-parallel against the pass-start residual, and the pick/accept
step is resolved with as little driver work as the algorithm's
semantics allow.  ``MultiPassGreedy``'s accept (a single global
first-max) is a commutative reduction, so each worker ships one
candidate per chunk and the driver merely max-merges.
``ThresholdGreedy``'s accept loop is fused into the workers
(``scan_accepts_chunked``, DESIGN.md §8.4): each chunk arrives with its
accept simulation already run against the pass-start residual, the
driver applies it wholesale whenever no earlier accept touched the
chunk's candidates, and replays the captured rows in repository order
otherwise — exactly the rows the serial loop would have accepted, so
picks, pass counts and meter charges are bit-identical at any ``jobs``
or ``transport`` setting.  Projections, residual and accept tests are
integer bitmasks end to end.
"""

from __future__ import annotations

import math

from repro.core.result import StreamingCoverResult
from repro.offline.greedy import greedy_cover
from repro.engine import capture_words
from repro.setsystem.set_system import SetSystem
from repro.streaming.memory import MemoryMeter
from repro.streaming.stream import SetStream, stream_resident_words
from repro.utils.bitset import bits_of, mask_of, universe_mask

__all__ = ["StoreAllGreedy", "MultiPassGreedy", "ThresholdGreedy"]


class StoreAllGreedy:
    """One-pass greedy that stores the entire input (ln n approx, O(mn) space)."""

    name = "greedy (store-all)"

    def solve(self, stream: SetStream) -> StreamingCoverResult:
        meter = MemoryMeter(label=self.name)
        meter.charge(stream_resident_words(stream))
        passes_before = stream.passes
        stored: list[frozenset[int]] = []
        for _, r in stream.iterate():
            stored.append(r)
            meter.charge(len(r) + 1)
        system = SetSystem(stream.n, stored)
        selection = greedy_cover(system)
        meter.charge(len(selection))
        return StreamingCoverResult(
            selection=selection,
            passes=stream.passes - passes_before,
            peak_memory_words=meter.peak,
            algorithm=self.name,
        )


class MultiPassGreedy:
    """Exact greedy in the stream: one pass per picked set, O(n) space."""

    name = "greedy (multi-pass)"

    def __init__(self, max_passes: "int | None" = None):
        self.max_passes = max_passes

    def solve(self, stream: SetStream) -> StreamingCoverResult:
        meter = MemoryMeter(label=self.name)
        meter.charge(stream_resident_words(stream))
        passes_before = stream.passes
        n = stream.n
        uncovered: set[int] = set(range(n))
        meter.charge(n)
        selection: list[int] = []

        limit = self.max_passes if self.max_passes is not None else n + 1
        while uncovered and (stream.passes - passes_before) < limit:
            # One scan computes every |r ∩ uncovered| (the residual is
            # fixed for the whole pass) and captures each chunk's
            # first-max row; the global winner — the serial loop's
            # strict-improvement pick — is the largest-projection
            # capture, ties to the lowest id (chunks arrive in order).
            best_id, best_hit, best_gain = -1, 0, 0
            for _, _, captured in stream.scan_gains_chunked(
                mask_of(uncovered), best_only=True, include_gains=False
            ):
                for set_id, projection in captured:
                    gain = projection.bit_count()
                    if gain > best_gain:
                        best_id, best_hit, best_gain = set_id, projection, gain
            if best_id < 0:
                break  # nothing can make progress: infeasible family
            selection.append(best_id)
            meter.charge(1)
            uncovered -= set(bits_of(best_hit))

        return StreamingCoverResult(
            selection=selection,
            passes=stream.passes - passes_before,
            peak_memory_words=meter.peak,
            algorithm=self.name,
            feasible=not uncovered,
        )


class ThresholdGreedy:
    """Thresholded greedy: O(log n) passes, O~(n) space, O(log n) approx.

    Pass ``t`` has threshold ``n / 2^t``; any streamed set covering at least
    that many still-uncovered elements is picked immediately.  After the
    threshold drops below one, every element is covered (any set containing
    a leftover element covers >= 1 of them).

    Parameters
    ----------
    shrink:
        Factor the threshold divides by between passes (default 2).
    """

    name = "greedy (threshold)"

    def __init__(self, shrink: float = 2.0):
        if shrink <= 1:
            raise ValueError(f"shrink factor must exceed 1, got {shrink}")
        self.shrink = shrink

    def solve(self, stream: SetStream) -> StreamingCoverResult:
        meter = MemoryMeter(label=self.name)
        meter.charge(stream_resident_words(stream))
        passes_before = stream.passes
        n = stream.n
        uncovered_int = universe_mask(n)
        uncovered_count = n
        meter.charge(n)
        selection: list[int] = []

        threshold = float(n)
        capture_peak = 0
        while uncovered_count and threshold >= 1.0:
            threshold = max(1.0, threshold / self.shrink)
            # Worker-fused accept pass (DESIGN.md §8.4): gains against
            # the pass-start residual over-estimate live gains (the
            # residual only shrinks), so every row the serial loop would
            # accept arrives as a captured candidate — and each chunk
            # additionally carries its accept simulation, run inside the
            # scan worker against the pass-start residual.  The chunk's
            # simulated accepts equal the serial replay's exactly when
            # nothing removed by earlier chunks intersects any of the
            # chunk's candidate projections (`changed & touched == 0`);
            # only chunks where that check fails re-test their
            # candidates in repository order against the live residual.
            # Either way the picks, charges and pass counts match the
            # serial loop bit for bit.  Chunk-streamed consumption
            # bounds the resident captures to one chunk's worth; the
            # largest batch is reported (DESIGN.md §6.1).
            pass_mask = uncovered_int
            parts = stream.scan_accepts_chunked(
                pass_mask, math.ceil(threshold)
            )
            for _, captured, batch in parts:
                capture_peak = max(capture_peak, capture_words(captured))
                changed = pass_mask & ~uncovered_int
                if not changed & batch.touched:
                    for set_id in batch.ids:
                        selection.append(set_id)
                        meter.charge(1)
                    uncovered_int &= ~batch.removed
                    uncovered_count -= batch.removed.bit_count()
                    continue
                for set_id, projection in captured:
                    hit_int = projection & uncovered_int
                    hit_count = hit_int.bit_count()
                    if hit_count >= threshold:
                        selection.append(set_id)
                        meter.charge(1)
                        uncovered_int &= ~hit_int
                        uncovered_count -= hit_count
            if threshold <= 1.0:
                break

        return StreamingCoverResult(
            selection=selection,
            passes=stream.passes - passes_before,
            peak_memory_words=meter.peak,
            algorithm=self.name,
            feasible=not uncovered_count,
            extra={"scan_capture_peak_words": capture_peak},
        )
