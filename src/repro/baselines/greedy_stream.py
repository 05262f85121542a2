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
  threshold halves between passes, and the thresholds above the largest
  set ``Δ`` (stream metadata, no pass) are skipped — no set reaches them.

All three run over any :class:`~repro.streaming.stream.SetStreamBase`
repository — in-memory or sharded — and report the stream's resident
chunk buffer in their peak (DESIGN.md §3.6).  ``MultiPassGreedy`` and
``ThresholdGreedy`` drive their passes through the stream's scan
executor (DESIGN.md §6, §8): per-pass residual gains are computed
chunk-parallel against the pass-start residual, and the pick/accept
step runs in the driver.  ``MultiPassGreedy``'s accept (a single global
first-max) is a commutative reduction, so each worker ships one
candidate per chunk and the driver merely max-merges.
``ThresholdGreedy``'s accept is sequential: a row is picked when its
hit on the *live* residual reaches the threshold.  Its pass
(``scan_accepts_chunked``, DESIGN.md §8.4) captures every row reaching
the threshold against the pass-start residual — a superset of the
picks, since the residual only shrinks — and accepts each chunk's
capture record in row order against the live residual, kept as
``uint64`` words (:func:`~repro.setsystem.packed.accept_rows`).  Picks,
pass counts and meter charges are those of the serial row loop at any
``jobs`` or ``transport`` setting.
"""

from __future__ import annotations

import math

from repro.core.result import StreamingCoverResult
from repro.offline.greedy import greedy_cover
from repro.engine import capture_words
from repro.setsystem.packed import ScanMask
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
    a leftover element covers >= 1 of them).  Thresholds above the
    largest set ``Δ`` (stream metadata, no pass) get no pass: no row can
    reach them, so the picks are those of the full schedule.

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
        residual = ScanMask(n, universe_mask(n)).arr.copy()
        meter.charge(n)
        selection: list[int] = []

        threshold = float(n)
        widest = stream.max_set_size
        capture_peak = 0
        while residual.any() and threshold >= 1.0:
            threshold = max(1.0, threshold / self.shrink)
            # One accept pass (DESIGN.md §8.4): each chunk's picks are
            # accepted against the live residual, which shrinks in place.
            # Chunk-streamed consumption bounds the resident captures to
            # one chunk's worth; the largest batch is reported
            # (DESIGN.md §6.1).
            if math.ceil(threshold) <= widest:
                for _, captured, picked in stream.scan_accepts_chunked(
                    residual, math.ceil(threshold)
                ):
                    capture_peak = max(capture_peak, capture_words(captured))
                    for set_id in picked:
                        selection.append(set_id)
                        meter.charge(1)
            if threshold <= 1.0:
                break

        return StreamingCoverResult(
            selection=selection,
            passes=stream.passes - passes_before,
            peak_memory_words=meter.peak,
            algorithm=self.name,
            feasible=not residual.any(),
            extra={"scan_capture_peak_words": capture_peak},
        )
