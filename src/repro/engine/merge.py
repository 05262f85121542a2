"""Deterministic result reconciliation for the scan engine.

Every transport backend (:mod:`repro.engine.transport`) computes the
same per-chunk values; what makes covers, tie-breaks, pass counts and
accounting **bit-identical** across serial / thread / process / remote
execution is that all of them funnel their results through this module
(DESIGN.md §6.1, §9.2):

* :class:`ReorderWindow` buffers out-of-order per-chunk results and
  releases them strictly in chunk order, so consumers observe exactly
  the serial executor's chunk sequence no matter how batches were
  scheduled or which worker finished first;
* :func:`merge_scan_parts` assembles a full :class:`ScanResult` from
  per-chunk triples for eager callers;
* :func:`simulate_accepts` / :class:`AcceptBatch` relocate the
  threshold-accept replay loop into scan workers, with the driver-side
  application rule (apply wholesale iff nothing earlier chunks removed
  touches the batch's candidates) keeping picks identical to the
  sequential replay.

Because the merge layer is shared, a new transport backend inherits the
determinism contract for free — it only has to deliver correct per-chunk
values, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.setsystem.packed import Captures

__all__ = [
    "AcceptBatch",
    "ReorderWindow",
    "ScanResult",
    "capture_words",
    "merge_scan_parts",
    "simulate_accepts",
]


@dataclass
class ScanResult:
    """One full gains scan, merged in chunk order.

    ``gains[i]`` is ``|r_i ∩ mask|`` for every row of the repository
    (``numpy.int64`` array when numpy is available, else a list) — or
    ``None`` when the caller asked for captures only
    (``include_gains=False``), which keeps the scan's driver-resident
    state at the captured projections alone; ``captured`` is one
    :class:`~repro.setsystem.packed.Captures` record of every chunk's
    captured rows in ascending row order, as selected by the scan's
    capture policy.

    ``extra`` carries transport-side observability that rides along with
    a result without affecting it — today the remote executor's fault
    summary (``extra["fault_summary"]`` / ``extra["fault_events"]``)
    when a scan survived worker faults.  Values never influence gains,
    captures or any downstream decision; two results are the *same
    result* whenever ``gains`` and ``captured`` match, whatever
    ``extra`` says about the road travelled.
    """

    gains: object
    captured: Captures
    extra: dict = field(default_factory=dict)


@dataclass
class AcceptBatch:
    """One chunk's worker-side accept simulation (DESIGN.md §8.4).

    ``ids`` are the rows a sequential threshold-accept loop over the
    chunk's candidates would pick when the chunk's incoming residual is
    the pass-start mask; ``removed`` is the union of their (disjoint)
    hits; ``touched`` is the union of *every* candidate's projection.
    The driver may apply the batch wholesale exactly when nothing
    removed by earlier chunks intersects ``touched`` — otherwise it
    replays the captured candidates in order, as PR 3 did.
    """

    ids: list = field(default_factory=list)
    removed: int = 0
    touched: int = 0


def simulate_accepts(mask_int: int, threshold: int, captured) -> AcceptBatch:
    """Sequential in-chunk accept simulation against the pass-start mask.

    ``captured`` are the chunk's candidates — a
    :class:`~repro.setsystem.packed.Captures` record or any sequence of
    ``(row_id, projection_int)`` pairs — in ascending row order,
    projections taken against ``mask_int``.  Accepts every
    candidate whose *live* hit still reaches ``threshold``, shrinking the
    simulated residual as it goes — exactly the driver's replay loop,
    relocated into the worker.

    >>> batch = simulate_accepts(0b1111, 2, [(0, 0b0011), (1, 0b0110), (2, 0b1100)])
    >>> batch.ids, bin(batch.removed), bin(batch.touched)
    ([0, 2], '0b1111', '0b1111')
    """
    residual = mask_int
    ids: list = []
    touched = 0
    for row_id, projection in captured:
        touched |= projection
        hit = projection & residual
        if hit.bit_count() >= threshold:
            ids.append(row_id)
            residual &= ~hit
    return AcceptBatch(ids=ids, removed=mask_int & ~residual, touched=touched)


def capture_words(captured: Captures) -> int:
    """Words of a captured batch (projection elements + one id per row).

    The number algorithms report as ``scan_capture_peak_words``: the
    per-chunk capture scratch of a chunk-streamed replay, bounded by
    one chunk's content (DESIGN.md §6.1 accounting).  One vectorized
    popcount over the record's block.
    """
    return captured.words()


class ReorderWindow:
    """Buffer out-of-order per-chunk results; release them in chunk order.

    Positions must partition ``0..count-1``.  Producers :meth:`push`
    ``(position, item)`` pairs in whatever order their transport
    completes them; the consumer drains :meth:`pop_ready`, which yields
    every buffered item whose position is next in sequence.  The window
    is what makes batched, pooled and remote execution observably
    identical to a serial scan — the shared half of the determinism
    argument in DESIGN.md §6.1/§9.2.

    >>> window = ReorderWindow(3)
    >>> window.push(2, "c"); list(window.pop_ready())
    []
    >>> window.push(0, "a"); list(window.pop_ready())
    ['a']
    >>> window.push(1, "b"); list(window.pop_ready())
    ['b', 'c']
    >>> window.complete
    True
    """

    def __init__(self, count: int):
        self.count = count
        self._ready: dict[int, object] = {}
        self._emit = 0

    @property
    def emitted(self) -> int:
        """How many items have been released so far."""
        return self._emit

    @property
    def complete(self) -> bool:
        """Have all ``count`` items been released?"""
        return self._emit >= self.count

    def push(self, position: int, item) -> None:
        """Buffer one result by its position in the chunk sequence."""
        if not 0 <= position < self.count:
            raise ValueError(
                f"chunk position {position} outside 0..{self.count - 1}"
            )
        if position < self._emit or position in self._ready:
            raise ValueError(f"chunk position {position} delivered twice")
        self._ready[position] = item

    def pop_ready(self):
        """Yield buffered items while the next in-order position is ready."""
        while self._emit in self._ready:
            yield self._ready.pop(self._emit)
            self._emit += 1


def merge_scan_parts(parts: list) -> ScanResult:
    """Concatenate per-chunk ``(start, gains, captured)`` in chunk order."""
    parts = sorted(parts, key=lambda part: part[0])
    captured = Captures.concat([part[2] for part in parts])
    gains_parts = [part[1] for part in parts]
    if any(g is None for g in gains_parts):
        return ScanResult(gains=None, captured=captured)
    gains = (
        np.concatenate(gains_parts) if gains_parts else np.zeros(0, dtype=np.int64)
    )
    return ScanResult(gains=gains, captured=captured)
