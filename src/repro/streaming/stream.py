"""The data-stream access model of the paper.

"The sets r_1, ..., r_m are stored consecutively in a read-only repository
and an algorithm can access the sets only by performing sequential scans of
the repository."  (Section 1.)

:class:`SetStreamBase` enforces exactly that: the only way to see the family
is to open a pass and consume it sequentially; every completed (or
abandoned) pass increments the pass counter.  Random access raises.  Two
repositories implement the protocol:

* :class:`SetStream` — the family lives in an in-RAM
  :class:`~repro.setsystem.set_system.SetSystem` (the seed's model);
* :class:`~repro.streaming.sharded.ShardedSetStream` — the family lives in
  an on-disk shard directory (:mod:`repro.setsystem.shards`) and is scanned
  chunk by chunk, so instances never need to fit in memory.

Algorithms are written against the protocol only (``n``, ``m``,
``max_set_size``, ``passes``, ``iterate``, ``iterate_packed``,
``iterate_chunks``), so the same pass-for-pass code runs over both
repositories.

Space accounting rule (DESIGN.md §3.6): the repository itself is *never*
charged to an algorithm — it is the read-only input, whether it resides in
the referee's RAM or on disk.  What **is** charged is the stream's
resident scan buffer, exposed as :attr:`SetStreamBase.resident_words`:
zero for :class:`SetStream` (rows are handed out by reference), one chunk
of packed words for the sharded stream.  Algorithms add it to their
reported peak so out-of-core runs stay honest.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.engine import ScanResult, SerialScanExecutor, merge_scan_parts
from repro.setsystem.packed import Captures, ScanMask, accept_rows, pack_rows
from repro.setsystem.set_system import SetSystem

__all__ = [
    "SetStream",
    "SetStreamBase",
    "StreamAccessError",
    "ResourceReport",
    "stream_resident_words",
]


class StreamAccessError(RuntimeError):
    """Raised on illegal access patterns (nested or random access)."""


@dataclass
class ResourceReport:
    """The two resources the paper bounds, plus solution metadata.

    ``peak_memory_words`` counts only *resident* working memory: the
    algorithm's own state plus the stream's scan buffer
    (:attr:`SetStreamBase.resident_words`).  The repository itself — in
    RAM or on disk — is the read-only input and is never included
    (DESIGN.md §3.6).
    """

    passes: int = 0
    peak_memory_words: int = 0
    solution_size: "int | None" = None
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        row = {
            "passes": self.passes,
            "space(words)": self.peak_memory_words,
            "|sol|": self.solution_size,
        }
        row.update(self.extra)
        return row


def stream_resident_words(stream) -> int:
    """The stream's resident scan-buffer size in words (0 if unreported).

    Helper for algorithms: ``peak_memory_words`` must include this so
    out-of-core runs account for their chunk buffer (DESIGN.md §3.6).
    """
    return getattr(stream, "resident_words", 0)


class SetStreamBase:
    """Pass-counted sequential access: the protocol algorithms consume.

    Subclasses provide the repository (:meth:`_frozenset_rows`,
    :meth:`_packed_rows`, :meth:`_chunk_rows`) plus ``n``/``m``; this base
    enforces the single-read-head discipline and counts passes.
    """

    def __init__(self):
        self._passes = 0
        self._in_pass = False

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:  # pragma: no cover - overridden
        """Ground-set size (known to the algorithm up front)."""
        raise NotImplementedError

    @property
    def m(self) -> int:  # pragma: no cover - overridden
        """Number of sets in the repository (metadata, costs no pass)."""
        raise NotImplementedError

    @property
    def max_set_size(self) -> int:  # pragma: no cover - overridden
        """The largest set ``Δ`` (metadata, costs no pass)."""
        raise NotImplementedError

    @property
    def lower_bound(self) -> int:
        """``ceil(n/Δ)`` (``n`` if ``Δ = 0``): no cover is smaller; no pass."""
        return -(-self.n // max(self.max_set_size, 1))

    @property
    def passes(self) -> int:
        """Number of passes opened so far."""
        return self._passes

    @property
    def resident_words(self) -> int:
        """Words of scan buffer resident while a pass is open.

        Zero for in-memory repositories (rows are yielded by reference);
        the sharded stream reports one chunk of packed words.  Algorithms
        fold this into their reported peak (DESIGN.md §3.6).
        """
        return 0

    def reset_passes(self) -> None:
        """Zero the pass counter (for reusing one stream across runs)."""
        if self._in_pass:
            raise StreamAccessError("cannot reset the counter mid-pass")
        self._passes = 0

    # ------------------------------------------------------------------
    def _scan(self, make_rows) -> Iterator[tuple[int, object]]:
        """Open a pass over ``make_rows()`` with the single-read-head rules.

        Opening a pass while another is active raises — the streaming model
        has a single read head.  A pass counts as soon as it is opened,
        whether or not it is consumed to the end (an early exit still had to
        rewind the repository).
        """
        if self._in_pass:
            raise StreamAccessError("a pass is already in progress")
        rows = make_rows()
        self._in_pass = True
        self._passes += 1
        try:
            yield from rows
        finally:
            self._in_pass = False

    # -- repository hooks ----------------------------------------------
    def _frozenset_rows(self) -> Iterator[tuple[int, frozenset[int]]]:
        raise NotImplementedError  # pragma: no cover - overridden

    def _packed_rows(self) -> Iterator[tuple[int, int]]:
        raise NotImplementedError  # pragma: no cover - overridden

    def _chunk_rows(self) -> Iterator[tuple[int, object]]:
        raise NotImplementedError  # pragma: no cover - overridden

    # -- the pass flavours ---------------------------------------------
    def iterate(self) -> Iterator[tuple[int, frozenset[int]]]:
        """Open a pass and yield ``(set_id, set)`` in repository order."""
        return self._scan(self._frozenset_rows)

    def iterate_packed(self) -> Iterator[tuple[int, int]]:
        """Open a pass yielding ``(set_id, bitmap)`` rows as big ints.

        The same access discipline and pass accounting as :meth:`iterate`;
        only the wire format differs — bit ``e`` of a row is element ``e``
        (DESIGN.md §4) instead of a frozenset.
        """
        return self._scan(self._packed_rows)

    def iterate_chunks(self) -> Iterator[tuple[int, object]]:
        """Open a pass yielding ``(first_set_id, chunk)`` batches.

        One pass, delivered as read-only ``(rows, words)`` ``uint64``
        blocks (:func:`~repro.setsystem.packed.pack_rows`) instead of
        single rows.  Chunk geometry follows the repository (one chunk per
        shard on disk; a single chunk for in-memory systems), so batch
        kernels can stream families that never fit in RAM.
        """
        return self._scan(self._chunk_rows)

    # -- executor-driven gains scans -----------------------------------
    def scan_gains_chunked(
        self,
        mask_int: int,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ) -> Iterator[tuple[int, object, Captures]]:
        """Open a pass yielding ``(start, gains, captured)`` per chunk.

        The fourth pass flavour (DESIGN.md §6): one sequential scan,
        executed chunk-by-chunk by the stream's
        :class:`~repro.engine.transport.base.ScanExecutor` (serial, or
        remote when a sharded stream is given ``workers``) and delivered
        in chunk order — results are bit-identical on both.  Same access
        discipline and pass accounting as :meth:`iterate`: one read head,
        the scan counts one pass.

        Each chunk's ``captured`` is one
        :class:`~repro.setsystem.packed.Captures` record — ids plus the
        ``uint64`` words of ``row ∩ mask``, word-sparse or full width by
        the record's byte rule — for rows reaching
        ``min_capture_gain`` (optionally
        restricted to ``capture_ids``), or only the chunk's first-max
        row with ``best_only``.  Consuming chunk-by-chunk is the
        bounded-capture discipline: a replay holds at most one chunk's
        captures at a time and reports the largest batch as
        ``scan_capture_peak_words`` (DESIGN.md §6.1).  Callers that do
        not need per-row gains pass ``include_gains=False`` and the
        gains vectors are never materialized driver-side.
        """
        return self._scan(
            lambda: self._scan_gains_chunked(
                mask_int, min_capture_gain, capture_ids, best_only, include_gains
            )
        )

    def scan_accepts_chunked(
        self, residual: "np.ndarray", threshold: int
    ) -> Iterator[tuple[int, Captures, "list[int]"]]:
        """Open a threshold-accept pass against the live ``residual``.

        The accept flavour (DESIGN.md §8.4), for passes whose accept step
        is a sequential threshold loop over the rows in repository order
        (``ThresholdGreedy``).  ``residual`` is a writable ``uint64``
        word array.  One gains scan against its pass-start value — same
        access discipline and pass accounting as :meth:`iterate` —
        captures the rows reaching ``threshold``, and this yields
        ``(start, captured, picked_ids)`` per chunk in chunk order.
        ``picked_ids`` are the rows :func:`~repro.setsystem.packed.accept_rows`
        accepts against the *live* residual, which it shrinks in place
        before the item is yielded.  The residual only shrinks, so every
        row the sequential loop would accept is among the captures.
        """
        if threshold < 1:
            raise ValueError(f"accept threshold must be >= 1, got {threshold}")
        threshold = int(threshold)
        mask_int = int.from_bytes(residual.tobytes(), "little")

        def accepts():
            for start, _, captured in self._scan_gains_chunked(
                mask_int, min_capture_gain=threshold, capture_ids=None,
                best_only=False, include_gains=False,
            ):
                yield start, captured, accept_rows(captured, residual, threshold)

        return self._scan(accepts)

    def scan_gains(
        self,
        mask_int: int,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ) -> ScanResult:
        """One full gains scan, merged (eager :meth:`scan_gains_chunked`).

        Convenience for callers that want the whole ``gains`` vector at
        once (benchmarks, parity checks); algorithms replay through
        :meth:`scan_gains_chunked` instead, so their capture scratch
        stays bounded by one chunk.

        When the stream's executor recorded fault events (remote
        transport surviving worker faults), the scan's
        :class:`~repro.engine.merge.ScanResult` carries their summary in
        ``extra`` — observability only, never part of the result.
        """
        result = merge_scan_parts(
            list(
                self.scan_gains_chunked(
                    mask_int, min_capture_gain, capture_ids, best_only,
                    include_gains,
                )
            )
        )
        fault_log = self.fault_log
        if fault_log:
            result.extra["fault_summary"] = fault_log.summary()
            result.extra["fault_events"] = fault_log.as_rows()
        cache_stats = self.cache_stats
        if cache_stats is not None:
            result.extra["cache"] = cache_stats
        return result

    @property
    def cache_stats(self):
        """Hot-cache counters behind this stream's scans, or ``None``.

        Serial streams report the driver process cache; remote streams
        report counters aggregated from their workers.  Observability
        only — surfaced in ``ScanResult.extra["cache"]``, never consulted
        by results.
        """
        executor = getattr(self, "_executor", None)
        if executor is None:
            return None
        return executor.cache_stats

    @property
    def fault_log(self):
        """The remote executor's fault log, or ``None`` off-remote.

        Truthy exactly when the stream's scans recorded recoverable
        fault events (see :class:`repro.engine.fault.FaultLog`).
        """
        return getattr(getattr(self, "_executor", None), "fault_log", None)

    def _scan_gains_chunked(
        self, mask_int, min_capture_gain, capture_ids, best_only, include_gains
    ):
        raise NotImplementedError  # pragma: no cover - overridden


class SetStream(SetStreamBase):
    """Sequential, pass-counted access to an in-memory set system.

    Parameters
    ----------
    system:
        The underlying instance.  The ground set (``system.n``) is public —
        the paper stores the element universe in memory in advance — but the
        family may only be read through :meth:`iterate`.  Gains scans run
        on the serial executor, the whole family as one chunk: remote
        workers open shard repositories by path (DESIGN.md §9).

    Examples
    --------
    >>> from repro.setsystem import SetSystem
    >>> stream = SetStream(SetSystem(3, [[0], [1, 2]]))
    >>> [sorted(r) for _, r in stream.iterate()]
    [[0], [1, 2]]
    >>> stream.passes
    1
    """

    def __init__(self, system: SetSystem):
        super().__init__()
        self._system = system
        self._executor = SerialScanExecutor()
        self._block = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Ground-set size (known to the algorithm up front)."""
        return self._system.n

    @property
    def m(self) -> int:
        """Number of sets in the repository.

        The paper's algorithms know m (it appears in their sample sizes), so
        the stream exposes it as metadata without costing a pass.
        """
        return self._system.m

    @property
    def max_set_size(self) -> int:
        """The largest set ``Δ``, known up front as ``m`` is (no pass)."""
        return self._system.max_set_size()

    # -- repository hooks ----------------------------------------------
    def _frozenset_rows(self):
        return enumerate(self._system.sets)

    def _packed_rows(self):
        return enumerate(self._system.packed().rows)

    def _chunk_rows(self):
        """One whole-family chunk (the in-RAM system has no shard geometry)."""
        return iter([(0, self._matrix())])

    def _matrix(self):
        """The family as one ``(m, words)`` ``uint64`` block, packed once."""
        if self._block is None:
            words = (self.n + 63) // 64
            self._block = pack_rows(self._system.packed().rows, words)
        return self._block

    # -- executor-driven gains scans -----------------------------------
    @property
    def jobs(self) -> int:
        """Scan lanes: always 1, an in-memory family scans serially."""
        return self._executor.jobs

    def _scan_gains_chunked(
        self, mask_int, min_capture_gain, capture_ids, best_only, include_gains
    ):
        chunks = [(0, self._matrix())] if self._system.m else []
        return self._executor.iter_scan_chunks(
            self.n,
            chunks,
            ScanMask(self.n, mask_int),
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
            include_gains=include_gains,
        )

    # ------------------------------------------------------------------
    def verify_solution(self, selection) -> bool:
        """Out-of-band feasibility check used by tests and benchmarks.

        This is *referee* functionality, not part of the streaming model;
        it does not consume a pass and must not be called by algorithms.
        """
        return self._system.is_cover(selection)

    @property
    def system(self) -> SetSystem:
        """Referee access to the full instance (tests/benchmarks only)."""
        return self._system
