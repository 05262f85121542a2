"""The executor protocol every transport backend implements.

A streaming pass is, per set, a pure map against a read-only residual —
only the accept/pick step needs ordered reconciliation.  A
:class:`ScanExecutor` runs the per-chunk work of a gains scan
(``|r_i ∩ residual|`` for every row, plus captured projections —
:func:`repro.setsystem.packed.scan_chunk` and
:meth:`repro.setsystem.shards.ShardedRepository.scan_shard`) on some
substrate — inline, a process pool, a fleet of remote workers — and
delivers the per-chunk results **in chunk order** through
the shared merge layer (:mod:`repro.engine.merge`).  Because every chunk
is keyed by its position in the chunk sequence and workers never share
state, covers, tie-breaks and pass counts are bit-identical on every
backend — the property tests in ``tests/test_parallel.py`` and
``tests/test_remote.py`` assert exactly that.

Adding a backend means implementing the two ``iter_scan_*`` primitives
in a new module under :mod:`repro.engine.transport` — the protocol, the
merge discipline and every algorithm above it stay untouched.
"""

from __future__ import annotations

import abc

from repro.engine.merge import merge_scan_parts
from repro.setsystem.packed import ScanMask

__all__ = ["ScanExecutor"]


class ScanExecutor(abc.ABC):
    """Strategy object running the per-chunk work of one gains scan.

    The primitive interface is *streaming*: ``iter_scan_repository`` /
    ``iter_scan_chunks`` yield ``(start, gains, captured)`` per chunk,
    **in chunk order**, so a caller replaying captures holds at most one
    chunk's worth at a time (the bounded-capture discipline of
    DESIGN.md §6.1).  The eager ``scan_*`` wrappers merge the full scan
    for callers that want the whole gains vector (benchmarks, tests).
    """

    jobs: int = 1

    #: The transport family this executor belongs to (``"serial"``,
    #: ``"process"``, ``"remote"``, ...).
    transport: str = "serial"

    @property
    def cache_stats(self) -> "dict | None":
        """Hot-cache counters behind this executor's scans, or ``None``.

        The default covers the driver-side consumer (serial): the
        process-wide :mod:`repro.engine.cache` counters.  The
        process and remote backends override this with counters
        aggregated from their workers.  Observability only — surfaced
        via ``ScanResult.extra["cache"]``, never consulted by results.
        """
        from repro.engine.cache import get_cache

        cache = get_cache()
        return cache.stats() if cache.enabled else None

    @abc.abstractmethod
    def iter_scan_repository(
        self,
        repository,
        mask_int: int,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ):
        """Yield ``(start, gains, captured)`` per shard, in order."""

    @abc.abstractmethod
    def iter_scan_chunks(
        self,
        n: int,
        chunks,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ):
        """Yield ``(start, gains, captured)`` per in-memory chunk."""

    def scan_repository(self, repository, mask_int, **kwargs):
        """Eager merge of :meth:`iter_scan_repository`."""
        return merge_scan_parts(
            list(self.iter_scan_repository(repository, mask_int, **kwargs))
        )

    def scan_chunks(self, n, chunks, mask, **kwargs):
        """Eager merge of :meth:`iter_scan_chunks`."""
        return merge_scan_parts(
            list(self.iter_scan_chunks(n, chunks, mask, **kwargs))
        )

    def close(self) -> None:
        """Release executor resources (pools are shared; see transports)."""
