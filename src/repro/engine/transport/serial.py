"""The reference backend: one shard at a time, in order, inline.

A serial scan is the plain in-order loop and starts no thread: an
overlapped schedule measured no faster (DESIGN.md §8.3).  The loop,
:func:`iter_shard_scans`, is also what the remote driver runs when it
scans shards itself (stale salvage, quorum-loss fallback).
"""

from __future__ import annotations

from repro.engine.cache import scan_through_cache
from repro.engine.transport.base import ScanExecutor
from repro.setsystem.packed import ScanMask

__all__ = ["SerialScanExecutor", "iter_shard_scans"]


def iter_shard_scans(
    repository, shards, mask, min_capture_gain=None, capture_ids=None,
    best_only=False, include_gains=True,
):
    """Yield ``(start, gains, captured)`` for each of ``shards``, in order.

    Each shard goes through :func:`~repro.engine.cache.scan_through_cache`,
    the one shard-scan path; ``gains`` is ``None`` unless
    ``include_gains``.
    """
    for shard in shards:
        (start, gains, captured), _ = scan_through_cache(
            repository, shard, mask,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
        )
        yield start, (gains if include_gains else None), captured


class SerialScanExecutor(ScanExecutor):
    """The reference executor: every shard in order, inline."""

    jobs = 1
    transport = "serial"

    def iter_scan_repository(
        self, repository, mask_int, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        yield from iter_shard_scans(
            repository, range(repository.shard_count),
            ScanMask(repository.n, mask_int),
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
            include_gains=include_gains,
        )
