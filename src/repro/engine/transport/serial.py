"""The reference backend: one chunk at a time, in order, inline.

A serial scan is the plain in-order loop and starts no thread: an
overlapped schedule measured no faster (DESIGN.md §8.3).
"""

from __future__ import annotations

from repro.engine.cache import cached_scan_shard
from repro.engine.merge import merge_scan_parts
from repro.engine.transport.base import ScanExecutor
from repro.setsystem.packed import ScanMask, scan_chunk

__all__ = ["SerialScanExecutor"]


class SerialScanExecutor(ScanExecutor):
    """The reference executor: one chunk at a time, in order, inline.

    It alone also scans in-memory chunks (:meth:`iter_scan_chunks`), the
    path :class:`~repro.streaming.stream.SetStream` takes; remote
    workers open shard repositories by path.
    """

    jobs = 1
    transport = "serial"

    def iter_scan_repository(
        self, repository, mask_int, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        mask = ScanMask(repository.n, mask_int)
        for shard in range(repository.shard_count):
            start, gains, captured = cached_scan_shard(
                repository, shard, mask,
                min_capture_gain=min_capture_gain,
                capture_ids=capture_ids,
                best_only=best_only,
            )
            yield start, (gains if include_gains else None), captured

    def iter_scan_chunks(
        self, n, chunks, mask, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        """Yield ``(start, gains, captured)`` per in-memory chunk, in order."""
        for start, chunk in chunks:
            gains, captured = scan_chunk(
                start, chunk, mask,
                min_capture_gain=min_capture_gain,
                capture_ids=capture_ids,
                best_only=best_only,
            )
            yield start, (gains if include_gains else None), captured

    def scan_chunks(self, n, chunks, mask, **kwargs):
        """Eager merge of :meth:`iter_scan_chunks`."""
        return merge_scan_parts(
            list(self.iter_scan_chunks(n, chunks, mask, **kwargs))
        )
