"""The executor protocol every transport backend implements.

A streaming pass is, per set, a pure map against a read-only residual —
only the accept/pick step needs ordered reconciliation.  A
:class:`ScanExecutor` runs the per-shard work of a gains scan
(``|r_i ∩ residual|`` for every row, plus captured projections —
:meth:`repro.setsystem.shards.ShardedRepository.scan_shard`) on some
substrate — inline, or a fleet of remote workers — and delivers the
per-shard results **in chunk order** through the shared merge layer
(:mod:`repro.engine.merge`).  Because every chunk is keyed by its
position in the chunk sequence and workers never share state, covers,
tie-breaks and pass counts are bit-identical on every backend — the
property tests in ``tests/test_parallel.py`` and
``tests/test_remote.py`` assert exactly that.
"""

from __future__ import annotations

import abc

from repro.engine.merge import merge_scan_parts

__all__ = ["ScanExecutor"]


class ScanExecutor(abc.ABC):
    """Strategy object running the per-chunk work of one gains scan.

    The primitive interface is *streaming*: ``iter_scan_repository``
    yields ``(start, gains, captured)`` per shard, **in chunk order**, so
    a caller replaying captures holds at most one chunk's worth at a
    time (the bounded-capture discipline of DESIGN.md §6.1).  The eager
    :meth:`scan_repository` wrapper merges the full scan for callers
    that want the whole gains vector (tests).
    """

    jobs: int = 1

    #: The transport family this executor belongs to (``"serial"`` or
    #: ``"remote"``).
    transport: str = "serial"

    @property
    def cache_stats(self) -> "dict | None":
        """Hot-cache counters behind this executor's scans, or ``None``.

        The default covers the driver-side consumer (serial): the
        process-wide :mod:`repro.engine.cache` counters.  The remote
        backend overrides this with counters aggregated from its
        workers.  Observability only — surfaced
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

    def scan_repository(self, repository, mask_int, **kwargs):
        """Eager merge of :meth:`iter_scan_repository`."""
        return merge_scan_parts(
            list(self.iter_scan_repository(repository, mask_int, **kwargs))
        )

    def close(self) -> None:
        """Release executor resources (the remote backend's chaos proxies)."""
