"""Out-of-core streaming: the pass-counted protocol over an on-disk repository.

:class:`ShardedSetStream` is the sharded twin of
:class:`~repro.streaming.stream.SetStream`: same pass discipline, same
counters, same row formats — but the family is scanned sequentially from a
shard directory (:mod:`repro.setsystem.shards`) instead of an in-RAM
:class:`~repro.setsystem.set_system.SetSystem`.  Because algorithms are
written against the stream protocol only, ``iterSetCover``, the greedy
baselines and the partial-cover passes run **unchanged** on instances that
never fit in memory; the ``parity`` suite of ``python -m repro
experiments`` checks cover-for-cover, pass-for-pass agreement between the
two streams.

The only model difference is accounting: a sharded scan holds one chunk
of packed rows resident, so :attr:`ShardedSetStream.resident_words`
reports that buffer (``chunk_rows * ceil(n/64)`` words) and algorithms
fold it into their reported peak (DESIGN.md §3.6).  The repository itself
stays on disk and is never charged.

Examples
--------
>>> import tempfile
>>> from repro.setsystem import SetSystem
>>> from repro.setsystem.shards import write_shards
>>> system = SetSystem(4, [[0, 1], [2], [1, 3]])
>>> tmp = tempfile.TemporaryDirectory()
>>> stream = ShardedSetStream(write_shards(tmp.name + "/repo", system))
>>> [sorted(r) for _, r in stream.iterate()]
[[0, 1], [2], [1, 3]]
>>> stream.passes, stream.n, stream.m
(1, 4, 3)
>>> stream.close(); tmp.cleanup()
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import executor_for
from repro.setsystem.deltas import MergedShardView, open_repository
from repro.setsystem.set_system import SetSystem
from repro.setsystem.shards import ShardedRepository
from repro.streaming.stream import SetStreamBase

__all__ = ["ShardedSetStream"]

#: Rows the referee decodes at once in :meth:`ShardedSetStream.verify_solution`.
_VERIFY_BATCH = 1024


class ShardedSetStream(SetStreamBase):
    """Pass-counted sequential access to a sharded on-disk repository.

    Parameters
    ----------
    repository:
        A :class:`~repro.setsystem.shards.ShardedRepository`, or a path to
        a shard directory (opened, and then owned, by the stream).
    verify:
        When opening from a path: verify shard checksums first.
    workers:
        Remote worker addresses: the CLI's ``host:port,host:port`` string
        or ``(host, port)`` pairs
        (:func:`repro.engine.plan.resolve_workers`).  Without them gains
        scans run serially, shards in order with no thread; with them
        they spread over ``python -m repro worker serve`` processes,
        which re-open this repository by path + manifest token
        (DESIGN.md §9).  Results are bit-identical either way.
    retry:
        Remote failure handling: anything
        :meth:`repro.engine.fault.RetryPolicy.resolve` accepts (``None``
        = fail-loud, a :class:`~repro.engine.fault.RetryPolicy`, or a
        dict of its knobs — the CLI's ``--retry-*`` flag bundle).  Only
        meaningful with ``workers``; recoverable faults land in
        :attr:`~repro.streaming.stream.SetStreamBase.fault_log` and
        results stay bit-identical whether or not retries fire.
    """

    def __init__(
        self,
        repository: "ShardedRepository | str | Path",
        verify: bool = False,
        workers=None,
        retry=None,
    ):
        super().__init__()
        opened = isinstance(repository, (str, Path))
        if opened:
            # Delta-aware: a repository with pending delta generations
            # opens as its merged view (tombstones win, newest
            # generation wins) — same scan interface, same parity
            # guarantees (DESIGN.md §11).
            repository = open_repository(repository, verify=verify)
        if isinstance(repository, MergedShardView) and workers:
            pending = repository.pending_deltas
            if opened:
                repository.close()  # release the view's generation lease
            raise ValueError(
                "the remote transport cannot scan a repository with "
                f"{pending} pending delta generation(s): remote workers "
                "re-open the base by path and hold no chain state. Run "
                "`repro shard compact` first."
            )
        self._repo = repository
        self._workers = workers
        self._retry = retry
        self._executor = None
        self._materialized: "SetSystem | None" = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Ground-set size (known to the algorithm up front)."""
        return self._repo.n

    @property
    def m(self) -> int:
        """Number of sets in the repository (manifest metadata, no pass)."""
        return self._repo.m

    @property
    def max_set_size(self) -> int:
        """The largest set ``Δ`` (manifest ``max_set_bits``, no pass)."""
        return self._repo.max_set_bits

    @property
    def lower_bound(self) -> int:
        """The certified lower bound: the manifest's ``dual_bound`` (no
        pass), or a delta chain's recount of its live rows."""
        return self._repo.dual_bound

    @property
    def repository(self) -> ShardedRepository:
        """The underlying on-disk repository."""
        return self._repo

    @property
    def resident_words(self) -> int:
        """One chunk of packed rows — the buffer a scan holds resident.

        ``chunk_rows * ceil(n/64)`` uint64 words (capped at the family
        size).  This is what out-of-core runs charge on top of algorithm
        state; the repository's ``m * ceil(n/64)`` words stay on disk.
        """
        return self._repo.chunk_words

    def close(self) -> None:
        """Release the repository's memory maps and the scan executor.

        Executor close matters on the remote transport: it tears down
        any interposed ``REPRO_CHAOS`` proxies (connections themselves
        are per-scan and never outlive their iterator).
        """
        if self._executor is not None:
            self._executor.close()
        self._repo.close()

    # -- repository hooks ----------------------------------------------
    def _frozenset_rows(self):
        return enumerate(self._repo.iter_rows())

    def _packed_rows(self):
        return enumerate(self._repo.iter_row_masks())

    # -- executor-driven gains scans -----------------------------------
    @property
    def jobs(self) -> int:
        """Scan lanes: 1 serial, one per worker on the remote transport."""
        return self._scan_executor().jobs

    def _scan_executor(self):
        if self._executor is None:
            self._executor = executor_for(self._workers, retry=self._retry)
        return self._executor

    def _scan_gains_chunked(
        self, mask_int, min_capture_gain, capture_ids, best_only, include_gains
    ):
        return self._scan_executor().iter_scan_repository(
            self._repo,
            mask_int,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
            include_gains=include_gains,
        )

    # ------------------------------------------------------------------
    def verify_solution(self, selection) -> bool:
        """Out-of-band feasibility check (referee functionality, no pass).

        Decodes only the selected rows, in numpy and a batch at a time
        (:meth:`~repro.setsystem.shards.ShardedRepository.select_rows`),
        without materializing the instance.
        """
        ids = sorted(set(selection))
        covered = np.zeros(self._repo.n, dtype=bool)
        for first in range(0, len(ids), _VERIFY_BATCH):
            elements, _ = self._repo.select_rows(ids[first:first + _VERIFY_BATCH])
            covered[elements] = True
        return bool(covered.all())

    @property
    def system(self) -> SetSystem:
        """Referee access: materialize (and cache) the full instance.

        Loads the entire repository into RAM — tests and benchmarks only,
        exactly the cost streaming algorithms must not pay.
        """
        if self._materialized is None:
            self._materialized = self._repo.to_system()
        return self._materialized

    def __repr__(self) -> str:
        return f"ShardedSetStream({self._repo!r}, passes={self.passes})"
