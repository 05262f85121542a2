"""Process-pool backend: local multi-core scans over worker-owned mmaps.

Mechanics (DESIGN.md §6, §8):

* workers live in :class:`concurrent.futures.ProcessPoolExecutor` pools,
  created once per ``jobs`` count and shared by every stream in the
  process (scans are stateless, so pools never need flushing between
  streams); a worker that dies mid-scan raises a loud ``RuntimeError``
  (never a hang), the mask's SharedMemory segment is unlinked, and the
  broken pool is discarded so the next scan starts fresh;
* sharded repositories are **re-opened inside each worker** (keyed by
  path + manifest identity) so chunk reads are worker-local ``mmap``
  page faults — no chunk bytes ever cross the process boundary;
* scans are **windowed**: one task per shard (or in-memory chunk),
  completions stream back through the shared
  :class:`~repro.engine.merge.ReorderWindow` as each one finishes, so
  the driver's replay overlaps in-flight scans instead of waiting for a
  whole batch;
* workers consult the cross-pass hot cache
  (:mod:`repro.engine.cache`) before decoding, so pass two of a solve
  scans warm chunks; per-worker hit/miss counters ride every task
  result and aggregate into :attr:`ProcessScanExecutor.cache_stats`;
* in-memory chunks are shipped to workers as packed bytes (small
  families only; the sharded path is the scale path);
* the residual mask travels inline for small ground sets and through a
  :class:`multiprocessing.shared_memory.SharedMemory` segment once it
  exceeds :data:`_SHM_MIN_MASK_BYTES`, so huge-universe scans do not
  re-pickle megabytes of mask per chunk (workers memoize the decoded
  :class:`ScanMask` of the most recent payload, so per-shard tasks do
  not re-parse it either).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import os
import signal
import sys
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import numpy as np

from repro.engine.cache import cached_scan_shard, get_cache
from repro.engine.merge import ReorderWindow
from repro.engine.transport.base import ScanExecutor
from repro.setsystem.packed import ScanMask, scan_chunk

__all__ = ["ProcessScanExecutor"]

#: Masks at least this large travel via SharedMemory instead of pickling.
_SHM_MIN_MASK_BYTES = 1 << 20

#: Worker-side cap on cached re-opened repositories.
_WORKER_REPO_CACHE = 8

#: Test hook (``tests/test_parallel.py``): when this environment
#: variable is set, scan workers SIGKILL themselves mid-task so the
#: crash-hygiene contract (loud failure, no SHM leak, pool recovery)
#: stays regression-tested.
_CRASH_TEST_ENV = "REPRO_TEST_CRASH_SCAN"

_PROCESS_POOLS: dict[int, "concurrent.futures.ProcessPoolExecutor"] = {}


def _get_process_pool(jobs: int):
    pool = _PROCESS_POOLS.get(jobs)
    if pool is None:
        # Prefer cheap fork workers only on Linux; macOS keeps its spawn
        # default (fork after Objective-C/Accelerate initialize is unsafe,
        # which is why CPython switched the default there).  Every task
        # function and payload is module-level and picklable, so spawn
        # works everywhere.  Fork is safe in the supported usage: drivers
        # are single-threaded and scans start no threads — but it is a
        # constraint: callers forking while another thread of theirs is
        # busy should pass their own start method policy (spawn pays
        # worker reimport, ~seconds with numpy).
        method = (
            "fork"
            if sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        context = multiprocessing.get_context(method)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=context
        )
        _PROCESS_POOLS[jobs] = pool
    return pool


def _discard_process_pool(jobs: int) -> None:
    """Drop a (broken) pool so the next scan at this count starts fresh."""
    pool = _PROCESS_POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _shutdown_process_pools() -> None:
    for pool in _PROCESS_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _PROCESS_POOLS.clear()


def _attach_shm(name: str) -> SharedMemory:
    """Attach to an existing segment without adopting its lifetime."""
    try:
        return SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        shm = SharedMemory(name=name)
        try:  # pre-3.13: undo the tracker registration the attach made,
            # the parent owns (and unlinks) the segment
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        return shm


#: Driver-side nonce distinguishing SHM payloads across scans, so the
#: worker-side mask memo can never confuse a recycled segment name.
_SCAN_NONCE = itertools.count()

#: Worker-side memo of the most recently decoded mask payload — with
#: one task per shard, every task of a scan carries the same payload,
#: and re-parsing a megabyte mask per shard would tax exactly the
#: sparse-heavy scans the windowed schedule helps.
_MASK_MEMO: "tuple | None" = None


def _mask_from_payload(payload, n: int) -> ScanMask:
    global _MASK_MEMO
    key = (n,) + tuple(payload)
    memo = _MASK_MEMO
    if memo is not None and memo[0] == key:
        return memo[1]
    kind = payload[0]
    if kind == "raw":
        mask = ScanMask(n, int.from_bytes(payload[1], "little"))
    else:
        _, name, length, _ = payload
        shm = _attach_shm(name)
        try:
            mask_bytes = bytes(shm.buf[:length])
        finally:
            shm.close()
        mask = ScanMask(n, int.from_bytes(mask_bytes, "little"))
    _MASK_MEMO = (key, mask)
    return mask


_WORKER_REPOS: dict = {}


def _worker_repository(path: str, token):
    """Open (and cache) a repository inside a worker process.

    Deliberately simpler than the remote backend's refcounted
    :class:`~repro.engine.transport.remote.WorkerServer` cache: a pool
    worker runs one task at a time, so eviction can never race an
    in-flight scan here and plain close-on-evict is safe.
    """
    key = (path, token)
    repo = _WORKER_REPOS.get(key)
    if repo is None:
        from repro.setsystem.deltas import open_repository

        for stale in [k for k in _WORKER_REPOS if k[0] == path]:
            _WORKER_REPOS.pop(stale).close()
        while len(_WORKER_REPOS) >= _WORKER_REPO_CACHE:
            _WORKER_REPOS.pop(next(iter(_WORKER_REPOS))).close()
        # Delta-aware: a repository with pending delta generations opens
        # as its merged view, so workers scan the same live family the
        # driver planned (the token covers every chain manifest).
        repo = open_repository(path)
        _WORKER_REPOS[key] = repo
        # Precise hot-cache hygiene: a fresh open supersedes whatever
        # identity this worker cached for the path before — drop those
        # chunks now instead of letting them age out of the budget.
        from repro.engine.cache import cache_key_for, get_cache

        key_base = cache_key_for(repo)
        if key_base is not None:
            get_cache().invalidate(key_base[0], keep_token=key_base[1])
    return repo


def _maybe_crash_for_tests() -> None:
    if os.environ.get(_CRASH_TEST_ENV):  # pragma: no cover - dies by design
        os.kill(os.getpid(), signal.SIGKILL)


def _scan_shard_task(args):
    """Scan ONE shard inside a worker process (the windowed unit).

    Returns ``(pid, cache_stats, item)``; one shard per task is what
    makes result streaming *windowed*: each completion reaches the
    driver's reorder window immediately.
    """
    (path, token, shard, n, mask_payload, min_gain, capture_ids,
     best_only, include_gains) = args
    _maybe_crash_for_tests()
    repository = _worker_repository(path, token)
    mask = _mask_from_payload(mask_payload, n)
    start, gains, captured = cached_scan_shard(
        repository, shard, mask,
        min_capture_gain=min_gain,
        capture_ids=capture_ids,
        best_only=best_only,
    )
    cache = get_cache()
    return (
        os.getpid(),
        cache.stats() if cache.enabled else None,
        (start, (gains if include_gains else None), captured),
    )


def _scan_chunk_task(args):
    """Scan one shipped in-memory chunk inside a worker."""
    (start, payload, rows, words, n, mask_payload, min_gain,
     capture_ids, best_only, include_gains) = args
    _maybe_crash_for_tests()
    mask = _mask_from_payload(mask_payload, n)
    chunk = np.frombuffer(payload, dtype="<u8").reshape(rows, words)
    gains, captured = scan_chunk(
        start, chunk, mask,
        min_capture_gain=min_gain,
        capture_ids=capture_ids,
        best_only=best_only,
    )
    return (
        os.getpid(), None, (start, (gains if include_gains else None), captured)
    )


class ProcessScanExecutor(ScanExecutor):
    """Chunk scans fanned out over a shared pool of worker processes.

    Determinism: whatever order tasks complete in, every per-chunk
    result is keyed by its position in the chunk sequence and
    re-assembled in that order through the shared
    :class:`~repro.engine.merge.ReorderWindow` before it reaches the
    caller — consumers see exactly the serial executor's chunk sequence,
    so results are bit-identical to ``jobs=1`` by construction.

    Crash hygiene: a worker that dies mid-scan surfaces as a
    ``RuntimeError`` (wrapping ``BrokenProcessPool``) on the consuming
    side — never a hang — the residual mask's SharedMemory segment is
    unlinked before the error propagates, and the broken pool is
    discarded so the next scan at this ``jobs`` count starts a fresh
    one.
    """

    transport = "process"

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError(f"ProcessScanExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        #: Latest hot-cache counter snapshot per worker pid — refreshed
        #: by every task result, aggregated by :attr:`cache_stats`.
        self._worker_stats: dict = {}

    @property
    def cache_stats(self) -> "dict | None":
        """Hot-cache counters aggregated across the pool's workers."""
        snapshots = [stats for stats in self._worker_stats.values() if stats]
        if not snapshots:
            return None
        agg = {key: 0 for key in
               ("hits", "misses", "evictions", "entries", "bytes")}
        for stats in snapshots:
            for key in agg:
                agg[key] += int(stats.get(key, 0))
        agg["max_bytes"] = max(int(s.get("max_bytes", 0)) for s in snapshots)
        agg["workers"] = len(snapshots)
        return agg

    # -- mask transport -------------------------------------------------
    @staticmethod
    def _mask_payload(mask_int: int, words: int):
        """Returns ``(payload, shm)``; caller unlinks ``shm`` after use."""
        mask_bytes = mask_int.to_bytes(words * 8, "little")
        if len(mask_bytes) >= _SHM_MIN_MASK_BYTES:
            shm = SharedMemory(create=True, size=max(1, len(mask_bytes)))
            shm.buf[: len(mask_bytes)] = mask_bytes
            return ("shm", shm.name, len(mask_bytes), next(_SCAN_NONCE)), shm
        return ("raw", mask_bytes), None

    def _drain(self, task_fn, make_tasks):
        """Submit one task per chunk; yield per-chunk items in chunk order.

        ``make_tasks()`` builds the task tuples (and the mask's
        SharedMemory segment, when one is needed) — called here, inside
        the generator body, so nothing is allocated until the first
        ``next()`` and an iterator that is never started can never leak
        a segment.  Task ``i`` yields the item of chunk ``i``; items
        buffer in the shared reorder window until their position is
        next, so consumers never observe completion order.
        """
        tasks, shm = make_tasks()
        futures: list = []
        try:
            # Submission sits inside the try: submitting to a pool whose
            # workers died earlier (and whose breakage went unobserved,
            # e.g. after an abandoned scan) raises BrokenProcessPool too,
            # and must discard the pool and release the mask SHM exactly
            # like a mid-scan death.
            pool = _get_process_pool(self.jobs)
            futures = [pool.submit(task_fn, task) for task in tasks]
            position = {future: index for index, future in enumerate(futures)}
            window = ReorderWindow(len(tasks))
            pending = set(futures)
            while not window.complete:
                done, pending = concurrent.futures.wait(
                    pending,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    pid, stats, item = future.result()
                    if stats is not None:
                        self._worker_stats[pid] = stats
                    window.push(position[future], item)
                yield from window.pop_ready()
        except concurrent.futures.BrokenExecutor as exc:
            _discard_process_pool(self.jobs)
            raise RuntimeError(
                f"a scan worker died mid-scan (jobs={self.jobs}); the broken "
                "pool was discarded and the next scan will start a fresh one"
            ) from exc
        finally:
            for future in futures:
                future.cancel()
            concurrent.futures.wait(futures)
            if shm is not None:
                shm.close()
                shm.unlink()

    # -- sources --------------------------------------------------------
    def _repository_tasks(
        self, repository, mask_int, min_capture_gain, capture_ids, best_only,
        include_gains,
    ):
        path = str(repository.path)
        token = getattr(repository, "cache_token", None)
        if token is None:
            stat = (Path(path) / "manifest.json").stat()
            token = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        capture_ids = frozenset(capture_ids) if capture_ids is not None else None
        payload, shm = self._mask_payload(mask_int, repository.words)
        # One task per shard, in shard order: with the pool's FIFO
        # dealing this self-balances, and every completed shard reaches
        # the reorder window immediately.
        tasks = [
            (path, token, shard, repository.n, payload, min_capture_gain,
             capture_ids, best_only, include_gains)
            for shard in range(repository.shard_count)
        ]
        return tasks, shm

    def iter_scan_repository(
        self, repository, mask_int, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        return self._drain(
            _scan_shard_task,
            lambda: self._repository_tasks(
                repository, mask_int, min_capture_gain, capture_ids,
                best_only, include_gains,
            ),
        )

    def _chunk_tasks(
        self, n, chunks, mask, min_capture_gain, capture_ids, best_only,
        include_gains,
    ):
        capture_ids = frozenset(capture_ids) if capture_ids is not None else None
        payload, shm = self._mask_payload(mask.mask_int, mask.words)
        tasks = []
        for start, chunk in chunks:
            tasks.append(
                (start, chunk.tobytes(), *chunk.shape, n, payload,
                 min_capture_gain, capture_ids, best_only, include_gains)
            )
        return tasks, shm

    def iter_scan_chunks(
        self, n, chunks, mask, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        return self._drain(
            _scan_chunk_task,
            lambda: self._chunk_tasks(
                n, chunks, mask, min_capture_gain, capture_ids, best_only,
                include_gains,
            ),
        )
