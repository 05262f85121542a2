"""Shared thread pool for the offline hot path.

Threads share the address space, so in-memory work needs no
serialization at all — and the packed numpy kernels release the GIL, so
the domination pruning of ``algOfflineSC`` (DESIGN.md §8.5) genuinely
overlaps via :func:`thread_map`.  Scans never run here: a streaming pass
is serial or runs on the process pool.
"""

from __future__ import annotations

import concurrent.futures

__all__ = ["thread_map"]

_THREAD_POOLS: dict[int, "concurrent.futures.ThreadPoolExecutor"] = {}


def _get_thread_pool(jobs: int):
    pool = _THREAD_POOLS.get(jobs)
    if pool is None:
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-offline"
        )
        _THREAD_POOLS[jobs] = pool
    return pool


def _shutdown_thread_pools() -> None:
    for pool in _THREAD_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _THREAD_POOLS.clear()


def thread_map(fn, items, jobs: int) -> list:
    """Map ``fn`` over ``items`` on the shared thread pool.

    Results come back in item order, so callers stay deterministic
    however the threads interleave.  Falls back to a plain loop for
    ``jobs <= 1`` or single-item inputs.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return list(_get_thread_pool(jobs).map(fn, items))
