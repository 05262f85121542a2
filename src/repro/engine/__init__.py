"""The transport-agnostic scan engine (DESIGN.md §6, §8, §9).

A streaming pass is, per set, a pure map against a read-only residual —
only the accept/pick step needs ordered reconciliation.  This package
exploits that observation in three cleanly separated layers, over one
shard-scan path (:func:`repro.engine.cache.scan_through_cache`: the
payload from the chunk cache or ``decode_chunk``, then
``scan_decoded``) that every transport takes:

* :mod:`repro.engine.plan` — *what to run where*: the remote batch
  plan (contiguous shard runs of even size) and the ``workers`` knob
  resolution;
* :mod:`repro.engine.transport` — *how to run it*: the
  :class:`ScanExecutor` protocol with a ``serial`` and a ``remote``
  backend, each a single module with one schedule;
* :mod:`repro.engine.merge` — *how results become one scan*: the
  chunk-order reorder window and eager scan merging, shared by both
  backends.

Because scheduling and transport are quarantined away from
reconciliation, covers, tie-breaks, pass counts and accounting are
**bit-identical** on both transports and every row codec — the property
tests in ``tests/test_parallel.py`` and ``tests/test_remote.py`` assert
exactly that.

This is the import surface the rest of the repository uses.  Each name
imports its module on first use, so a serial solve never loads the
remote transport or the fault-injection modules.

Examples
--------
>>> import tempfile
>>> from repro.setsystem import SetSystem
>>> from repro.setsystem.shards import ShardedRepository, write_shards
>>> from repro.engine import SerialScanExecutor, plan_batches
>>> tmp = tempfile.TemporaryDirectory()
>>> path = write_shards(tmp.name + "/repo", SetSystem(3, [[0, 1], [2], [0, 1, 2]]), chunk_rows=2)
>>> with ShardedRepository(path) as repo:
...     result = SerialScanExecutor().scan_repository(repo, 0b110, min_capture_gain=2)
>>> result.gains.tolist(), result.captured == [(2, 0b110)]
([1, 1, 2], True)
>>> tmp.cleanup()
>>> plan_batches(5, jobs=2, batches_per_worker=1)
[[0, 1], [2, 3, 4]]
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".cache": [
        "CACHE_ENV",
        "ChunkCache",
        "configure_cache",
        "get_cache",
        "resolve_cache_bytes",
    ],
    ".fault.chaos": [
        "CHAOS_ENV",
        "CHAOS_MODES",
        "ChaosProxy",
        "chaos_spec_from_env",
        "parse_chaos_spec",
    ],
    ".fault.log": ["FaultEvent", "FaultLog"],
    ".fault.policy": ["RetryPolicy"],
    ".merge": [
        "ReorderWindow",
        "ScanResult",
        "capture_words",
        "merge_scan_parts",
    ],
    ".plan": ["plan_batches", "resolve_workers"],
    ".transport": ["executor_for"],
    ".transport.base": ["ScanExecutor"],
    ".transport.remote": [
        "RemoteScanExecutor",
        "StaleRepositoryError",
        "WorkerFaultError",
        "WorkerServer",
        "ping_worker",
        "spawn_local_worker",
    ],
    ".transport.serial": ["SerialScanExecutor"],
})
