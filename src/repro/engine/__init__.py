"""The transport-agnostic scan engine (DESIGN.md §6, §8, §9).

A streaming pass is, per set, a pure map against a read-only residual —
only the accept/pick step needs ordered reconciliation.  This package
exploits that observation in three cleanly separated layers:

* :mod:`repro.engine.plan` — *what to run where*: the remote batch
  plan (contiguous cost-balanced shard segments from the manifest
  statistics) and the ``workers`` knob resolution;
* :mod:`repro.engine.transport` — *how to run it*: the
  :class:`ScanExecutor` protocol with a ``serial`` and a ``remote``
  backend, each a single module with one schedule;
* :mod:`repro.engine.merge` — *how results become one scan*: the
  chunk-order reorder window and eager scan merging, shared by both
  backends.

Because scheduling and transport are quarantined away from
reconciliation, covers, tie-breaks, pass counts and accounting are
**bit-identical** on both transports and every encoding — the property
tests in ``tests/test_parallel.py`` and ``tests/test_remote.py`` assert
exactly that.

This is the import surface the rest of the repository uses.

Examples
--------
>>> from repro.setsystem.packed import ScanMask, pack_rows
>>> executor = SerialScanExecutor()
>>> chunks = [(0, pack_rows([0b011, 0b100], 1)), (2, pack_rows([0b111], 1))]
>>> result = executor.scan_chunks(3, chunks, ScanMask(3, 0b110), min_capture_gain=2)
>>> result.gains.tolist(), result.captured == [(2, 0b110)]
([1, 1, 2], True)
>>> plan_batches([1, 1, 8, 1, 1], jobs=2, batches_per_worker=1)
[[0, 1], [2, 3, 4]]
"""

from repro.engine.cache import (
    CACHE_ENV,
    ChunkCache,
    cached_scan_shard,
    configure_cache,
    get_cache,
    resolve_cache_bytes,
)
from repro.engine.fault import (
    CHAOS_ENV,
    CHAOS_MODES,
    ChaosProxy,
    FaultEvent,
    FaultLog,
    RetryPolicy,
    chaos_spec_from_env,
    parse_chaos_spec,
)
from repro.engine.merge import (
    ReorderWindow,
    ScanResult,
    capture_words,
    merge_scan_parts,
)
from repro.engine.plan import plan_batches, resolve_workers
from repro.engine.transport import (
    RemoteScanExecutor,
    StaleRepositoryError,
    ScanExecutor,
    SerialScanExecutor,
    WorkerFaultError,
    WorkerServer,
    executor_for,
    ping_worker,
    spawn_local_worker,
)

__all__ = [
    "CACHE_ENV",
    "CHAOS_ENV",
    "CHAOS_MODES",
    "ChaosProxy",
    "ChunkCache",
    "FaultEvent",
    "FaultLog",
    "RemoteScanExecutor",
    "StaleRepositoryError",
    "ReorderWindow",
    "RetryPolicy",
    "ScanExecutor",
    "ScanResult",
    "SerialScanExecutor",
    "WorkerFaultError",
    "WorkerServer",
    "cached_scan_shard",
    "capture_words",
    "chaos_spec_from_env",
    "configure_cache",
    "executor_for",
    "get_cache",
    "merge_scan_parts",
    "parse_chaos_spec",
    "ping_worker",
    "plan_batches",
    "resolve_cache_bytes",
    "resolve_workers",
    "spawn_local_worker",
]
