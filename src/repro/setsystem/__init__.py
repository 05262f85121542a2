"""Set-system data structures: the instances every algorithm consumes."""

from repro.setsystem.deltas import (
    DeltaShardWriter,
    MergedShardView,
    apply_delta,
    chain_token,
    compact,
    open_repository,
)
from repro.setsystem.durability import (
    Finding,
    FsckReport,
    RepositoryLock,
    fsck_repository,
    recover_compaction,
)
from repro.setsystem.io import dumps_json, dumps_text, load, loads_json, loads_text, save
from repro.setsystem.operations import (
    cover_size,
    coverage_histogram,
    greedy_completion,
    merge_systems,
    project_family,
    verify_cover,
)
from repro.setsystem.packed import (
    Captures,
    PackedFamily,
    ScanMask,
    non_dominated_reference,
    pack,
    pack_rows,
)
from repro.setsystem.set_system import SetSystem
from repro.setsystem.shards import (
    ENCODINGS,
    InterruptedCompactionError,
    PendingDeltaError,
    RepositoryBusyError,
    ShardedRepository,
    ShardFormatError,
    ShardWriter,
    StaleStagingError,
    write_shards,
)

__all__ = [
    "Captures",
    "ENCODINGS",
    "PackedFamily",
    "ScanMask",
    "DeltaShardWriter",
    "Finding",
    "FsckReport",
    "InterruptedCompactionError",
    "MergedShardView",
    "PendingDeltaError",
    "RepositoryBusyError",
    "RepositoryLock",
    "SetSystem",
    "ShardFormatError",
    "ShardWriter",
    "ShardedRepository",
    "StaleStagingError",
    "apply_delta",
    "chain_token",
    "compact",
    "fsck_repository",
    "open_repository",
    "recover_compaction",
    "write_shards",
    "non_dominated_reference",
    "pack",
    "pack_rows",
    "cover_size",
    "coverage_histogram",
    "dumps_json",
    "dumps_text",
    "greedy_completion",
    "load",
    "loads_json",
    "loads_text",
    "merge_systems",
    "project_family",
    "save",
    "verify_cover",
]
