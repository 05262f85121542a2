"""Set-system data structures: the instances every algorithm consumes."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".deltas": [
        "DeltaShardWriter",
        "MergedShardView",
        "apply_delta",
        "chain_token",
        "compact",
        "open_repository",
    ],
    ".durability": [
        "Finding",
        "FsckReport",
        "RepositoryLock",
        "fsck_repository",
        "recover_compaction",
    ],
    ".io": [
        "dumps_json",
        "dumps_text",
        "load",
        "load_rows",
        "loads_json",
        "loads_text",
        "save",
    ],
    ".operations": [
        "cover_size",
        "coverage_histogram",
        "greedy_completion",
        "merge_systems",
        "project_family",
        "verify_cover",
    ],
    ".packed": [
        "Captures",
        "PackedFamily",
        "ScanMask",
        "non_dominated_reference",
        "pack",
        "pack_rows",
    ],
    ".set_system": ["SetSystem"],
    ".shards": [
        "InterruptedCompactionError",
        "PendingDeltaError",
        "RepositoryBusyError",
        "ShardedRepository",
        "ShardFormatError",
        "ShardWriter",
        "StaleStagingError",
        "write_shards",
    ],
})
