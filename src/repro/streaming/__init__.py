"""The streaming computation model: pass-counted access + word accounting."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".memory": ["MemoryBudgetExceeded", "MemoryMeter"],
    ".sharded": ["ShardedSetStream"],
    ".stream": [
        "ResourceReport",
        "SetStream",
        "SetStreamBase",
        "StreamAccessError",
        "stream_resident_words",
    ],
})
