"""Cross-pass decoded-chunk hot cache (DESIGN.md §14).

The paper's algorithms are *pass*-structured: ``O(1/δ)`` sequential
sweeps over the **same** set family.  Before this module every pass
re-read and re-decoded every shard from cold; here decoded,
``ScanMask``-ready chunk payloads survive between passes in a
memory-budgeted LRU, so pass two onward skips the varint parse, the
ragged gathers and the matrix packing and goes straight to the gain
kernels.

Every shard scan, cached or not, is :func:`scan_through_cache`: the
payload from the cache or from ``repository.decode_chunk``, then
``repository.scan_decoded``.  With the cache off nothing is looked up
and the code is the same, so a cold pass costs what an uncached pass
costs.  One process-wide cache instance is shared by every consumer in
that process: the serial executor's loop on the driver side, and in a
``repro worker serve`` process **every** connection — different drivers
(tenants) scanning the same repository hit each other's warm chunks.

Correctness is carried entirely by the key: ``(repository path,
identity token, shard index)``.  The token is the repository's
:attr:`cache_token` when it has one (merged delta views — covers the
base manifest *and* every chain manifest) and the content token of
``manifest.json`` otherwise, so any mutation — an ``apply-delta``
appending a generation, a compaction swinging the manifest — changes
the token and makes every cached chunk unreachable rather than stale.
Unreachable entries are reclaimed by LRU pressure and, on worker
servers, evicted precisely when the PR 9 stale-repository sweep retires
the superseded ``(path, token)`` (:meth:`ChunkCache.invalidate`).

The cache is observability-rich but semantics-free: hits return the
same payload ``decode_chunk`` would rebuild and go through the same
``scan_decoded``, so results are bit-identical cache-on vs. cache-off
on both transports and every row codec (property-tested in
``tests/test_parallel.py`` / ``tests/test_remote.py``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

__all__ = [
    "CACHE_ENV",
    "ChunkCache",
    "cache_key_for",
    "configure_cache",
    "get_cache",
    "resolve_cache_bytes",
    "scan_through_cache",
]

#: Environment knob mirroring ``--cache-bytes``; inherited by spawned
#: local worker servers, so one setting governs every cache a solve
#: touches.
CACHE_ENV = "REPRO_CACHE_BYTES"

#: ``auto`` budget: this fraction of ``MemAvailable`` ...
_AUTO_FRACTION = 8
#: ... clamped into [floor, ceiling] so a tiny container still caches
#: something useful and a huge host does not hand one process gigabytes
#: by default.
_AUTO_FLOOR = 32 << 20
_AUTO_CEILING = 2 << 30
#: Fallback when ``/proc/meminfo`` is unreadable (non-Linux platforms).
_AUTO_FALLBACK = 256 << 20

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def available_memory_bytes() -> int:
    """Best-effort ``MemAvailable`` in bytes (conservative fallback)."""
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return _AUTO_FALLBACK * _AUTO_FRACTION


def resolve_cache_bytes(value=None) -> int:
    """Resolve a ``--cache-bytes`` knob to a concrete byte budget.

    ``None``/``"auto"`` budgets a fraction (1/8) of available RAM,
    clamped to [32 MiB, 2 GiB]; ``0``/``"off"`` disables the cache
    entirely; integers and decimal strings are taken literally, with
    ``k``/``m``/``g`` binary suffixes accepted (``"64m"`` = 64 MiB).

    >>> resolve_cache_bytes(0)
    0
    >>> resolve_cache_bytes("off")
    0
    >>> resolve_cache_bytes("64m") == 64 * 1024 * 1024
    True
    >>> resolve_cache_bytes(12345)
    12345
    """
    if value is None or value == "auto":
        budget = available_memory_bytes() // _AUTO_FRACTION
        return max(_AUTO_FLOOR, min(_AUTO_CEILING, budget))
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("off", "none", ""):
            return 0
        if text == "auto":  # pragma: no cover - caught above
            return resolve_cache_bytes(None)
        scale = 1
        if text[-1] in _SUFFIXES:
            scale = _SUFFIXES[text[-1]]
            text = text[:-1]
        try:
            value = int(text) * scale
        except ValueError:
            raise ValueError(
                f"unparseable cache budget {value!r}; expected an integer "
                "byte count (k/m/g suffixes allowed), 'auto', or 'off'"
            ) from None
    budget = int(value)
    if budget < 0:
        raise ValueError(f"cache budget must be >= 0, got {budget}")
    return budget


class ChunkCache:
    """A thread-safe, byte-budgeted LRU of decoded chunk payloads.

    Entries are keyed ``(path, token, shard)`` — see the module
    docstring for why the token makes invalidation a non-event — and
    weighed by the resident byte count their ``decode_chunk`` reported.
    A payload larger than the whole budget is never admitted (it would
    evict everything for a single-use entry).  ``max_bytes == 0``
    disables the cache: every ``get`` misses and every ``put`` is
    dropped, which is exactly the cache-off baseline the parity suite
    compares against.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, key):
        """The cached payload for ``key``, refreshed to most-recent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key, payload, nbytes: int) -> bool:
        """Admit ``payload`` (``nbytes`` resident), evicting LRU overflow."""
        nbytes = max(0, int(nbytes))
        if nbytes > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (payload, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1
        return True

    def invalidate(self, path, keep_token=None) -> int:
        """Drop every entry for ``path`` (except ``keep_token``'s).

        The precise-eviction hook: a worker server retiring a stale
        ``(path, token)`` repository handle calls this with the
        superseding token, so chunks of the dead generation free their
        budget immediately instead of aging out.  Returns the number of
        entries dropped.
        """
        path = str(path)
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if key[0] == path
                and (keep_token is None or key[1] != keep_token)
            ]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
                self.evictions += 1
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @property
    def bytes(self) -> int:
        return self._bytes

    @property
    def entries(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counters for ``done``/``pong`` replies and ``ScanResult.extra``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:
        return (
            f"ChunkCache(bytes={self._bytes}/{self.max_bytes}, "
            f"entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


_CACHE_LOCK = threading.Lock()
_CACHE: "ChunkCache | None" = None


def get_cache() -> ChunkCache:
    """The process-wide cache (built on first touch from the env knob)."""
    global _CACHE
    cache = _CACHE
    if cache is None:
        with _CACHE_LOCK:
            cache = _CACHE
            if cache is None:
                cache = ChunkCache(resolve_cache_bytes(os.environ.get(CACHE_ENV)))
                _CACHE = cache
    return cache


def configure_cache(value=None) -> ChunkCache:
    """Replace the process-wide cache with a fresh one of ``value`` budget.

    ``value`` is anything :func:`resolve_cache_bytes` accepts.  The old
    cache's entries and counters are discarded — configuration is a
    cold start, which is what the CLI (once per invocation) and tests
    (isolation) both want.
    """
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = ChunkCache(resolve_cache_bytes(value))
        return _CACHE


def _freeze(token):
    if isinstance(token, (list, tuple)):
        return tuple(_freeze(part) for part in token)
    return token


def cache_key_for(repository):
    """``(path, token)`` identity of a repository, or ``None``.

    Prefers :attr:`cache_token` (merged delta views: covers every chain
    manifest) over the base content :attr:`token`; a repository exposing
    neither — or no path — cannot be keyed and is never cached.
    """
    path = getattr(repository, "path", None)
    token = getattr(repository, "cache_token", None)
    if token is None:
        token = getattr(repository, "token", None)
    if path is None or token is None:
        return None
    return (str(path), _freeze(token))


def scan_through_cache(
    repository,
    shard: int,
    mask,
    min_capture_gain=None,
    capture_ids=None,
    best_only: bool = False,
):
    """One shard scan; returns ``((start, gains, captured), served_hot)``.

    The one shard-scan path every transport takes (serial loop, worker,
    driver salvage): the payload comes from the cache on a hit, else
    from ``repository.decode_chunk(shard)``, and
    ``repository.scan_decoded`` turns it into the result.  The cache is
    read and filled only when it is enabled and the repository has a
    key (:func:`cache_key_for`); otherwise nothing is looked up and the
    code is the same.  An empty mask skips lookup and decode:
    ``scan_decoded`` answers it without reading a payload.
    """
    payload, hot = None, False
    if not mask.is_empty:
        cache = get_cache()
        key = cache_key_for(repository) if cache.enabled else None
        if key is not None:
            key = (*key, shard)
            payload = cache.get(key)
            hot = payload is not None
        if payload is None:
            payload, nbytes = repository.decode_chunk(shard)
            if key is not None:
                cache.put(key, payload, nbytes)
    result = repository.scan_decoded(
        shard, payload, mask,
        min_capture_gain=min_capture_gain,
        capture_ids=capture_ids,
        best_only=best_only,
    )
    return result, hot
