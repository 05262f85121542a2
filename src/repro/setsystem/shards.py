"""Chunked on-disk repository format for out-of-core set systems.

The paper's access model stores the family ``r_1, ..., r_m`` in a
*read-only repository* that algorithms scan sequentially.  Up to PR 1 the
"repository" was always an in-RAM :class:`~repro.setsystem.set_system.SetSystem`,
which caps experiments at whatever fits in memory.  This module gives the
repository a real on-disk shape:

* a **shard directory** holds ``manifest.json`` plus one binary file per
  chunk of sets (``shard-00000.bin``, ``shard-00001.bin``, ...);
* a shard file is either a **raw** dense row-major matrix of packed
  bitmaps — one row per set, ``ceil(n / 64)`` little-endian ``uint64``
  words per row, the exact block layout of
  :func:`~repro.setsystem.packed.pack_rows`, so chunks memory-map
  straight into the scan kernels with zero decoding — or an
  **encoded** block in which every row carries its own roaring-style
  codec, chosen by density at write time (see below);
* the manifest records the schema version, ``n``, ``m``, the chunk
  geometry, each shard's layout and a CRC-32 per shard, so truncated or
  corrupted repositories fail loudly (:class:`ShardFormatError`) instead
  of silently yielding garbage sets.

Row codecs (schema ``repro.shards/v2``, DESIGN.md §6.2)
-------------------------------------------------------
Dense packed rows cost ``ceil(n/64)`` words of disk and scan work per
set *regardless of density*, which is exactly wrong for the sparse
regimes the paper targets (rows with ``|S| ≪ n``).  ``ShardWriter``
therefore picks, per row, the cheapest of three encodings:

``dense`` (tag 0)
    The raw packed words.  A shard whose rows are all dense is written
    in the **raw** layout (byte-identical to schema v1) and keeps the
    zero-copy mmap scan path.
``sparse-varint`` (tag 1)
    Delta-encoded sorted element ids as LEB128 varints: the first value
    is the first element, each later value the (>= 1) gap to the next.
``run-length`` (tag 2)
    Varint pairs ``(skip, length-1)``: each run covers
    ``[pos + skip, pos + skip + length)`` and advances ``pos`` to its
    end.  Wins on rows made of long contiguous intervals.

An **encoded** shard file is ``u32 row_count | u8 tags[rows] |
u32 lengths[rows] | payloads`` (all little-endian), so scans parse the
record table with three vectorized reads and decode whole shards at
once; the fused kernels in :mod:`repro.setsystem.packed` compute
residual gains for sparse and run-length rows without ever
materializing dense words.  Repositories with schema ``repro.shards/v1``
(all raw) still open and scan unchanged.

Manifest statistics (schema ``repro.shards/v3``, DESIGN.md §8.1)
----------------------------------------------------------------
New manifests additionally record, per shard, the statistics the
remote batch plan (:mod:`repro.engine.plan`) feeds its cost model: a 16-bucket row-density histogram, the codec mix, the element
and run totals per codec.  The stats block is covered by its own
CRC-32 (``stats_crc32``) so a hand-edited manifest fails loudly.
``v1``/``v2`` repositories still open unchanged; their statistics are
estimated lazily from shard geometry and record tables
(:meth:`ShardedRepository.shard_cost_estimates`) and can be persisted
— idempotently, upgrading the manifest in place to ``v3`` — with
:meth:`ShardedRepository.backfill_stats`.

:class:`ShardWriter` builds a repository incrementally (one set at a
time, bounded memory) and removes partial output if the writer body
raises; :class:`ShardedRepository` reads a repository back via ``mmap``
— the OS pages shards in and out on demand, so scans never need the
whole family resident.  :class:`~repro.streaming.sharded.ShardedSetStream`
wraps a repository in the pass-counted stream protocol.

Examples
--------
>>> import tempfile
>>> from repro.setsystem.set_system import SetSystem
>>> system = SetSystem(5, [[0, 1], [2], [], [3, 4]])
>>> tmp = tempfile.TemporaryDirectory()
>>> path = write_shards(tmp.name + "/repo", system, chunk_rows=2)
>>> repo = ShardedRepository(path)
>>> repo.n, repo.m, repo.shard_count
(5, 4, 2)
>>> repo.to_system() == system
True
>>> repo.close(); tmp.cleanup()
"""

from __future__ import annotations

import json
import mmap
import zlib
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from operator import index
from pathlib import Path

import numpy as np

from repro.setsystem.durability import (
    COMPACT_INTENT_NAME,
    crashpoint,
    durable_write_text,
    fsync_dir,
    fsync_file,
)
from repro.setsystem.packed import (
    Captures,
    ScanMask,
    capture_locals,
    chunk_gains,
    membership_hits,
    pack_rows,
    range_gains,
    scan_chunk,
)
from repro.setsystem.set_system import SetSystem
from repro.utils.bitset import bits_of, mask_of

__all__ = [
    "SHARD_SCHEMA",
    "SHARD_SCHEMA_V1",
    "SHARD_SCHEMA_V2",
    "MANIFEST_NAME",
    "DELTAS_DIRNAME",
    "DELTA_MANIFEST_NAME",
    "DEFAULT_CHUNK_BYTES",
    "ENCODINGS",
    "STATS_HIST_BUCKETS",
    "ShardFormatError",
    "PendingDeltaError",
    "InterruptedCompactionError",
    "RepositoryBusyError",
    "StaleStagingError",
    "ShardWriter",
    "ShardedRepository",
    "pending_delta_generations",
    "write_shards",
]

#: Schema tag stamped into every new ``manifest.json``.
SHARD_SCHEMA = "repro.shards/v3"

#: The PR 3 schema: per-row codecs, no manifest statistics.
SHARD_SCHEMA_V2 = "repro.shards/v2"

#: The PR 2 schema: raw dense shards only.  Still opened and scanned.
SHARD_SCHEMA_V1 = "repro.shards/v1"

_SUPPORTED_SCHEMAS = (SHARD_SCHEMA_V1, SHARD_SCHEMA_V2, SHARD_SCHEMA)

#: Buckets of the per-shard row-density histogram: bucket ``b`` counts
#: rows with ``|S| / n`` in ``[b/16, (b+1)/16)`` (the last bucket is
#: closed above, so full rows land in bucket 15).
STATS_HIST_BUCKETS = 16

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Sub-directory a mutable repository keeps its delta generations in
#: (``deltas/00001/``, ``deltas/00002/``, ... — see
#: :mod:`repro.setsystem.deltas`).
DELTAS_DIRNAME = "deltas"

#: Chain-manifest file name inside one delta generation directory.
DELTA_MANIFEST_NAME = "delta.json"

#: Default shard size target: ~4 MiB of packed rows per chunk.  Chunk
#: geometry is always computed from the *dense* row size, independent of
#: the encoding, so scan order, pass structure and the resident-buffer
#: accounting (:attr:`ShardedRepository.chunk_words`) are identical
#: across encodings.
DEFAULT_CHUNK_BYTES = 1 << 22

#: Writer encoding knob: ``auto`` picks the cheapest codec per row;
#: the other values force one codec for every row (``dense`` reproduces
#: the v1 raw layout byte-for-byte).
ENCODINGS = ("auto", "dense", "sparse", "rle")

_WORD_BITS = 64
_WORD_BYTES = 8

_TAG_DENSE, _TAG_SPARSE, _TAG_RLE = 0, 1, 2
_LAYOUT_RAW, _LAYOUT_ENCODED = "raw", "encoded"


class ShardFormatError(ValueError):
    """Raised when a shard directory is missing, truncated or corrupt."""


class PendingDeltaError(ShardFormatError):
    """A repository has unapplied delta generations (``deltas/*``).

    The base shards alone are **not** the set system any more: tombstones
    may hide rows and newer generations may append rows.  Opening the base
    as if it were the whole family — or rewriting ``manifest.json``, whose
    byte-level CRC-32 anchors the generation chain — would be silently
    wrong, so both refuse with this error.  Open the merged view instead
    (:func:`repro.setsystem.deltas.open_repository`) or compact first
    (:func:`repro.setsystem.deltas.compact` / ``repro shard compact``).
    """


class InterruptedCompactionError(ShardFormatError):
    """A repository holds a ``compact.intent`` journal: an in-place
    compaction crashed mid-replace.

    The journal commits the staged rewrite, so the repository is
    recoverable — but its files may be a half-replaced mix of the old
    and new generations, so a plain open refuses rather than scan the
    hybrid.  :func:`repro.setsystem.deltas.open_repository` rolls the
    compaction forward automatically
    (:func:`repro.setsystem.durability.recover_compaction`), as does
    ``repro shard fsck --repair``.
    """


class RepositoryBusyError(ShardFormatError):
    """Another writer or compactor holds the repository's advisory lock.

    Mutators (delta writers, the compactor, ``fsck --repair``) take an
    exclusive ``fcntl`` lock (``.repro-lock``) for their critical
    section and fail loudly on contention rather than interleave — the
    chain discipline assumes a single mutator at a time.
    """


class StaleStagingError(ShardFormatError):
    """A stale ``<root>.compact-tmp`` staging directory is present.

    A previous compaction crashed *before* its commit point (the intent
    journal), so the staging is garbage and the repository itself is
    intact — but silently discarding an unexpected directory is how
    operator mistakes (two compactors racing, a mistyped ``--output``)
    turn into data loss.  ``compact(force=True)`` /
    ``repro shard compact --force`` discards it explicitly, as does
    ``repro shard fsck --repair``.
    """


def pending_delta_generations(path: "str | Path") -> "list[Path]":
    """Delta generation directories under ``path/deltas``, name-sorted.

    A generation is any sub-directory carrying a ``delta.json`` chain
    manifest; validation of the chain itself (consecutive numbering,
    parent checksums, tombstone sanity) happens in
    :mod:`repro.setsystem.deltas` — this helper only *detects* them so
    plain opens can fail loudly instead of scanning a stale base.
    """
    root = Path(path) / DELTAS_DIRNAME
    if not root.is_dir():
        return []
    return sorted(
        child
        for child in root.iterdir()
        if child.is_dir() and (child / DELTA_MANIFEST_NAME).is_file()
    )


def _words_for(n: int) -> int:
    """Packed words per row for a ground set of size ``n``."""
    return (n + _WORD_BITS - 1) // _WORD_BITS


def _chunk_rows_for(n: int, chunk_bytes: int) -> int:
    """Rows per shard so one dense shard stays near ``chunk_bytes`` bytes."""
    row_bytes = _words_for(n) * _WORD_BYTES
    if row_bytes == 0:  # n == 0: rows are empty, chunking is arbitrary
        return 1 << 16
    return max(1, chunk_bytes // row_bytes)


# ----------------------------------------------------------------------
# Varint + per-row codec primitives
# ----------------------------------------------------------------------
def _varint(value: int) -> bytes:
    """LEB128: 7 value bits per byte, high bit = continuation."""
    out = bytearray()
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            out.append(low | 0x80)
        else:
            out.append(low)
            return bytes(out)


def _varint_len(value: int) -> int:
    return max(1, (value.bit_length() + 6) // 7)


def _read_varint(data, pos: int) -> tuple[int, int]:
    value, shift = 0, 0
    while True:
        if pos >= len(data):
            raise ShardFormatError("corrupt row payload: truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ShardFormatError("corrupt row payload: varint overflow")


def _iter_runs(row: list[int]) -> Iterator[tuple[int, int]]:
    """Maximal runs ``[start, end)`` of a sorted, duplicate-free row."""
    start = prev = None
    for element in row:
        if prev is not None and element == prev + 1:
            prev = element
            continue
        if start is not None:
            yield start, prev + 1
        start = prev = element
    if start is not None:
        yield start, prev + 1


def _encode_sparse(row: list[int]) -> bytes:
    out = bytearray()
    prev = None
    for element in row:
        out += _varint(element if prev is None else element - prev)
        prev = element
    return bytes(out)


def _encode_rle(row: list[int]) -> bytes:
    out = bytearray()
    pos = 0
    for start, end in _iter_runs(row):
        out += _varint(start - pos)
        out += _varint(end - start - 1)
        pos = end
    return bytes(out)


def _sparse_cost(row: list[int]) -> int:
    total, prev = 0, None
    for element in row:
        total += _varint_len(element if prev is None else element - prev)
        prev = element
    return total


def _rle_cost(row: list[int]) -> int:
    total, pos = 0, 0
    for start, end in _iter_runs(row):
        total += _varint_len(start - pos) + _varint_len(end - start - 1)
        pos = end
    return total


# ----------------------------------------------------------------------
# Per-shard statistics (manifest schema v3, the planner's cost inputs)
# ----------------------------------------------------------------------
def _choose_row_tag(row: list[int], words: int, encoding: str) -> int:
    """Cheapest codec tag for one sorted row under a writer policy.

    The single source of truth for codec choice: :class:`ShardWriter`
    encodes with it, and the merged delta view
    (:class:`repro.setsystem.deltas.MergedShardView`) re-runs it to
    predict — exactly — the stats a compacted rewrite will carry.
    """
    if encoding == "dense":
        return _TAG_DENSE
    if encoding == "sparse":
        return _TAG_SPARSE
    if encoding == "rle":
        return _TAG_RLE
    dense_cost = words * _WORD_BYTES
    # Each element costs at least one varint byte, so a row with more
    # elements than dense bytes cannot win — skip the exact cost scan.
    best_tag, best_cost = _TAG_DENSE, dense_cost
    if len(row) < dense_cost:
        cost = _sparse_cost(row)
        if cost < best_cost:
            best_tag, best_cost = _TAG_SPARSE, cost
    cost = _rle_cost(row)
    if cost < best_cost:
        best_tag, best_cost = _TAG_RLE, cost
    return best_tag


def _density_bucket(size: int, n: int) -> int:
    """Histogram bucket of a row with ``size`` elements (see above)."""
    if n <= 0:
        return 0
    return min(STATS_HIST_BUCKETS - 1, size * STATS_HIST_BUCKETS // n)


def _run_count(row: list[int]) -> int:
    """Number of maximal runs of a sorted, duplicate-free row."""
    return sum(1 for _ in _iter_runs(row))


def _shard_stats(rows: list[list[int]], tags: list[int], n: int) -> dict:
    """The v3 per-shard statistics block for one chunk of sorted rows.

    Everything the planner's cost model consumes (DESIGN.md §8.1):
    the row-density histogram, the codec mix, and the element / run
    totals split by codec so dense, sparse and run-length scan work can
    be priced separately.
    """
    hist = [0] * STATS_HIST_BUCKETS
    mix = {"dense": 0, "sparse": 0, "rle": 0}
    set_bits = runs = sparse_elems = rle_runs = 0
    names = {_TAG_DENSE: "dense", _TAG_SPARSE: "sparse", _TAG_RLE: "rle"}
    for row, tag in zip(rows, tags):
        size = len(row)
        hist[_density_bucket(size, n)] += 1
        mix[names[tag]] += 1
        set_bits += size
        row_runs = _run_count(row)
        runs += row_runs
        if tag == _TAG_SPARSE:
            sparse_elems += size
        elif tag == _TAG_RLE:
            rle_runs += row_runs
    return {
        "density_hist": hist,
        "codec_mix": mix,
        "set_bits": set_bits,
        "runs": runs,
        "sparse_elems": sparse_elems,
        "rle_runs": rle_runs,
    }


def _stats_checksum(shard_meta: list[dict]) -> int:
    """CRC-32 of the canonical JSON of every shard's stats block."""
    blob = json.dumps(
        [meta.get("stats") for meta in shard_meta],
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(blob.encode("ascii"))


def _decode_payload_mask(tag: int, data, n: int, row_bytes: int) -> int:
    """Decode one row payload into an arbitrary-precision integer bitmask."""
    if tag == _TAG_DENSE:
        if len(data) != row_bytes:
            raise ShardFormatError(
                f"corrupt dense row: {len(data)} payload bytes, expected {row_bytes}"
            )
        value = int.from_bytes(bytes(data), "little")
        if value >> n:
            raise ShardFormatError("corrupt dense row: bits beyond the ground set")
        return value
    if tag == _TAG_SPARSE:
        mask, prev, pos = 0, None, 0
        while pos < len(data):
            value, pos = _read_varint(data, pos)
            if prev is None:
                element = value
            else:
                if value < 1:
                    raise ShardFormatError(
                        "corrupt sparse row: non-increasing element gap"
                    )
                element = prev + value
            if element >= n:
                raise ShardFormatError(
                    f"corrupt sparse row: element {element} outside [0, {n})"
                )
            mask |= 1 << element
            prev = element
        return mask
    if tag == _TAG_RLE:
        mask, pos, cursor = 0, 0, 0
        while pos < len(data):
            skip, pos = _read_varint(data, pos)
            length, pos = _read_varint(data, pos)
            start = cursor + skip
            end = start + length + 1
            if end > n:
                raise ShardFormatError(
                    f"corrupt run-length row: run [{start}, {end}) outside [0, {n})"
                )
            mask |= ((1 << (end - start)) - 1) << start
            cursor = end
        return mask
    raise ShardFormatError(f"corrupt shard: unknown row codec tag {tag}")


class ShardWriter:
    """Incrementally write a sharded repository, one set at a time.

    Memory stays bounded by one chunk: rows accumulate in a buffer of at
    most ``chunk_rows`` sets and are flushed to a shard file (with its
    CRC-32 recorded) whenever the buffer fills.  ``close`` flushes the
    tail chunk and writes the manifest.  As a context manager the writer
    closes itself on success and **aborts** on error: partial shard
    files (and the directory, if the writer created it) are removed, so
    a generator raising mid-write never leaves a corrupt repository on
    disk.

    Parameters
    ----------
    path:
        Directory to create (must not already contain a manifest).
    n:
        Ground-set size; every appended element must lie in ``[0, n)``.
    chunk_rows:
        Sets per shard.  Default: as many rows as fit in ``chunk_bytes``.
    chunk_bytes:
        Target shard size in bytes when ``chunk_rows`` is not given.
    encoding:
        Row codec policy (:data:`ENCODINGS`).  ``auto`` (default) picks
        the smallest of dense / sparse-varint / run-length per row;
        ``dense`` reproduces the v1 raw block layout.

    Examples
    --------
    >>> import tempfile
    >>> tmp = tempfile.TemporaryDirectory()
    >>> with ShardWriter(tmp.name + "/repo", n=4, chunk_rows=2) as writer:
    ...     for r in ([0, 1], [2], [1, 3]):
    ...         writer.append(r)
    >>> writer.m
    3
    >>> sorted(p.name for p in Path(tmp.name, "repo").iterdir())
    ['manifest.json', 'shard-00000.bin', 'shard-00001.bin']
    >>> tmp.cleanup()
    """

    def __init__(
        self,
        path: "str | Path",
        n: int,
        chunk_rows: "int | None" = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        encoding: str = "auto",
    ):
        if n < 0:
            raise ValueError(f"ground set size must be non-negative, got {n}")
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        if encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {encoding!r}; expected one of {ENCODINGS}"
            )
        self.path = Path(path)
        existed = self.path.is_dir()
        self.path.mkdir(parents=True, exist_ok=True)
        self._created_dir = not existed
        if (self.path / MANIFEST_NAME).exists():
            raise ShardFormatError(
                f"{self.path} already holds a shard repository; refusing to overwrite"
            )
        self.n = n
        self.words = _words_for(n)
        self.encoding = encoding
        self.chunk_rows = (
            chunk_rows if chunk_rows is not None else _chunk_rows_for(n, chunk_bytes)
        )
        self._buffer: list[list[int]] = []
        self._shards: list[dict] = []
        self._m = 0
        self._closed = False
        self._aborted = False

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of sets appended so far."""
        return self._m

    def append(self, elements: Iterable[int]) -> None:
        """Append one set (an iterable of element ids) to the repository."""
        if self._closed or self._aborted:
            raise ShardFormatError("writer is closed")
        try:
            # operator.index rejects floats and such up front, so the
            # numpy pack path can never silently truncate a non-integer.
            row = [index(element) for element in elements]
        except TypeError as exc:
            raise ValueError(
                f"set {self._m} contains a non-integer element: {exc}"
            ) from exc
        for element in row:
            if not 0 <= element < self.n:
                raise ValueError(
                    f"set {self._m} contains element {element} outside the "
                    f"ground set [0, {self.n})"
                )
        self._buffer.append(sorted(set(row)))
        self._m += 1
        if len(self._buffer) >= self.chunk_rows:
            self._flush()

    def extend(self, sets: Iterable[Iterable[int]]) -> None:
        """Append every set of an iterable (sets are consumed lazily)."""
        for row in sets:
            self.append(row)

    # ------------------------------------------------------------------
    def _pack_buffer(self) -> bytes:
        """Pack the buffered rows into the dense little-endian block format."""
        matrix = np.zeros((len(self._buffer), self.words), dtype="<u8")
        if self.words:
            for i, row in enumerate(self._buffer):
                if not row:
                    continue
                idx = np.asarray(row, dtype=np.int64)
                bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
                np.bitwise_or.at(matrix[i], idx >> 6, bits)
        return matrix.tobytes()

    def _choose_tag(self, row: list[int]) -> int:
        """Cheapest codec for one sorted row (ties prefer faster decodes)."""
        return _choose_row_tag(row, self.words, self.encoding)

    def _encode_payload(self, tag: int, row: list[int]) -> bytes:
        if tag == _TAG_DENSE:
            return mask_of(row).to_bytes(self.words * _WORD_BYTES, "little")
        if tag == _TAG_SPARSE:
            return _encode_sparse(row)
        return _encode_rle(row)

    def _flush(self) -> None:
        if not self._buffer:
            return
        rows = len(self._buffer)
        tags = [self._choose_tag(row) for row in self._buffer]
        if all(tag == _TAG_DENSE for tag in tags):
            payload = self._pack_buffer()
            layout = _LAYOUT_RAW
        else:
            payloads = [
                self._encode_payload(tag, row)
                for tag, row in zip(tags, self._buffer)
            ]
            parts = [rows.to_bytes(4, "little"), bytes(tags)]
            parts += [len(p).to_bytes(4, "little") for p in payloads]
            parts += payloads
            payload = b"".join(parts)
            layout = _LAYOUT_ENCODED
        name = f"shard-{len(self._shards):05d}.bin"
        crashpoint("writer.shard-flush")
        (self.path / name).write_bytes(payload)
        fsync_file(self.path / name)
        self._shards.append(
            {
                "file": name,
                "rows": rows,
                "bytes": len(payload),
                "crc32": zlib.crc32(payload),
                "layout": layout,
                "stats": _shard_stats(self._buffer, tags, self.n),
            }
        )
        self._buffer = []

    def close(self) -> Path:
        """Flush the tail chunk, write ``manifest.json``, return the path."""
        if self._aborted:
            raise ShardFormatError("writer was aborted; nothing to close")
        if self._closed:
            return self.path
        self._flush()
        manifest = {
            "schema": SHARD_SCHEMA,
            "n": self.n,
            "m": self._m,
            "words": self.words,
            "chunk_rows": self.chunk_rows,
            "encoding": self.encoding,
            "shards": self._shards,
            "stats_crc32": _stats_checksum(self._shards),
        }
        # The manifest is the commit point of the whole repository: the
        # shard files (and the directory entries naming them) are made
        # durable first, then the manifest is published atomically — a
        # crash anywhere leaves either no repository (orphan shards,
        # `fsck --repair` removes them) or a complete one.
        fsync_dir(self.path)
        crashpoint("writer.manifest")
        durable_write_text(
            self.path / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n"
        )
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Remove everything written so far (idempotent).

        Called automatically when the writer's ``with`` body raises:
        partial shard files and any manifest are deleted, and the
        directory itself is removed when this writer created it — no
        corrupt repository is left for a later open to trip over.
        """
        if self._closed:
            return
        for meta in self._shards:
            (self.path / meta["file"]).unlink(missing_ok=True)
        (self.path / MANIFEST_NAME).unlink(missing_ok=True)
        if self._created_dir:
            try:
                self.path.rmdir()
            except OSError:  # foreign files arrived meanwhile; leave them
                pass
        self._buffer = []
        self._shards = []
        self._aborted = True

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_shards(
    path: "str | Path",
    source: "SetSystem | Iterable[Iterable[int]]",
    n: "int | None" = None,
    chunk_rows: "int | None" = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    encoding: str = "auto",
) -> Path:
    """Write a set system (or a lazy iterable of sets) as a shard directory.

    Parameters
    ----------
    path:
        Target directory for the repository.
    source:
        Either a :class:`SetSystem` (``n`` is taken from it) or any
        iterable of element-id iterables — a generator works, so huge
        families can be sharded without ever materializing in RAM.  If
        the iterable raises mid-write, partial output is removed.
    n:
        Ground-set size; required when ``source`` is not a ``SetSystem``.
    chunk_rows / chunk_bytes / encoding:
        Chunk geometry and row codec policy, as for :class:`ShardWriter`.

    Returns
    -------
    Path
        The repository directory, ready for :class:`ShardedRepository`.
    """
    if isinstance(source, SetSystem):
        n = source.n
        rows: Iterable[Iterable[int]] = source.sets
    else:
        if n is None:
            raise ValueError("n is required when source is not a SetSystem")
        rows = source
    with ShardWriter(
        path, n, chunk_rows=chunk_rows, chunk_bytes=chunk_bytes, encoding=encoding
    ) as writer:
        writer.extend(rows)
    return writer.path


# ----------------------------------------------------------------------
# Vectorized varint decoding (whole-shard bulk decode)
# ----------------------------------------------------------------------
def _ragged_gather(
    payload: "np.ndarray", offsets: "np.ndarray", lengths: "np.ndarray"
) -> "np.ndarray":
    """Concatenate variable-length byte segments of ``payload``."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint8)
    before = np.cumsum(lengths) - lengths
    positions = (
        np.repeat(offsets - before, lengths)
        + np.arange(total, dtype=np.int64)
    )
    return payload[positions]

def _bulk_varints(
    seg: "np.ndarray", max_bytes: int
) -> tuple["np.ndarray", "np.ndarray"]:
    """Decode every varint of a byte stream at once.

    Returns ``(values, ends)`` where ``ends[i]`` is the byte index of
    the ``i``-th varint's terminator.  Raises on unterminated or
    overlong varints — the loud-failure contract for corrupt blocks.
    """
    if seg.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    data = seg.astype(np.int64)
    term = data < 128
    if not term[-1]:
        raise ShardFormatError("corrupt shard: unterminated varint")
    ends = np.flatnonzero(term)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    width = int(lens.max())
    if width > max_bytes:
        raise ShardFormatError("corrupt shard: varint overflow")
    values = np.zeros(ends.size, dtype=np.int64)
    for k in range(width):
        sel = lens > k
        values[sel] |= (data[starts[sel] + k] & 127) << (7 * k)
    return values, ends

def _varint_counts(
    ends: "np.ndarray", lengths: "np.ndarray"
) -> "np.ndarray":
    """Varints per segment, validating segment/varint alignment."""
    bounds = np.cumsum(lengths)
    nonzero = lengths > 0
    if not np.isin(bounds[nonzero] - 1, ends).all():
        raise ShardFormatError(
            "corrupt shard: row boundary splits a varint"
        )
    marks = np.searchsorted(ends, bounds, side="left")
    counts = np.empty_like(marks)
    counts[0] = marks[0]
    counts[1:] = marks[1:] - marks[:-1]
    return counts

def _segmented_absolutes(
    values: "np.ndarray", counts: "np.ndarray"
) -> "np.ndarray":
    """Per-segment cumulative sums (delta decode with per-row reset)."""
    cum = np.cumsum(values)
    first = np.cumsum(counts) - counts
    base = np.where(first > 0, cum[np.maximum(first, 1) - 1], 0)
    return cum - np.repeat(base, counts)


class ShardedRepository:
    """Memory-mapped read access to a shard directory.

    Opening validates the manifest (schema tag, field sanity, per-shard
    file sizes); a size mismatch — the classic truncated-copy failure —
    raises :class:`ShardFormatError` immediately.  CRC-32 verification is
    a full read of every shard, so it is opt-in: pass ``verify=True`` or
    call :meth:`validate`.  Encoded shards additionally validate their
    record tables on first touch and their payloads while decoding, so a
    corrupted compressed block raises instead of yielding garbage rows.

    Shard files are ``mmap``-ed, not read: a sequential scan touches one
    chunk's pages at a time and the OS reclaims them behind the read
    head, so repositories far larger than RAM scan fine.

    Parameters
    ----------
    path:
        A directory produced by :class:`ShardWriter` / :func:`write_shards`
        (schema v1 or v2).
    verify:
        Verify every shard's CRC-32 on open (reads the whole repository).
    base_only:
        Open only the base generation of a repository that has pending
        delta shards.  By default a repository with a non-empty
        ``deltas/`` chain refuses to open (:class:`PendingDeltaError`):
        its base shards alone are not the set system any more.  The
        merged view and the compactor (:mod:`repro.setsystem.deltas`)
        pass ``True``; so do tests that inspect the base in isolation.
    """

    def __init__(
        self, path: "str | Path", verify: bool = False, base_only: bool = False
    ):
        self.path = Path(path)
        # An intent journal means an in-place compaction crashed between
        # its commit point and its cleanup: the files on disk may be a
        # half-replaced mix of the old and new generations.  Refuse even
        # base_only opens — there is no consistent "base" to scan until
        # the journal is rolled forward.
        if (self.path / COMPACT_INTENT_NAME).is_file():
            raise InterruptedCompactionError(
                f"{self.path} holds a {COMPACT_INTENT_NAME} journal: an "
                "in-place compaction was interrupted mid-replace. Open it "
                "with repro.setsystem.deltas.open_repository (which rolls "
                "the compaction forward) or run `repro shard fsck --repair`."
            )
        self.pending_deltas = len(pending_delta_generations(self.path))
        if self.pending_deltas and not base_only:
            raise PendingDeltaError(
                f"{self.path} has {self.pending_deltas} pending delta "
                "generation(s); its base shards are not the merged set "
                "system. Open it with repro.setsystem.deltas.open_repository "
                "(merged view) or compact it first (`repro shard compact`)."
            )
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ShardFormatError(f"no {MANIFEST_NAME} in {self.path}")
        try:
            manifest_raw = manifest_path.read_bytes()
            manifest = json.loads(manifest_raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ShardFormatError(f"unparseable manifest in {self.path}: {exc}") from exc
        #: Content token ``[size, crc32]`` of the exact manifest bytes
        #: this handle was opened from.  Describes the *open* family
        #: even after the on-disk repository is compacted underneath it
        #: (the mmaps pin the old inodes), which is what the remote
        #: driver must send so warm worker caches keep serving the same
        #: generation mid-solve.
        self.token = [len(manifest_raw), zlib.crc32(manifest_raw)]
        if not isinstance(manifest, dict) or manifest.get("schema") not in _SUPPORTED_SCHEMAS:
            raise ShardFormatError(
                f"manifest schema is {manifest.get('schema')!r}, "
                f"expected one of {_SUPPORTED_SCHEMAS!r}" if isinstance(manifest, dict)
                else "manifest is not a JSON object"
            )
        self._manifest = manifest
        self.schema = str(manifest["schema"])
        self.encoding = str(manifest.get("encoding", "dense"))
        try:
            self.n = int(manifest["n"])
            self.m = int(manifest["m"])
            self.words = int(manifest["words"])
            self.chunk_rows = int(manifest["chunk_rows"])
            self._shard_meta = list(manifest["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardFormatError(f"malformed manifest in {self.path}: {exc}") from exc
        if self.n < 0 or self.m < 0 or self.words != _words_for(self.n):
            raise ShardFormatError(
                f"inconsistent manifest geometry: n={self.n}, words={self.words}"
            )
        if sum(int(meta.get("rows", -1)) for meta in self._shard_meta) != self.m:
            raise ShardFormatError(
                f"manifest rows do not sum to m={self.m} in {self.path}"
            )
        if self.schema == SHARD_SCHEMA:
            # v3 manifests carry planner statistics guarded by their own
            # checksum — a stats block that was hand-edited (or silently
            # corrupted) must fail here, not skew schedules quietly.
            if any(not isinstance(meta.get("stats"), dict) for meta in self._shard_meta):
                raise ShardFormatError(
                    f"v3 manifest in {self.path} is missing per-shard stats"
                )
            recorded = manifest.get("stats_crc32")
            computed = _stats_checksum(self._shard_meta)
            if recorded != computed:
                raise ShardFormatError(
                    f"stats checksum mismatch in {self.path}: "
                    f"stats_crc32={recorded}, computed {computed}"
                )

        self._row_bytes = self.words * _WORD_BYTES
        self._files = []
        self._maps: list[mmap.mmap] = []
        self._starts: list[int] = []  # first global row id of each shard
        self._layouts: list[str] = []
        self._header_cache: dict[int, tuple] = {}
        start = 0
        for meta in self._shard_meta:
            shard_path = self.path / str(meta["file"])
            rows = int(meta["rows"])
            layout = str(meta.get("layout", _LAYOUT_RAW))
            if layout not in (_LAYOUT_RAW, _LAYOUT_ENCODED):
                self.close()
                raise ShardFormatError(
                    f"shard {shard_path.name} has unknown layout {layout!r}"
                )
            expected = (
                rows * self._row_bytes
                if layout == _LAYOUT_RAW
                else int(meta.get("bytes", -1))
            )
            if not shard_path.is_file():
                self.close()
                raise ShardFormatError(f"missing shard file {shard_path}")
            actual = shard_path.stat().st_size
            if actual != expected:
                self.close()
                raise ShardFormatError(
                    f"shard {shard_path.name} is {actual} bytes, expected "
                    f"{expected} ({layout} layout, {rows} rows) — "
                    "truncated or corrupt repository"
                )
            handle = open(shard_path, "rb")
            self._files.append(handle)
            if expected:
                self._maps.append(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
            else:  # mmap cannot map empty files
                self._maps.append(None)  # type: ignore[arg-type]
            self._starts.append(start)
            self._layouts.append(layout)
            start += rows
        self._closed = False
        if verify:
            self.validate()

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shard files."""
        return len(self._shard_meta)

    @property
    def chunk_words(self) -> int:
        """Packed ``uint64`` words of one full resident chunk buffer.

        This is the number :class:`~repro.streaming.sharded.ShardedSetStream`
        charges as its resident scan buffer (DESIGN.md §3.6).  It is the
        *decoded* chunk size, so the accounting is identical for raw and
        compressed repositories.
        """
        return min(self.chunk_rows, max(self.m, 1)) * self.words

    @property
    def repository_words(self) -> int:
        """Total packed words on disk (``m * ceil(n/64)``) — *not* resident."""
        return self.m * self.words

    @property
    def disk_bytes(self) -> int:
        """Actual bytes the shard files occupy (compression included)."""
        return sum(int(meta.get("bytes", 0)) for meta in self._shard_meta)

    # ------------------------------------------------------------------
    # Planner statistics (manifest schema v3, DESIGN.md §8.1)
    # ------------------------------------------------------------------
    @property
    def has_stats(self) -> bool:
        """Does the manifest carry (checksummed) per-shard statistics?"""
        return self.schema == SHARD_SCHEMA

    def shard_stats(self) -> "list[dict | None]":
        """Per-shard stats blocks; ``None`` entries for pre-v3 manifests."""
        return [meta.get("stats") for meta in self._shard_meta]

    def shard_cost_estimates(self) -> list[int]:
        """Estimated scan cost per shard, in fused-kernel work units.

        The planner's cost model (DESIGN.md §8.2): a dense row costs its
        ``ceil(n/64)`` packed words, a sparse row one unit per element
        (the bit-gather), a run-length row two units per run (the prefix
        difference), plus a fixed two-unit per-row overhead.  Exact for
        v3 manifests; pre-v3 repositories are estimated from what costs
        nothing to read — shard geometry for raw shards, the payload
        byte count for encoded ones (one varint byte ≈ one decode unit)
        — so the planner never forces a data scan just to schedule one.
        """
        words = max(1, self.words)
        costs: list[int] = []
        for meta, layout in zip(self._shard_meta, self._layouts):
            rows = int(meta["rows"])
            stats = meta.get("stats")
            if isinstance(stats, dict):
                mix = stats.get("codec_mix", {})
                cost = (
                    2 * rows
                    + int(mix.get("dense", 0)) * words
                    + int(stats.get("sparse_elems", 0))
                    + 2 * int(stats.get("rle_runs", 0))
                )
            elif layout == _LAYOUT_RAW:
                cost = rows * words
            else:
                cost = 2 * rows + int(meta.get("bytes", 0))
            costs.append(max(1, cost))
        return costs

    def compute_shard_stats(self, shard: int) -> dict:
        """Recompute one shard's stats block by decoding its rows."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        if self._layouts[shard] == _LAYOUT_ENCODED:
            tags, _, _ = self._encoded_header(shard)
            tag_list = [int(tag) for tag in tags]
        else:
            tag_list = [_TAG_DENSE] * int(self._shard_meta[shard]["rows"])
        rows = [bits_of(mask) for mask in self.chunk_masks(shard)]
        return _shard_stats(rows, tag_list, self.n)

    def backfill_stats(self) -> bool:
        """Persist per-shard statistics, upgrading the manifest to v3.

        Computes the stats block of every shard that lacks one (a full
        read of those shards), rewrites ``manifest.json`` atomically with
        ``schema = repro.shards/v3`` and a fresh ``stats_crc32``, and
        returns whether anything changed.  Idempotent: a repository that
        already carries checksummed stats is left byte-identical and the
        call returns ``False``.  Shard files are never touched.

        Refuses (:class:`PendingDeltaError`) while delta generations are
        pending: the first generation's chain manifest records the CRC-32
        of the *bytes* of ``manifest.json``, so rewriting it here would
        sever the chain and every subsequent merged open would fail.
        Compact first, then backfill the clean repository.
        """
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        if self.pending_deltas:
            raise PendingDeltaError(
                f"cannot backfill stats in {self.path}: "
                f"{self.pending_deltas} pending delta generation(s) anchor "
                f"their chain to the CRC-32 of {MANIFEST_NAME}; rewriting "
                "it would sever the chain. Run `repro shard compact` first."
            )
        if self.has_stats:
            return False
        for shard, meta in enumerate(self._shard_meta):
            if not isinstance(meta.get("stats"), dict):
                meta["stats"] = self.compute_shard_stats(shard)
        manifest = dict(self._manifest)
        manifest["schema"] = SHARD_SCHEMA
        manifest["shards"] = self._shard_meta
        manifest["stats_crc32"] = _stats_checksum(self._shard_meta)
        crashpoint("backfill.manifest")
        durable_write_text(
            self.path / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n"
        )
        self._manifest = manifest
        self.schema = SHARD_SCHEMA
        return True

    def validate(self) -> None:
        """Verify every shard's CRC-32 against the manifest (full read)."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        for meta, mm in zip(self._shard_meta, self._maps):
            payload = mm[:] if mm is not None else b""
            crc = zlib.crc32(payload)
            if crc != int(meta.get("crc32", -1)):
                raise ShardFormatError(
                    f"checksum mismatch in {meta['file']}: "
                    f"crc32={crc}, manifest says {meta.get('crc32')}"
                )

    def close(self) -> None:
        """Release all memory maps and file handles (idempotent).

        Zero-copy chunk views (:meth:`iter_chunk_matrices`) export the
        underlying ``mmap`` buffer; a map still referenced by live views
        cannot be closed eagerly, so it is dropped instead and freed by
        the garbage collector once the last view dies.
        """
        for mm in getattr(self, "_maps", []):
            if mm is not None:
                try:
                    mm.close()
                except BufferError:
                    pass  # live exported views; GC frees the map with them
        for handle in getattr(self, "_files", []):
            handle.close()
        self._maps = []
        self._files = []
        self._header_cache = {}
        self._closed = True
        lease = getattr(self, "_lease", None)
        if lease is not None:
            # Attached by repro.setsystem.deltas.open_repository: drain
            # the generation lease and reclaim retired generations this
            # handle was the last reader of.
            self._lease = None
            lease.release()
            try:
                from repro.setsystem.durability import reclaim_retired

                reclaim_retired(self.path)
            except OSError:  # pragma: no cover - reclaim is best-effort
                pass

    def __enter__(self) -> "ShardedRepository":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Encoded-shard record tables
    # ------------------------------------------------------------------
    def _encoded_header(self, shard: int):
        """Parse (and cache) an encoded shard's ``tags/lengths/offsets``."""
        cached = self._header_cache.get(shard)
        if cached is not None:
            return cached
        raw = self._maps[shard]
        meta = self._shard_meta[shard]
        rows = int(meta["rows"])
        size = int(meta["bytes"])
        head = 4 + rows + 4 * rows
        if raw is None or size < head:
            raise ShardFormatError(
                f"corrupt encoded shard {meta['file']}: record table truncated"
            )
        if int.from_bytes(raw[:4], "little") != rows:
            raise ShardFormatError(
                f"corrupt encoded shard {meta['file']}: row count mismatch"
            )
        tag_bytes = bytes(raw[4 : 4 + rows])
        length_bytes = bytes(raw[4 + rows : head])
        tags = np.frombuffer(tag_bytes, dtype=np.uint8)
        lengths = np.frombuffer(length_bytes, dtype="<u4").astype(np.int64)
        offsets = head + np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        if tags.max(initial=0) > _TAG_RLE:
            raise ShardFormatError(
                f"corrupt encoded shard {meta['file']}: unknown row codec tag"
            )
        if head + total != size:
            raise ShardFormatError(
                f"corrupt encoded shard {meta['file']}: payload length mismatch"
            )
        header = (tags, lengths, offsets)
        self._header_cache[shard] = header
        return header

    def _decode_row_local(self, shard: int, local: int) -> int:
        """Decode one encoded row into an integer bitmask."""
        tags, lengths, offsets = self._encoded_header(shard)
        offset, length = int(offsets[local]), int(lengths[local])
        data = self._maps[shard][offset : offset + length]
        return _decode_payload_mask(int(tags[local]), data, self.n, self._row_bytes)

    def chunk_masks(self, shard: int) -> list[int]:
        """One shard's rows as integer bitmasks (decoding if needed)."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        rows = int(self._shard_meta[shard]["rows"])
        if self._layouts[shard] == _LAYOUT_RAW:
            raw = self._maps[shard] if self._maps[shard] is not None else b""
            row_bytes = self._row_bytes
            return [
                int.from_bytes(raw[i * row_bytes : (i + 1) * row_bytes], "little")
                for i in range(rows)
            ]
        return [self._decode_row_local(shard, i) for i in range(rows)]

    def chunk_matrix(self, shard: int) -> "np.ndarray":
        """One shard as a ``(rows, words)`` ``uint64`` matrix.

        Raw shards are zero-copy read-only views over the ``mmap``;
        encoded shards decode into a freshly packed matrix (one chunk of
        resident memory, the same budget the scan accounting charges).
        """
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        rows = int(self._shard_meta[shard]["rows"])
        if self._layouts[shard] == _LAYOUT_RAW:
            raw = self._maps[shard] if self._maps[shard] is not None else b""
            matrix = np.frombuffer(raw, dtype="<u8", count=rows * self.words)
            return matrix.reshape(rows, self.words)
        return pack_rows(self.chunk_masks(shard), self.words)

    # ------------------------------------------------------------------
    # Sequential chunk access (the out-of-core scan primitives)
    # ------------------------------------------------------------------
    def iter_chunk_matrices(self) -> Iterator[tuple[int, "np.ndarray"]]:
        """Yield ``(start_row, matrix)`` per shard as ``(rows, words)`` arrays.

        Matrices are in the block layout of
        :func:`~repro.setsystem.packed.pack_rows` — zero-copy views for raw
        shards, decoded buffers for encoded ones.
        """
        if self._closed:
            raise ShardFormatError(
                f"repository {self.path} is closed; scanning it would "
                "silently yield an empty family"
            )
        for shard, start in enumerate(self._starts):
            yield start, self.chunk_matrix(shard)

    def iter_row_masks(self) -> Iterator[int]:
        """Yield every row as an arbitrary-precision integer bitmask."""
        if self._closed:
            raise ShardFormatError(
                f"repository {self.path} is closed; scanning it would "
                "silently yield an empty family"
            )
        for shard in range(self.shard_count):
            yield from self.chunk_masks(shard)

    def iter_rows(self) -> Iterator[frozenset[int]]:
        """Yield every row as a frozenset of element ids."""
        for mask in self.iter_row_masks():
            yield frozenset(bits_of(mask))

    # ------------------------------------------------------------------
    # Fused shard scans (the executor's per-chunk unit of work)
    # ------------------------------------------------------------------
    def scan_shard(
        self,
        shard: int,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """Gains + captured projections for one shard against a residual.

        The per-chunk unit of a gains scan (DESIGN.md §6): raw shards run
        the dense chunk kernel on their zero-copy matrix view; encoded
        shards run the **fused decode-and-gain kernels** — sparse rows
        gather mask bits per element id and run-length rows difference a
        prefix popcount, neither ever materializing dense words.  The
        shard is decoded once; captured projections are built from the
        same decoded arrays (:func:`_captures_from_decoded`).

        Returns ``(start_row, gains, captured)`` with the same semantics
        as :func:`repro.setsystem.packed.scan_chunk`.
        """
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        start = self._starts[shard]
        rows = int(self._shard_meta[shard]["rows"])
        if mask.is_empty:
            return start, np.zeros(rows, dtype=np.int64), Captures.empty(self.words)
        if self._layouts[shard] == _LAYOUT_RAW:
            gains, captured = scan_chunk(
                start, self.chunk_matrix(shard), mask,
                min_capture_gain=min_capture_gain,
                capture_ids=capture_ids,
                best_only=best_only,
            )
            return start, gains, captured
        return _scan_decoded_payload(
            start, self._decode_encoded_chunk(shard, rows), mask, self.words,
            min_capture_gain, capture_ids, best_only,
        )

    def _decode_encoded_chunk(self, shard: int, rows: int) -> dict:
        """The mask-independent half of the fused encoded scan.

        Parses every row of an encoded shard into kernel-ready arrays —
        sparse element ids, run-length boundaries, a packed dense
        submatrix — carrying all the corruption validation of the old
        one-shot scan.  The result references no ``mmap`` memory, so the
        hot cache (:mod:`repro.engine.cache`) can hold it across passes
        (and across repository handles); :func:`_gains_from_decoded`
        applies any residual mask to it, bit-identical to the fused
        scan.
        """
        tags, lengths, offsets = self._encoded_header(shard)
        payload = np.frombuffer(self._maps[shard], dtype=np.uint8)
        max_bytes = max(1, (int(self.n).bit_length() + 6) // 7) if self.n else 1
        row_bytes = self._row_bytes
        meta_file = self._shard_meta[shard]["file"]
        nbytes = 0

        sparse = None
        sel = np.flatnonzero(tags == _TAG_SPARSE)
        if sel.size:
            seg = _ragged_gather(payload, offsets[sel], lengths[sel])
            values, ends = _bulk_varints(seg, max_bytes)
            counts = _varint_counts(ends, lengths[sel])
            if values.size:
                first = np.cumsum(counts) - counts
                nonzero = counts > 0
                is_first = np.zeros(values.size, dtype=bool)
                is_first[first[nonzero]] = True
                if values[~is_first].size and int(values[~is_first].min()) < 1:
                    raise ShardFormatError(
                        f"corrupt encoded shard {meta_file}: "
                        "non-increasing sparse row"
                    )
                elements = _segmented_absolutes(values, counts)
                if int(elements.max()) >= self.n:
                    raise ShardFormatError(
                        f"corrupt encoded shard {meta_file}: "
                        "element outside the ground set"
                    )
                row_ids = np.repeat(sel, counts)
                sparse = (elements, row_ids)
                nbytes += elements.nbytes + row_ids.nbytes

        rle = None
        sel = np.flatnonzero(tags == _TAG_RLE)
        if sel.size:
            seg = _ragged_gather(payload, offsets[sel], lengths[sel])
            values, ends = _bulk_varints(seg, max_bytes)
            counts = _varint_counts(ends, lengths[sel])
            if (counts % 2).any():
                raise ShardFormatError(
                    f"corrupt encoded shard {meta_file}: dangling run-length pair"
                )
            if values.size:
                skips, stored = values[0::2], values[1::2]
                run_lens = stored + 1
                pair_counts = counts // 2
                run_ends = _segmented_absolutes(skips + run_lens, pair_counts)
                run_starts = run_ends - run_lens
                if int(run_ends.max()) > self.n:
                    raise ShardFormatError(
                        f"corrupt encoded shard {meta_file}: "
                        "run outside the ground set"
                    )
                row_ids = np.repeat(sel, pair_counts)
                rle = (run_starts, run_ends, row_ids)
                nbytes += run_starts.nbytes + run_ends.nbytes + row_ids.nbytes

        dense = None
        sel = np.flatnonzero(tags == _TAG_DENSE)
        if sel.size:
            if (lengths[sel] != row_bytes).any():
                raise ShardFormatError(
                    f"corrupt encoded shard {meta_file}: dense row length mismatch"
                )
            if row_bytes:
                positions = offsets[sel][:, None] + np.arange(row_bytes, dtype=np.int64)
                matrix = (
                    np.ascontiguousarray(payload[positions]).view("<u8")
                )
                tail = self.n % 64
                if tail and (matrix[:, -1] >> np.uint64(tail)).any():
                    raise ShardFormatError(
                        f"corrupt encoded shard {meta_file}: "
                        "dense row bits beyond the ground set"
                    )
                dense = (sel, matrix)
                nbytes += sel.nbytes + matrix.nbytes

        return {
            "rows": rows,
            "sparse": sparse,
            "rle": rle,
            "dense": dense,
            "nbytes": nbytes,
        }

    # ------------------------------------------------------------------
    # Hot-cache hooks (repro.engine.cache)
    # ------------------------------------------------------------------
    def decode_chunk(self, shard: int):
        """``(payload, resident_bytes)`` for the cross-pass hot cache.

        The payload is self-contained (owns its memory, references no
        ``mmap``) and mask-independent, so it can outlive this handle
        and serve any residual; :meth:`scan_decoded` turns it into the
        exact ``scan_shard`` result.  Raw shards cache their packed
        matrix, encoded shards the parsed kernel arrays.
        """
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        rows = int(self._shard_meta[shard]["rows"])
        if self._layouts[shard] == _LAYOUT_RAW:
            matrix = np.array(self.chunk_matrix(shard))
            return ("matrix", matrix), matrix.nbytes
        decoded = self._decode_encoded_chunk(shard, rows)
        return ("decoded", decoded), decoded["nbytes"]

    def scan_decoded(
        self,
        shard: int,
        payload,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """:meth:`scan_shard` over a :meth:`decode_chunk` payload.

        Runs the same gain kernels in the same order over the cached
        arrays, so the ``(start, gains, captured)`` tuple is bit-
        identical to a cold scan of the shard — the property the cache
        parity suite pins at every knob setting.
        """
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        start = self._starts[shard]
        rows = int(self._shard_meta[shard]["rows"])
        if mask.is_empty:
            return start, np.zeros(rows, dtype=np.int64), Captures.empty(self.words)
        kind, data = payload
        if kind != "decoded":
            gains, captured = scan_chunk(
                start, data, mask,
                min_capture_gain=min_capture_gain,
                capture_ids=capture_ids,
                best_only=best_only,
            )
            return start, gains, captured
        return _scan_decoded_payload(
            start, data, mask, self.words,
            min_capture_gain, capture_ids, best_only,
        )

    # ------------------------------------------------------------------
    # Referee access (tests and verification, not the streaming model)
    # ------------------------------------------------------------------
    def row_mask(self, i: int) -> int:
        """Random-access read of row ``i`` as an integer bitmask (referee)."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        if not 0 <= i < self.m:
            raise IndexError(f"row {i} outside [0, {self.m})")
        shard = bisect_right(self._starts, i) - 1
        local = i - self._starts[shard]
        if self._layouts[shard] == _LAYOUT_ENCODED:
            return self._decode_row_local(shard, local)
        raw = self._maps[shard] if self._maps[shard] is not None else b""
        row_bytes = self._row_bytes
        return int.from_bytes(raw[local * row_bytes : (local + 1) * row_bytes], "little")

    def to_system(self) -> SetSystem:
        """Materialize the whole repository as an in-memory :class:`SetSystem`.

        Referee/testing convenience — this is exactly the O(input) RAM
        cost the sharded path exists to avoid.
        """
        return SetSystem(self.n, [bits_of(mask) for mask in self.iter_row_masks()])

    def __repr__(self) -> str:
        return (
            f"ShardedRepository(n={self.n}, m={self.m}, "
            f"shards={self.shard_count}, chunk_rows={self.chunk_rows}, "
            f"schema={self.schema!r})"
        )


def _gains_from_decoded(decoded: dict, mask: ScanMask) -> "np.ndarray":
    """Apply a residual mask to a ``_decode_encoded_chunk`` payload.

    The mask-dependent half of the fused encoded scan: the same three
    kernels (``membership_hits`` + bincount, ``range_gains``,
    ``chunk_gains``) in the same accumulation order as the one-shot
    path, so gains are bit-identical whether the arrays were decoded
    this call or served from the hot cache.
    """
    rows = decoded["rows"]
    gains = np.zeros(rows, dtype=np.int64)
    sparse = decoded["sparse"]
    if sparse is not None:
        elements, row_ids = sparse
        hits = membership_hits(elements, mask.arr)
        gains += np.bincount(row_ids[hits], minlength=rows)
    rle = decoded["rle"]
    if rle is not None:
        run_starts, run_ends, row_ids = rle
        gains += range_gains(run_starts, run_ends, row_ids, rows, mask.prefix)
    dense = decoded["dense"]
    if dense is not None:
        sel, matrix = dense
        gains[sel] = chunk_gains(matrix, mask.arr)
    return gains


def _captures_from_decoded(
    decoded: dict, candidates: "list[int]", mask: ScanMask, words: int
) -> "np.ndarray":
    """``row ∩ mask`` for the candidate rows of a ``_decode_encoded_chunk`` payload.

    Built from the kernel arrays the gains came from, so a capture never
    re-reads or re-decodes the shard: sparse rows OR in one bit per
    element, run-length rows their runs word by word, dense rows copy
    their packed words, and the block is then masked once.  Returns the ``(candidates, words)`` ``uint64`` block,
    one row per candidate, in candidate order.
    """
    wanted = np.asarray(candidates, dtype=np.int64)
    block = np.zeros((wanted.size, words), dtype="<u8")
    if not wanted.size:
        return block
    flat_block = block.reshape(-1)
    sparse = decoded["sparse"]
    if sparse is not None:
        elements, row_ids = sparse
        first, counts = _row_segments(row_ids, wanted)
        elements = _ragged_gather(elements, first, counts)
        slot = np.repeat(np.arange(wanted.size), counts)
        bits = np.left_shift(np.uint64(1), (elements & 63).astype(np.uint64))
        _or_sorted_words(flat_block, slot * words + (elements >> 6), bits)
    rle = decoded["rle"]
    if rle is not None:
        run_starts, run_ends, row_ids = rle
        first, counts = _row_segments(row_ids, wanted)
        slot = np.repeat(np.arange(wanted.size), counts)
        spans, index, bits = _run_words(
            _ragged_gather(run_starts, first, counts),
            _ragged_gather(run_ends, first, counts),
        )
        _or_sorted_words(flat_block, np.repeat(slot, spans) * words + index, bits)
    dense = decoded["dense"]
    if dense is not None:
        sel, matrix = dense
        first, counts = _row_segments(sel, wanted)
        found = counts > 0
        block[found] = matrix[first[found]]
    np.bitwise_and(block, mask.arr, out=block)
    return block


_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _run_words(starts: "np.ndarray", ends: "np.ndarray"):
    """The ``uint64`` words covering each non-empty run ``[start, end)``.

    Run ``r`` spans words ``starts[r] >> 6`` through ``(ends[r] - 1) >> 6``:
    all-ones words in between, partial words at either end.  Returns
    ``(spans, index, bits)``: the word count of each run, then every
    run's word indices and bits, run by run.
    """
    first = starts >> 6
    spans = ((ends - 1) >> 6) - first + 1
    offsets = np.cumsum(spans) - spans
    index = np.arange(int(spans.sum())) + np.repeat(first - offsets, spans)
    bits = np.full(index.size, _ALL_ONES)
    bits[offsets] &= _ALL_ONES << (starts & 63).astype(np.uint64)
    last = offsets + spans - 1
    bits[last] &= _ALL_ONES >> (63 - ((ends - 1) & 63)).astype(np.uint64)
    return spans, index, bits


def _or_sorted_words(flat_block: "np.ndarray", flat: "np.ndarray", bits) -> None:
    """OR ``bits`` into ``flat_block[flat]``, ``flat`` non-decreasing.

    Equal indices are adjacent, so one segmented OR per word suffices.
    """
    if flat.size:
        firsts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
        flat_block[flat[firsts]] |= np.bitwise_or.reduceat(bits, firsts)


def _row_segments(row_ids: "np.ndarray", wanted: "np.ndarray"):
    """``(first, counts)`` of each wanted row's entries in sorted ``row_ids``."""
    first = np.searchsorted(row_ids, wanted, "left")
    return first, np.searchsorted(row_ids, wanted, "right") - first


def _scan_decoded_payload(
    start, decoded, mask, words, min_capture_gain, capture_ids, best_only
):
    """``(start, gains, captured)`` of one decoded encoded chunk.

    The whole encoded-shard scan after decoding: gains from
    :func:`_gains_from_decoded`, then the captured rows' projections
    from :func:`_captures_from_decoded` over the same arrays.
    """
    gains = _gains_from_decoded(decoded, mask)
    locals_ = capture_locals(start, gains, min_capture_gain, capture_ids, best_only)
    return start, gains, Captures(
        [start + local for local in locals_],
        _captures_from_decoded(decoded, locals_, mask, words),
    )
