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
* the manifest (schema ``repro.shards/v3``, the only one this build
  reads) records ``n``, ``m``, the chunk geometry, each shard's layout,
  a CRC-32 per shard and checksummed per-shard statistics, so truncated
  or corrupted repositories fail loudly (:class:`ShardFormatError`)
  instead of silently yielding garbage sets.

Row codecs (DESIGN.md §6.2)
---------------------------
Dense packed rows cost ``ceil(n/64)`` words of disk and scan work per
set *regardless of density*, which is exactly wrong for the sparse
regimes the paper targets (rows with ``|S| ≪ n``).  ``ShardWriter``
therefore gives each row the cheapest of three encodings (ties prefer
the faster decode), choosing and encoding a whole chunk at once in
numpy (:class:`_ChunkCodec`):

``dense`` (tag 0)
    The raw packed words.  A shard whose rows are all dense is written
    in the **raw** layout (the packed block itself) and keeps the
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
materializing dense words.

Manifest statistics (DESIGN.md §8.1)
------------------------------------
Every manifest records, per shard, the statistics the remote batch plan
(:mod:`repro.engine.plan`) feeds its cost model: a 16-bucket
row-density histogram, the codec mix, the element and run totals per
codec.  The stats blocks are covered by their own CRC-32
(``stats_crc32``) so a hand-edited manifest fails loudly.

One manifest reader
-------------------
:func:`read_manifest` is the only parser of ``manifest.json``: the
open (:class:`ShardedRepository`) and ``fsck``
(:func:`~repro.setsystem.durability.fsck_repository`) both call it, and
:func:`check_shard_file` is the one per-shard file check.  Each refusal
is a :class:`ShardFormatError` whose ``code`` is the fsck finding code.
Any schema tag other than ``repro.shards/v3`` is refused.

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
from itertools import chain
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
    _ragged_positions,
    capture_locals,
    chunk_gains,
    membership_hits,
    pack_rows,
    range_gains,
    scan_chunk,
)
from repro.setsystem.set_system import SetSystem
from repro.utils.bitset import bits_of

__all__ = [
    "SHARD_SCHEMA",
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
    "check_shard_file",
    "pending_delta_generations",
    "read_manifest",
    "write_shards",
]

#: Schema tag of every ``manifest.json``; no other tag is read.
SHARD_SCHEMA = "repro.shards/v3"

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
#: the other values force one codec for every row (``dense`` writes
#: every shard in the raw layout).
ENCODINGS = ("auto", "dense", "sparse", "rle")

_WORD_BITS = 64
_WORD_BYTES = 8

_TAG_DENSE, _TAG_SPARSE, _TAG_RLE = 0, 1, 2
_LAYOUT_RAW, _LAYOUT_ENCODED = "raw", "encoded"


class ShardFormatError(ValueError):
    """Raised when a shard directory is missing, truncated or corrupt.

    ``code`` is the :func:`~repro.setsystem.durability.fsck_repository`
    finding code of the defect, so fsck reports exactly what the open
    refuses.
    """

    code = "shard-decode"

    def __init__(self, message: str = "", code: "str | None" = None):
        super().__init__(message)
        if code is not None:
            self.code = code


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
# The referee varint reader and the chunk encoder (codecs, bytes, stats)
# ----------------------------------------------------------------------
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


def _varint_widths(values: "np.ndarray") -> "np.ndarray":
    """LEB128 byte count of every non-negative value (7 value bits a byte)."""
    widths = np.ones(values.size, dtype=np.int64)
    top = int(values.max(initial=0))
    shift = 7
    while top >> shift:
        widths += (values >> shift) != 0
        shift += 7
    return widths


def _row_sums(values: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """Sums of ``values`` over consecutive segments of ``counts`` items."""
    cum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cum[1:])
    ends = np.cumsum(counts)
    return cum[ends] - cum[ends - counts]


def _put_varints(out, values, widths, rows, row_offsets) -> None:
    """Write a row-grouped stream of varints into ``out``: each at its
    row's offset plus the widths of the earlier varints of that row."""
    before = np.cumsum(widths) - widths
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    at = row_offsets[rows] + before - np.maximum.accumulate(np.where(first, before, 0))
    while values.size:
        more = widths > 1
        out[at] = (values & 0x7F) | (more << 7)
        values, widths, at = values[more] >> 7, widths[more] - 1, at[more] + 1


class _ChunkCodec:
    """One chunk of sorted rows, encoded in bulk (DESIGN.md §6.2).

    The single implementation of codec choice, the row payload bytes
    and the v3 stats fold.  :class:`ShardWriter` encodes every chunk
    with it, and the merged delta view
    (:class:`repro.setsystem.deltas.MergedShardView`) re-runs it to
    predict — exactly — the stats a compacted rewrite will carry.

    The chunk is CSR: ``flat`` holds every row's elements (sorted,
    duplicate-free within a row), ``sizes`` the row lengths.  All of it
    is numpy over the whole chunk:

    * **gaps** — a row's first element, then each difference to the
      previous element; sparse costs are the row sums of their varint
      widths;
    * **runs** — one starts at each row start or where a gap is not 1,
      and stores ``(skip, length-1)`` with ``skip`` measured from the
      previous run's end (``0`` at a row start);
    * **tags** — ``auto`` keeps dense unless sparse is strictly cheaper
      (a varint is at least a byte, so such a row has fewer elements
      than dense bytes), then run-length only if strictly cheaper
      still, so ties prefer the faster decode; the other encodings
      force one codec.
    """

    def __init__(self, flat, sizes, n: int, encoding: str = "auto"):
        self.flat, self.sizes, self.n = flat, sizes, n
        self.dense_bytes = _words_for(n) * _WORD_BYTES
        self.row_of = np.repeat(np.arange(sizes.size), sizes)
        first = np.zeros(flat.size, dtype=bool)
        first[(np.cumsum(sizes) - sizes)[sizes > 0]] = True
        self.gaps = np.where(first, flat, np.diff(flat, prepend=0))
        run_start = first | (self.gaps != 1)
        self.run_at = np.flatnonzero(run_start)
        run_last = np.append(self.run_at, flat.size)[1:] - 1
        # Skips restart at every row; the chunk's first run starts a row,
        # so the roll's wrap-around is always reset to 0 too.
        prev_end = np.where(first[self.run_at], 0, np.roll(flat[run_last] + 1, 1))
        self.pairs = np.stack((flat[self.run_at] - prev_end, run_last - self.run_at), 1)
        self.row_runs = _row_sums(run_start, sizes)
        self.gap_widths = _varint_widths(self.gaps)
        self.pair_widths = _varint_widths(self.pairs.ravel()).reshape(-1, 2)
        self.sparse_cost = _row_sums(self.gap_widths, sizes)
        self.rle_cost = _row_sums(self.pair_widths.sum(axis=1), self.row_runs)
        self.tags = self._pick_tags(encoding)

    @classmethod
    def of_rows(cls, rows: "list[list[int]]", n: int, encoding: str = "auto"):
        """Encode a chunk given as sorted, duplicate-free element lists."""
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(sizes.sum())
        )
        return cls(flat, sizes, n, encoding)

    @classmethod
    def of_matrix(cls, matrix, n: int, encoding: str = "auto"):
        """Encode a chunk given as a packed ``(rows, words)`` block."""
        rows, words = np.nonzero(matrix)  # row-major, so rows stay sorted
        values = np.ascontiguousarray(matrix[rows, words], dtype="<u8")
        bits = np.unpackbits(values.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        hit, bit = np.nonzero(bits)
        flat = (words[hit] * _WORD_BITS + bit).astype(np.int64)
        sizes = np.bincount(rows[hit], minlength=matrix.shape[0]).astype(np.int64)
        return cls(flat, sizes, n, encoding)

    def _pick_tags(self, encoding: str) -> "np.ndarray":
        if encoding != "auto":
            tag = {"dense": _TAG_DENSE, "sparse": _TAG_SPARSE, "rle": _TAG_RLE}
            return np.full(self.sizes.size, tag[encoding], dtype=np.uint8)
        sparse = self.sparse_cost < self.dense_bytes
        best = np.where(sparse, self.sparse_cost, self.dense_bytes)
        tags = np.where(sparse, _TAG_SPARSE, _TAG_DENSE).astype(np.uint8)
        tags[self.rle_cost < best] = _TAG_RLE
        return tags

    def stats(self) -> dict:
        """The v3 per-shard statistics block (DESIGN.md §8.1).

        Everything the planner's cost model consumes: the row-density
        histogram, the codec mix, and the element / run totals split by
        codec so dense, sparse and run-length scan work can be priced
        separately.
        """
        buckets = np.minimum(
            STATS_HIST_BUCKETS - 1, self.sizes * STATS_HIST_BUCKETS // max(self.n, 1)
        )
        mix = np.bincount(self.tags, minlength=_TAG_RLE + 1).tolist()
        return {
            "density_hist": np.bincount(buckets, minlength=STATS_HIST_BUCKETS).tolist(),
            "codec_mix": dict(zip(("dense", "sparse", "rle"), mix)),
            "set_bits": int(self.flat.size),
            "runs": int(self.run_at.size),
            "sparse_elems": int(self.sizes[self.tags == _TAG_SPARSE].sum()),
            "rle_runs": int(self.row_runs[self.tags == _TAG_RLE].sum()),
        }

    def payload(self) -> "tuple[bytes, str]":
        """The shard file bytes and their layout.

        An all-dense chunk is the raw packed block; any other chunk is
        ``u32 rows | u8 tags[rows] | u32 lengths[rows] | payloads``.
        """
        rows, tags, row_of = self.sizes.size, self.tags, self.row_of
        dense = tags == _TAG_DENSE
        lengths = np.where(
            dense, self.dense_bytes,
            np.where(tags == _TAG_SPARSE, self.sparse_cost, self.rle_cost),
        )
        raw = bool(dense.all())
        head = 0 if raw else 4 + 5 * rows
        offsets = head + np.cumsum(lengths) - lengths
        out = np.zeros(head + int(lengths.sum()), dtype=np.uint8)
        if not raw:
            out[:4] = np.frombuffer(rows.to_bytes(4, "little"), dtype=np.uint8)
            out[4 : 4 + rows] = tags
            out[4 + rows : head] = lengths.astype("<u4").view(np.uint8)
        # Dense rows: one scatter of every element's bit into its byte.
        member = dense[row_of]
        element = self.flat[member]
        np.bitwise_or.at(
            out, offsets[row_of[member]] + (element >> 3),
            np.left_shift(1, element & 7).astype(np.uint8),
        )
        # Sparse gaps and run-length pairs: one varint stream, still
        # grouped by row since each row has one codec.
        sparse = tags[row_of] == _TAG_SPARSE
        run_rows = row_of[self.run_at]
        rle = tags[run_rows] == _TAG_RLE
        _put_varints(
            out,
            np.concatenate((self.gaps[sparse], self.pairs[rle].ravel())),
            np.concatenate((self.gap_widths[sparse], self.pair_widths[rle].ravel())),
            np.concatenate((row_of[sparse], np.repeat(run_rows[rle], 2))),
            offsets,
        )
        return out.tobytes(), _LAYOUT_RAW if raw else _LAYOUT_ENCODED


def _stats_checksum(shard_meta: list[dict]) -> int:
    """CRC-32 of the canonical JSON of every shard's stats block."""
    blob = json.dumps(
        [meta.get("stats") for meta in shard_meta],
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(blob.encode("ascii"))


def _shard_name(shard: int) -> str:
    """The file name :class:`ShardWriter` gives shard ``shard``."""
    return f"shard-{shard:05d}.bin"


def _is_int(value) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass, and not one)."""
    return type(value) is int


def read_manifest(directory: "str | Path") -> "tuple[dict, bytes]":
    """Parse and validate ``directory/manifest.json``; return it and its bytes.

    The one manifest reader: :class:`ShardedRepository` opens through it
    and :func:`~repro.setsystem.durability.fsck_repository` reports what
    it refuses.  It checks the schema tag, the required keys and their
    types, the geometry (``words`` matches ``n``, ``chunk_rows >= 1``,
    every shard but the last holds exactly ``chunk_rows`` rows and the
    last holds ``1..chunk_rows``), that the rows sum to ``m``, that
    shard ``i`` is the file ``shard-{i:05d}.bin`` — so no entry names a
    file outside the repository — the stats blocks and ``stats_crc32``,
    and that each shard's layout and row count agree with its stats.
    The first defect raises :class:`ShardFormatError` carrying its fsck
    code; shard files themselves are :func:`check_shard_file`'s job.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.is_file():
        raise ShardFormatError(
            f"no {MANIFEST_NAME} in {directory}", "missing-manifest"
        )
    try:
        raw = path.read_bytes()
        manifest = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ShardFormatError(
            f"unparseable manifest in {directory}: {exc}", "manifest-unreadable"
        ) from exc
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != SHARD_SCHEMA:
        raise ShardFormatError(
            f"manifest schema is {schema!r}; this build reads only "
            f"{SHARD_SCHEMA!r}", "manifest-schema",
        )

    def malformed(detail: str):
        return ShardFormatError(f"malformed manifest in {directory}: {detail}",
                                "manifest-malformed")

    def geometry(detail: str):
        return ShardFormatError(f"inconsistent manifest geometry in {directory}: "
                                f"{detail}", "manifest-geometry")

    for key in ("n", "m", "words", "chunk_rows"):
        if not _is_int(manifest.get(key)):
            raise malformed(f"{key!r} is not an integer")
    if manifest.get("encoding") not in ENCODINGS:
        raise malformed(
            f"encoding {manifest.get('encoding')!r} is not one of {ENCODINGS}"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise malformed("'shards' is not a list")
    n, m, chunk_rows = manifest["n"], manifest["m"], manifest["chunk_rows"]
    if n < 0 or m < 0 or manifest["words"] != _words_for(n) or chunk_rows < 1:
        raise geometry(
            f"n={n}, m={m}, words={manifest['words']}, chunk_rows={chunk_rows}"
        )
    row_bytes = manifest["words"] * _WORD_BYTES
    for shard, meta in enumerate(shards):
        if not isinstance(meta, dict):
            raise malformed(f"shard entry {shard} is not an object")
        if meta.get("file") != _shard_name(shard):
            raise malformed(
                f"shard entry {shard} names file {meta.get('file')!r}, "
                f"expected {_shard_name(shard)!r}"
            )
        for key in ("rows", "bytes", "crc32"):
            if not _is_int(meta.get(key)):
                raise malformed(f"shard {shard}: {key!r} is not an integer")
        if meta.get("layout") not in (_LAYOUT_RAW, _LAYOUT_ENCODED):
            raise malformed(
                f"shard {shard} has unknown layout {meta.get('layout')!r}"
            )
        rows = meta["rows"]
        last = shard == len(shards) - 1
        if not (rows == chunk_rows or last and 1 <= rows < chunk_rows):
            raise geometry(
                f"shard {shard} holds {rows} rows; chunk_rows={chunk_rows}"
                + (" (the last shard holds 1..chunk_rows)" if last else "")
            )
        if meta["layout"] == _LAYOUT_RAW and meta["bytes"] != rows * row_bytes:
            raise geometry(
                f"raw shard {shard} records {meta['bytes']} bytes for {rows} "
                f"rows of {row_bytes} bytes"
            )
    if sum(meta["rows"] for meta in shards) != m:
        raise ShardFormatError(
            f"manifest rows do not sum to m={m} in {directory}", "manifest-rows"
        )
    for shard, meta in enumerate(shards):
        stats = meta.get("stats")
        mix = stats.get("codec_mix") if isinstance(stats, dict) else None
        if not isinstance(mix, dict) or not all(
            _is_int(value) for value in (
                mix.get("dense"), mix.get("sparse"), mix.get("rle"),
                stats.get("sparse_elems"), stats.get("rle_runs"),
            )
        ):
            raise ShardFormatError(
                f"manifest in {directory} lacks a well-formed stats block "
                f"for shard {shard}",
                "stats-missing",
            )
    computed = _stats_checksum(shards)
    if manifest.get("stats_crc32") != computed:
        raise ShardFormatError(
            f"stats checksum mismatch in {directory}: "
            f"stats_crc32={manifest.get('stats_crc32')!r}, computed {computed}",
            "stats-checksum",
        )
    for shard, meta in enumerate(shards):
        # The checksummed stats pin each shard's codec mix, so a layout
        # or row count edited after the write cannot slip through.
        mix = meta["stats"]["codec_mix"]
        layout = (
            _LAYOUT_RAW if mix["sparse"] == mix["rle"] == 0 else _LAYOUT_ENCODED
        )
        rows = mix["dense"] + mix["sparse"] + mix["rle"]
        if meta["layout"] != layout or meta["rows"] != rows:
            raise malformed(
                f"shard {shard} is recorded as {meta['rows']} {meta['layout']} "
                f"rows; its stats describe {rows} {layout} rows"
            )
    return manifest, raw


def check_shard_file(directory: "str | Path", meta: dict) -> Path:
    """The per-shard file check: present and exactly ``meta["bytes"]`` long.

    ``meta`` is an entry :func:`read_manifest` validated.  Returns the
    shard path; raises :class:`ShardFormatError` with fsck code
    ``shard-missing`` or ``shard-size`` (the classic truncated copy).
    """
    path = Path(directory) / meta["file"]
    if not path.is_file():
        raise ShardFormatError(f"missing shard file {path}", "shard-missing")
    actual = path.stat().st_size
    if actual != meta["bytes"]:
        raise ShardFormatError(
            f"shard {path.name} is {actual} bytes, expected {meta['bytes']} "
            f"({meta['layout']} layout, {meta['rows']} rows) — truncated or "
            "corrupt repository", "shard-size",
        )
    return path


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
    CRC-32 recorded) whenever the buffer fills.  A flush encodes the
    whole chunk with one kernel (:class:`_ChunkCodec`): codec tags,
    payload bytes and the v3 stats block, all vectorized.  ``close``
    flushes the tail chunk and writes the manifest.  As a context
    manager the writer closes itself on success and **aborts** on error:
    partial shard files (and the directory, if the writer created it)
    are removed, so a generator raising mid-write never leaves a corrupt
    repository on disk.

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
        ``dense`` writes raw packed blocks only.

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
    def _flush(self) -> None:
        if not self._buffer:
            return
        chunk = _ChunkCodec.of_rows(self._buffer, self.n, self.encoding)
        payload, layout = chunk.payload()
        name = _shard_name(len(self._shards))
        crashpoint("writer.shard-flush")
        (self.path / name).write_bytes(payload)
        fsync_file(self.path / name)
        self._shards.append(
            {
                "file": name,
                "rows": len(self._buffer),
                "bytes": len(payload),
                "crc32": zlib.crc32(payload),
                "layout": layout,
                "stats": chunk.stats(),
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
    """Concatenate variable-length segments of ``payload``."""
    return payload[_ragged_positions(offsets, lengths)]

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

    Opening validates the manifest (:func:`read_manifest`) and every
    shard file's size (:func:`check_shard_file`); a size mismatch — the
    classic truncated-copy failure — raises :class:`ShardFormatError`
    immediately.  CRC-32 verification is
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
        A directory produced by :class:`ShardWriter` / :func:`write_shards`.
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
        manifest, manifest_raw = read_manifest(self.path)
        #: Content token ``[size, crc32]`` of the exact manifest bytes
        #: this handle was opened from.  Describes the *open* family
        #: even after the on-disk repository is compacted underneath it
        #: (the mmaps pin the old inodes), which is what the remote
        #: driver must send so warm worker caches keep serving the same
        #: generation mid-solve.
        self.token = [len(manifest_raw), zlib.crc32(manifest_raw)]
        self.schema = manifest["schema"]
        self.encoding = manifest["encoding"]
        self.n = manifest["n"]
        self.m = manifest["m"]
        self.words = manifest["words"]
        self.chunk_rows = manifest["chunk_rows"]
        self._shard_meta = manifest["shards"]

        self._row_bytes = self.words * _WORD_BYTES
        self._files = []
        self._maps: list[mmap.mmap] = []
        self._starts: list[int] = []  # first global row id of each shard
        self._layouts: list[str] = []
        self._header_cache: dict[int, tuple] = {}
        start = 0
        for meta in self._shard_meta:
            try:
                shard_path = check_shard_file(self.path, meta)
            except ShardFormatError:
                self.close()
                raise
            handle = open(shard_path, "rb")
            self._files.append(handle)
            if meta["bytes"]:
                self._maps.append(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
            else:  # mmap cannot map empty files
                self._maps.append(None)  # type: ignore[arg-type]
            self._starts.append(start)
            self._layouts.append(meta["layout"])
            start += meta["rows"]
        self._closed = False
        if verify:
            self.validate()

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shard files."""
        return len(self._shard_meta)

    def shard_spans(self) -> "list[tuple[int, int]]":
        """``(first_row, rows)`` of every shard, in shard order."""
        return [
            (start, meta["rows"])
            for start, meta in zip(self._starts, self._shard_meta)
        ]

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
        return sum(meta["bytes"] for meta in self._shard_meta)

    # ------------------------------------------------------------------
    # Planner statistics (manifest schema v3, DESIGN.md §8.1)
    # ------------------------------------------------------------------
    def shard_stats(self) -> "list[dict]":
        """Per-shard stats blocks, as the manifest records them."""
        return [meta["stats"] for meta in self._shard_meta]

    def shard_cost_estimates(self) -> list[int]:
        """Estimated scan cost per shard, in fused-kernel work units.

        The planner's cost model (DESIGN.md §8.2), read off each shard's
        stats block: a dense row costs its ``ceil(n/64)`` packed words, a
        sparse row one unit per element (the bit-gather), a run-length
        row two units per run (the prefix difference), plus a fixed
        two-unit per-row overhead.
        """
        words = max(1, self.words)
        return [
            max(1, 2 * meta["rows"] + stats["codec_mix"]["dense"] * words
                + stats["sparse_elems"] + 2 * stats["rle_runs"])
            for meta, stats in zip(self._shard_meta, self.shard_stats())
        ]

    def validate(self) -> None:
        """Verify every shard's CRC-32 against the manifest (full read)."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        for meta, mm in zip(self._shard_meta, self._maps):
            payload = mm[:] if mm is not None else b""
            crc = zlib.crc32(payload)
            if crc != meta["crc32"]:
                raise ShardFormatError(
                    f"checksum mismatch in {meta['file']}: "
                    f"crc32={crc}, manifest says {meta['crc32']}",
                    "shard-checksum",
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
        rows, size = meta["rows"], meta["bytes"]
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

    def _raw_row(self, shard: int, local: int) -> int:
        """Read one raw-layout row, refusing bits beyond the ground set."""
        raw = self._maps[shard] if self._maps[shard] is not None else b""
        row_bytes = self._row_bytes
        data = raw[local * row_bytes : (local + 1) * row_bytes]
        return _decode_payload_mask(_TAG_DENSE, data, self.n, row_bytes)

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
        rows = self._shard_meta[shard]["rows"]
        decode = (
            self._raw_row if self._layouts[shard] == _LAYOUT_RAW
            else self._decode_row_local
        )
        return [decode(shard, i) for i in range(rows)]

    def chunk_matrix(self, shard: int) -> "np.ndarray":
        """One shard as a ``(rows, words)`` ``uint64`` matrix.

        Raw shards are zero-copy read-only views over the ``mmap``;
        encoded shards decode into a freshly packed matrix (one chunk of
        resident memory, the same budget the scan accounting charges).
        """
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        rows = self._shard_meta[shard]["rows"]
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
        rows = self._shard_meta[shard]["rows"]
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
        rows = self._shard_meta[shard]["rows"]
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
        rows = self._shard_meta[shard]["rows"]
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
        return self._raw_row(shard, local)

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
    this call or served from the hot cache.  Returns ``(gains, hits)``:
    ``hits`` flags the sparse elements inside the mask (``None`` without
    sparse rows), which the captures reuse.
    """
    rows = decoded["rows"]
    gains = np.zeros(rows, dtype=np.int64)
    sparse = decoded["sparse"]
    hits = None
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
    return gains, hits


def _captures_from_decoded(
    decoded: dict, gains, hits, start: int, locals_: "list[int]",
    mask: ScanMask, words: int,
) -> Captures:
    """The record of ``row ∩ mask`` for the ``locals_`` rows of a decoded chunk.

    Built from the kernel arrays the gains came from, so a capture never
    re-reads or re-decodes the shard.  Each codec yields its rows' masked
    words as one ``(flat, bits)`` part, ``flat = slot · words + word``:
    sparse rows one bit per element the gains found in the mask
    (``hits``; a sparse row's gain counts them), OR-ed per word;
    run-length rows their runs word by word; dense rows their packed
    words.  :meth:`Captures.from_words` lays the parts out by the byte
    rule, so a word-sparse record never touches a zeroed
    ``(rows, words)`` block.
    """
    if not locals_:
        return Captures.empty(words)
    wanted = np.asarray(locals_, dtype=np.int64)
    parts = []
    sparse = decoded["sparse"]
    if sparse is not None:
        elements, row_ids = sparse
        first, counts = _row_segments(row_ids, wanted)
        at = _ragged_positions(first, counts)
        elements = elements[at[hits[at]]]
        slot = np.repeat(np.arange(wanted.size), np.where(counts, gains[wanted], 0))
        bits = np.left_shift(np.uint64(1), (elements & 63).astype(np.uint64))
        parts.append(_or_words(slot * words + (elements >> 6), bits))
    rle = decoded["rle"]
    if rle is not None:
        run_starts, run_ends, row_ids = rle
        first, counts = _row_segments(row_ids, wanted)
        slot = np.repeat(np.arange(wanted.size), counts)
        spans, index, bits = _run_words(
            _ragged_gather(run_starts, first, counts),
            _ragged_gather(run_ends, first, counts),
        )
        flat, bits = _or_words(np.repeat(slot, spans) * words + index, bits)
        parts.append((flat, bits & mask.arr[flat % words]))
    dense = decoded["dense"]
    if dense is not None:
        sel, matrix = dense
        first, counts = _row_segments(sel, wanted)
        found = np.flatnonzero(counts)
        flat = (found[:, None] * words + np.arange(words)).reshape(-1)
        parts.append((flat, (matrix[first[found]] & mask.arr).reshape(-1)))
    return Captures.from_words([start + local for local in locals_], words, parts)


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


def _or_words(flat: "np.ndarray", bits: "np.ndarray"):
    """``(flat, bits)`` with the bits of equal adjacent ``flat`` OR-ed into one.

    ``flat`` is non-decreasing, so one segmented OR per word suffices.
    """
    if not flat.size:
        return flat, bits
    firsts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    return flat[firsts], np.bitwise_or.reduceat(bits, firsts)


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
    gains, hits = _gains_from_decoded(decoded, mask)
    locals_ = capture_locals(start, gains, min_capture_gain, capture_ids, best_only)
    return start, gains, _captures_from_decoded(
        decoded, gains, hits, start, locals_, mask, words
    )
