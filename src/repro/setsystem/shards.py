"""Chunked on-disk repository format for out-of-core set systems.

The paper's access model stores the family ``r_1, ..., r_m`` in a
*read-only repository* that algorithms scan sequentially.  An in-RAM
:class:`~repro.setsystem.set_system.SetSystem` caps experiments at
whatever fits in memory; this module gives the repository a real
on-disk shape:

* a **shard directory** holds ``manifest.json`` plus one binary file per
  chunk of sets (``shard-00000.bin``, ``shard-00001.bin``, ...);
* every shard file is one **encoded** block in which each row carries
  its own roaring-style codec, chosen by the one ``auto`` rule at write
  time (see below): ``u32 row_count | u8 tags[rows] | u32 lengths[rows]
  | payloads``, all little-endian;
* the manifest (schema ``repro.shards/v5``, the only one this build
  reads) records ``n``, ``m``, the chunk geometry, the certified lower
  bound ``dual_bound``, a CRC-32 per shard and checksummed per-shard
  statistics, and a CRC-32 over its header (``header_crc32``), so
  truncated or corrupted repositories fail loudly
  (:class:`ShardFormatError`) instead of silently yielding garbage sets.

Row codecs (DESIGN.md §6.2)
---------------------------
Dense packed rows cost ``ceil(n/64)`` words of disk and scan work per
set *regardless of density*, which is exactly wrong for the sparse
regimes the paper targets (rows with ``|S| ≪ n``).  ``ShardWriter``
therefore gives each row the cheapest of three encodings (ties prefer
the faster decode), choosing and encoding a whole chunk at once in
numpy (:class:`_ChunkCodec`):

``dense`` (tag 0)
    The raw packed words, ``ceil(n/64)`` little-endian ``uint64`` per
    row.  A chunk whose rows are all dense is a block whose tags are
    all 0; the scan and the referee copy its words off the map in one
    slice, and the scan captures them as one block.
``sparse-varint`` (tag 1)
    Delta-encoded sorted element ids as LEB128 varints: the first value
    is the first element, each later value the (>= 1) gap to the next.
``run-length`` (tag 2)
    Varint pairs ``(skip, length-1)``: each run covers
    ``[pos + skip, pos + skip + length)`` and advances ``pos`` to its
    end.  Wins on rows made of long contiguous intervals.

The record table is parsed with three vectorized reads and a whole
shard is decoded at once (:func:`_decode_payload`); the fused kernels
in :mod:`repro.setsystem.packed` compute residual gains for sparse and
run-length rows without ever materializing dense words.

Manifest statistics (DESIGN.md §8.1)
------------------------------------
Every manifest records, per shard, a statistics block: a 16-bucket
row-density histogram, the codec mix, the element and run totals per
codec, and the largest set ``Δ`` (``max_set_bits``: the solvers' lower
bound ``OPT >= ceil(n/Δ)``, read without a pass, as ``m`` is).  The
stats blocks are covered by their own CRC-32 (``stats_crc32``) so a
hand-edited manifest fails loudly.

The header records the dual bound ``dual_bound`` =
``max(⌈n/Δ⌉, ⌈Σ_e 1/max_{S∋e}|S|⌉)``
(:func:`~repro.setsystem.set_system.dual_lower_bound`): the writer keeps
each element's largest set in one ``uint32`` vector while it runs and
sums the bound exactly at ``close``, so it costs no pass.
``header_crc32`` covers ``n``, ``m``, ``words``, ``chunk_rows`` and
``dual_bound``.

Two row decoders
----------------
The scan decodes a whole shard at once (:func:`_decode_payload`, through
:meth:`ShardedRepository.decode_chunk`) and scans it with
:meth:`~ShardedRepository.scan_decoded`; the merged delta view encodes
each live chunk with the writer's codec and decodes it the same way,
so a chain scan and its compaction's scan read the same arrays.  Every
other row read — random access, the row passes, materialization,
verified opens, deep fsck, the merged view's rows and compaction — is
the referee's :meth:`ShardedRepository.select_rows`, a chunk at a time
(``iter_chunk_rows``).  The two share no codec decoding (only the byte
gather of dense rows), and refuse the same corruptions.

One manifest reader
-------------------
:func:`read_manifest` is the only parser of ``manifest.json``: the
open (:class:`ShardedRepository`) and ``fsck``
(:func:`~repro.setsystem.durability.fsck_repository`) both call it, and
:func:`check_shard_file` is the one per-shard file check.  Each refusal
is a :class:`ShardFormatError` whose ``code`` is the fsck finding code.
Any schema tag other than ``repro.shards/v5`` is refused.

:class:`ShardWriter` builds a repository incrementally (a chunk at a
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
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.setsystem.durability import (
    COMPACT_INTENT_NAME,
    _exact_int,
    crashpoint,
    durable_write_text,
    fsync_dir,
    fsync_file,
)
from repro.setsystem.packed import (
    Captures,
    ScanMask,
    _ragged_positions,
    _popcount_rows,
    capture_locals,
    membership_hits,
    range_gains,
)
from repro.setsystem.set_system import (
    SetSystem,
    dual_lower_bound,
    element_widest,
    frozen_row,
    lower_bound_floor,
)

__all__ = [
    "SHARD_SCHEMA",
    "MANIFEST_NAME",
    "DELTAS_DIRNAME",
    "DELTA_MANIFEST_NAME",
    "DEFAULT_CHUNK_BYTES",
    "HEADER_FIELDS",
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
SHARD_SCHEMA = "repro.shards/v5"

#: Manifest fields ``header_crc32`` covers.
HEADER_FIELDS = ("n", "m", "words", "chunk_rows", "dual_bound")

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
#: the row codecs, so scan order, pass structure and the resident-buffer
#: accounting (:attr:`ShardedRepository.chunk_words`) depend on ``n``
#: and ``m`` alone.
DEFAULT_CHUNK_BYTES = 1 << 22

_WORD_BITS = 64
_WORD_BYTES = 8

_TAG_DENSE, _TAG_SPARSE, _TAG_RLE = 0, 1, 2


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
# The chunk encoder (codecs, bytes, stats)
# ----------------------------------------------------------------------
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
    (:class:`repro.setsystem.deltas.MergedShardView`) re-runs it on each
    live chunk to build — exactly — the payload and the stats a
    compacted rewrite will carry.

    The chunk is CSR: ``flat`` holds every row's elements (sorted,
    duplicate-free within a row), ``sizes`` the row lengths.  All of it
    is numpy over the whole chunk:

    * **gaps** — a row's first element, then each difference to the
      previous element; sparse costs are the row sums of their varint
      widths;
    * **runs** — one starts at each row start or where a gap is not 1,
      and stores ``(skip, length-1)`` with ``skip`` measured from the
      previous run's end (``0`` at a row start);
    * **tags** — the one rule: dense unless sparse is strictly cheaper
      (a varint is at least a byte, so such a row has fewer elements
      than dense bytes), then run-length only if strictly cheaper
      still, so ties prefer the faster decode.
    """

    def __init__(self, flat, sizes, n: int):
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
        self.tags = self._pick_tags()

    @classmethod
    def of_rows(cls, rows: "list[list[int]]", n: int):
        """Encode a chunk given as sorted, duplicate-free element lists."""
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(sizes.sum())
        )
        return cls(flat, sizes, n)

    def _pick_tags(self) -> "np.ndarray":
        sparse = self.sparse_cost < self.dense_bytes
        best = np.where(sparse, self.sparse_cost, self.dense_bytes)
        tags = np.where(sparse, _TAG_SPARSE, _TAG_DENSE).astype(np.uint8)
        tags[self.rle_cost < best] = _TAG_RLE
        return tags

    def stats(self) -> dict:
        """The v3 per-shard statistics block (DESIGN.md §8.1).

        The row-density histogram, the codec mix, and the element / run
        totals split by codec.  ``max_set_bits`` is the chunk's largest
        row ``Δ``, the lower bound ``OPT >= ceil(n/Δ)`` the solvers read.
        """
        buckets = _density_bucket(self.sizes, self.n)
        mix = np.bincount(self.tags, minlength=_TAG_RLE + 1).tolist()
        return {
            "density_hist": np.bincount(buckets, minlength=STATS_HIST_BUCKETS).tolist(),
            "codec_mix": dict(zip(("dense", "sparse", "rle"), mix)),
            "set_bits": int(self.flat.size),
            "max_set_bits": int(self.sizes.max(initial=0)),
            "runs": int(self.run_at.size),
            "sparse_elems": int(self.sizes[self.tags == _TAG_SPARSE].sum()),
            "rle_runs": int(self.row_runs[self.tags == _TAG_RLE].sum()),
        }

    def payload(self) -> bytes:
        """The shard file bytes:
        ``u32 rows | u8 tags[rows] | u32 lengths[rows] | payloads``."""
        rows, tags, row_of = self.sizes.size, self.tags, self.row_of
        dense = tags == _TAG_DENSE
        lengths = np.where(
            dense, self.dense_bytes,
            np.where(tags == _TAG_SPARSE, self.sparse_cost, self.rle_cost),
        )
        head = 4 + 5 * rows
        offsets = head + np.cumsum(lengths) - lengths
        out = np.zeros(head + int(lengths.sum()), dtype=np.uint8)
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
        return out.tobytes()


def _matrix_rows(matrix) -> "tuple[np.ndarray, np.ndarray]":
    """A packed ``(rows, words)`` block as CSR ``(flat, sizes)``, each row
    sorted.  Only the nonzero bytes are unpacked."""
    data = np.ascontiguousarray(matrix, dtype="<u8").view(np.uint8)
    data = data.reshape(matrix.shape[0], matrix.shape[1] * _WORD_BYTES)
    rows, at = np.nonzero(data)  # row-major, so rows stay sorted
    bits = np.unpackbits(data[rows, at][:, None], axis=1, bitorder="little")
    hit, bit = np.nonzero(bits)
    flat = (at[hit] * 8 + bit).astype(np.int64)
    sizes = np.bincount(rows[hit], minlength=matrix.shape[0]).astype(np.int64)
    return flat, sizes


def _header_checksum(manifest: dict) -> int:
    """CRC-32 of the canonical JSON of the :data:`HEADER_FIELDS`."""
    blob = json.dumps(
        [manifest.get(key) for key in HEADER_FIELDS], separators=(",", ":")
    )
    return zlib.crc32(blob.encode("ascii"))


def _listed(row):
    """A row as a list, or the row itself when it is not iterable."""
    try:
        return list(row)
    except TypeError:
        return row


def _flat_integers(rows: list) -> "np.ndarray | None":
    """Every element of ``rows`` in one int64 array, or ``None`` when
    numpy cannot vouch that they are all plain integers (floats,
    strings, huge ints, nested or non-iterable rows)."""
    try:
        flat = np.array(list(chain.from_iterable(rows)))
    except (TypeError, ValueError, OverflowError):
        return None
    if flat.ndim != 1 or (flat.size and flat.dtype.kind not in "biu"):
        return None
    # bool counts as 0/1, as operator.index has it; a uint64 past the
    # int64 range turns negative here and fails the range check.
    return flat.astype(np.int64, copy=False)


def _density_bucket(sizes, n: int):
    """The ``density_hist`` bucket of rows with ``sizes`` elements."""
    return np.minimum(STATS_HIST_BUCKETS - 1, sizes * STATS_HIST_BUCKETS // max(n, 1))


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
    that each shard's row count is its stats' codec mix, and
    that its largest set ``max_set_bits`` lies in ``[0, n]`` and in the
    top nonzero bucket of its density histogram, ``header_crc32``, and
    that ``dual_bound`` lies in ``[⌈n/Δ⌉, n]``.
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

    for key in ("n", "m", "words", "chunk_rows", "dual_bound"):
        if not _exact_int(manifest.get(key)):
            raise malformed(f"{key!r} is not an integer")
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise malformed("'shards' is not a list")
    n, m, chunk_rows = manifest["n"], manifest["m"], manifest["chunk_rows"]
    if n < 0 or m < 0 or manifest["words"] != _words_for(n) or chunk_rows < 1:
        raise geometry(
            f"n={n}, m={m}, words={manifest['words']}, chunk_rows={chunk_rows}"
        )
    for shard, meta in enumerate(shards):
        if not isinstance(meta, dict):
            raise malformed(f"shard entry {shard} is not an object")
        if meta.get("file") != _shard_name(shard):
            raise malformed(
                f"shard entry {shard} names file {meta.get('file')!r}, "
                f"expected {_shard_name(shard)!r}"
            )
        for key in ("rows", "bytes", "crc32"):
            if not _exact_int(meta.get(key)):
                raise malformed(f"shard {shard}: {key!r} is not an integer")
        rows = meta["rows"]
        last = shard == len(shards) - 1
        if not (rows == chunk_rows or last and 1 <= rows < chunk_rows):
            raise geometry(
                f"shard {shard} holds {rows} rows; chunk_rows={chunk_rows}"
                + (" (the last shard holds 1..chunk_rows)" if last else "")
            )
    if sum(meta["rows"] for meta in shards) != m:
        raise ShardFormatError(
            f"manifest rows do not sum to m={m} in {directory}", "manifest-rows"
        )
    for shard, meta in enumerate(shards):
        stats = meta.get("stats")
        mix = stats.get("codec_mix") if isinstance(stats, dict) else None
        hist = stats.get("density_hist") if isinstance(stats, dict) else None
        if not isinstance(mix, dict) or not isinstance(hist, list) or not all(
            _exact_int(value) for value in (
                mix.get("dense"), mix.get("sparse"), mix.get("rle"),
                stats.get("sparse_elems"), stats.get("rle_runs"),
                stats.get("max_set_bits"), *hist,
            )
        ) or len(hist) != STATS_HIST_BUCKETS:
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
        # The checksummed stats pin each shard's codec mix, so a row
        # count edited after the write cannot slip through.
        mix = meta["stats"]["codec_mix"]
        rows = mix["dense"] + mix["sparse"] + mix["rle"]
        if meta["rows"] != rows:
            raise malformed(
                f"shard {shard} is recorded as {meta['rows']} rows; its stats "
                f"describe {rows} rows"
            )
        # Δ prints a lower bound and sets the solvers' passes, so it
        # must at least sit in the histogram's highest nonzero bucket.
        widest, hist = meta["stats"]["max_set_bits"], meta["stats"]["density_hist"]
        top = max((b for b, count in enumerate(hist) if count), default=None)
        if not 0 <= widest <= n or top != _density_bucket(widest, n):
            raise ShardFormatError(
                f"shard {shard} in {directory} records max_set_bits={widest}, "
                f"outside [0, n={n}] or its density histogram's top bucket",
                "stats-max-set",
            )
    computed = _header_checksum(manifest)
    if manifest.get("header_crc32") != computed:
        raise ShardFormatError(
            f"header checksum mismatch in {directory}: "
            f"header_crc32={manifest.get('header_crc32')!r}, computed {computed}",
            "header-checksum",
        )
    # The bound sets iterSetCover's first guess; a value the rows do not
    # give is refused by a verified open (check_rows).
    floor = lower_bound_floor(
        n, max((meta["stats"]["max_set_bits"] for meta in shards), default=0)
    )
    if not floor <= manifest["dual_bound"] <= n:
        raise ShardFormatError(
            f"manifest in {directory} records dual_bound="
            f"{manifest['dual_bound']}, outside [ceil(n/max|S|)={floor}, n={n}]",
            "stats-dual-bound",
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
            f"({meta['rows']} rows) — truncated or corrupt repository",
            "shard-size",
        )
    return path


class ShardWriter:
    """Incrementally write a sharded repository, a chunk of sets at a time.

    Memory stays bounded by one chunk: :meth:`extend` takes at most
    ``chunk_rows`` sets at a time and normalises them in one numpy pass
    (validate, sort, de-duplicate, into CSR); :meth:`append` is
    ``extend`` of one set.  The buffer is flushed to a shard file (with
    its CRC-32 recorded) whenever it fills.  A flush encodes the whole
    chunk with one kernel (:class:`_ChunkCodec`): codec tags, payload
    bytes and the v3 stats block, all vectorized.  ``close``
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
    ):
        if n < 0:
            raise ValueError(f"ground set size must be non-negative, got {n}")
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
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
        self.chunk_rows = (
            chunk_rows if chunk_rows is not None else _chunk_rows_for(n, chunk_bytes)
        )
        # The chunk being filled, as CSR pieces of normalised rows.
        self._flat: list[np.ndarray] = []
        self._sizes: list[np.ndarray] = []
        self._buffered = 0
        self._shards: list[dict] = []
        # Each element's largest set so far, for the dual bound.
        self._widest = np.zeros(n, dtype=np.uint32)
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
        self.extend([elements])

    def extend(self, sets: Iterable[Iterable[int]]) -> None:
        """Append every set of an iterable (consumed lazily, a chunk at a time).

        A bad set raises ``ValueError`` from this call, after the sets
        before it have been appended; it never reaches a shard file.
        """
        if self._closed or self._aborted:
            raise ShardFormatError("writer is closed")
        sets = iter(sets)
        # A batch never crosses a shard boundary, and its sort key
        # ``row·n + element`` must fit an int64.
        key_rows = max(1, (1 << 62) // max(self.n, 1))
        while batch := list(
            islice(sets, min(self.chunk_rows - self._buffered, key_rows))
        ):
            self._add(batch)

    # ------------------------------------------------------------------
    def _add(self, rows: list) -> None:
        """Validate, sort and de-duplicate a batch of rows into the chunk
        buffer as CSR ``(flat, sizes)``: the writer's one row kernel, in
        numpy over the whole batch."""
        rows = [row if type(row) is list else _listed(row) for row in rows]
        flat = _flat_integers(rows)
        if flat is None or (flat.size and (flat.min() < 0 or flat.max() >= self.n)):
            rows = self._checked(rows)
            flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        row_of = np.repeat(np.arange(len(rows)), sizes)
        key = np.sort(row_of * self.n + flat)
        keep = np.ones(key.size, dtype=bool)
        keep[1:] = key[1:] != key[:-1]
        row_of = row_of[keep]
        self._flat.append(key[keep] - row_of * self.n)
        self._sizes.append(np.bincount(row_of, minlength=len(rows)))
        self._m += len(rows)
        self._buffered += len(rows)
        if self._buffered >= self.chunk_rows:
            self._flush()

    def _checked(self, rows: list) -> "list[list[int]]":
        """The rows numpy could not vouch for, checked one at a time.

        Runs only when a batch holds a bad set (or elements of an
        unusual integer type): :func:`frozen_row` raises the first bad
        set's ``ValueError``, after the rows before it are appended as
        their own ``append`` calls would have been.
        """
        clean = []
        for i, row in enumerate(rows):
            try:
                clean.append(sorted(frozen_row(self._m + i, row, self.n)))
            except ValueError:
                self._add(clean)
                raise
        return clean

    def _flush(self) -> None:
        if not self._buffered:
            return
        chunk = _ChunkCodec(
            np.concatenate(self._flat), np.concatenate(self._sizes), self.n
        )
        payload = chunk.payload()
        element_widest(self.n, chunk.flat, chunk.sizes, self._widest)
        name = _shard_name(len(self._shards))
        crashpoint("writer.shard-flush")
        (self.path / name).write_bytes(payload)
        fsync_file(self.path / name)
        self._shards.append(
            {
                "file": name,
                "rows": self._buffered,
                "bytes": len(payload),
                "crc32": zlib.crc32(payload),
                "stats": chunk.stats(),
            }
        )
        self._flat, self._sizes, self._buffered = [], [], 0

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
            "dual_bound": dual_lower_bound(self.n, self._widest),
            "shards": self._shards,
            "stats_crc32": _stats_checksum(self._shards),
        }
        manifest["header_crc32"] = _header_checksum(manifest)
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
        self._flat, self._sizes, self._buffered = [], [], 0
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
    chunk_rows / chunk_bytes:
        Chunk geometry, as for :class:`ShardWriter`.

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
        path, n, chunk_rows=chunk_rows, chunk_bytes=chunk_bytes
    ) as writer:
        writer.extend(rows)
    return writer.path


# ----------------------------------------------------------------------
# The one scan and the referee's row reads, shared by both repositories
# ----------------------------------------------------------------------
class _RepositoryReads:
    """The scan of a decoded chunk, and every row read outside the scan.

    :class:`ShardedRepository` and the merged delta view
    (:class:`repro.setsystem.deltas.MergedShardView`) provide ``n``,
    ``m``, ``words``, ``chunk_rows``, ``_span(shard)`` (a chunk's first
    row and row count, refusing a closed handle), ``decode_chunk`` (a
    :func:`_decode_payload` result), ``select_rows`` (the referee's
    decoder, which refuses a closed handle) and ``select_words`` (the
    same rows as packed words).  Both scan through the one
    :meth:`scan_decoded`.  The row passes, materialization, verified
    opens and compaction read rows through :meth:`iter_chunk_rows`,
    ``select_rows`` of one chunk at a time; the bitmask reads take
    ``select_words``, which hands dense rows' words over without
    decoding them.
    """

    def scan_decoded(
        self,
        shard: int,
        payload,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """Gains + captured projections for one chunk against a residual.

        The per-chunk unit of a gains scan (DESIGN.md §6), over a
        :meth:`decode_chunk` payload: the **fused decode-and-gain
        kernels** — sparse rows gather mask bits per element id,
        run-length rows difference a prefix popcount, dense rows
        popcount their words against the mask — and captured
        projections built from the same arrays
        (:func:`_captures_from_decoded`).  An empty mask reads no
        payload (it may be ``None``).

        Returns ``(start_row, gains, captured)`` with the same semantics
        as :func:`repro.setsystem.packed.scan_chunk`.
        """
        start, rows = self._span(shard)
        if mask.is_empty:
            return start, np.zeros(rows, dtype=np.int64), Captures.empty(self.words)
        gains, hits, inter = _gains_from_decoded(payload, mask)
        locals_ = capture_locals(start, gains, min_capture_gain, capture_ids, best_only)
        return start, gains, _captures_from_decoded(
            payload, gains, hits, inter, start, locals_, mask, self.words
        )

    def _chunk_ids(self) -> "Iterator[np.ndarray]":
        """The row ids of each chunk of ``chunk_rows`` rows, in order."""
        for start in range(0, self.m, self.chunk_rows):
            yield np.arange(start, min(start + self.chunk_rows, self.m))

    def iter_chunk_rows(self) -> "Iterator[tuple[np.ndarray, np.ndarray]]":
        """Every row as CSR ``(elements, sizes)``, a chunk of
        ``chunk_rows`` rows at a time."""
        for ids in self._chunk_ids():
            yield self.select_rows(ids)

    def row_mask(self, i: int) -> int:
        """Random-access read of row ``i`` as an integer bitmask."""
        return _word_ints(self.select_words([i]))[0]

    def iter_row_masks(self) -> Iterator[int]:
        """Yield every row as an arbitrary-precision integer bitmask."""
        for ids in self._chunk_ids():
            yield from _word_ints(self.select_words(ids))

    def iter_rows(self) -> Iterator[frozenset[int]]:
        """Yield every row as a frozenset of element ids."""
        for flat, sizes in self.iter_chunk_rows():
            yield from map(frozenset, _csr_lists(flat, sizes))

    def to_system(self) -> SetSystem:
        """Materialize every row as an in-memory :class:`SetSystem`.

        Referee/testing convenience — this is exactly the O(input) RAM
        cost the sharded path exists to avoid.
        """
        rows: "list[list[int]]" = []
        for flat, sizes in self.iter_chunk_rows():
            rows += _csr_lists(flat, sizes)
        return SetSystem(self.n, rows)


def _csr_lists(flat: "np.ndarray", sizes: "np.ndarray") -> "list[list[int]]":
    """CSR rows as lists of element ids."""
    values, ends = flat.tolist(), np.cumsum(sizes).tolist()
    return [values[end - size:end] for end, size in zip(ends, sizes.tolist())]


def _csr_words(flat: "np.ndarray", sizes: "np.ndarray", words: int) -> "np.ndarray":
    """Sorted, duplicate-free CSR rows as a ``(rows, words)`` ``uint64``
    block, the layout of :func:`~repro.setsystem.packed.pack_rows`."""
    matrix = np.zeros((sizes.size, words), dtype=np.uint64)
    at, bits = _or_words(
        np.repeat(np.arange(sizes.size) * words, sizes) + (flat >> 6),
        np.left_shift(np.uint64(1), (flat & 63).astype(np.uint64)),
    )
    matrix.reshape(-1)[at] = bits
    return matrix


def _word_ints(matrix: "np.ndarray") -> "list[int]":
    """The rows of a packed ``(rows, words)`` block as integer bitmasks."""
    raw = np.ascontiguousarray(matrix, dtype="<u8").tobytes()
    size = matrix.shape[1] * _WORD_BYTES
    return [
        int.from_bytes(raw[r * size:(r + 1) * size], "little")
        for r in range(matrix.shape[0])
    ]


# ----------------------------------------------------------------------
# The scan's bulk varint decoding (decode_chunk, a whole shard at once)
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

def _refuse_tail_bits(matrix: "np.ndarray", n: int, name: str) -> None:
    """Refuse packed rows with bits at or above ``n``, so a corrupt shard
    fails every scan, not only the scans whose mask reaches the bits."""
    tail = n % _WORD_BITS
    if matrix.size and tail and (matrix[:, -1] >> np.uint64(tail)).any():
        raise ShardFormatError(
            f"corrupt shard {name}: dense row bits beyond the ground set"
        )


def _dense_block(
    payload: "np.ndarray", offsets: "np.ndarray", lengths: "np.ndarray",
    n: int, name: str,
) -> "np.ndarray":
    """Dense rows at ``offsets`` of ``payload`` as a ``(rows, words)``
    ``uint64`` block: one copy of whole rows (one slice when they lie back
    to back, as in an all-dense chunk; else one strided gather), then the
    length and tail-bit refusals.  The byte gather both decoders share."""
    row_bytes = _words_for(n) * _WORD_BYTES
    if (lengths != row_bytes).any():
        raise ShardFormatError(f"corrupt shard {name}: dense row length mismatch")
    if not (row_bytes and offsets.size):
        return np.zeros((offsets.size, row_bytes // _WORD_BYTES), dtype=np.uint64)
    if (np.diff(offsets) == row_bytes).all():
        first = int(offsets[0])
        rows = payload[first:first + offsets.size * row_bytes].copy()
        block = rows.view("<u8").reshape(offsets.size, -1)
    else:
        block = sliding_window_view(payload, row_bytes)[offsets].view("<u8")
    _refuse_tail_bits(block, n, name)
    return block


def _parse_record_table(payload: "np.ndarray", rows: int, name: str):
    """``(tags, lengths, offsets)`` of a chunk's record table, checked
    against its ``rows`` and the payload's size."""
    head = 4 + 5 * rows
    if payload.size < head:
        raise ShardFormatError(f"corrupt shard {name}: record table truncated")
    if int.from_bytes(payload[:4].tobytes(), "little") != rows:
        raise ShardFormatError(f"corrupt shard {name}: row count mismatch")
    tags = payload[4 : 4 + rows].copy()
    lengths = payload[4 + rows : head].view("<u4").astype(np.int64)
    offsets = head + np.cumsum(lengths) - lengths
    if tags.max(initial=0) > _TAG_RLE:
        raise ShardFormatError(f"corrupt shard {name}: unknown row codec tag")
    if head + int(lengths.sum()) != payload.size:
        raise ShardFormatError(f"corrupt shard {name}: payload length mismatch")
    return tags, lengths, offsets


def _decode_payload(
    payload: "np.ndarray", tags: "np.ndarray", lengths: "np.ndarray",
    offsets: "np.ndarray", n: int, name: str,
) -> dict:
    """The mask-independent half of the scan: one chunk's kernel arrays.

    Parses every row of a chunk (``payload`` and its record table) into
    kernel-ready arrays — sparse element ids, run-length boundaries, a
    packed dense submatrix — validating every corruption the referee
    refuses.  The result references no ``mmap`` memory, so the hot cache
    (:mod:`repro.engine.cache`) can hold it across passes (and across
    repository handles); :func:`_gains_from_decoded` applies any
    residual mask to it.  Shard files and the merged delta view's
    chunks are decoded by this one function.
    """
    max_bytes = max(1, (int(n).bit_length() + 6) // 7) if n else 1
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
                    f"corrupt shard {name}: non-increasing sparse row"
                )
            elements = _segmented_absolutes(values, counts)
            if int(elements.max()) >= n:
                raise ShardFormatError(
                    f"corrupt shard {name}: element outside the ground set"
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
                f"corrupt shard {name}: dangling run-length pair"
            )
        if values.size:
            skips, stored = values[0::2], values[1::2]
            run_lens = stored + 1
            pair_counts = counts // 2
            run_ends = _segmented_absolutes(skips + run_lens, pair_counts)
            run_starts = run_ends - run_lens
            if int(run_ends.max()) > n:
                raise ShardFormatError(
                    f"corrupt shard {name}: run outside the ground set"
                )
            row_ids = np.repeat(sel, pair_counts)
            rle = (run_starts, run_ends, row_ids)
            nbytes += run_starts.nbytes + run_ends.nbytes + row_ids.nbytes

    dense = None
    sel = np.flatnonzero(tags == _TAG_DENSE)
    if sel.size:
        matrix = _dense_block(payload, offsets[sel], lengths[sel], n, name)
        if matrix.size:
            dense = (sel, matrix)
            nbytes += sel.nbytes + matrix.nbytes

    return {
        "rows": int(tags.size),
        "sparse": sparse,
        "rle": rle,
        "dense": dense,
        "nbytes": nbytes,
    }

def _segmented_absolutes(
    values: "np.ndarray", counts: "np.ndarray"
) -> "np.ndarray":
    """Per-segment cumulative sums (delta decode with per-row reset)."""
    cum = np.cumsum(values)
    first = np.cumsum(counts) - counts
    base = np.where(first > 0, cum[np.maximum(first, 1) - 1], 0)
    return cum - np.repeat(base, counts)


class ShardedRepository(_RepositoryReads):
    """Memory-mapped read access to a shard directory.

    Opening validates the manifest (:func:`read_manifest`) and every
    shard file's size (:func:`check_shard_file`); a size mismatch — the
    classic truncated-copy failure — raises :class:`ShardFormatError`
    immediately.  CRC-32 verification is
    a full read of every shard, so it is opt-in: pass ``verify=True`` or
    call :meth:`validate`.  Shards additionally validate their record
    tables on first touch and their payloads while decoding, so a
    corrupted block raises instead of yielding garbage rows.

    Shard files are ``mmap``-ed, not read: a sequential scan touches one
    chunk's pages at a time and the OS reclaims them behind the read
    head, so repositories far larger than RAM scan fine.

    Parameters
    ----------
    path:
        A directory produced by :class:`ShardWriter` / :func:`write_shards`.
    verify:
        Verify every shard's CRC-32 on open (reads the whole repository)
        and decode every row against the recorded largest set
        (:meth:`check_rows`).
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
        self.n = manifest["n"]
        self.m = manifest["m"]
        self.words = manifest["words"]
        self.chunk_rows = manifest["chunk_rows"]
        #: The certified lower bound on OPT (manifest metadata, no pass).
        self.dual_bound = manifest["dual_bound"]
        self._shard_meta = manifest["shards"]

        self._files = []
        self._maps: list[mmap.mmap] = []
        self._starts: list[int] = []  # first global row id of each shard
        self._tables: dict[int, tuple] = {}
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
            start += meta["rows"]
        self._closed = False
        if verify:
            self.validate()
            self.check_rows()

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
        *decoded* chunk size, so the accounting does not depend on the
        row codecs.
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
    # Shard statistics (manifest schema v3, DESIGN.md §8.1)
    # ------------------------------------------------------------------
    def shard_stats(self) -> "list[dict]":
        """Per-shard stats blocks, as the manifest records them."""
        return [meta["stats"] for meta in self._shard_meta]

    @property
    def max_set_bits(self) -> int:
        """The largest set ``Δ`` — manifest metadata, as ``m`` is (no pass)."""
        return max((stats["max_set_bits"] for stats in self.shard_stats()), default=0)

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

    def check_rows(self) -> None:
        """Decode every row through :meth:`select_rows` (``verify=True``,
        deep fsck).

        A shard whose widest row is not its ``max_set_bits`` — an
        understated one prints a false lower bound — raises with code
        ``stats-max-set``; a ``dual_bound`` other than the rows' own
        (:func:`~repro.setsystem.set_system.dual_lower_bound`) with
        ``stats-dual-bound``.
        """
        widest = np.zeros(self.n, dtype=np.uint32)
        chunks = zip(self.shard_stats(), self.iter_chunk_rows())
        for shard, (stats, (flat, sizes)) in enumerate(chunks):
            largest = int(sizes.max(initial=0))
            if largest != stats["max_set_bits"]:
                raise ShardFormatError(
                    f"shard {shard} of {self.path} records max_set_bits="
                    f"{stats['max_set_bits']}, but its widest row has "
                    f"{largest} elements", "stats-max-set",
                )
            element_widest(self.n, flat, sizes, widest)
        bound = dual_lower_bound(self.n, widest)
        if bound != self.dual_bound:
            raise ShardFormatError(
                f"{self.path} records dual_bound={self.dual_bound}, but its "
                f"rows give {bound}", "stats-dual-bound",
            )

    def close(self) -> None:
        """Release all memory maps and file handles (idempotent).

        A map still referenced by a live numpy view cannot be closed
        eagerly, so it is dropped instead and freed by the garbage
        collector once the last view dies.
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
        self._tables = {}
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
    # Record tables (read by both decoders)
    # ------------------------------------------------------------------
    def _record_table(self, shard: int):
        """Parse (and cache) a shard's ``(tags, lengths, offsets)``."""
        cached = self._tables.get(shard)
        if cached is None:
            meta = self._shard_meta[shard]
            cached = _parse_record_table(
                self._bytes(shard), meta["rows"], meta["file"]
            )
            self._tables[shard] = cached
        return cached

    def _bytes(self, shard: int) -> "np.ndarray":
        """A shard file's bytes: a read-only ``uint8`` view of its map."""
        raw = self._maps[shard]
        return np.frombuffer(raw if raw is not None else b"", dtype=np.uint8)

    # ------------------------------------------------------------------
    # Shard scans: decode half (repro.engine.cache) + the shared scan half
    # ------------------------------------------------------------------
    def _span(self, shard: int) -> "tuple[int, int]":
        """``(first row, rows)`` of shard ``shard``."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        return self._starts[shard], self._shard_meta[shard]["rows"]

    def decode_chunk(self, shard: int):
        """``(payload, resident_bytes)``: the mask-independent half of a scan.

        The payload is :func:`_decode_payload` of the shard file: kernel
        arrays that own their memory (no ``mmap`` reference) and do not
        depend on the mask, so the hot cache can keep it past this
        handle and serve any residual from it; :meth:`scan_decoded`
        turns it into a scan result.
        """
        self._span(shard)  # refuses a closed handle
        tags, lengths, offsets = self._record_table(shard)
        decoded = _decode_payload(
            self._bytes(shard), tags, lengths, offsets, self.n,
            self._shard_meta[shard]["file"],
        )
        return decoded, decoded["nbytes"]

    def scan_shard(
        self,
        shard: int,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """:meth:`scan_decoded` of a fresh :meth:`decode_chunk`: one uncached scan."""
        return self.scan_decoded(
            shard, self.decode_chunk(shard)[0], mask,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
        )

    # ------------------------------------------------------------------
    # The referee's decoder (every row read outside the scan)
    # ------------------------------------------------------------------
    def select_rows(self, ids) -> "tuple[np.ndarray, np.ndarray]":
        """Rows ``ids`` as CSR ``(elements, sizes)``, in ``ids`` order (referee).

        The ids are grouped by shard, and each needed row is decoded in
        numpy from the shard file by its codec tag: dense rows are their
        words off the map, the others go through :func:`_referee_decode`.
        It shares no codec decoding with :meth:`decode_chunk` or the scan
        kernels (only the byte gather of dense rows), so
        ``verify_solution`` checks the solvers independently.  A corrupt
        row raises :class:`ShardFormatError`; an id outside ``[0, m)``
        raises ``IndexError``.
        """
        ids, groups = self._shard_groups(ids)
        rows_of = []
        for shard, at, local in groups:
            tags, lengths, offsets = self._record_table(shard)
            for tag in (_TAG_DENSE, _TAG_SPARSE, _TAG_RLE):
                pick = np.flatnonzero(tags[local] == tag)
                if not pick.size:
                    continue
                rows = local[pick]
                if tag == _TAG_DENSE:
                    flat, sizes = _matrix_rows(self._dense_rows(shard, rows))
                else:
                    flat, sizes = _referee_decode(
                        tag, _ragged_gather(self._bytes(shard), offsets[rows],
                                            lengths[rows]),
                        lengths[rows], self.n, self._shard_meta[shard]["file"],
                    )
                rows_of.append((at[pick], flat, sizes))
        return _ordered_rows(ids.size, rows_of)

    def select_words(self, ids) -> "np.ndarray":
        """Rows ``ids`` as a packed ``(rows, words)`` ``uint64`` block, in
        ``ids`` order (referee).  Dense rows are their words off the map,
        refused like :meth:`decode_chunk` refuses bits beyond the ground
        set; the other rows pack :meth:`select_rows`."""
        ids, groups = self._shard_groups(ids)
        block = np.empty((ids.size, self.words), dtype=np.uint64)
        for shard, at, local in groups:
            dense = self._record_table(shard)[0][local] == _TAG_DENSE
            block[at[dense]] = self._dense_rows(shard, local[dense])
            if not dense.all():
                block[at[~dense]] = _csr_words(
                    *self.select_rows(ids[at[~dense]]), self.words
                )
        return block

    def _dense_rows(self, shard: int, rows: "np.ndarray") -> "np.ndarray":
        """Dense-tagged rows ``rows`` of ``shard`` as a ``(rows, words)``
        block off the map (:func:`_dense_block`)."""
        _, lengths, offsets = self._record_table(shard)
        return _dense_block(
            self._bytes(shard), offsets[rows], lengths[rows], self.n,
            self._shard_meta[shard]["file"],
        )

    def _shard_groups(self, ids):
        """``(ids, [(shard, positions, local rows), ...])``: row ids as an
        array, grouped by the shard that holds them."""
        if self._closed:
            raise ShardFormatError(f"repository {self.path} is closed")
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and not (0 <= ids.min() and ids.max() < self.m):
            raise IndexError(f"a row id outside [0, {self.m})")
        shard_of = np.searchsorted(self._starts, ids, side="right") - 1
        groups = []
        for shard in sorted(set(shard_of.tolist())):
            at = np.flatnonzero(shard_of == shard)
            groups.append((shard, at, ids[at] - self._starts[shard]))
        return ids, groups

    def __repr__(self) -> str:
        return (
            f"ShardedRepository(n={self.n}, m={self.m}, "
            f"shards={self.shard_count}, chunk_rows={self.chunk_rows}, "
            f"schema={self.schema!r})"
        )


# ----------------------------------------------------------------------
# The referee's row decoder (select_rows): numpy, sharing no codec
# decoding with the scan's bulk decoder
# ----------------------------------------------------------------------
def _referee_decode(tag: int, data, lengths, n: int, name: str):
    """Sparse-varint or run-length rows as CSR ``(elements, sizes)``.

    ``data`` is the rows' payload bytes back to back, ``lengths`` their
    byte counts.  Each LEB128 value is OR-ed together from its 7-bit
    groups.  A value cut off at its row's end, one longer than the
    ``⌈bit_length(n)/7⌉`` bytes a value below ``n`` needs (the scan's
    bound too), a value, element or run outside ``[0, n)``, a gap below
    1 or an odd run-length pair count raises :class:`ShardFormatError`.
    """
    def corrupt(detail: str):
        return ShardFormatError(f"corrupt shard {name}: {detail}")

    lengths = np.asarray(lengths, dtype=np.int64)
    row_end = np.cumsum(lengths)
    last = data < 0x80  # the last byte of a value
    if (~last[row_end[lengths > 0] - 1]).any():
        raise corrupt("truncated varint")
    first = np.flatnonzero(np.concatenate(([True], last[:-1])))[: int(last.sum())]
    place = np.arange(data.size, dtype=np.int64) - first[np.cumsum(last) - last]
    if place.size and int(place.max()) >= max(1, -(-n.bit_length() // 7)):
        raise corrupt(f"varint overflow (longer than any value below n={n})")
    bits = (data & 0x7F).astype(np.uint64) << (7 * place).astype(np.uint64)
    values = np.bitwise_or.reduceat(bits, first).astype(np.int64) if first.size \
        else np.zeros(0, dtype=np.int64)
    if values.size and int(values.max()) >= n:
        raise corrupt(f"value {int(values.max())} outside [0, {n})")
    ends = np.concatenate(([0], np.cumsum(last)))
    counts = ends[row_end] - ends[row_end - lengths]
    if tag == _TAG_SPARSE:
        heads = np.cumsum(counts) - counts
        gap = np.ones(values.size, dtype=bool)
        gap[heads[counts > 0]] = False
        if (values[gap] < 1).any():
            raise corrupt("non-increasing element gap")
        elements = _segment_cumsum(values, counts)
        if elements.size and int(elements.max()) >= n:
            raise corrupt(f"element {int(elements.max())} outside [0, {n})")
        return elements, counts
    if (counts % 2).any():
        raise corrupt("dangling run-length pair")
    pairs = counts // 2
    span = values[1::2] + 1
    run_end = _segment_cumsum(values[0::2] + span, pairs)
    if run_end.size and int(run_end.max()) > n:
        raise corrupt(f"run ending at {int(run_end.max())} outside [0, {n})")
    total = np.concatenate(([0], np.cumsum(span)))
    heads = np.cumsum(pairs) - pairs
    sizes = total[heads + pairs] - total[heads]
    return _ragged_positions(run_end - span, span), sizes


def _segment_cumsum(values: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """The running sum of ``values`` restarted at each of the segments
    of ``counts`` values."""
    total = np.concatenate(([0], np.cumsum(values)))
    heads = np.cumsum(counts) - counts
    return total[1:] - np.repeat(total[heads], counts)


def _ordered_rows(count: int, groups) -> "tuple[np.ndarray, np.ndarray]":
    """Join CSR groups ``(positions, flat, sizes)`` into one CSR whose row
    ``positions[i]`` is the group's row ``i``."""
    sizes = np.zeros(count, dtype=np.int64)
    for at, _, group_sizes in groups:
        sizes[at] = group_sizes
    offsets = np.cumsum(sizes) - sizes
    flat = np.empty(int(sizes.sum()), dtype=np.int64)
    for at, group_flat, group_sizes in groups:
        if group_flat.size:
            flat[_ragged_positions(offsets[at], group_sizes)] = group_flat
    return flat, sizes


# ----------------------------------------------------------------------
# The scan half: gains and captures from a decoded chunk
# ----------------------------------------------------------------------
def _gains_from_decoded(decoded: dict, mask: ScanMask) -> "np.ndarray":
    """Apply a residual mask to a :func:`_decode_payload` result.

    The mask-dependent half of the fused scan: three kernels
    (``membership_hits`` + bincount, ``range_gains``, and a popcount of
    the dense rows' intersection with the mask), so gains are
    bit-identical whether the arrays were decoded this call or served
    from the hot cache.  Returns ``(gains, hits, inter)``: ``hits`` flags
    the sparse elements inside the mask and ``inter`` is the dense rows'
    ``row ∩ mask`` block (each ``None`` without such rows), which the
    captures reuse.
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
    inter = None
    dense = decoded["dense"]
    if dense is not None:
        sel, matrix = dense
        inter = np.bitwise_and(matrix, mask.arr[None, :])
        gains[sel] = _popcount_rows(inter)
    return gains, hits, inter


def _captures_from_decoded(
    decoded: dict, gains, hits, inter, start: int, locals_: "list[int]",
    mask: ScanMask, words: int,
) -> Captures:
    """The record of ``row ∩ mask`` for the ``locals_`` rows of a decoded chunk.

    Built from the kernel arrays the gains came from, so a capture never
    re-reads or re-decodes the shard.  Each codec yields its rows' masked
    words as one ``(flat, bits)`` part, ``flat = slot · words + word``:
    sparse rows one bit per element the gains found in the mask
    (``hits``; a sparse row's gain counts them), OR-ed per word;
    run-length rows their runs word by word; dense rows their rows of
    ``inter``.  :meth:`Captures.from_words` lays the parts out by the
    byte rule, so a word-sparse record never touches a zeroed
    ``(rows, words)`` block.  When every captured row is dense, their
    rows of ``inter`` are already that block, taken as
    :func:`~repro.setsystem.packed.scan_chunk` takes it.
    """
    if not locals_:
        return Captures.empty(words)
    ids = [start + local for local in locals_]
    wanted = np.asarray(locals_, dtype=np.int64)
    dense = decoded["dense"]
    if dense is not None:
        dense_at, dense_counts = _row_segments(dense[0], wanted)
        if dense_counts.all():  # every captured row is dense: one block
            return Captures(ids, inter[dense_at], gains[wanted])
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
    if dense is not None:
        found = np.flatnonzero(dense_counts)
        flat = (found[:, None] * words + np.arange(words)).reshape(-1)
        parts.append((flat, inter[dense_at[found]].reshape(-1)))
    return Captures.from_words(ids, words, parts)


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
