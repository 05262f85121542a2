"""LSM-style delta shards: mutable repositories over ``repro.shards/v3``.

A shard repository (:mod:`repro.setsystem.shards`) is write-once — the
right durability model for the paper's static streams, and exactly wrong
for the ROADMAP's "millions of users mutating the catalog".  This module
makes a repository *mutable* without ever rewriting its base shards, the
classic LSM shape:

* the base directory stays byte-identical (its ``manifest.json`` CRC-32
  anchors the chain);
* every batch of mutations lands as one **delta generation** — a
  sub-directory ``deltas/00001/``, ``deltas/00002/``, ... holding
  *insert shards* (a full mini-repository written by
  :class:`~repro.setsystem.shards.ShardWriter`, so inserts inherit the
  row codecs, per-shard CRCs and checksummed v3 statistics for free)
  plus a chain manifest ``delta.json`` listing **tombstones**;
* a read opens the **merged view** (:class:`MergedShardView`): tombstones
  win, newer generations win, and the live rows present as a dense
  ``0..m_live-1`` family — base order first (minus tombstoned rows),
  then each generation's surviving inserts in append order.  That is
  precisely the order a from-scratch rewrite would produce, which makes
  **compaction** (:func:`compact`) bit-identical to
  :func:`~repro.setsystem.shards.write_shards` of the merged system:
  the churn-parity property suite (``tests/test_dynamic.py``) asserts
  file-for-file byte equality after arbitrary delta/compact
  interleavings.

Chain integrity (every check raises a typed
:class:`~repro.setsystem.shards.ShardFormatError`, never a silently
wrong family):

* generations must be consecutively numbered from ``00001`` — a gap
  means a lost directory;
* each ``delta.json`` records the CRC-32 of its *parent manifest bytes*
  (``manifest.json`` for generation 1, the previous ``delta.json``
  otherwise), so editing any earlier link severs the chain loudly;
* each ``delta.json`` carries its own canonical-JSON CRC-32, so a
  hand-edited tombstone list fails before it can hide the wrong row;
* tombstones must name rows that exist in the parent view and are still
  alive — a tombstone for a never-written (or doubly-deleted) row is a
  format error;
* insert shards get the full :class:`ShardedRepository` validation
  (schema, sizes, ``stats_crc32``, opt-in CRCs) because they *are* a
  repository.

Examples
--------
>>> import tempfile
>>> from repro.setsystem.set_system import SetSystem
>>> from repro.setsystem.shards import write_shards
>>> tmp = tempfile.TemporaryDirectory()
>>> root = write_shards(tmp.name + "/repo", SetSystem(4, [[0, 1], [2], [3]]))
>>> with DeltaShardWriter(root) as delta:
...     delta.delete(1)
...     _ = delta.append([1, 2])
>>> view = open_repository(root)
>>> [sorted(row) for row in view.iter_rows()]
[[0, 1], [3], [1, 2]]
>>> view.stable_ids
(0, 2, 3)
>>> view.close()
>>> compact(root) == root
True
>>> [sorted(row) for row in open_repository(root).iter_rows()]
[[0, 1], [3], [1, 2]]
>>> tmp.cleanup()
"""

from __future__ import annotations

import json
import shutil
import time
import zlib
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from operator import index
from pathlib import Path

import numpy as np

from repro.setsystem.durability import (
    COMPACT_INTENT_NAME,
    GenerationLease,
    RepositoryLock,
    complete_compaction,
    crashpoint,
    current_epoch,
    durable_write_text,
    fsync_dir,
    read_compact_intent,
    reclaim_retired,
    recover_compaction,
    StagingLock,
    staging_dir_for,
    staging_is_live,
    staging_lock_for,
    write_compact_intent,
)
from repro.setsystem.packed import Captures, ScanMask, pack_rows, scan_chunk
from repro.setsystem.set_system import SetSystem
from repro.setsystem.shards import (
    DEFAULT_CHUNK_BYTES,
    DELTA_MANIFEST_NAME,
    DELTAS_DIRNAME,
    MANIFEST_NAME,
    InterruptedCompactionError,
    PendingDeltaError,
    RepositoryBusyError,
    ShardedRepository,
    ShardFormatError,
    ShardWriter,
    StaleStagingError,
    _ChunkCodec,
    _LAYOUT_RAW,
    _TAG_DENSE,
    pending_delta_generations,
    write_shards,
)
from repro.utils.bitset import bits_of

__all__ = [
    "DELTA_SCHEMA",
    "DeltaShardWriter",
    "MergedShardView",
    "apply_delta",
    "chain_token",
    "compact",
    "open_repository",
]

#: Schema tag stamped into every ``delta.json`` chain manifest.
DELTA_SCHEMA = "repro.deltas/v1"


def _file_crc32(path: Path) -> int:
    return zlib.crc32(path.read_bytes())


def _chain_checksum(record: dict) -> int:
    """Canonical-JSON CRC-32 of a chain manifest (minus its own crc)."""
    body = {key: value for key, value in record.items() if key != "crc32"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("ascii"))


def _generation_name(generation: int) -> str:
    return f"{generation:05d}"


# ----------------------------------------------------------------------
# Writing one delta generation
# ----------------------------------------------------------------------
class DeltaShardWriter:
    """Append one delta generation (inserts + tombstones) to a repository.

    Opens the existing chain read-only to learn the geometry and the
    live row population, then accumulates mutations:

    * :meth:`append` adds a new set; it returns the set's **stable id**
      (base rows own ``0..m_base-1``, each generation's inserts continue
      the sequence) — the handle later generations use to delete it;
    * :meth:`delete` tombstones a stable id that is alive in the parent
      view.  Deleting a row this same generation inserted is rejected:
      a writer that changes its mind simply does not append the row.

    ``close`` publishes the generation with ``delta.json`` as its
    single commit point: insert shards and their ``manifest.json`` land
    and are fsynced first (via an inner
    :class:`~repro.setsystem.shards.ShardWriter`, so aborts clean up
    exactly like base writes), then ``delta.json`` is staged, fsynced
    and ``os.replace``-d into place.  A crash anywhere before that
    rename leaves a generation directory without ``delta.json``, which
    is invisible to :func:`pending_delta_generations` — the repository
    reads exactly as before the write — and which ``repro shard fsck``
    reports (and ``--repair`` removes) as an orphan generation.  A
    crash after the rename leaves the generation fully applied.  The
    writer holds the repository's advisory lock for its whole lifetime,
    so a concurrent writer or compactor fails loudly
    (:class:`~repro.setsystem.shards.RepositoryBusyError`) instead of
    interleaving with it.  As a context manager the writer closes on
    success and aborts on error, removing the partial generation
    directory.

    Parameters
    ----------
    root:
        The repository directory (base ``manifest.json`` must exist).
    chunk_rows / chunk_bytes:
        Insert-shard chunk geometry; defaults to the base repository's
        ``chunk_rows`` so merged chunk boundaries match a from-scratch
        rewrite.
    encoding:
        Row codec policy for insert shards; defaults to the base
        repository's policy.
    """

    def __init__(
        self,
        root: "str | Path",
        chunk_rows: "int | None" = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        encoding: "str | None" = None,
    ):
        self.root = Path(root)
        self._lock = RepositoryLock(self.root, purpose="delta-write")
        self._lock.acquire()
        try:
            base, generations = _load_chain(self.root)
            try:
                self.n = base.n
                self.generation = len(generations) + 1
                self._parent_rows = base.m + sum(
                    gen.inserts for gen in generations
                )
                self._dead = set()
                for gen in generations:
                    self._dead.update(gen.tombstones)
                if generations:
                    parent_manifest = generations[-1].path / DELTA_MANIFEST_NAME
                else:
                    parent_manifest = self.root / MANIFEST_NAME
                self._parent_crc32 = _file_crc32(parent_manifest)
                chunk_rows = (
                    chunk_rows if chunk_rows is not None else base.chunk_rows
                )
                encoding = encoding if encoding is not None else base.encoding
            finally:
                base.close()
                for gen in generations:
                    gen.repo.close()
            self.path = (
                self.root / DELTAS_DIRNAME / _generation_name(self.generation)
            )
            if self.path.exists():
                raise ShardFormatError(
                    f"{self.path} already exists; a crashed writer left a "
                    "partial generation — remove it (`repro shard fsck "
                    "--repair`) before writing a new delta"
                )
            self._writer = ShardWriter(
                self.path,
                self.n,
                chunk_rows=chunk_rows,
                chunk_bytes=chunk_bytes,
                encoding=encoding,
            )
        except BaseException:
            self._lock.release()
            raise
        self._tombstones: "set[int]" = set()
        self._closed = False
        self._aborted = False

    # ------------------------------------------------------------------
    @property
    def inserts(self) -> int:
        """Number of sets appended to this generation so far."""
        return self._writer.m

    @property
    def tombstones(self) -> "tuple[int, ...]":
        """Stable ids tombstoned by this generation (sorted)."""
        return tuple(sorted(self._tombstones))

    def append(self, elements: Iterable[int]) -> int:
        """Insert one set; returns its stable id in the chain."""
        if self._closed or self._aborted:
            raise ShardFormatError("delta writer is closed")
        self._writer.append(elements)
        return self._parent_rows + self._writer.m - 1

    def delete(self, set_id: int) -> None:
        """Tombstone one live stable id of the *parent* view."""
        if self._closed or self._aborted:
            raise ShardFormatError("delta writer is closed")
        set_id = index(set_id)
        if not 0 <= set_id < self._parent_rows:
            raise ValueError(
                f"cannot tombstone set {set_id}: the parent view holds rows "
                f"[0, {self._parent_rows}) — rows this generation inserts "
                "cannot be deleted by it"
            )
        if set_id in self._dead:
            raise ValueError(
                f"cannot tombstone set {set_id}: already deleted by an "
                "earlier generation"
            )
        if set_id in self._tombstones:
            raise ValueError(f"set {set_id} is already tombstoned here")
        self._tombstones.add(set_id)

    def close(self) -> Path:
        """Flush insert shards, write ``delta.json``, return the directory."""
        if self._aborted:
            raise ShardFormatError("delta writer was aborted; nothing to close")
        if self._closed:
            return self.path
        try:
            self._writer.close()
            # deltas/<gen>/ and its contents are durable; publishing
            # delta.json is the commit point that makes the generation
            # visible to pending_delta_generations.
            fsync_dir(self.path.parent)
            fsync_dir(self.root)
            crashpoint("delta.staged")
            record = {
                "schema": DELTA_SCHEMA,
                "generation": self.generation,
                "n": self.n,
                "parent_rows": self._parent_rows,
                "inserts": self._writer.m,
                "tombstones": sorted(self._tombstones),
                "parent_crc32": self._parent_crc32,
                "max_set_bits": self._max_set_bits(),
            }
            record["crc32"] = _chain_checksum(record)
            durable_write_text(
                self.path / DELTA_MANIFEST_NAME,
                json.dumps(record, indent=2) + "\n",
            )
        except BaseException:
            # A failed commit (ENOSPC mid-write, injected error) must not
            # leak the invisible partial generation or the advisory lock.
            self.abort()
            raise
        self._closed = True
        self._lock.release()
        return self.path

    def _max_set_bits(self) -> int:
        """Δ of the view this generation publishes, kept in ``delta.json``.

        The parent view's Δ stands unless a tombstone takes a row that
        wide; only then are the parent's live rows decoded.
        """
        base, generations = _load_chain(self.root)
        try:
            sources = [(0, base)] + [(g.parent_rows, g.repo) for g in generations]
            starts = [start for start, _ in sources]

            def size(stable_id: int) -> int:
                start, repo = sources[bisect_right(starts, stable_id) - 1]
                return repo.row_mask(stable_id - start).bit_count()

            widest = generations[-1].max_set_bits if generations else base.max_set_bits
            if any(size(t) >= widest for t in self._tombstones):
                dead = self._dead | self._tombstones
                widest = max((size(t) for t in range(self._parent_rows)
                              if t not in dead), default=0)
        finally:
            base.close()
            for gen in generations:
                gen.repo.close()
        with ShardedRepository(self.path) as inserts:
            return max(widest, inserts.max_set_bits)

    def abort(self) -> None:
        """Remove the partial generation directory (idempotent)."""
        if self._closed:
            return
        if self._aborted:
            return
        self._writer.abort()
        (self.path / DELTA_MANIFEST_NAME).unlink(missing_ok=True)
        shutil.rmtree(self.path, ignore_errors=True)
        deltas_dir = self.root / DELTAS_DIRNAME
        if deltas_dir.is_dir() and not any(deltas_dir.iterdir()):
            deltas_dir.rmdir()
        self._aborted = True
        self._lock.release()

    def __enter__(self) -> "DeltaShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# ----------------------------------------------------------------------
# Reading the chain back
# ----------------------------------------------------------------------
class _Generation:
    """One validated delta generation: its mini-repository + tombstones."""

    __slots__ = ("generation", "path", "repo", "tombstones", "parent_rows",
                 "inserts", "max_set_bits")

    def __init__(self, generation, path, repo, tombstones, parent_rows,
                 inserts, max_set_bits):
        self.generation = generation
        self.path = path
        self.repo = repo
        self.tombstones = tombstones
        self.parent_rows = parent_rows
        self.inserts = inserts
        self.max_set_bits = max_set_bits


def _load_chain(
    root: "str | Path", verify: bool = False
) -> "tuple[ShardedRepository, list[_Generation]]":
    """Open and fully validate a repository's delta chain.

    Returns ``(base, generations)`` with every repository open; the
    caller owns closing them.  Any structural problem raises
    :class:`~repro.setsystem.shards.ShardFormatError` (and closes
    whatever was already open).
    """
    root = Path(root)
    base = ShardedRepository(root, verify=verify, base_only=True)
    generations: "list[_Generation]" = []
    try:
        parent_manifest = root / MANIFEST_NAME
        parent_rows = base.m
        dead: "set[int]" = set()
        for position, gen_dir in enumerate(pending_delta_generations(root), 1):
            expected_name = _generation_name(position)
            if gen_dir.name != expected_name:
                raise ShardFormatError(
                    f"delta chain gap in {root}: expected generation "
                    f"{expected_name}, found {gen_dir.name} — a generation "
                    "directory is missing or misnamed"
                )
            manifest_path = gen_dir / DELTA_MANIFEST_NAME
            try:
                record = json.loads(manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise ShardFormatError(
                    f"unparseable {DELTA_MANIFEST_NAME} in {gen_dir}: {exc}"
                ) from exc
            if not isinstance(record, dict) or record.get("schema") != DELTA_SCHEMA:
                raise ShardFormatError(
                    f"{manifest_path} schema is "
                    f"{record.get('schema') if isinstance(record, dict) else record!r}, "
                    f"expected {DELTA_SCHEMA!r}"
                )
            if record.get("crc32") != _chain_checksum(record):
                raise ShardFormatError(
                    f"chain manifest checksum mismatch in {manifest_path}: "
                    "the tombstone list or metadata was edited after write"
                )
            try:
                generation = int(record["generation"])
                n = int(record["n"])
                recorded_parent_rows = int(record["parent_rows"])
                inserts = int(record["inserts"])
                tombstones = [index(t) for t in record["tombstones"]]
                parent_crc32 = int(record["parent_crc32"])
                max_set_bits = index(record["max_set_bits"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ShardFormatError(
                    f"malformed {DELTA_MANIFEST_NAME} in {gen_dir}: {exc}"
                ) from exc
            if generation != position:
                raise ShardFormatError(
                    f"delta chain gap in {root}: {manifest_path} says "
                    f"generation {generation}, position implies {position}"
                )
            if n != base.n:
                raise ShardFormatError(
                    f"generation {generation} has n={n}, base has n={base.n}"
                )
            if not 0 <= max_set_bits <= n:
                raise ShardFormatError(
                    f"generation {generation} records max_set_bits="
                    f"{max_set_bits}, outside [0, n={n}]", "stats-max-set",
                )
            if recorded_parent_rows != parent_rows:
                raise ShardFormatError(
                    f"generation {generation} expects {recorded_parent_rows} "
                    f"parent rows, the chain provides {parent_rows} — "
                    "a generation was rewritten or reordered"
                )
            actual_parent_crc = _file_crc32(parent_manifest)
            if parent_crc32 != actual_parent_crc:
                raise ShardFormatError(
                    f"delta chain severed at generation {generation}: "
                    f"{parent_manifest.name} has CRC-32 {actual_parent_crc}, "
                    f"the chain manifest recorded {parent_crc32} — the "
                    "parent manifest was rewritten after this delta"
                )
            for tomb in tombstones:
                if not 0 <= tomb < parent_rows:
                    raise ShardFormatError(
                        f"generation {generation} tombstones row {tomb}, "
                        f"which was never written (parent rows are "
                        f"[0, {parent_rows}))"
                    )
                if tomb in dead:
                    raise ShardFormatError(
                        f"generation {generation} tombstones row {tomb}, "
                        "which an earlier generation already deleted"
                    )
            repo = ShardedRepository(gen_dir, verify=verify)
            if repo.n != base.n or repo.m != inserts:
                repo.close()
                raise ShardFormatError(
                    f"generation {generation} insert shards hold "
                    f"(n={repo.n}, m={repo.m}); {DELTA_MANIFEST_NAME} "
                    f"promises (n={base.n}, m={inserts})"
                )
            generations.append(
                _Generation(
                    generation, gen_dir, repo, frozenset(tombstones),
                    parent_rows, inserts, max_set_bits,
                )
            )
            dead.update(tombstones)
            parent_rows += inserts
            parent_manifest = manifest_path
    except BaseException:
        base.close()
        for gen in generations:
            gen.repo.close()
        raise
    return base, generations


class MergedShardView:
    """The merged read view over a base repository and its delta chain.

    Presents the live family as a dense ``0..m-1`` repository with the
    exact scan interface of
    :class:`~repro.setsystem.shards.ShardedRepository` — chunk iteration,
    fused ``scan_shard``, shard cost estimates, random-access
    ``row_mask`` — so :class:`~repro.streaming.sharded.ShardedSetStream`
    and the serial :class:`~repro.engine.transport.base.ScanExecutor`
    run on it unchanged, at any encoding.  (The *remote* transport is
    the one exclusion: its workers hold no chain state, so streams
    refuse it until compaction.)

    Merge semantics: a row is live iff no generation tombstoned its
    stable id; live rows appear in base order first, then each
    generation's surviving inserts in append order — the same order
    :func:`compact` writes, so view row ``i`` *is* compacted row ``i``.
    Chunk geometry follows the base ``chunk_rows``, which makes chunk
    boundaries — and therefore per-chunk stats, cost estimates and
    capture accounting — identical to the compacted rewrite too.

    The view also predicts, per merged chunk, the v3 statistics block a
    from-scratch rewrite would record (:meth:`shard_stats`), by running
    the writer's own codec chooser over the live rows; the churn-parity
    suite asserts block-for-block equality against real rebuilds.
    """

    def __init__(self, path: "str | Path", verify: bool = False):
        self.path = Path(path)
        base, generations = _load_chain(self.path, verify=verify)
        self.base = base
        self.generations = generations
        self.n = base.n
        self.words = base.words
        self.chunk_rows = base.chunk_rows
        self.encoding = base.encoding
        self.schema = DELTA_SCHEMA
        dead: "set[int]" = set()
        for gen in generations:
            dead.update(gen.tombstones)
        self.tombstoned = len(dead)
        # Dense merged id -> (source repository, local row, stable id).
        sources: "list[tuple[ShardedRepository, int]]" = []
        stable: "list[int]" = []
        for local in range(base.m):
            if local not in dead:
                sources.append((base, local))
                stable.append(local)
        offset = base.m
        for gen in generations:
            for local in range(gen.inserts):
                if offset + local not in dead:
                    sources.append((gen.repo, local))
                    stable.append(offset + local)
            offset += gen.inserts
        self._sources = sources
        self._stable = tuple(stable)
        self.m = len(sources)
        self.total_rows = offset
        self._stats_cache: "dict[int, dict]" = {}
        self._cost_cache: "dict[tuple[int, int], object]" = {}
        self._cost_estimates: "list[int] | None" = None
        self._closed = False
        #: Content token of the base manifest bytes this view was built
        #: from — the swing detector :func:`open_repository` rechecks.
        self.token = base.token
        if verify:
            self.check_rows()

    # -- geometry ------------------------------------------------------
    @property
    def pending_deltas(self) -> int:
        """Number of delta generations merged into this view."""
        return len(self.generations)

    @property
    def stable_ids(self) -> "tuple[int, ...]":
        """Stable chain id of each dense merged row, in view order."""
        return self._stable

    @property
    def shard_count(self) -> int:
        """Merged chunks, sliced at the base ``chunk_rows`` geometry."""
        if self.m == 0:
            return 0
        return (self.m + self.chunk_rows - 1) // self.chunk_rows

    @property
    def chunk_words(self) -> int:
        """Resident words of one decoded merged chunk (DESIGN.md §3.6)."""
        return min(self.chunk_rows, max(self.m, 1)) * self.words

    @property
    def repository_words(self) -> int:
        """Total live packed words (``m * ceil(n/64)``) — *not* resident."""
        return self.m * self.words

    @property
    def disk_bytes(self) -> int:
        """Bytes across base and delta shard files (dead rows included)."""
        return self.base.disk_bytes + sum(
            gen.repo.disk_bytes for gen in self.generations
        )

    @property
    def cache_token(self):
        """Identity token for worker-side re-open caches.

        Covers the base manifest *and* every chain manifest, so a worker
        that cached the view before another generation landed re-opens
        instead of scanning a stale merge.
        """
        parts = [_stat_token(self.path / MANIFEST_NAME)]
        for gen in self.generations:
            parts.append(_stat_token(gen.path / DELTA_MANIFEST_NAME))
        return tuple(parts)

    def _bounds(self, shard: int) -> "tuple[int, int]":
        if not 0 <= shard < self.shard_count:
            raise IndexError(
                f"chunk {shard} outside [0, {self.shard_count})"
            )
        start = shard * self.chunk_rows
        return start, min(start + self.chunk_rows, self.m)

    # -- row access ----------------------------------------------------
    def row_mask(self, i: int) -> int:
        """Random-access read of live row ``i`` as an integer bitmask."""
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        if not 0 <= i < self.m:
            raise IndexError(f"row {i} outside [0, {self.m})")
        repo, local = self._sources[i]
        return repo.row_mask(local)

    def chunk_masks(self, shard: int) -> "list[int]":
        """One merged chunk's rows as integer bitmasks."""
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        start, end = self._bounds(shard)
        return [
            repo.row_mask(local) for repo, local in self._sources[start:end]
        ]

    def chunk_matrix(self, shard: int) -> "np.ndarray":
        """One merged chunk as a ``(rows, words)`` ``uint64`` matrix."""
        return pack_rows(self.chunk_masks(shard), self.words)

    def iter_chunk_matrices(self) -> "Iterator[tuple[int, np.ndarray]]":
        """Yield ``(start_row, matrix)`` per merged chunk."""
        for shard in range(self.shard_count):
            yield shard * self.chunk_rows, self.chunk_matrix(shard)

    def iter_row_masks(self) -> "Iterator[int]":
        """Yield every live row as an integer bitmask, in merged order."""
        for shard in range(self.shard_count):
            yield from self.chunk_masks(shard)

    def iter_rows(self) -> "Iterator[frozenset[int]]":
        """Yield every live row as a frozenset of element ids."""
        for mask in self.iter_row_masks():
            yield frozenset(bits_of(mask))

    def to_system(self) -> SetSystem:
        """Materialize the merged family (referee/testing convenience)."""
        return SetSystem(self.n, [bits_of(mask) for mask in self.iter_row_masks()])

    # -- planner statistics -------------------------------------------
    def compute_shard_stats(self, shard: int) -> dict:
        """The v3 stats block a compacted rewrite would record for a chunk."""
        cached = self._stats_cache.get(shard)
        if cached is not None:
            return cached
        matrix = self.chunk_matrix(shard)
        stats = _ChunkCodec.of_matrix(matrix, self.n, self.encoding).stats()
        self._stats_cache[shard] = stats
        return stats

    def shard_stats(self) -> "list[dict]":
        """Per-merged-chunk stats blocks (computed lazily, cached)."""
        return [self.compute_shard_stats(s) for s in range(self.shard_count)]

    @property
    def max_set_bits(self) -> int:
        """The largest live set ``Δ``: the last ``delta.json`` records it (no pass)."""
        if self.generations:
            return self.generations[-1].max_set_bits
        return self.base.max_set_bits

    def check_rows(self) -> None:
        """Decode every live row (``verify=True``, deep fsck); a recorded
        ``max_set_bits`` the rows contradict raises ``stats-max-set``."""
        widest = max((row.bit_count() for row in self.iter_row_masks()), default=0)
        if widest != self.max_set_bits:
            raise ShardFormatError(
                f"the delta chain of {self.path} records max_set_bits="
                f"{self.max_set_bits}, but its widest live row has {widest} "
                "elements", "stats-max-set",
            )

    def _row_cost_table(self, repo: ShardedRepository, shard: int):
        """Exact §8.2 per-row scan costs of one *source* shard, no decode.

        A dense-stored row costs ``2 + words``; a sparse or run-length
        row costs ``2 + varint_count(payload)`` (a sparse row's varints
        *are* its elements; a run-length row charges two units per run
        and stores two varints per run).  Tags come from the record
        table (:meth:`ShardedRepository._encoded_header`) and varint
        counts from one vectorized continuation-bit scan of the payload
        — never the fused row decode the old estimator paid per chunk.
        """
        key = (id(repo), shard)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        words = max(1, repo.words)
        rows = int(repo._shard_meta[shard]["rows"])
        if repo._layouts[shard] == _LAYOUT_RAW:
            table = np.full(rows, 2 + words, dtype=np.int64)
        else:
            tags, lengths, offsets = repo._encoded_header(shard)
            payload = np.frombuffer(repo._maps[shard], dtype=np.uint8)
            prefix = np.concatenate(
                ([0], np.cumsum(payload < 0x80, dtype=np.int64))
            )
            varints = prefix[offsets + lengths] - prefix[offsets]
            table = np.where(tags == _TAG_DENSE, 2 + words, 2 + varints)
        self._cost_cache[key] = table
        return table

    def shard_cost_estimates(self) -> "list[int]":
        """Planner scan costs per merged chunk — the v3 cost model.

        Delta-aware: each merged chunk sums the **exact** per-row costs
        of its *live* rows, read off the source shards' record tables
        (:meth:`_row_cost_table`), so tombstoned rows price at zero and
        :func:`~repro.engine.plan.plan_batches` stops over-weighting
        churned repositories.  Because codec choice is a pure function
        of row content, a live row costs the same in its source shard
        as in a compacted rewrite — under a consistent encoding policy
        these estimates equal the rebuild's exactly (the churn-parity
        suite asserts it) — and unlike the old estimator nothing here
        decodes a row: planning a merged scan is header tables plus one
        byte scan per touched source shard.
        """
        if self._cost_estimates is not None:
            return list(self._cost_estimates)
        costs: "list[int]" = []
        for shard in range(self.shard_count):
            start, end = self._bounds(shard)
            total = 0
            for repo, local in self._sources[start:end]:
                src_shard, row = divmod(local, repo.chunk_rows)
                total += int(self._row_cost_table(repo, src_shard)[row])
            costs.append(max(1, total))
        self._cost_estimates = costs
        return list(costs)

    # -- scanning ------------------------------------------------------
    def scan_shard(
        self,
        shard: int,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """Gains + captures for one merged chunk against a residual.

        Same contract as :meth:`ShardedRepository.scan_shard
        <repro.setsystem.shards.ShardedRepository.scan_shard>`; chunk
        boundaries match the compacted rewrite, so gains vectors,
        captures and capture accounting are bit-identical to scanning
        the compacted repository.
        """
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        start, end = self._bounds(shard)
        rows = end - start
        if mask.is_empty:
            return start, np.zeros(rows, dtype=np.int64), Captures.empty(self.words)
        gains, captured = scan_chunk(
            start, self.chunk_matrix(shard), mask,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
        )
        return start, gains, captured

    # -- hot-cache hooks (repro.engine.cache) --------------------------
    def decode_chunk(self, shard: int):
        """``(payload, resident_bytes)`` for the cross-pass hot cache.

        The merged chunk is materialized once as a matrix so repeat
        passes skip the row-by-row source gather entirely.  Keyed by
        :attr:`cache_token`, which covers every chain manifest — any
        ``apply-delta`` or compaction changes the token, so a cached
        merge can never be served stale.
        """
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        matrix = self.chunk_matrix(shard)
        return ("matrix", matrix), matrix.nbytes

    def scan_decoded(
        self,
        shard: int,
        payload,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """:meth:`scan_shard` over a :meth:`decode_chunk` payload."""
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        start, end = self._bounds(shard)
        rows = end - start
        if mask.is_empty:
            return start, np.zeros(rows, dtype=np.int64), Captures.empty(self.words)
        _, data = payload
        gains, captured = scan_chunk(
            start, data, mask,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
        )
        return start, gains, captured

    # -- lifecycle -----------------------------------------------------
    def validate(self) -> None:
        """CRC-verify the base repository and every generation (full read)."""
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        self.base.validate()
        for gen in self.generations:
            gen.repo.validate()

    def close(self) -> None:
        """Release the base and every generation repository (idempotent).

        Also releases the generation lease :func:`open_repository`
        attached (if any) and opportunistically reclaims retired
        generations the drained lease was the last to cover.
        """
        self.base.close()
        for gen in self.generations:
            gen.repo.close()
        self._closed = True
        lease = getattr(self, "_lease", None)
        if lease is not None:
            self._lease = None
            lease.release()
            try:
                reclaim_retired(self.path)
            except OSError:  # pragma: no cover - reclaim is best-effort
                pass

    def __enter__(self) -> "MergedShardView":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MergedShardView(n={self.n}, m={self.m}, "
            f"generations={self.pending_deltas}, "
            f"tombstoned={self.tombstoned}, chunk_rows={self.chunk_rows})"
        )


def _stat_token(path: Path):
    stat = path.stat()
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def open_repository(
    path: "str | Path", verify: bool = False
) -> "ShardedRepository | MergedShardView":
    """Open a shard directory, merged when delta generations are pending.

    The one choke point every reader goes through — streams and the
    CLI — so a repository with
    pending deltas is *always* the merged family and a clean repository
    opens exactly as before (same :class:`ShardedRepository`, same
    bytes untouched).

    A repository whose in-place compaction was interrupted (it holds a
    ``compact.intent`` journal) is recovered here first: the journal is
    written only once the staged rewrite is complete, so recovery rolls
    the compaction **forward**
    (:func:`repro.setsystem.durability.recover_compaction`) and the
    open proceeds on the post-compaction repository.

    Two live-repository guarantees (DESIGN.md §13) are implemented here:

    * **Generation lease** — before the manifest is read, the reader
      registers a :class:`~repro.setsystem.durability.GenerationLease`
      at the current epoch, so an online compaction that supersedes this
      generation parks the old files (``<root>.retired/<epoch>``)
      instead of deleting them until this handle closes.  The lease is
      attached to the returned handle and released by its ``close()``.
    * **Swing detection** — an online compaction's critical section is
      bracketed by the intent journal (written before the first rename,
      unlinked after the last), and the manifest is swapped *after*
      every data file.  So after constructing the handle the open
      re-reads the manifest bytes and checks no intent is present: if
      either check fails, a swing overlapped the open and the handle is
      torn down and retried — the retry lands on a fully-swung,
      consistent family.  A compactor holding the lock mid-swing
      surfaces as a short retry too, so readers never crash on a
      healthy concurrent compaction.
    """
    root = Path(path)
    last_error: "Exception | None" = None
    for attempt in range(60):
        if attempt:
            time.sleep(0.01)
        try:
            recover_compaction(root)
        except RepositoryBusyError as exc:
            last_error = exc  # a live compactor is mid-swing; wait it out
            continue
        lease = GenerationLease(root).acquire() if root.is_dir() else None
        try:
            if pending_delta_generations(root):
                view = MergedShardView(root, verify=verify)
            else:
                view = ShardedRepository(root, verify=verify)
        except (InterruptedCompactionError, PendingDeltaError) as exc:
            # An intent or a fresh delta generation appeared between the
            # recovery pass and the construction: state moved under us,
            # re-resolve from the top.
            if lease is not None:
                lease.release()
            last_error = exc
            continue
        except (ShardFormatError, OSError) as exc:
            if lease is not None:
                lease.release()
            if (root / COMPACT_INTENT_NAME).is_file():
                # Mid-swing: files are a transient old/new mix that the
                # intent journal will resolve.  Not corruption — retry.
                last_error = exc
                continue
            raise
        # Seqlock-style validation: if an online swing overlapped the
        # construction, either its intent is still present or it already
        # swapped the manifest (data files move first, manifest last,
        # intent unlinked after that) — both detectable here.
        try:
            raw = (root / MANIFEST_NAME).read_bytes()
        except OSError:
            raw = b""
        if (
            [len(raw), zlib.crc32(raw)] != view.token
            or (root / COMPACT_INTENT_NAME).is_file()
        ):
            view.close()
            if lease is not None:
                lease.release()
            last_error = None
            continue
        view._lease = lease
        return view
    raise last_error or RepositoryBusyError(
        f"{root} kept swinging under concurrent compactions; retry"
    )


def chain_token(path: "str | Path") -> "list[list[int]]":
    """Content-keyed identity of a repository's manifest chain.

    ``[[size, crc32], ...]`` over the base ``manifest.json`` and every
    generation's ``delta.json``, in chain order — the durable sibling
    of :attr:`MergedShardView.cache_token`: that one is cheap but keyed
    to inodes and mtimes, so it changes across restarts and copies;
    this one is pure content, so a
    :meth:`~repro.dynamic.cover.DynamicCover.checkpoint` stamped with
    it can tell "same family, new process" from "the chain moved
    underneath me" (every mutation rewrites or appends a manifest, and
    each ``delta.json`` CRC-anchors its parent's bytes).
    """
    root = Path(path)
    parts: "list[list[int]]" = []
    for manifest in [root / MANIFEST_NAME] + [
        gen_dir / DELTA_MANIFEST_NAME
        for gen_dir in pending_delta_generations(root)
    ]:
        data = manifest.read_bytes()
        parts.append([len(data), zlib.crc32(data)])
    return parts


# ----------------------------------------------------------------------
# Batch mutation + compaction
# ----------------------------------------------------------------------
def _refuse_stale_staging(
    root: Path, force: bool, operation: str, live_ok: bool = False
) -> None:
    """Refuse (or, with ``force``, discard) a stale staging directory.

    A staging directory whose :class:`StagingLock` is currently held
    belongs to a *live* online compactor, not a crashed one: callers
    that can safely proceed alongside it (``apply_delta`` — the
    compactor will notice the chain moved and restage) pass
    ``live_ok=True``; everyone else gets :class:`RepositoryBusyError`
    instead of a destructive ``force`` discard.
    """
    staging = staging_dir_for(root)
    if not staging.exists():
        return
    if staging_is_live(root):
        if live_ok:
            return
        raise RepositoryBusyError(
            f"cannot {operation} {root}: an online compaction is staging "
            f"({staging.name} is live); retry when it finishes"
        )
    if not force:
        raise StaleStagingError(
            f"cannot {operation} {root}: stale staging directory "
            f"{staging.name} is present (a previous compaction crashed "
            "before its commit point; the repository itself is intact). "
            "Pass force=True / `--force`, or run `repro shard fsck "
            "--repair`, to discard it."
        )
    shutil.rmtree(staging)
    try:
        staging_lock_for(root).unlink()
    except OSError:
        pass


def apply_delta(
    root: "str | Path",
    ops: "Iterable[dict]",
    chunk_rows: "int | None" = None,
    encoding: "str | None" = None,
    force: bool = False,
) -> dict:
    """Apply one batch of mutation ops as a single new delta generation.

    ``ops`` is an iterable of plain dicts — the churn-script format the
    workload generators emit and ``repro shard apply-delta`` reads:
    ``{"op": "insert", "elements": [...]}`` appends a set,
    ``{"op": "delete", "id": k}`` tombstones stable id ``k``.  Returns a
    summary: ``{"generation", "inserts", "tombstones", "live_rows",
    "first_insert_id"}`` (the stable id of the batch's first insert, so
    maintenance layers can mirror new rows without re-reading the chain).

    An interrupted compaction is rolled forward first; a stale staging
    directory (pre-commit-point crash debris) is refused
    (:class:`~repro.setsystem.shards.StaleStagingError`) unless
    ``force=True`` discards it.
    """
    root = Path(root)
    recover_compaction(root)
    _refuse_stale_staging(root, force, "apply a delta to", live_ok=True)
    inserted = 0
    with DeltaShardWriter(
        root, chunk_rows=chunk_rows, encoding=encoding
    ) as writer:
        first_insert_id = writer._parent_rows
        for op in ops:
            kind = op.get("op")
            if kind == "insert":
                writer.append(op["elements"])
                inserted += 1
            elif kind == "delete":
                writer.delete(op["id"])
            else:
                raise ValueError(
                    f"unknown churn op {kind!r}; expected 'insert' or 'delete'"
                )
        tombstones = len(writer.tombstones)
        generation = writer.generation
        live = writer._parent_rows - len(writer._dead) - tombstones + inserted
    return {
        "generation": generation,
        "inserts": inserted,
        "tombstones": tombstones,
        "live_rows": live,
        "first_insert_id": first_insert_id,
    }


def compact(
    root: "str | Path",
    output: "str | Path | None" = None,
    chunk_rows: "int | None" = None,
    encoding: "str | None" = None,
    force: bool = False,
    online: bool = False,
) -> Path:
    """Rewrite a repository's merged view as a clean single generation.

    The rewrite goes through :class:`~repro.setsystem.shards.ShardWriter`
    over the merged rows in view order, with the base chunk geometry and
    codec policy (unless overridden) — i.e. it *is* a from-scratch write
    of the merged system, so the output is bit-identical to
    :func:`~repro.setsystem.shards.write_shards` of
    ``MergedShardView.to_system()`` (asserted file-for-file by the
    churn-parity suite).

    With ``output`` the compacted repository lands in a new directory
    and ``root`` is untouched.  In place (the default), the rewrite is
    **intent-journaled** (DESIGN.md §12): the new generation is staged
    in a sibling ``<root>.compact-tmp`` directory and fsynced, a
    checksummed ``compact.intent`` journal is durably published in the
    root *before* any destructive step, and only then are the staged
    files moved in (``os.replace``, the manifest last), the old shards
    and the ``deltas/`` chain removed, and the journal unlinked.  The
    journal is the commit point: a crash before it leaves the old chain
    intact (plus staging debris ``fsck --repair`` discards); a crash
    after it is rolled forward to the new repository by the next
    :func:`open_repository` (or ``fsck --repair``) — so the repository
    is always exactly the old chain or the new base, never unopenable
    and never a half-merged hybrid.  The whole in-place rewrite runs
    under the repository's advisory lock, so concurrent writers or
    compactors fail loudly
    (:class:`~repro.setsystem.shards.RepositoryBusyError`).

    A stale staging directory from a *pre*-commit-point crash is
    refused (:class:`~repro.setsystem.shards.StaleStagingError`) unless
    ``force=True`` discards it.

    A repository with no pending deltas compacts to itself: in place it
    is returned unchanged (byte-identical), with ``output`` it is
    rewritten from its rows (still bit-identical for repositories this
    code wrote, since writes are deterministic).

    ``online=True`` (in place only) stages the fold **without holding
    the lock** — readers and ``apply_delta`` keep working against the
    live chain the whole time — then takes the lock only for the short
    *swing* critical section (intent journal + renames).  The superseded
    generation's files are parked under ``<root>.retired/<epoch>``
    rather than deleted, and reclaimed only once the last generation
    lease on that epoch drains (DESIGN.md §13).  A delta that lands
    while staging is in progress is detected under the lock (the chain
    token moved) and the fold restages; a concurrent mutator holding
    the lock at swing time surfaces as
    :class:`~repro.setsystem.shards.RepositoryBusyError` — the
    maintenance loop's cue to back off and retry, never a crash.
    """
    root = Path(root)
    if online:
        if output is not None:
            raise ValueError(
                "compact(online=True) is in-place only; side-output "
                "compaction never blocks readers in the first place"
            )
        return _compact_online(root, chunk_rows, encoding, force)
    recover_compaction(root)
    _refuse_stale_staging(root, force, "compact")
    if output is not None:
        with open_repository(root) as view:
            rows = (bits_of(mask) for mask in view.iter_row_masks())
            return write_shards(
                output, rows, n=view.n,
                chunk_rows=(
                    chunk_rows if chunk_rows is not None else view.chunk_rows
                ),
                encoding=encoding if encoding is not None else view.encoding,
            )
    with RepositoryLock(root, purpose="compact"):
        # Re-check under the lock: another compactor may have journaled
        # (and died) between our recovery pass and the acquire.
        intent = read_compact_intent(root)
        if intent is not None:
            complete_compaction(root, intent)
        staging = staging_dir_for(root)
        view = open_repository(root)
        with view:
            if isinstance(view, ShardedRepository):
                return root  # already a clean single generation
            crashpoint("compact.begin")
            rows = (bits_of(mask) for mask in view.iter_row_masks())
            write_shards(
                staging, rows, n=view.n,
                chunk_rows=(
                    chunk_rows if chunk_rows is not None else view.chunk_rows
                ),
                encoding=encoding if encoding is not None else view.encoding,
            )
            old_files = [str(meta["file"]) for meta in view.base._shard_meta]
        old_files.append(MANIFEST_NAME)
        fsync_dir(root.parent)  # the staging directory's own entry
        staged_files = [item.name for item in staging.iterdir()]
        crashpoint("compact.staged")
        # Commit point: the journal is durable before any destruction,
        # so recovery from here on always rolls forward.
        write_compact_intent(root, staged_files, old_files)
        crashpoint("compact.intent")
        complete_compaction(root, read_compact_intent(root))
    return root


def _compact_online(
    root: Path,
    chunk_rows: "int | None",
    encoding: "str | None",
    force: bool,
) -> Path:
    """Stage off to the side, swing under the lock, retire under leases.

    The restage loop is the availability/consistency trade: staging runs
    lock-free, so a delta generation may land mid-fold.  The chain token
    captured before staging is re-checked *under the lock* right before
    the intent journal is written; a moved token discards the staging
    and refolds the (now longer) chain.  The loop terminates in practice
    because each restage folds everything the previous one saw; a
    pathological writer that outruns five folds surfaces as
    :class:`~repro.setsystem.shards.RepositoryBusyError` for the
    maintenance loop to back off on.
    """
    recover_compaction(root)
    _refuse_stale_staging(root, force, "compact")
    staging = staging_dir_for(root)
    marker = StagingLock(root).acquire()
    try:
        for _ in range(5):
            token_before = chain_token(root) if root.is_dir() else None
            view = open_repository(root)
            with view:
                if isinstance(view, ShardedRepository):
                    return root  # already a clean single generation
                if staging.exists():
                    shutil.rmtree(staging)  # our own superseded attempt
                rows = (bits_of(mask) for mask in view.iter_row_masks())
                write_shards(
                    staging, rows, n=view.n,
                    chunk_rows=(
                        chunk_rows
                        if chunk_rows is not None
                        else view.chunk_rows
                    ),
                    encoding=(
                        encoding if encoding is not None else view.encoding
                    ),
                )
                old_files = [
                    str(meta["file"]) for meta in view.base._shard_meta
                ]
            old_files.append(MANIFEST_NAME)
            fsync_dir(root.parent)  # the staging directory's own entry
            staged_files = [item.name for item in staging.iterdir()]
            crashpoint("compact.online-staged")
            lock = RepositoryLock(root, purpose="compact")
            try:
                lock.acquire()
            except RepositoryBusyError:
                # Contention is a first-class outcome, not a crash: drop
                # our staging (it may be stale by the time the lock
                # frees) and let the caller back off and retry.
                shutil.rmtree(staging, ignore_errors=True)
                raise
            try:
                intent = read_compact_intent(root)
                if intent is not None:
                    # A crashed compactor journaled between our recovery
                    # pass and the acquire: its staged rewrite wins.
                    # Roll it forward, discard ours, refold what's left.
                    complete_compaction(root, intent)
                    shutil.rmtree(staging, ignore_errors=True)
                    continue
                if chain_token(root) != token_before:
                    # A delta landed while we staged: the fold is stale.
                    shutil.rmtree(staging, ignore_errors=True)
                    continue
                epoch = current_epoch(root)
                write_compact_intent(
                    root, staged_files, old_files, epoch=epoch
                )
                crashpoint("compact.swing")
                complete_compaction(root, read_compact_intent(root))
            finally:
                lock.release()
            reclaim_retired(root)
            return root
        raise RepositoryBusyError(
            f"online compaction of {root} was outrun by concurrent deltas "
            "5 times; retry when the churn quiets down"
        )
    finally:
        marker.release()
