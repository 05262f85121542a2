"""LSM-style delta shards: mutable repositories over ``repro.shards/v5``.

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
  row codecs, per-shard CRCs and checksummed statistics for free)
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
* each ``delta.json`` records the view's largest set ``max_set_bits``,
  exactly what a compacted rewrite of the view records; the certified
  lower bound is not recorded for a chain, and the merged view recounts
  it from its live rows the first time it is asked
  (:attr:`MergedShardView.dual_bound`);
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
from collections.abc import Iterable
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
    _exact_int,
)
from repro.setsystem.set_system import dual_lower_bound, element_widest
from repro.setsystem.shards import (
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
    _csr_lists,
    _decode_payload,
    _ordered_rows,
    _parse_record_table,
    _RepositoryReads,
    pending_delta_generations,
    write_shards,
)

__all__ = [
    "DELTA_SCHEMA",
    "DeltaShardWriter",
    "MergedShardView",
    "apply_delta",
    "chain_token",
    "compact",
    "open_repository",
    "read_delta_manifest",
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

    Insert shards take the base repository's ``chunk_rows``, so merged
    chunk boundaries match a from-scratch rewrite.
    """

    def __init__(self, root: "str | Path"):
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
                chunk_rows = base.chunk_rows
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
            self._writer = ShardWriter(self.path, self.n, chunk_rows=chunk_rows)
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
        wide: the tombstoned rows are one ``select_rows``, and only when
        the widest dies are the parent's rows walked.
        """
        with MergedShardView(self.root) as parent:
            widest = parent.max_set_bits
            dead = np.searchsorted(parent.stable_ids, self.tombstones)
            if dead.size and int(parent.select_rows(dead)[1].max()) >= widest:
                sizes = np.concatenate(
                    [sizes for _, sizes in parent.iter_chunk_rows()]
                )
                sizes[dead] = 0
                widest = int(sizes.max())
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

    __slots__ = ("path", "repo", "tombstones", "parent_rows", "inserts",
                 "max_set_bits")

    def __init__(self, path: Path, repo: ShardedRepository, record: dict):
        self.path = path
        self.repo = repo
        self.tombstones = frozenset(record["tombstones"])
        self.parent_rows = record["parent_rows"]
        self.inserts = record["inserts"]
        self.max_set_bits = record["max_set_bits"]


#: ``delta.json`` fields that must be exact JSON integers ``>= 0``.
_RECORD_INTS = (
    "generation", "n", "parent_rows", "inserts", "parent_crc32", "max_set_bits",
)


def read_delta_manifest(
    root: "str | Path", n: int, m: int
) -> "list[tuple[Path, dict]]":
    """Parse and validate every ``delta.json`` of a chain; return
    ``(generation directory, record)`` pairs, in chain order.

    The one reader of the chain manifests: the open (:func:`_load_chain`),
    :func:`~repro.setsystem.durability.fsck_repository` and
    :func:`~repro.setsystem.maintenance.repository_pressure` all call it
    with the base's ``n`` and ``m``.  Each record must sit in the
    directory its position names, parse, carry :data:`DELTA_SCHEMA` and
    its own CRC-32, hold every field of :data:`_RECORD_INTS` as an exact
    JSON integer ``>= 0`` and ``tombstones`` as a list of them, record
    its position as its generation, the base ``n``, a ``max_set_bits``
    in ``[0, n]``, the parent view's row count and the CRC-32 of its
    parent manifest's bytes, and tombstone distinct rows of the parent
    view that no earlier generation deleted.  The first defect raises
    :class:`~repro.setsystem.shards.ShardFormatError` carrying its fsck
    code.  The insert shards are a repository of their own, read by
    :func:`~repro.setsystem.shards.read_manifest`
    (:func:`check_insert_geometry`).
    """
    root = Path(root)
    chain: "list[tuple[Path, dict]]" = []
    parent_manifest, parent_rows, dead = root / MANIFEST_NAME, m, set()
    for position, gen_dir in enumerate(pending_delta_generations(root), 1):
        path = gen_dir / DELTA_MANIFEST_NAME

        def refuse(detail: str, code: str):
            return ShardFormatError(f"{path}: {detail}", code)

        if gen_dir.name != _generation_name(position):
            raise refuse(
                f"expected generation {_generation_name(position)} here — a "
                "generation directory is missing or misnamed", "chain-gap",
            )
        try:
            record = json.loads(path.read_bytes())
        except (OSError, ValueError) as exc:
            raise refuse(f"unparseable: {exc}", "chain-unreadable") from exc
        schema = record.get("schema") if isinstance(record, dict) else None
        if schema != DELTA_SCHEMA:
            raise refuse(
                f"schema is {schema!r}, expected {DELTA_SCHEMA!r}", "chain-schema"
            )
        if record.get("crc32") != _chain_checksum(record):
            raise refuse(
                "checksum mismatch: the tombstone list or metadata was edited "
                "after write", "chain-checksum",
            )
        for key in _RECORD_INTS:
            if not _exact_int(record.get(key), 0):
                raise refuse(
                    f"{key!r} is {record.get(key)!r}, not an integer >= 0",
                    "chain-malformed",
                )
        tombstones = record.get("tombstones")
        if not isinstance(tombstones, list) or not all(
            _exact_int(tomb) for tomb in tombstones
        ):
            raise refuse(
                f"'tombstones' is {tombstones!r}, not a list of integers",
                "chain-malformed",
            )
        if record["generation"] != position:
            raise refuse(
                f"records generation {record['generation']}, its position "
                f"implies {position}", "chain-gap",
            )
        if record["n"] != n:
            raise refuse(
                f"records n={record['n']}, the base has n={n}", "chain-geometry"
            )
        if record["max_set_bits"] > n:
            raise refuse(
                f"records max_set_bits={record['max_set_bits']}, outside "
                f"[0, n={n}]", "stats-max-set",
            )
        if record["parent_rows"] != parent_rows:
            raise refuse(
                f"expects {record['parent_rows']} parent rows, the chain "
                f"provides {parent_rows} — a generation was rewritten or "
                "reordered", "chain-geometry",
            )
        parent_crc32 = _file_crc32(parent_manifest)
        if record["parent_crc32"] != parent_crc32:
            raise refuse(
                f"the chain is severed: {parent_manifest.name} has CRC-32 "
                f"{parent_crc32}, the record says {record['parent_crc32']} — "
                "the parent manifest was rewritten after this delta",
                "chain-severed",
            )
        seen: "set[int]" = set()
        for tomb in tombstones:
            if not 0 <= tomb < parent_rows:
                detail = (f"was never written (parent rows are "
                          f"[0, {parent_rows}))")
            elif tomb in dead:
                detail = "an earlier generation already deleted"
            elif tomb in seen:
                detail = "this record already tombstones"
            else:
                seen.add(tomb)
                continue
            raise refuse(f"tombstones row {tomb}, which {detail}",
                         "chain-tombstone")
        chain.append((gen_dir, record))
        dead |= seen
        parent_rows += record["inserts"]
        parent_manifest = path
    return chain


def check_insert_geometry(gen_dir: Path, record: dict, n: int, m: int) -> None:
    """Refuse (``chain-geometry``) insert shards of ``n`` elements and
    ``m`` rows other than the ``delta.json`` ``record`` promises."""
    if (n, m) != (record["n"], record["inserts"]):
        raise ShardFormatError(
            f"generation {gen_dir.name} insert shards hold (n={n}, m={m}); "
            f"{DELTA_MANIFEST_NAME} promises (n={record['n']}, "
            f"m={record['inserts']})", "chain-geometry",
        )


def _load_chain(
    root: "str | Path", verify: bool = False
) -> "tuple[ShardedRepository, list[_Generation]]":
    """Open a repository's base and its delta chain
    (:func:`read_delta_manifest`).

    Returns ``(base, generations)`` with every repository open; the
    caller owns closing them.  Any structural problem raises
    :class:`~repro.setsystem.shards.ShardFormatError` (and closes
    whatever was already open).
    """
    base = ShardedRepository(root, verify=verify, base_only=True)
    generations: "list[_Generation]" = []
    try:
        for gen_dir, record in read_delta_manifest(root, base.n, base.m):
            repo = ShardedRepository(gen_dir, verify=verify)
            generations.append(_Generation(gen_dir, repo, record))
            check_insert_geometry(gen_dir, record, repo.n, repo.m)
    except BaseException:
        base.close()
        for gen in generations:
            gen.repo.close()
        raise
    return base, generations


class MergedShardView(_RepositoryReads):
    """The merged read view over a base repository and its delta chain.

    Presents the live family as a dense ``0..m-1`` repository with the
    exact scan interface of
    :class:`~repro.setsystem.shards.ShardedRepository` — row iteration,
    ``decode_chunk`` and the shared ``scan_decoded``, shard statistics,
    random-access ``row_mask`` — so
    :class:`~repro.streaming.sharded.ShardedSetStream` and the serial
    :class:`~repro.engine.transport.base.ScanExecutor` run on it
    unchanged.  (The *remote* transport is the one exclusion: its
    workers hold no chain state, so streams refuse it until
    compaction.)

    Merge semantics: a row is live iff no generation tombstoned its
    stable id; live rows appear in base order first, then each
    generation's surviving inserts in append order — the same order
    :func:`compact` writes, so view row ``i`` *is* compacted row ``i``.
    Chunk geometry follows the base ``chunk_rows``, which makes chunk
    boundaries — and therefore per-chunk stats and capture
    accounting — identical to the compacted rewrite too.

    Each merged chunk is encoded by the writer's own codec
    (:class:`~repro.setsystem.shards._ChunkCodec`) over its live rows,
    once per decode: its payload bytes are the compacted rewrite's
    shard file, decoded by the same function, and its v3 statistics
    block (:meth:`shard_stats`) is the one the rewrite records; the
    churn-parity suite asserts both against real rebuilds.
    """

    def __init__(self, path: "str | Path", verify: bool = False):
        self.path = Path(path)
        base, generations = _load_chain(self.path, verify=verify)
        self.base = base
        self.generations = generations
        self.n = base.n
        self.words = base.words
        self.chunk_rows = base.chunk_rows
        self.schema = DELTA_SCHEMA
        dead = sorted(set().union(*(gen.tombstones for gen in generations)))
        self.tombstoned = len(dead)
        # Dense merged id -> (source repository, local row, stable id):
        # source k owns the stable ids from firsts[k] on.
        self._repos = [base] + [gen.repo for gen in generations]
        firsts = np.array([0] + [gen.parent_rows for gen in generations])
        self.total_rows = base.m + sum(gen.inserts for gen in generations)
        alive = np.ones(self.total_rows, dtype=bool)
        alive[dead] = False
        stable = np.flatnonzero(alive)
        self._owner = np.searchsorted(firsts, stable, side="right") - 1
        self._local = stable - firsts[self._owner]
        self._stable = tuple(stable.tolist())
        self.m = stable.size
        self._stats_cache: "dict[int, dict]" = {}
        self._dual_bound: "int | None" = None
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

    def _span(self, shard: int) -> "tuple[int, int]":
        """``(first row, rows)`` of merged chunk ``shard``."""
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        if not 0 <= shard < self.shard_count:
            raise IndexError(
                f"chunk {shard} outside [0, {self.shard_count})"
            )
        start = shard * self.chunk_rows
        return start, min(self.chunk_rows, self.m - start)

    def _codec(self, shard: int) -> _ChunkCodec:
        """The writer's codec over merged chunk ``shard``'s live rows; its
        stats block is kept, as :meth:`compute_shard_stats` returns it."""
        start, rows = self._span(shard)
        codec = _ChunkCodec(*self.select_rows(np.arange(start, start + rows)), self.n)
        self._stats_cache.setdefault(shard, codec.stats())
        return codec

    # -- planner statistics -------------------------------------------
    def compute_shard_stats(self, shard: int) -> dict:
        """The v3 stats block a compacted rewrite would record for a chunk."""
        if shard not in self._stats_cache:
            self._codec(shard)
        return self._stats_cache[shard]

    def shard_stats(self) -> "list[dict]":
        """Per-merged-chunk stats blocks (computed lazily, cached)."""
        return [self.compute_shard_stats(s) for s in range(self.shard_count)]

    @property
    def max_set_bits(self) -> int:
        """The largest live set ``Δ``: the last ``delta.json`` records it (no pass)."""
        if self.generations:
            return self.generations[-1].max_set_bits
        return self.base.max_set_bits

    @property
    def dual_bound(self) -> int:
        """The certified lower bound
        (:func:`~repro.setsystem.set_system.dual_lower_bound`) of the live
        rows.

        The base's manifest records it; a chain recounts it from every live
        row once per view, the first time it is asked (a solve's first
        guess, a verified open), so a solve of the chain and of its
        compaction start from the same guess while ``apply_delta`` decodes
        only the rows it tombstones.
        """
        if not self.generations:
            return self.base.dual_bound
        if self._dual_bound is None:
            self._dual_bound = dual_lower_bound(self.n, self._live_widest())
        return self._dual_bound

    def _live_widest(self) -> "np.ndarray":
        """:func:`~repro.setsystem.set_system.element_widest` of the live
        rows, walked a chunk at a time."""
        widest = np.zeros(self.n, dtype=np.uint32)
        for flat, sizes in self.iter_chunk_rows():
            element_widest(self.n, flat, sizes, widest)
        return widest

    def check_rows(self) -> None:
        """Decode every live row (``verify=True``, deep fsck); a recorded
        ``max_set_bits`` the rows contradict raises ``stats-max-set``."""
        live = self._live_widest()
        widest = int(live.max(initial=0))
        if widest != self.max_set_bits:
            raise ShardFormatError(
                f"the delta chain of {self.path} records max_set_bits="
                f"{self.max_set_bits}, but its widest live row has {widest} "
                "elements", "stats-max-set",
            )
        if self.generations:
            self._dual_bound = dual_lower_bound(self.n, live)

    def select_rows(self, ids) -> "tuple[np.ndarray, np.ndarray]":
        """Live rows ``ids`` as CSR ``(elements, sizes)``, in ``ids`` order:
        :meth:`ShardedRepository.select_rows
        <repro.setsystem.shards.ShardedRepository.select_rows>` of each
        source repository (referee)."""
        count, groups = self._source_groups(ids)
        return _ordered_rows(count, [
            (at, *self._repos[k].select_rows(rows)) for k, at, rows in groups
        ])

    def select_words(self, ids) -> "np.ndarray":
        """Live rows ``ids`` as a packed ``(rows, words)`` ``uint64``
        block: :meth:`ShardedRepository.select_words
        <repro.setsystem.shards.ShardedRepository.select_words>` of each
        source repository (referee)."""
        count, groups = self._source_groups(ids)
        block = np.empty((count, self.words), dtype=np.uint64)
        for k, at, rows in groups:
            block[at] = self._repos[k].select_words(rows)
        return block

    def _source_groups(self, ids):
        """``(count, [(source, positions, source rows), ...])``: live row
        ids grouped by the repository that holds them."""
        if self._closed:
            raise ShardFormatError(f"merged view over {self.path} is closed")
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and not (0 <= ids.min() and ids.max() < self.m):
            raise IndexError(f"a row id outside [0, {self.m})")
        owner, local = self._owner[ids], self._local[ids]
        groups = []
        for k in np.unique(owner).tolist():
            at = np.flatnonzero(owner == k)
            groups.append((k, at, local[at]))
        return ids.size, groups

    # -- scanning: decode half (repro.engine.cache) + the shared scan --
    def decode_chunk(self, shard: int):
        """``(payload, resident_bytes)``: the merged chunk, decoded.

        The chunk's live rows (one :meth:`select_rows` of the sources)
        are encoded by the writer's codec, and those bytes go through
        the scan's one decoder
        (:func:`~repro.setsystem.shards._decode_payload`): the payload
        is array for array the one the compacted rewrite's
        ``decode_chunk`` builds, and ``scan_decoded`` is the same
        method, so a chain scan is its compaction's scan.  The cache
        keys it by :attr:`cache_token`, which covers every chain
        manifest — any ``apply-delta`` or compaction changes the token,
        so a cached merge can never be served stale.
        """
        start, rows = self._span(shard)
        name = f"merged chunk {shard}"
        payload = np.frombuffer(self._codec(shard).payload(), dtype=np.uint8)
        decoded = _decode_payload(
            payload, *_parse_record_table(payload, rows, name), self.n, name
        )
        return decoded, decoded["nbytes"]

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
      at the current epoch, so a compaction that supersedes this
      generation parks the old files (``<root>.retired/<epoch>``)
      instead of deleting them until this handle closes.  The lease is
      attached to the returned handle and released by its ``close()``.
    * **Swing detection** — a compaction's critical section is
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
        # Seqlock-style validation: if a compaction's swing overlapped the
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
    belongs to a *live* compactor, not a crashed one: callers that can
    safely proceed alongside it (``apply_delta`` — the compactor will
    notice the chain moved and restage) pass ``live_ok=True``; everyone
    else gets :class:`RepositoryBusyError` instead of a destructive
    ``force`` discard.
    """
    staging = staging_dir_for(root)
    if not staging.exists():
        return
    if staging_is_live(root):
        if live_ok:
            return
        raise RepositoryBusyError(
            f"cannot {operation} {root}: a compaction is staging "
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
    root: "str | Path", ops: "Iterable[dict]", force: bool = False
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
    ``force=True`` discards it.  A *live* compactor's staging is no
    obstacle: the delta lands and the compactor restages.
    """
    root = Path(root)
    recover_compaction(root)
    _refuse_stale_staging(root, force, "apply a delta to", live_ok=True)
    inserted = 0
    with DeltaShardWriter(root) as writer:
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


def _write_view(view, dest: "str | Path") -> Path:
    """Write a view's live rows as a flat repository at ``dest``.

    Same ``chunk_rows`` as the view's base, so the output is
    :func:`~repro.setsystem.shards.write_shards` of the merged system,
    byte for byte; the rows are read a chunk at a time
    (:meth:`~repro.setsystem.shards.ShardedRepository.iter_chunk_rows`).
    """
    rows = (
        row for flat, sizes in view.iter_chunk_rows()
        for row in _csr_lists(flat, sizes)
    )
    return write_shards(dest, rows, n=view.n, chunk_rows=view.chunk_rows)


def compact(
    root: "str | Path",
    output: "str | Path | None" = None,
    force: bool = False,
) -> Path:
    """Rewrite a repository's merged view as a clean single generation.

    The rewrite goes through :class:`~repro.setsystem.shards.ShardWriter`
    over the merged rows in view order, with the base chunk geometry —
    i.e. it *is* a from-scratch write of the merged system, so the
    output is bit-identical to
    :func:`~repro.setsystem.shards.write_shards` of
    ``MergedShardView.to_system()`` (asserted file-for-file by the
    churn-parity suite).

    With ``output`` the compacted repository lands in a new directory
    and ``root`` is untouched.  A repository with no pending deltas
    compacts to itself: in place it is returned unchanged
    (byte-identical), with ``output`` it is rewritten from its rows.

    In place, the fold never stops readers or writers for longer than
    its swing (DESIGN.md §12.2, §13):

    1. **stage** the rewrite into the sibling ``<root>.compact-tmp``
       *without* the repository lock, holding only the
       :class:`~repro.setsystem.durability.StagingLock` marker, while
       readers and ``apply_delta`` keep using the live chain;
    2. take the lock and re-check the chain token captured before
       staging; a delta that landed meanwhile discards the staging and
       the fold restages (after five restages,
       :class:`~repro.setsystem.shards.RepositoryBusyError`);
    3. durably publish the checksummed ``compact.intent`` journal — the
       commit point: a crash before it leaves the old chain intact plus
       staging debris that ``fsck --repair`` discards, a crash after it
       is rolled forward by the next :func:`open_repository`;
    4. **swing**: move the staged files in, the manifest last, and
       retire the superseded files and the ``deltas/`` chain to
       ``<root>.retired/<epoch>``;
    5. **reclaim** the retired files once no reader lease on that epoch
       is left.

    A writer holding the lock before staging or at swing time surfaces as
    :class:`~repro.setsystem.shards.RepositoryBusyError` — the
    maintenance loop's cue to back off and retry, never a crash.  A
    stale staging directory from a *pre*-commit-point crash is refused
    (:class:`~repro.setsystem.shards.StaleStagingError`) unless
    ``force=True`` discards it.
    """
    root = Path(root)
    recover_compaction(root)
    _refuse_stale_staging(root, force, "compact")
    if output is not None:
        with open_repository(root) as view:
            return _write_view(view, output)
    staging = staging_dir_for(root)
    marker = StagingLock(root).acquire()
    try:
        for _ in range(5):
            token_before = chain_token(root) if root.is_dir() else None
            with open_repository(root) as view:
                if isinstance(view, ShardedRepository):
                    return root  # already a clean single generation
                # A held writer lock would refuse the swing anyway: say
                # so now, before the full rewrite is staged.
                with RepositoryLock(root, purpose="compact"):
                    pass
                if staging.exists():
                    shutil.rmtree(staging)  # our own superseded attempt
                _write_view(view, staging)
                old_files = [
                    str(meta["file"]) for meta in view.base._shard_meta
                ]
            old_files.append(MANIFEST_NAME)
            fsync_dir(root.parent)  # the staging directory's own entry
            staged_files = [item.name for item in staging.iterdir()]
            crashpoint("compact.staged")
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
                write_compact_intent(
                    root, staged_files, old_files, current_epoch(root)
                )
                crashpoint("compact.intent")
                complete_compaction(root, read_compact_intent(root))
            finally:
                lock.release()
            reclaim_retired(root)
            return root
        raise RepositoryBusyError(
            f"compaction of {root} was outrun by concurrent deltas "
            "5 times; retry when the churn quiets down"
        )
    finally:
        marker.release()
