"""Crash-safe storage primitives: fsync discipline, journaled compaction,
crashpoint injection, advisory locking, and ``fsck``.

PR 6 made the *network* layer survive any fault; this module does the
same for the *storage* layer underneath it, in the same style — typed
faults, seeded/named injection, loud-or-correct:

* **fsync discipline** — :func:`durable_write_bytes` /
  :func:`durable_write_text` stage to a temporary file in the target's
  directory, ``fsync`` the file, ``os.replace`` it into place, and
  ``fsync`` the parent directory, so a manifest or chain file is either
  the old bytes or the new bytes after any crash, never a torn write.
  Every manifest the shard store writes (:class:`ShardWriter
  <repro.setsystem.shards.ShardWriter>` base manifests,
  ``delta.json`` chain manifests, compaction, :meth:`DynamicCover.checkpoint
  <repro.dynamic.cover.DynamicCover.checkpoint>`) goes through these
  helpers.  The ``REPRO_DURABILITY=off`` environment knob skips the
  ``fsync`` calls (for fsync-hostile filesystems or throwaway test
  trees); writes stay atomic-by-rename either way.

* **crashpoint injection** (:func:`crashpoint`) — the storage sibling of
  PR 6's ``REPRO_CHAOS`` / ``REPRO_TEST_CRASH_*`` hooks.  Write paths
  are annotated with named points (:data:`CRASHPOINTS`); setting
  ``REPRO_CRASHPOINT=<name>`` makes the process ``os._exit`` the moment
  it reaches that point (simulating a crash with whatever the page
  cache already holds), and ``REPRO_CRASHPOINT=<name>,mode=error``
  raises an ``ENOSPC``-style :class:`OSError` instead (simulating a
  full disk, exercising the writers' abort paths).  The pytest harness
  (``tests/test_durability.py``) iterates every crashpoint × scenario
  in a subprocess and asserts the repository reopens — directly or
  after ``repro shard fsck --repair`` — bit-identical to one of the
  two legal states.

* **advisory locking** (:class:`RepositoryLock`) — an ``fcntl`` lock
  file (``.repro-lock``) taken by every mutator (delta writers, the
  compactor, ``fsck --repair``), so concurrent writers/compactors fail
  loudly (:class:`~repro.setsystem.shards.RepositoryBusyError`) instead
  of corrupting the chain.  The lock file is removed on release (an
  inode re-check on acquire closes the classic unlink race), so a
  cleanly-written repository stays byte-identical to a from-scratch
  write.

* **intent-journaled compaction** — in-place :func:`compact
  <repro.setsystem.deltas.compact>` stages the rewritten repository,
  then fsyncs a checksummed ``compact.intent`` journal *before* any
  destructive step.  The intent file is the commit point: if it exists,
  the staged repository is complete and recovery **rolls forward**
  (:func:`recover_compaction` — idempotent, re-runnable from any crash
  inside the replace phase); if staging exists without it, recovery
  rolls back by discarding the staging.  ``open_repository`` runs this
  automatically, so a repository is always exactly the old chain or the
  new base — never unopenable, never a half-merged hybrid.  The journal
  is untrusted input: :func:`read_compact_intent` refuses any field a
  roll-forward could misuse (a file name with a path separator, a
  non-integer epoch) before anything is moved.

* **fsck** (:func:`fsck_repository`) — sweeps every structural
  invariant the formats define (the manifest through the open's own
  reader, :func:`~repro.setsystem.shards.read_manifest`; shard sizes
  and CRC-32s, full row-codec decode, delta-chain
  numbering/checksums/anchors/tombstones, orphan staging directories
  and manifest-less generations, interrupted compactions) into a typed
  findings report; with ``repair=True`` it completes or rolls back
  interrupted compactions and removes invisible partial state.  Every
  corruption the unit suites inject maps to a distinct finding code.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import shutil
import sys
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX-only; on platforms without fcntl the lock degrades to a no-op
    import fcntl
except ImportError:  # pragma: no cover - exercised only on non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "CRASHPOINTS",
    "CRASHPOINT_ENV",
    "CRASHPOINT_EXIT_CODE",
    "COMPACT_INTENT_NAME",
    "COMPACT_INTENT_SCHEMA",
    "COMPACT_STAGING_SUFFIX",
    "DURABILITY_ENV",
    "EPOCH_FILE_NAME",
    "LEASES_SUFFIX",
    "LEASE_SCHEMA",
    "LOCK_FILE_NAME",
    "RETIRED_SUFFIX",
    "Finding",
    "FsckReport",
    "GenerationLease",
    "RepositoryLock",
    "StagingLock",
    "active_leases",
    "crashpoint",
    "current_epoch",
    "durable_write_bytes",
    "durable_write_text",
    "fsck_repository",
    "fsync_dir",
    "fsync_file",
    "leases_dir_for",
    "read_compact_intent",
    "reclaim_retired",
    "recover_compaction",
    "retired_dir_for",
    "staging_dir_for",
    "staging_is_live",
    "staging_lock_for",
    "write_compact_intent",
]

#: Environment knob naming the crashpoint to fire (``<name>`` or
#: ``<name>,mode=exit|error``).
CRASHPOINT_ENV = "REPRO_CRASHPOINT"

#: Exit status of a process killed by an ``exit``-mode crashpoint, so
#: harnesses can tell an injected crash from a real failure.
CRASHPOINT_EXIT_CODE = 42

#: Environment knob: ``off`` skips fsync calls (atomic renames remain).
DURABILITY_ENV = "REPRO_DURABILITY"

#: Every registered crashpoint, in rough write-path order.  The harness
#: iterates this tuple; :func:`crashpoint` refuses unregistered names so
#: a typo cannot silently skip coverage.
CRASHPOINTS = (
    # base ShardWriter: per-shard payload write / manifest commit
    "writer.shard-flush",
    "writer.manifest",
    # DeltaShardWriter: insert shards durable, delta.json not yet written
    "delta.staged",
    # compact(): after the lock-free staging, after the intent journal
    # (the commit point, under the lock), mid-replace, after the
    # manifest swap, after the retire tail, and the lease-drain reclaim
    "compact.staged",
    "compact.intent",
    "compact.shards-moved",
    "compact.manifest",
    "compact.retire",
    "lease.drain",
    # DynamicCover.checkpoint(): staged checkpoint not yet swapped in
    "checkpoint.staged",
)

#: Intent-journal file name inside a repository root.
COMPACT_INTENT_NAME = "compact.intent"

#: Schema tag of the intent journal (the only one read).
COMPACT_INTENT_SCHEMA = "repro.compact-intent/v2"

#: Suffix of the sibling staging directory ``<root><suffix>``.
COMPACT_STAGING_SUFFIX = ".compact-tmp"

#: Advisory lock file name inside a repository root.
LOCK_FILE_NAME = ".repro-lock"

#: Suffix of the sibling lease directory ``<root><suffix>`` where
#: readers register generation leases (plus the ``epoch`` counter file).
#: Live-state is *sibling* state by design: the repository root itself
#: stays byte-identical to a never-leased, never-compacted one.
LEASES_SUFFIX = ".leases"

#: Suffix of the sibling retirement directory ``<root><suffix>`` where
#: an in-place compaction parks the superseded generation's files until
#: the last lease on that epoch drains.
RETIRED_SUFFIX = ".retired"

#: Name of the epoch counter file inside the lease directory.
EPOCH_FILE_NAME = "epoch"

#: Schema tag stamped into every lease file.
LEASE_SCHEMA = "repro.lease/v1"


# ----------------------------------------------------------------------
# Crashpoint injection
# ----------------------------------------------------------------------
def crashpoint(name: str) -> None:
    """Fire the named injection point if ``REPRO_CRASHPOINT`` selects it.

    ``exit`` mode (the default) terminates the process immediately with
    :data:`CRASHPOINT_EXIT_CODE` via ``os._exit`` — no atexit handlers,
    no buffered flushes, exactly the state a SIGKILL would leave.
    ``error`` mode raises ``OSError(ENOSPC)`` instead, simulating a full
    disk at that point so abort/cleanup paths can be tested in-process.

    Unregistered names raise ``RuntimeError`` even with the knob unset:
    a typo at an injection site must fail tests, not silently remove the
    point from the harness matrix.
    """
    if name not in CRASHPOINTS:
        raise RuntimeError(
            f"unregistered crashpoint {name!r}; add it to "
            "repro.setsystem.durability.CRASHPOINTS"
        )
    spec = os.environ.get(CRASHPOINT_ENV)
    if not spec:
        return
    target, _, tail = spec.partition(",")
    if target.strip() != name:
        return
    mode = "exit"
    tail = tail.strip()
    if tail:
        key, _, value = tail.partition("=")
        if key.strip() != "mode" or value.strip() not in ("exit", "error"):
            raise ValueError(
                f"malformed {CRASHPOINT_ENV} spec {spec!r}; expected "
                "'<name>' or '<name>,mode=exit|error'"
            )
        mode = value.strip()
    if mode == "error":
        raise OSError(
            errno.ENOSPC, f"injected fault at crashpoint {name}"
        )
    sys.stderr.write(f"crashpoint {name}: exiting\n")
    sys.stderr.flush()
    os._exit(CRASHPOINT_EXIT_CODE)


# ----------------------------------------------------------------------
# fsync discipline
# ----------------------------------------------------------------------
def _fsync_enabled() -> bool:
    return os.environ.get(DURABILITY_ENV, "").lower() != "off"


def fsync_file(path: "str | Path") -> None:
    """``fsync`` one file by path (no-op under ``REPRO_DURABILITY=off``)."""
    if not _fsync_enabled():
        return
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: "str | Path") -> None:
    """``fsync`` a directory so renames/unlinks inside it are durable.

    Platforms that refuse ``fsync`` on directory descriptors make this a
    best-effort no-op — the rename itself is still atomic.
    """
    if not _fsync_enabled():
        return
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def durable_write_bytes(path: "str | Path", data: bytes) -> None:
    """Atomically (and durably) publish ``data`` at ``path``.

    Stage to ``<path>.tmp`` in the same directory, flush + ``fsync`` the
    staged file, ``os.replace`` it over the target, then ``fsync`` the
    parent directory.  After any crash the target is either its previous
    content or ``data`` in full — never a torn write, never missing when
    it previously existed.
    """
    path = Path(path)
    staging = path.with_name(path.name + ".tmp")
    with open(staging, "wb") as handle:
        handle.write(data)
        handle.flush()
        if _fsync_enabled():
            os.fsync(handle.fileno())
    os.replace(staging, path)
    fsync_dir(path.parent)


def durable_write_text(path: "str | Path", text: str) -> None:
    """ASCII-text convenience wrapper over :func:`durable_write_bytes`."""
    durable_write_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
# Advisory repository lock
# ----------------------------------------------------------------------
#: One warning per process when fcntl is unavailable: mutual exclusion
#: silently degrading to a no-op is exactly the kind of thing users must
#: learn about once, not discover from a corrupted chain.
_warned_no_fcntl = False


class RepositoryLock:
    """Advisory exclusive lock on a repository root (``fcntl``-based).

    Non-blocking by design: a mutator that finds the lock held fails
    loudly (:class:`~repro.setsystem.shards.RepositoryBusyError`) rather
    than queueing — a delta writer and a compactor's swing are not meant
    to interleave, and a silent wait would hide that.

    The lock file is *removed* on release so locked-then-unlocked
    repositories stay byte-identical to never-locked ones (the churn
    suite's bit-identity referee compares whole directory listings).
    Unlink-on-release has a classic race — locking an inode another
    holder already unlinked — closed here by re-checking, after
    ``flock`` succeeds, that the path still names the locked inode, and
    retrying otherwise.

    On platforms without ``fcntl`` the lock degrades to a no-op (the
    formats never *require* it; it exists to make concurrent mutators
    fail loudly where the OS supports it).
    """

    def __init__(self, root: "str | Path", purpose: str = "mutate"):
        self.root = Path(root)
        self.path = self.root / LOCK_FILE_NAME
        self.purpose = purpose
        self._fd: "int | None" = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "RepositoryLock":
        from repro.setsystem.shards import RepositoryBusyError

        if fcntl is None:
            global _warned_no_fcntl
            if not _warned_no_fcntl:
                _warned_no_fcntl = True
                warnings.warn(
                    "fcntl is unavailable on this platform: repository "
                    "locking degrades to a no-op, so concurrent writers "
                    "and compactors are NOT mutually excluded — corruption "
                    "from interleaved mutators will not be prevented",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return self
        if self._fd is not None:
            raise RepositoryBusyError(f"lock on {self.root} is already held")
        if not self.root.is_dir():
            # Advisory only: let the subsequent open raise the proper
            # typed "no repository here" error instead of inventing one.
            return self
        for _ in range(16):
            fd = os.open(os.fspath(self.path), os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                # Best-effort holder identification: the winner writes
                # "pid=... purpose=..." into the lock file right after
                # flock succeeds, so contenders can name it.
                try:
                    holder = self.path.read_text().strip()
                except OSError:
                    holder = ""
                held_by = (
                    f"held by {holder}" if holder
                    else f"{self.path.name} held"
                )
                raise RepositoryBusyError(
                    f"{self.root} is locked by another writer or compactor "
                    f"({held_by}); retry when it finishes"
                ) from None
            # Guard the unlink-on-release race: if the path no longer
            # names the inode we locked, a previous holder released and
            # removed it between our open and flock — retry on the
            # fresh file instead of "holding" an orphaned inode.
            try:
                current = os.stat(self.path)
            except FileNotFoundError:
                os.close(fd)
                continue
            if os.fstat(fd).st_ino != current.st_ino:
                os.close(fd)
                continue
            try:
                os.ftruncate(fd, 0)
                os.write(
                    fd,
                    f"pid={os.getpid()} purpose={self.purpose}\n".encode(),
                )
            except OSError:  # pragma: no cover - metadata is best-effort
                pass
            self._fd = fd
            return self
        raise RepositoryBusyError(
            f"could not acquire the lock on {self.root} after 16 attempts"
        )

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - foreign cleanup
            pass
        os.close(self._fd)  # closing the fd drops the flock
        self._fd = None

    def __enter__(self) -> "RepositoryLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


# ----------------------------------------------------------------------
# Generation leases + epoch-counted retirement
# ----------------------------------------------------------------------
def leases_dir_for(root: "str | Path") -> Path:
    """The sibling directory holding reader leases + the epoch counter."""
    root = Path(root)
    return root.parent / (root.name + LEASES_SUFFIX)


def retired_dir_for(root: "str | Path", epoch: "int | None" = None) -> Path:
    """The sibling retirement directory (or one epoch's subdirectory)."""
    root = Path(root)
    base = root.parent / (root.name + RETIRED_SUFFIX)
    return base if epoch is None else base / f"{int(epoch):05d}"


def current_epoch(root: "str | Path") -> int:
    """The repository's generation epoch (0 until the first compaction).

    Bumped durably by each completed in-place compaction, which also
    creates the sibling ``<root>.leases/epoch`` file on the first one; a
    lease taken at epoch ``E`` guarantees the files retired *by* the
    compaction that supersedes ``E`` (parked under
    ``<root>.retired/<E>``) survive until the lease drains.
    """
    path = leases_dir_for(root) / EPOCH_FILE_NAME
    try:
        return int(path.read_text().strip())
    except (OSError, ValueError):
        return 0


def _advance_epoch(root: "str | Path", epoch: int) -> None:
    """Durably record ``epoch`` as the current one (idempotent, monotonic)."""
    if current_epoch(root) >= epoch:
        return
    directory = leases_dir_for(root)
    directory.mkdir(parents=True, exist_ok=True)
    durable_write_text(directory / EPOCH_FILE_NAME, f"{epoch}\n")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign-uid holder
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


class GenerationLease:
    """One reader's registered claim on a repository generation.

    Taken by :func:`~repro.setsystem.deltas.open_repository` *before* the
    manifest is read (so the recorded epoch never exceeds the epoch of
    the family actually opened) and released by the handle's ``close()``.
    A lease is a tiny JSON file in the sibling ``<root>.leases/``
    directory naming ``{epoch, pid}``; :func:`reclaim_retired` treats the
    minimum epoch across live-pid leases as the reclaim floor, so a
    superseded generation's files are deleted only once the last handle
    that could be reading them is gone — never under a live ``mmap``.

    Crash-tolerant by construction: a lease whose pid no longer exists
    is pruned by the next reclaim (or by ``fsck``), so a SIGKILLed
    reader delays reclamation, it never wedges it.
    """

    _seq = itertools.count()

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.epoch: "int | None" = None
        self.path: "Path | None" = None

    @property
    def held(self) -> bool:
        return self.path is not None

    def acquire(self) -> "GenerationLease":
        if self.path is not None:
            return self
        self.epoch = current_epoch(self.root)
        directory = leases_dir_for(self.root)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / (
            f"{self.epoch:05d}-{os.getpid()}-{next(self._seq):06d}.json"
        )
        record = {
            "schema": LEASE_SCHEMA,
            "epoch": self.epoch,
            "pid": os.getpid(),
        }
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        self.path = path
        return self

    def release(self) -> None:
        if self.path is None:
            return
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - foreign cleanup
            pass
        self.path = None

    def __enter__(self) -> "GenerationLease":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def _read_lease(path: Path) -> "tuple[int, int] | None":
    """A lease file's ``(epoch, pid)``, or ``None`` when it is malformed.

    The schema must be :data:`LEASE_SCHEMA`, the epoch a JSON integer
    ``>= 0`` and the pid one in ``[1, 2**31)``: a ``true`` epoch or a
    ``"123"`` pid is never coerced, and ``pid`` 0 or -1 — which
    ``os.kill(pid, 0)`` reports alive forever — never names a holder.
    """
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):  # unreadable mid-release, or not JSON
        return None
    if not (
        isinstance(record, dict)
        and record.get("schema") == LEASE_SCHEMA
        and _exact_int(record.get("epoch"), 0)
        and _exact_int(record.get("pid"), 1, 1 << 31)
    ):
        return None
    return record["epoch"], record["pid"]


def active_leases(root: "str | Path", prune: bool = False) -> "list[dict]":
    """Live-pid leases on a repository (``{path, epoch, pid}`` each).

    Malformed lease files and leases whose holder pid is gone are
    skipped; with ``prune=True`` they are unlinked too (the self-healing
    half — a crashed reader must delay reclamation, not wedge it).
    """
    directory = leases_dir_for(root)
    if not directory.is_dir():
        return []
    leases: "list[dict]" = []
    for child in sorted(directory.iterdir()):
        if child.name == EPOCH_FILE_NAME or not child.is_file():
            continue
        claim = _read_lease(child)
        # Unreadable mid-release, malformed, or its holder is gone:
        # never a live claim.
        if claim is None or not _pid_alive(claim[1]):
            if prune:
                child.unlink(missing_ok=True)
            continue
        epoch, pid = claim
        leases.append({"path": str(child), "epoch": epoch, "pid": pid})
    return leases


def reclaim_retired(root: "str | Path") -> "list[str]":
    """Remove retired generation dirs no live lease can still reference.

    The reclaim floor is the minimum epoch across live-pid leases: a
    reader holding epoch ``E`` may still be scanning the files parked in
    ``retired/<E>`` (path-based access during its open), so only strictly
    older epochs are deleted.  Called best-effort after every lease
    release and by ``fsck --repair``; returns the epoch names removed.
    """
    root = Path(root)
    retired_root = retired_dir_for(root)
    if not retired_root.is_dir():
        return []
    leases = active_leases(root, prune=True)
    floor = min((lease["epoch"] for lease in leases), default=None)
    removed: "list[str]" = []
    for child in sorted(retired_root.iterdir()):
        if not child.is_dir():
            continue
        try:
            epoch = int(child.name)
        except ValueError:
            continue
        if floor is None or epoch < floor:
            # The commit point of one reclaim step: a crash here leaves
            # the retired directory fully present — a legal state the
            # next reclaim (or fsck --repair) resolves.
            crashpoint("lease.drain")
            shutil.rmtree(child)
            removed.append(child.name)
    if removed:
        fsync_dir(retired_root)
    try:
        retired_root.rmdir()  # only succeeds once empty
    except OSError:
        pass
    return removed


# ----------------------------------------------------------------------
# Compaction intent journal
# ----------------------------------------------------------------------
def staging_dir_for(root: "str | Path") -> Path:
    """The sibling staging directory an in-place compaction writes to."""
    root = Path(root)
    return root.parent / (root.name + COMPACT_STAGING_SUFFIX)


def staging_lock_for(root: "str | Path") -> Path:
    """The liveness-marker lock file of a compactor's staging."""
    root = Path(root)
    return root.parent / (root.name + COMPACT_STAGING_SUFFIX + ".lock")


class StagingLock:
    """Liveness marker for a compactor's lock-free staging phase.

    A compaction stages without the repository lock (that is the
    availability win), which makes its staging directory look
    exactly like the crash debris :class:`StaleStagingError` exists to
    refuse.  The compactor therefore ``flock``-holds this sibling marker
    for the whole staging window: :func:`staging_is_live` distinguishes
    "a live compactor is folding right now" (mutators proceed, a second
    compactor backs off) from "orphaned debris" (refuse / repair).  A
    crash drops the ``flock`` with the process, so stale markers are
    self-resolving.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.path = staging_lock_for(root)
        self._fd: "int | None" = None

    def acquire(self) -> "StagingLock":
        from repro.setsystem.shards import RepositoryBusyError

        if fcntl is None:
            return self  # the RepositoryLock no-op warning already fired
        fd = os.open(os.fspath(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise RepositoryBusyError(
                f"{self.root} already has a compaction staging "
                f"({self.path.name} held); retry when it finishes"
            ) from None
        try:
            os.ftruncate(fd, 0)
            os.write(fd, f"pid={os.getpid()} purpose=compact\n".encode())
        except OSError:  # pragma: no cover - metadata is best-effort
            pass
        self._fd = fd
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - foreign cleanup
            pass
        os.close(self._fd)
        self._fd = None

    def __enter__(self) -> "StagingLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def staging_is_live(root: "str | Path") -> bool:
    """Whether a live compactor currently holds the staging marker."""
    if fcntl is None:
        return False
    path = staging_lock_for(root)
    try:
        fd = os.open(os.fspath(path), os.O_RDWR)
    except OSError:
        return False
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            return True  # held: a live compactor is staging
        fcntl.flock(fd, fcntl.LOCK_UN)
        return False
    finally:
        os.close(fd)


def _intent_checksum(record: dict) -> int:
    body = {key: value for key, value in record.items() if key != "crc32"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("ascii"))


def write_compact_intent(
    root: "str | Path",
    staged_files: "list[str]",
    old_files: "list[str]",
    epoch: int,
) -> Path:
    """Durably journal a compaction about to enter its destructive phase.

    Written only once the staging directory is *complete* (its manifest
    included), so the intent's existence is the commit point: recovery
    that finds it may — must — roll the compaction forward.  The staged
    manifest's CRC-32 is recorded so recovery can tell "the manifest was
    already moved in" from "the staging directory was lost" — the latter
    must refuse rather than silently keep the old repository while
    destroying its delta chain.

    ``epoch`` is the generation being superseded: the roll-forward parks
    its files under ``<root>.retired/<epoch>`` and advances the epoch
    counter, leaving reclamation to :func:`reclaim_retired` once every
    lease on that epoch drains.
    """
    from repro.setsystem.shards import MANIFEST_NAME

    root = Path(root)
    staged_manifest = staging_dir_for(root) / MANIFEST_NAME
    record = {
        "schema": COMPACT_INTENT_SCHEMA,
        "staging": staging_dir_for(root).name,
        "staged_files": sorted(staged_files),
        "old_files": sorted(old_files),
        "staged_manifest_crc32": zlib.crc32(staged_manifest.read_bytes()),
        "epoch": int(epoch),
    }
    record["crc32"] = _intent_checksum(record)
    path = root / COMPACT_INTENT_NAME
    durable_write_text(path, json.dumps(record, indent=2) + "\n")
    return path


def _plain_name(value) -> bool:
    """Whether ``value`` names a file directly inside one directory."""
    return (
        isinstance(value, str)
        and value not in ("", ".", "..")
        and not any(sep in value for sep in ("/", "\\", "\0"))
    )


def _exact_int(
    value, low: "int | None" = None, high: "int | None" = None
) -> bool:
    """A JSON integer (never a bool, a float or a string) in ``[low, high)``.

    The one exact-int test of every on-disk record: manifests, chain
    manifests, intent journals and leases.
    """
    return (
        type(value) is int
        and (low is None or value >= low)
        and (high is None or value < high)
    )


def read_compact_intent(root: "str | Path") -> "dict | None":
    """Parse and validate a root's intent journal, if present.

    Returns ``None`` when no intent file exists; raises a typed
    :class:`~repro.setsystem.shards.ShardFormatError` when one exists
    but is unreadable, fails its checksum, or holds a field the
    roll-forward could misuse (a corrupt commit record is never silently
    acted on — ``fsck`` reports it as ``intent-corrupt`` instead).  The
    CRC-32 catches torn writes, not forgeries, so every field is checked
    on its own: ``staged_files`` and ``old_files`` must be lists of plain
    file names (no path separator, not ``.`` or ``..``) — a name like
    ``../victim`` would otherwise move a file outside the repository —
    ``staging`` a string, ``epoch`` an integer >= 0 and
    ``staged_manifest_crc32`` an integer in ``[0, 2**32)``.
    """
    from repro.setsystem.shards import ShardFormatError

    path = Path(root) / COMPACT_INTENT_NAME
    if not path.is_file():
        return None
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardFormatError(
            f"unreadable compaction intent {path}: {exc}"
        ) from exc
    if not isinstance(record, dict) or record.get("schema") != COMPACT_INTENT_SCHEMA:
        raise ShardFormatError(
            f"{path} is not a {COMPACT_INTENT_SCHEMA} intent journal"
        )
    if record.get("crc32") != _intent_checksum(record):
        raise ShardFormatError(
            f"compaction intent checksum mismatch in {path}; refusing to "
            "roll the interrupted compaction forward on a corrupt journal"
        )
    for key in ("staged_files", "old_files"):
        names = record.get(key)
        bad = (
            [n for n in names if not _plain_name(n)]
            if isinstance(names, list) else [names]
        )
        if bad:
            raise ShardFormatError(
                f"{path} field {key!r} must list plain file names, "
                f"not {bad[0]!r}"
            )
    checks = {
        "staging": isinstance(record.get("staging"), str),
        "epoch": _exact_int(record.get("epoch"), 0),
        "staged_manifest_crc32": _exact_int(
            record.get("staged_manifest_crc32"), 0, 1 << 32
        ),
    }
    for key, valid in checks.items():
        if not valid:
            raise ShardFormatError(
                f"{path} field {key!r} is malformed: {record.get(key)!r}"
            )
    return record


def complete_compaction(root: "str | Path", intent: dict) -> None:
    """Roll an intent-journaled compaction forward (idempotent).

    Executable from any crash inside the replace phase: staged files
    still in the staging directory move in (``os.replace``), the
    manifest last; leftover pre-compaction shard files, the ``deltas``
    chain, the staging directory and finally the intent journal itself
    are then removed.  Re-running after a crash at any point converges
    on the same final state.

    The superseded generation is never unlinked here: every
    pre-compaction file (and the whole ``deltas/`` chain) is parked
    under ``<root>.retired/<epoch>``, because a reader holding a lease
    on that epoch may still be opening those paths.  Every step is
    existence-conditional, so a re-run after a crash never retires a
    freshly-staged file; the final durable step advances the epoch
    counter so new leases bind to the new generation.

    ``intent`` must come from :func:`read_compact_intent`, which
    validated every name and number in it.

    The caller must hold the repository lock.
    """
    from repro.setsystem.shards import (
        DELTAS_DIRNAME,
        MANIFEST_NAME,
        ShardFormatError,
    )

    root = Path(root)
    # Staging is addressed by the root's *own* path, not the name the
    # intent recorded: a repository renamed or copied together with its
    # staging sibling recovers self-contained, and can never consume a
    # different repository's staging that happens to share the parent.
    staging = staging_dir_for(root)
    staged_files = intent["staged_files"]
    data_files = [name for name in staged_files if name != MANIFEST_NAME]
    epoch = intent["epoch"]
    retired = retired_dir_for(root, epoch)
    retired.mkdir(parents=True, exist_ok=True)
    for name in data_files:
        staged = staging / name
        live = root / name
        if staged.exists():
            # Retire the superseded file *before* moving the staged one
            # in; a staged file already consumed by a previous run is
            # skipped entirely, so a re-run never retires the new file.
            if live.exists():
                os.replace(live, retired / name)
            os.replace(staged, live)
        elif not live.exists():
            raise ShardFormatError(
                f"cannot complete the interrupted compaction of {root}: "
                f"staged file {name} is in neither {staging.name} nor the "
                "repository — the staging directory was tampered with"
            )
    crashpoint("compact.shards-moved")
    staged_manifest = staging / MANIFEST_NAME
    live_manifest = root / MANIFEST_NAME
    if staged_manifest.exists():
        if live_manifest.exists():
            os.replace(live_manifest, retired / MANIFEST_NAME)
        os.replace(staged_manifest, live_manifest)
    elif not (
        live_manifest.is_file()
        and zlib.crc32(live_manifest.read_bytes())
        == intent["staged_manifest_crc32"]
    ):
        # The staged manifest is gone yet the live one is not it: the
        # staging directory was lost (e.g. the repository was copied
        # without its sibling).  Proceeding would keep the OLD manifest
        # while the destructive tail deletes the delta chain — silent
        # data loss — so refuse before anything destructive happens;
        # the chain is still fully intact and readable.
        raise ShardFormatError(
            f"cannot complete the interrupted compaction of {root}: the "
            f"staging directory {staging.name} is gone and the live "
            f"{MANIFEST_NAME} is not the staged one.  The repository "
            "(base + delta chain) is intact; remove "
            f"{COMPACT_INTENT_NAME} to abandon the interrupted "
            "compaction and re-run it"
        )
    fsync_dir(root)
    crashpoint("compact.manifest")
    # Retire tail: everything below only displaces pre-compaction state
    # the new manifest no longer references.
    staged_set = set(staged_files)
    for name in intent["old_files"]:
        if name not in staged_set and (root / name).exists():
            os.replace(root / name, retired / name)
    deltas = root / DELTAS_DIRNAME
    if deltas.is_dir():
        # One atomic rename parks the whole chain; a re-run finds the
        # source gone and skips.
        os.replace(deltas, retired / DELTAS_DIRNAME)
    crashpoint("compact.retire")
    fsync_dir(retired)
    # Advance the epoch before dropping the journal, so a crash in
    # between re-runs this (idempotent) step on recovery and a new lease
    # can never bind the old epoch to the new family.
    _advance_epoch(root, epoch + 1)
    if staging.is_dir():
        shutil.rmtree(staging)
    fsync_dir(root.parent)
    (root / COMPACT_INTENT_NAME).unlink(missing_ok=True)
    fsync_dir(root)


def recover_compaction(root: "str | Path") -> bool:
    """Detect and resolve an interrupted in-place compaction.

    Takes the repository lock (so recovery never races a live
    compactor — a held lock surfaces as
    :class:`~repro.setsystem.shards.RepositoryBusyError`), then:

    * intent journal present → the staged rewrite was complete; **roll
      forward** via :func:`complete_compaction` (the repository becomes
      exactly the post-compaction state);
    * no intent → nothing to do here (a pre-intent staging directory is
      mere garbage; :func:`fsck_repository` reports and removes it).

    Returns whether a roll-forward happened.
    """
    root = Path(root)
    if not (root / COMPACT_INTENT_NAME).is_file():
        return False
    with RepositoryLock(root, purpose="recover"):
        intent = read_compact_intent(root)
        if intent is None:  # pragma: no cover - raced with the holder
            return False
        complete_compaction(root, intent)
    return True


# ----------------------------------------------------------------------
# fsck: the typed findings sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One structural problem ``fsck`` found.

    ``code`` is the stable, typed identifier tests and operators match
    on; ``path`` locates the offending file or directory; ``detail`` is
    the human explanation; ``repairable`` marks findings ``fsck
    --repair`` knows how to resolve (completing/rolling back interrupted
    compactions, removing invisible partial state).  Checksum and codec
    corruption is *reported*, never "repaired" — there is no correct
    content to restore it to.
    """

    code: str
    path: str
    detail: str
    repairable: bool = False

    def __str__(self) -> str:
        flag = " [repairable]" if self.repairable else ""
        return f"{self.code}{flag} {self.path}: {self.detail}"


@dataclass
class FsckReport:
    """The outcome of one :func:`fsck_repository` sweep."""

    root: str
    findings: "list[Finding]" = field(default_factory=list)
    repaired: "list[str]" = field(default_factory=list)
    deep: bool = True
    #: Tail of the sibling maintenance log (newest last), so one fsck
    #: surfaces what the self-healing loop last decided and why.
    maintenance: "list[dict]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> "list[str]":
        return [finding.code for finding in self.findings]

    def to_dict(self) -> dict:
        return {
            "schema": "repro.fsck/v1",
            "root": self.root,
            "deep": self.deep,
            "findings": [
                {
                    "code": f.code,
                    "path": f.path,
                    "detail": f.detail,
                    "repairable": f.repairable,
                }
                for f in self.findings
            ],
            "repaired": list(self.repaired),
            "maintenance": list(self.maintenance),
        }


def _fsck_flat_repository(
    directory: Path, findings: "list[Finding]", deep: bool, chain: bool
) -> "dict | None":
    """Sweep one flat repository directory (a base or one generation).

    Appends findings instead of raising, and returns the manifest when
    it is sound.  The manifest goes through the open's own reader
    (:func:`~repro.setsystem.shards.read_manifest`), so its first
    defect is the one finding and ends the sweep; then every shard file
    goes through :func:`~repro.setsystem.shards.check_shard_file`, and
    (``deep``) the full-read checks run — per-shard CRC-32 and a decode
    of every row through its codec, held to the recorded largest set.
    """
    from repro.setsystem import shards as sh

    manifest_path = directory / sh.MANIFEST_NAME
    try:
        manifest, _ = sh.read_manifest(directory)
    except sh.ShardFormatError as exc:
        if exc.code != "missing-manifest":
            findings.append(Finding(exc.code, str(manifest_path), str(exc)))
            return None
        shard_files = sorted(p.name for p in directory.glob("shard-*.bin"))
        detail = (
            f"no {sh.MANIFEST_NAME}; {len(shard_files)} orphaned shard "
            "file(s) from an interrupted write"
            if shard_files
            else f"no {sh.MANIFEST_NAME}"
        )
        findings.append(
            Finding(
                "missing-manifest", str(directory), detail,
                repairable=bool(shard_files),
            )
        )
        return None
    before = len(findings)
    for meta in manifest["shards"]:
        shard_path = directory / meta["file"]
        try:
            sh.check_shard_file(directory, meta)
        except sh.ShardFormatError as exc:
            findings.append(Finding(exc.code, str(shard_path), str(exc)))
            continue
        if deep:
            crc = zlib.crc32(shard_path.read_bytes())
            if crc != meta["crc32"]:
                findings.append(
                    Finding(
                        "shard-checksum", str(shard_path),
                        f"CRC-32 {crc} != manifest {meta['crc32']}",
                    )
                )
    if deep and len(findings) == before:
        # Structure is sound and checksums hold; decode every row
        # through its codec so a corrupt payload that happens to keep
        # its CRC-equal bytes (hand-edited then re-checksummed) still
        # surfaces as a typed finding — and so does a recorded largest
        # set or dual bound the rows contradict (``stats-max-set``,
        # ``stats-dual-bound``).
        repo = None
        try:
            repo = sh.ShardedRepository(directory, base_only=True)
            repo.check_rows()
        except sh.ShardFormatError as exc:
            findings.append(Finding(exc.code, str(directory), str(exc)))
        finally:
            if repo is not None:
                repo.close()
    if chain:
        _fsck_chain(directory, manifest, findings, deep)
    return manifest


def _fsck_chain(
    root: Path, base_manifest: dict, findings: "list[Finding]", deep: bool
) -> None:
    """Sweep the delta chain: stray directories and files, then every
    ``delta.json`` through :func:`~repro.setsystem.deltas.read_delta_manifest`
    and every generation's insert shards."""
    from repro.setsystem import deltas as dl
    from repro.setsystem import shards as sh

    deltas_dir = root / sh.DELTAS_DIRNAME
    if not deltas_dir.is_dir():
        return
    generations = sh.pending_delta_generations(root)
    visible = {gen.name for gen in generations}
    for child in sorted(deltas_dir.iterdir()):
        if child.is_dir() and child.name not in visible:
            findings.append(
                Finding(
                    "orphan-generation", str(child),
                    f"generation directory without {sh.DELTA_MANIFEST_NAME} "
                    "(invisible partial write)",
                    repairable=True,
                )
            )
        elif child.is_file():
            findings.append(
                Finding(
                    "chain-foreign-file", str(child),
                    f"unexpected file in {sh.DELTAS_DIRNAME}/",
                )
            )
    # The chain manifests go through the open's own reader: its first
    # defect is the one chain finding and ends the chain sweep.
    try:
        chain = dl.read_delta_manifest(root, base_manifest["n"], base_manifest["m"])
    except sh.ShardFormatError as exc:
        findings.append(Finding(exc.code, str(deltas_dir), str(exc)))
        return
    for gen_dir, record in chain:
        gen_manifest = _fsck_flat_repository(gen_dir, findings, deep, chain=False)
        if gen_manifest is None:
            continue
        try:
            dl.check_insert_geometry(
                gen_dir, record, gen_manifest["n"], gen_manifest["m"]
            )
        except sh.ShardFormatError as exc:
            findings.append(Finding(exc.code, str(gen_dir), str(exc)))
            return
    if deep and generations and not findings:
        # The last delta.json's largest set is what opens read.
        try:
            with dl.MergedShardView(root) as view:
                view.check_rows()
        except sh.ShardFormatError as exc:
            findings.append(Finding(exc.code, str(root), str(exc)))


def _fsck_live_state(root: Path, report: FsckReport, repair: bool) -> None:
    """Sweep the sibling lease/retired state of in-place compaction.

    A lease whose holder pid is gone (or whose file is malformed) is
    inert debris — :func:`active_leases` never counts it as a live
    claim, so it cannot wedge reclamation; ``--repair`` prunes it with a
    note, a plain sweep ignores it (no finding: it self-resolves on the
    next reclaim pass).  A retired generation directory no *live* lease
    covers is ``retired-debris`` — legal but unreclaimed, repairable.
    An active lease and the retired epochs it covers are normal
    operation, never findings.
    """
    directory = leases_dir_for(root)
    if repair and directory.is_dir():
        for child in sorted(directory.iterdir()):
            if child.name == EPOCH_FILE_NAME or not child.is_file():
                continue
            claim = _read_lease(child)
            if claim is None:
                reason = "malformed lease file"
            elif not _pid_alive(claim[1]):
                reason = f"holder pid {claim[1]} is gone"
            else:
                continue  # a live claim
            child.unlink(missing_ok=True)
            report.repaired.append(
                f"pruned the stale lease {child.name} ({reason})"
            )
    retired_root = retired_dir_for(root)
    if not retired_root.is_dir():
        return
    if repair:
        for name in reclaim_retired(root):
            report.repaired.append(
                f"reclaimed the retired generation {name} "
                "(no live lease covers it)"
            )
        return
    leases = active_leases(root)
    floor = min((lease["epoch"] for lease in leases), default=None)
    for child in sorted(retired_root.iterdir()):
        covered = False
        if child.is_dir():
            try:
                covered = floor is not None and int(child.name) >= floor
            except ValueError:
                pass
        if not covered:
            report.findings.append(
                Finding(
                    "retired-debris", str(child),
                    "superseded generation files with no live lease "
                    "covering them (repair reclaims them)",
                    repairable=True,
                )
            )


def fsck_repository(
    root: "str | Path", repair: bool = False, deep: bool = True
) -> FsckReport:
    """Sweep every structural invariant of a repository into findings.

    Parameters
    ----------
    root:
        The repository directory (base + optional delta chain).
    repair:
        Resolve what is safely resolvable: complete (roll forward) an
        intent-journaled compaction, discard pre-intent staging
        directories, and remove invisible partial state (manifest-less
        generation directories, orphaned shard files of an interrupted
        base write).  Corruption findings (checksums, codecs, severed
        chains) are never "repaired" — there is no correct content to
        restore.  Repair actions are recorded in ``report.repaired`` and
        the sweep re-runs after them, so the returned findings describe
        the *post-repair* state.
    deep:
        Include the full-read checks (per-shard CRC-32 and a decode of
        every row).  ``deep=False`` is the cheap structural sweep.

    Returns
    -------
    FsckReport
        ``report.ok`` iff zero findings remain.
    """
    from repro.setsystem import shards as sh

    root = Path(root)
    report = FsckReport(root=str(root), deep=deep)
    try:
        from repro.setsystem.maintenance import read_maintenance_log

        report.maintenance = read_maintenance_log(root, limit=5)
    except ImportError:  # pragma: no cover - partial installs
        pass
    if not root.is_dir():
        report.findings.append(
            Finding("missing-repository", str(root), "not a directory")
        )
        return report

    if repair:
        # Phase 1: resolve interrupted compactions and stale staging
        # before the structural sweep — the sweep then describes the
        # repaired repository.  A corrupt journal is left alone (the
        # sweep reports it as intent-corrupt), and so is the staging it
        # may commit.
        try:
            intent = read_compact_intent(root)
        except sh.ShardFormatError:
            intent = None
        if intent is not None:
            try:
                recover_compaction(root)
            except sh.ShardFormatError as exc:
                # Roll-forward refused (staging lost or tampered with).
                # The chain is intact; report instead of crashing.
                report.findings.append(
                    Finding(
                        "intent-unresolvable",
                        str(root / COMPACT_INTENT_NAME), str(exc),
                    )
                )
            else:
                report.repaired.append(
                    "completed the interrupted compaction (rolled forward "
                    "from compact.intent)"
                )
        staging = staging_dir_for(root)
        if (
            staging.is_dir()
            and not (root / COMPACT_INTENT_NAME).exists()
            and not staging_is_live(root)
        ):
            shutil.rmtree(staging)
            report.repaired.append(
                f"removed the stale staging directory {staging.name} "
                "(compaction crashed before its intent journal)"
            )
        marker = staging_lock_for(root)
        if marker.exists() and not staging_is_live(root):
            try:
                marker.unlink()
            except OSError:  # pragma: no cover - foreign cleanup
                pass
            else:
                report.repaired.append(
                    f"removed the orphaned staging marker {marker.name} "
                    "(its compactor is gone)"
                )

    # Interrupted-compaction / staging findings (post-repair these are
    # gone and nothing is appended).
    try:
        intent = read_compact_intent(root)
    except sh.ShardFormatError as exc:
        # The staging may be the committed rewrite and the root a
        # half-replaced hybrid: the journal is the one finding.
        report.findings.append(
            Finding("intent-corrupt", str(root / COMPACT_INTENT_NAME),
                    str(exc))
        )
        return report
    if intent is not None:
        report.findings.append(
            Finding(
                "interrupted-compaction", str(root / COMPACT_INTENT_NAME),
                "a compaction crashed mid-replace; its intent journal "
                "commits the staged rewrite (repair rolls it forward)",
                repairable=True,
            )
        )
        # Everything below would describe the half-replaced hybrid; the
        # journal already tells the whole story.
        return report
    staging = staging_dir_for(root)
    if staging.is_dir() and not staging_is_live(root):
        report.findings.append(
            Finding(
                "stale-staging", str(staging),
                "staging directory without an intent journal — a "
                "compaction crashed before its commit point (repair "
                "discards it; the repository itself is intact)",
                repairable=True,
            )
        )

    # Compaction live state: stale leases, unreclaimed retired
    # generations (repair prunes + reclaims them before the sweep).
    _fsck_live_state(root, report, repair)

    before = len(report.findings)
    _fsck_flat_repository(root, report.findings, deep, chain=True)

    if repair:
        # Phase 2: remove invisible partial state found by the sweep.
        remaining: "list[Finding]" = report.findings[:before]
        for finding in report.findings[before:]:
            if finding.code == "orphan-generation":
                shutil.rmtree(finding.path)
                report.repaired.append(
                    f"removed the invisible partial generation "
                    f"{Path(finding.path).name}"
                )
            elif finding.code == "missing-manifest" and finding.repairable:
                for shard in Path(finding.path).glob("shard-*.bin"):
                    shard.unlink()
                report.repaired.append(
                    "removed orphaned shard files of an interrupted "
                    f"write in {finding.path}"
                )
            else:
                remaining.append(finding)
        if len(remaining) != len(report.findings):
            fsync_dir(root)
        report.findings = remaining
        # Cleaning deltas/ of its last orphan leaves an empty directory;
        # a pristine repository has none.
        deltas_dir = root / sh.DELTAS_DIRNAME
        if deltas_dir.is_dir() and not any(deltas_dir.iterdir()):
            deltas_dir.rmdir()
    return report
