"""Crash-safety of the shard store (DESIGN.md §12, ISSUE 8).

Three layers of assertion:

* **Crash matrix** — every registered ``REPRO_CRASHPOINT`` is fired in a
  subprocess (``tests/crashpoint_driver.py``) running exactly one
  storage operation; the parent asserts the process died with the
  sentinel exit code and that the repository reopens to one of the two
  legal states (the operation fully absent or fully applied — never a
  hybrid), that ``fsck --repair`` returns it to a zero-finding state,
  and that the interrupted operation can then be cleanly redone.
* **ENOSPC aborts** — the same injection points in ``mode=error`` raise
  ``OSError`` in-process; writers must abort cleanly (no partial
  generation, no stuck lock), and a crashed compaction's staging
  directory must be refused by later writers unless forced.
* **fsck taxonomy** — every corruption the storage layer can detect is
  built as a fixture and asserted to surface as its typed finding code.
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import pytest

from repro.dynamic import CheckpointError, DynamicCover, StaleCheckpointError
from repro.setsystem import SetSystem, save
from repro.setsystem.deltas import (
    DeltaShardWriter,
    _chain_checksum,
    apply_delta,
    chain_token,
    compact,
    open_repository,
)
from repro.setsystem.durability import (
    CRASHPOINT_EXIT_CODE,
    CRASHPOINTS,
    COMPACT_INTENT_NAME,
    EPOCH_FILE_NAME,
    StagingLock,
    active_leases,
    crashpoint,
    current_epoch,
    fsck_repository,
    leases_dir_for,
    reclaim_retired,
    retired_dir_for,
    staging_dir_for,
    staging_is_live,
    staging_lock_for,
    write_compact_intent,
)
from repro.setsystem.shards import (
    DELTA_MANIFEST_NAME,
    DELTAS_DIRNAME,
    InterruptedCompactionError,
    MANIFEST_NAME,
    RepositoryBusyError,
    ShardedRepository,
    ShardFormatError,
    StaleStagingError,
    write_shards,
)

DRIVER = Path(__file__).with_name("crashpoint_driver.py")

BASE_ROWS = [[0, 1], [2, 3], [4, 5], [6, 7], [1, 2], [5, 6]]
BATCH_1 = [{"op": "insert", "elements": [0, 3, 6]}, {"op": "delete", "id": 4}]
BATCH_2 = [{"op": "insert", "elements": [1, 4, 7]}, {"op": "delete", "id": 0}]


def _system() -> SetSystem:
    return SetSystem(8, BASE_ROWS)


def _rows(root) -> "list[list[int]]":
    with open_repository(root) as repo:
        return [sorted(row) for row in repo.iter_rows()]


def _tree_bytes(root) -> "dict[str, bytes]":
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_driver(args, crash=None, mode="exit"):
    env = os.environ.copy()
    if crash is not None:
        env["REPRO_CRASHPOINT"] = (
            crash if mode == "exit" else f"{crash},mode={mode}"
        )
    return subprocess.run(
        [sys.executable, str(DRIVER), *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def _build_chain(tmp_path, batches=(BATCH_1, BATCH_2)):
    root = write_shards(tmp_path / "root", _system(), chunk_rows=2)
    for batch in batches:
        apply_delta(root, batch)
    return root


def _clone(root, dest):
    """Copy a (possibly crashed) repository *with* its staging sibling."""
    dest = Path(shutil.copytree(root, dest))
    staging = staging_dir_for(root)
    if staging.is_dir():
        shutil.copytree(staging, staging_dir_for(dest))
    return dest


def _assert_clean(root, *, repair_first=False):
    if repair_first:
        fsck_repository(root, repair=True)
    report = fsck_repository(root)
    assert report.ok, f"fsck findings after repair: {report.codes()}"


# ----------------------------------------------------------------------
# Registry sanity
# ----------------------------------------------------------------------
def test_crashpoint_registry_is_closed():
    assert len(set(CRASHPOINTS)) == len(CRASHPOINTS)
    with pytest.raises(RuntimeError, match="unregistered crashpoint"):
        crashpoint("no.such.point")


def test_registered_crashpoints_are_inert_without_env(tmp_path):
    for name in CRASHPOINTS:
        crashpoint(name)  # must be a no-op, not an exit


# ----------------------------------------------------------------------
# Crash matrix: base writer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crash", ["writer.shard-flush", "writer.manifest"])
def test_create_crash_never_leaves_openable_partial(tmp_path, crash):
    save(_system(), tmp_path / "system.json")
    dest = tmp_path / "dest"
    proc = _run_driver(
        ["create", dest, tmp_path / "system.json", 2], crash=crash
    )
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    # The manifest is the commit point: it must not exist, so an open
    # can never see a half-written family.
    assert not (dest / MANIFEST_NAME).exists()
    report = fsck_repository(dest)
    assert not report.ok
    assert report.codes() in (["missing-repository"], ["missing-manifest"])
    # Repair clears the debris; the interrupted write can then be redone.
    fsck_repository(dest, repair=True)
    proc = _run_driver(["create", dest, tmp_path / "system.json", 2])
    assert proc.returncode == 0, proc.stderr
    reference = write_shards(tmp_path / "reference", _system(), chunk_rows=2)
    assert _tree_bytes(dest) == _tree_bytes(reference)
    _assert_clean(dest)


# ----------------------------------------------------------------------
# Crash matrix: delta append
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "crash", ["writer.shard-flush", "writer.manifest", "delta.staged"]
)
def test_delta_crash_is_invisible_until_committed(tmp_path, crash):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    pre = _rows(root)
    twin = Path(shutil.copytree(root, tmp_path / "twin"))
    apply_delta(twin, BATCH_2)
    post = _rows(twin)

    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps(BATCH_2))
    proc = _run_driver(["delta", root, ops], crash=crash)
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    # delta.json is the commit point; every injected crash precedes it,
    # so the reopened chain must equal the pre state (and never a
    # hybrid).  The two-legal-states form keeps the assertion honest if
    # a post-commit crashpoint is ever added.
    assert _rows(root) in (pre, post)
    assert _rows(root) == pre
    report = fsck_repository(root)
    assert all(f.repairable for f in report.findings), report.codes()
    _assert_clean(root, repair_first=True)
    # The batch still applies cleanly after repair, and lands the chain
    # byte-identical to the twin that never crashed.
    apply_delta(root, BATCH_2)
    assert _rows(root) == post
    assert _tree_bytes(root) == _tree_bytes(twin)


# ----------------------------------------------------------------------
# Crash matrix: in-place compaction
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "crash",
    [
        "writer.shard-flush",
        "writer.manifest",
        "compact.begin",
        "compact.staged",
        "compact.intent",
        "compact.shards-moved",
        "compact.manifest",
    ],
)
def test_compact_crash_reopens_to_exact_rows(tmp_path, crash):
    root = _build_chain(tmp_path)
    pre = _rows(root)
    reference = Path(shutil.copytree(root, tmp_path / "reference"))
    compact(reference)

    proc = _run_driver(["compact", root], crash=crash)
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr

    # Route 1: plain reopen.  open_repository rolls a journaled
    # compaction forward (or ignores pre-intent debris) on its own.
    route1 = _clone(root, tmp_path / "route1")
    assert _rows(route1) == pre
    assert not (route1 / COMPACT_INTENT_NAME).exists()

    # Route 2: fsck --repair, then a clean compaction must land the
    # repository byte-identical to one that never crashed.
    report = fsck_repository(root)
    assert all(f.repairable for f in report.findings), report.codes()
    _assert_clean(root, repair_first=True)
    assert _rows(root) == pre
    compact(root)
    assert _tree_bytes(root) == _tree_bytes(reference)


def test_lost_staging_refuses_instead_of_dropping_deltas(tmp_path):
    """A journaled compaction whose staging vanished must refuse loudly.

    Rolling forward without the staged files would keep the old base
    while deleting the delta chain — silent data loss.  The refusal
    leaves the chain fully readable once the journal is abandoned.
    """
    root = _build_chain(tmp_path)
    pre = _rows(root)
    proc = _run_driver(["compact", root], crash="compact.intent")
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    shutil.rmtree(staging_dir_for(root))
    with pytest.raises(ShardFormatError, match="staging directory"):
        open_repository(root)
    assert (root / DELTAS_DIRNAME).is_dir()
    report = fsck_repository(root, repair=True)
    assert "intent-unresolvable" in report.codes()
    assert (root / DELTAS_DIRNAME).is_dir()
    # Abandoning the journal restores normal operation, with every row.
    (root / COMPACT_INTENT_NAME).unlink()
    assert _rows(root) == pre
    compact(root)
    assert _rows(root) == pre
    _assert_clean(root)


def test_compact_crash_after_intent_is_rolled_forward(tmp_path):
    """Past the intent journal the *new* repository is the legal state."""
    root = _build_chain(tmp_path)
    proc = _run_driver(["compact", root], crash="compact.shards-moved")
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    assert (root / COMPACT_INTENT_NAME).is_file()
    # A raw base open must refuse the half-replaced hybrid...
    with pytest.raises(InterruptedCompactionError):
        ShardedRepository(root, base_only=True)
    # ...while the choke point recovers and serves the compacted repo.
    with open_repository(root) as repo:
        assert repo.pending_deltas == 0
    assert not (root / COMPACT_INTENT_NAME).exists()
    assert not (root / DELTAS_DIRNAME).exists()


@pytest.mark.parametrize("crash", ["writer.shard-flush", "writer.manifest"])
def test_compact_output_crash_leaves_source_untouched(tmp_path, crash):
    root = _build_chain(tmp_path)
    before = _tree_bytes(root)
    dest = tmp_path / "dest"
    proc = _run_driver(["compact-output", root, dest], crash=crash)
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    assert _tree_bytes(root) == before
    assert not (dest / MANIFEST_NAME).exists()
    _assert_clean(root)


# ----------------------------------------------------------------------
# Crash matrix: online compaction (ISSUE 9)
# ----------------------------------------------------------------------
def test_online_staging_crash_is_refused_then_repaired(tmp_path):
    """Crash before the swing: the staging is debris, the chain intact.

    ``compact.online-staged`` fires after the lock-free staging phase but
    before the repository lock / intent journal — the crashed compactor's
    staging directory plus its (now unheld) liveness marker are exactly
    the stale-staging shape later writers must refuse until repaired.
    """
    root = _build_chain(tmp_path)
    pre = _rows(root)
    reference = Path(shutil.copytree(root, tmp_path / "reference"))
    compact(reference, online=True)

    proc = _run_driver(["compact-online", root], crash="compact.online-staged")
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    assert staging_dir_for(root).is_dir()
    assert staging_lock_for(root).exists()
    assert not staging_is_live(root)  # the crash dropped the flock
    # Dead staging is loud for compactors, invisible to readers.
    with pytest.raises(StaleStagingError):
        compact(root, online=True)
    assert _rows(root) == pre
    report = fsck_repository(root)
    assert "stale-staging" in report.codes()
    assert all(f.repairable for f in report.findings), report.codes()
    report = fsck_repository(root, repair=True)
    assert report.ok, report.codes()
    assert not staging_dir_for(root).exists()
    assert not staging_lock_for(root).exists()
    # The redo lands the root byte-identical to a twin that never crashed.
    compact(root, online=True)
    assert _rows(root) == pre
    assert _tree_bytes(root) == _tree_bytes(reference)
    _assert_clean(root)


@pytest.mark.parametrize(
    "crash", ["compact.swing", "compact.retire", "lease.drain"]
)
def test_online_compact_crash_recovers_on_plain_reopen(tmp_path, crash):
    """Past the intent journal the fold is committed; a crash in the
    swing critical section (``compact.swing``), the retire tail
    (``compact.retire``) or the post-swing lease-drain reclaim
    (``lease.drain``) must roll forward on a plain reopen and come back
    byte-identical to a never-crashed twin after ``fsck --repair``."""
    root = _build_chain(tmp_path)
    pre = _rows(root)
    reference = Path(shutil.copytree(root, tmp_path / "reference"))
    compact(reference, online=True)

    proc = _run_driver(["compact-online", root], crash=crash)
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr

    # Route 1: plain reopen.  The journal (if still present) is rolled
    # forward by open_repository itself; rows are exactly the pre-fold
    # view either way.
    route1 = _clone(root, tmp_path / "route1")
    assert _rows(route1) == pre
    assert not (route1 / COMPACT_INTENT_NAME).exists()

    # Route 2: fsck --repair resolves the journal, the orphaned staging
    # marker and any unreclaimed retired generation in one pass.
    report = fsck_repository(root)
    assert all(f.repairable for f in report.findings), report.codes()
    _assert_clean(root, repair_first=True)
    assert _rows(root) == pre
    with open_repository(root) as repo:
        assert repo.pending_deltas == 0
    assert _tree_bytes(root) == _tree_bytes(reference)


def test_lease_drain_crash_leaves_retired_debris_finding(tmp_path):
    """A crash mid-reclaim leaves the superseded generation parked; it
    surfaces as the repairable ``retired-debris`` finding, never as data
    loss or a wedged repository."""
    root = _build_chain(tmp_path)
    proc = _run_driver(["compact-online", root], crash="lease.drain")
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    # The fold itself committed; only the reclaim was interrupted.
    assert retired_dir_for(root, 0).is_dir()
    assert current_epoch(root) == 1
    report = fsck_repository(root)
    assert "retired-debris" in report.codes()
    report = fsck_repository(root, repair=True)
    assert report.ok, report.codes()
    assert any("reclaimed the retired generation" in note
               for note in report.repaired)
    assert not retired_dir_for(root).exists()


# ----------------------------------------------------------------------
# Crash matrix: DynamicCover checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_crash_preserves_previous_checkpoint(tmp_path):
    root = _build_chain(tmp_path, batches=())
    ckpt = tmp_path / "cover.ckpt"
    with open_repository(root) as repo:
        DynamicCover(repo.n, enumerate(repo.iter_rows())).checkpoint(
            ckpt, root=root
        )
    before = ckpt.read_bytes()
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([{"op": "insert", "elements": [0, 7]}]))
    proc = _run_driver(
        ["checkpoint", root, ckpt, ops], crash="checkpoint.staged"
    )
    assert proc.returncode == CRASHPOINT_EXIT_CODE, proc.stderr
    assert ckpt.read_bytes() == before
    assert DynamicCover.restore(ckpt, root=root).m == len(BASE_ROWS)
    proc = _run_driver(["checkpoint", root, ckpt, ops])
    assert proc.returncode == 0, proc.stderr
    assert DynamicCover.restore(ckpt, root=root).m == len(BASE_ROWS) + 1


# ----------------------------------------------------------------------
# ENOSPC (mode=error): writers abort cleanly, locks release
# ----------------------------------------------------------------------
def test_write_shards_aborts_on_midwrite_enospc(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASHPOINT", "writer.shard-flush,mode=error")
    dest = tmp_path / "dest"
    with pytest.raises(OSError):
        write_shards(dest, _system(), chunk_rows=2)
    # Abort removed everything it created — no corpse for a later open.
    assert not dest.exists()
    monkeypatch.delenv("REPRO_CRASHPOINT")
    write_shards(dest, _system(), chunk_rows=2)
    _assert_clean(dest)


def test_apply_delta_aborts_on_midwrite_enospc(tmp_path, monkeypatch):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    before = _tree_bytes(root)
    monkeypatch.setenv("REPRO_CRASHPOINT", "delta.staged,mode=error")
    with pytest.raises(OSError):
        apply_delta(root, BATCH_2)
    assert _tree_bytes(root) == before
    monkeypatch.delenv("REPRO_CRASHPOINT")
    # The writer's lock was released by the abort: the retry proceeds.
    apply_delta(root, BATCH_2)
    with open_repository(root) as repo:
        assert repo.pending_deltas == 2


def test_compact_enospc_leaves_stale_staging_refused_until_forced(
    tmp_path, monkeypatch
):
    root = _build_chain(tmp_path)
    pre = _rows(root)
    monkeypatch.setenv("REPRO_CRASHPOINT", "compact.staged,mode=error")
    with pytest.raises(OSError):
        compact(root)
    monkeypatch.delenv("REPRO_CRASHPOINT")
    assert staging_dir_for(root).is_dir()
    assert _rows(root) == pre
    # Stale pre-intent staging is loud, never silently consumed.
    with pytest.raises(StaleStagingError):
        apply_delta(root, BATCH_2)
    with pytest.raises(StaleStagingError):
        compact(root)
    assert fsck_repository(root).codes() == ["stale-staging"]
    compact(root, force=True)
    assert _rows(root) == pre
    assert not staging_dir_for(root).exists()
    _assert_clean(root)


# ----------------------------------------------------------------------
# Generation leases + epoch-counted retirement (ISSUE 9)
# ----------------------------------------------------------------------
def test_live_lease_pins_the_superseded_generation(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    assert current_epoch(root) == 0
    with open_repository(root) as reader:
        pre = [sorted(row) for row in reader.iter_rows()]
        leases = active_leases(root)
        assert [lease["epoch"] for lease in leases] == [0]
        assert leases[0]["pid"] == os.getpid()
        compact(root, online=True)
        # The fold swung the manifest and bumped the epoch, but the
        # reader's lease pins the retired epoch-0 files...
        assert current_epoch(root) == 1
        assert retired_dir_for(root, 0).is_dir()
        assert reclaim_retired(root) == []
        # ...and the already-open handle still serves the exact old view.
        assert [sorted(row) for row in reader.iter_rows()] == pre
    # close() drained the last lease and reclaimed the retired family.
    assert active_leases(root) == []
    assert not retired_dir_for(root).exists()
    assert _rows(root) == pre
    _assert_clean(root)


def test_dead_pid_lease_is_inert_and_pruned_by_repair(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    proc = _run_driver(["open-hold", root])
    assert proc.returncode == 0, proc.stderr
    debris = [
        p for p in leases_dir_for(root).iterdir()
        if p.name != EPOCH_FILE_NAME
    ]
    assert len(debris) == 1
    # The holder pid is gone: never a live claim, never a plain finding
    # (it self-resolves on the next reclaim pass).
    assert active_leases(root) == []
    assert fsck_repository(root).ok
    report = fsck_repository(root, repair=True)
    assert report.ok
    assert any("stale lease" in note for note in report.repaired)
    assert [
        p for p in leases_dir_for(root).iterdir()
        if p.name != EPOCH_FILE_NAME
    ] == []


def test_staging_lock_distinguishes_live_from_dead_staging(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    assert not staging_is_live(root)
    with StagingLock(root):
        assert staging_is_live(root)
        # A second online compactor backs off instead of clobbering.
        with pytest.raises(RepositoryBusyError, match="online compaction"):
            StagingLock(root).acquire()
    assert not staging_is_live(root)
    assert not staging_lock_for(root).exists()


def test_live_staging_admits_writers_but_not_second_compactor(tmp_path):
    """During a live online staging phase, mutators proceed (that is the
    availability win) while a competing compactor is refused — and the
    staging directory is *not* misread as crash debris."""
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    staging_dir_for(root).mkdir()
    marker = StagingLock(root).acquire()
    try:
        apply_delta(root, BATCH_2)  # lands without error mid-staging
        with pytest.raises(RepositoryBusyError):
            compact(root)
        assert fsck_repository(root).ok  # live staging is not a finding
    finally:
        marker.release()
    shutil.rmtree(staging_dir_for(root))
    with open_repository(root) as repo:
        assert repo.pending_deltas == 2
    _assert_clean(root)


# ----------------------------------------------------------------------
# Advisory locking: concurrent writers fail loudly
# ----------------------------------------------------------------------
def test_concurrent_writers_and_compactors_are_refused(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    writer = DeltaShardWriter(root)
    try:
        with pytest.raises(RepositoryBusyError):
            apply_delta(root, BATCH_2)
        with pytest.raises(RepositoryBusyError):
            compact(root)
    finally:
        writer.abort()
    # Aborting released the lock; both operations proceed.
    apply_delta(root, BATCH_2)
    compact(root)
    _assert_clean(root)


def _hold_delta_writer(root, ready, release):
    """Child process body: hold the repository lock until released."""
    writer = DeltaShardWriter(root)
    try:
        ready.wait()  # barrier: both sides know the lock is held
        release.wait(timeout=30)
    finally:
        writer.abort()


def test_contending_process_is_named_in_the_busy_error(tmp_path):
    """Two real processes: the loser's error names the winner's pid."""
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Barrier(2)
    release = ctx.Event()
    child = ctx.Process(
        target=_hold_delta_writer, args=(root, ready, release)
    )
    child.start()
    try:
        ready.wait(timeout=30)
        with pytest.raises(RepositoryBusyError) as excinfo:
            apply_delta(root, BATCH_2)
        message = str(excinfo.value)
        assert f"pid={child.pid}" in message
        assert "purpose=delta-write" in message
    finally:
        release.set()
        child.join(timeout=30)
    assert child.exitcode == 0
    # The child's abort released the lock; the retry proceeds.
    apply_delta(root, BATCH_2)
    _assert_clean(root)


def test_missing_fcntl_degrades_to_noop_with_one_warning(tmp_path, monkeypatch):
    """Platforms without fcntl get exactly one loud RuntimeWarning."""
    from repro.setsystem import durability

    root = _build_chain(tmp_path, batches=(BATCH_1,))
    monkeypatch.setattr(durability, "fcntl", None)
    monkeypatch.setattr(durability, "_warned_no_fcntl", False)
    with pytest.warns(RuntimeWarning, match="degrades to a no-op"):
        apply_delta(root, BATCH_2)
    # Second acquire in the same process: silent (warn-once), and every
    # operation still works — the formats never *require* the lock.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compact(root)
        assert not staging_is_live(root)
    _assert_clean(root)


def test_stale_lock_file_from_a_dead_process_is_harmless(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    (root / ".repro-lock").touch()  # owner died without releasing
    apply_delta(root, BATCH_2)
    compact(root)
    assert not (root / ".repro-lock").exists()
    _assert_clean(root)


# ----------------------------------------------------------------------
# fsck taxonomy: every detectable corruption surfaces as its typed code
# ----------------------------------------------------------------------
def _edit_manifest(root, mutate):
    path = root / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _edit_chain(root, mutate, *, rechecksum=True, generation=1):
    path = root / DELTAS_DIRNAME / f"{generation:05d}" / DELTA_MANIFEST_NAME
    record = json.loads(path.read_text())
    mutate(record)
    if rechecksum:
        record["crc32"] = _chain_checksum(record)
    path.write_text(json.dumps(record, indent=2) + "\n")


def _corrupt_shard_byte(root):
    shard = sorted(root.glob("shard-*.bin"))[0]
    payload = bytearray(shard.read_bytes())
    payload[0] ^= 0xFF
    shard.write_bytes(bytes(payload))


TAXONOMY = {
    "missing-manifest": lambda root: (root / MANIFEST_NAME).unlink(),
    "manifest-unreadable": lambda root: (
        (root / MANIFEST_NAME).write_text("{not json")
    ),
    "manifest-schema": lambda root: _edit_manifest(
        root, lambda m: m.update(schema="repro.shards/v99")
    ),
    "manifest-malformed": lambda root: _edit_manifest(
        root, lambda m: m.pop("m")
    ),
    "manifest-geometry": lambda root: _edit_manifest(
        root, lambda m: m.update(words=m["words"] + 1)
    ),
    "manifest-rows": lambda root: _edit_manifest(
        root, lambda m: m.update(m=m["m"] + 1)
    ),
    "stats-missing": lambda root: _edit_manifest(
        root, lambda m: m["shards"][0].pop("stats")
    ),
    "stats-checksum": lambda root: _edit_manifest(
        root, lambda m: m.update(stats_crc32=m["stats_crc32"] ^ 1)
    ),
    "shard-missing": lambda root: sorted(root.glob("shard-*.bin"))[0].unlink(),
    "shard-size": lambda root: (
        sorted(root.glob("shard-*.bin"))[0].write_bytes(b"x")
    ),
    "shard-checksum": _corrupt_shard_byte,
    "intent-corrupt": lambda root: (
        (root / COMPACT_INTENT_NAME).write_text("{garbage")
    ),
    "stale-staging": lambda root: staging_dir_for(root).mkdir(),
    "orphan-generation": lambda root: (
        root / DELTAS_DIRNAME / "00002"
    ).mkdir(),
    "chain-foreign-file": lambda root: (
        root / DELTAS_DIRNAME / "stray.txt"
    ).touch(),
    "chain-gap": lambda root: (root / DELTAS_DIRNAME / "00001").rename(
        root / DELTAS_DIRNAME / "00002"
    ),
    "chain-unreadable": lambda root: (
        root / DELTAS_DIRNAME / "00001" / DELTA_MANIFEST_NAME
    ).write_text("{garbage"),
    "chain-schema": lambda root: _edit_chain(
        root, lambda r: r.update(schema="repro.deltas/v99")
    ),
    "chain-checksum": lambda root: _edit_chain(
        root, lambda r: r.update(inserts=r["inserts"] + 1), rechecksum=False
    ),
    "chain-malformed": lambda root: _edit_chain(
        root, lambda r: r.pop("inserts")
    ),
    "chain-geometry": lambda root: _edit_chain(
        root, lambda r: r.update(n=r["n"] + 1)
    ),
    "chain-severed": lambda root: (root / MANIFEST_NAME).write_text(
        (root / MANIFEST_NAME).read_text() + "\n"
    ),
    "chain-tombstone": lambda root: _edit_chain(
        root, lambda r: r.update(tombstones=[999])
    ),
    "retired-debris": lambda root: retired_dir_for(root, 0).mkdir(
        parents=True
    ),
}


@pytest.mark.parametrize("code", sorted(TAXONOMY))
def test_fsck_taxonomy(tmp_path, code):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    assert fsck_repository(root).ok
    TAXONOMY[code](root)
    report = fsck_repository(root)
    assert code in report.codes(), (
        f"expected {code} in {report.codes()}"
    )


def test_fsck_missing_repository(tmp_path):
    assert fsck_repository(tmp_path / "nowhere").codes() == [
        "missing-repository"
    ]


def test_fsck_shallow_skips_full_reads(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    _corrupt_shard_byte(root)
    assert "shard-checksum" in fsck_repository(root).codes()
    shallow = fsck_repository(root, deep=False)
    assert shallow.ok and not shallow.deep


def test_fsck_repair_never_touches_corruption(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    before = _tree_bytes(root)
    _corrupt_shard_byte(root)
    corrupted = _tree_bytes(root)
    report = fsck_repository(root, repair=True)
    assert report.codes() == ["shard-checksum"]
    assert report.repaired == []
    assert _tree_bytes(root) == corrupted != before


def test_fsck_repairs_orphan_generation_and_empty_chain_dir(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    compact(root)  # chain folded away; now fabricate debris
    (root / DELTAS_DIRNAME / "00001").mkdir(parents=True)
    report = fsck_repository(root, repair=True)
    assert report.ok and report.repaired
    assert not (root / DELTAS_DIRNAME).exists()


def test_fsck_repair_rolls_a_journaled_compaction_forward(tmp_path):
    root = _build_chain(tmp_path)
    pre = _rows(root)
    with open_repository(root) as view:
        merged = SetSystem(view.n, [sorted(r) for r in view.iter_rows()])
    staging = staging_dir_for(root)
    write_shards(staging, merged, chunk_rows=2)
    staged = sorted(p.name for p in staging.iterdir())
    old = sorted(p.name for p in root.glob("shard-*.bin")) + [MANIFEST_NAME]
    write_compact_intent(root, staged, old)
    assert fsck_repository(root).codes() == ["interrupted-compaction"]
    report = fsck_repository(root, repair=True)
    assert report.ok and report.repaired
    assert _rows(root) == pre
    with open_repository(root) as repo:
        assert repo.pending_deltas == 0


# ----------------------------------------------------------------------
# Durable DynamicCover checkpoints (tentpole e)
# ----------------------------------------------------------------------
def test_checkpoint_roundtrip_preserves_state_and_counters(tmp_path):
    dyn = DynamicCover(8, enumerate(BASE_ROWS), theta=2.0)
    dyn.insert(6, [0, 3, 6])
    dyn.delete(4)
    path = dyn.checkpoint(tmp_path / "cover.ckpt")
    twin = DynamicCover.restore(path)
    assert twin.cover == dyn.cover
    assert twin.levels() == dyn.levels()
    assert twin.stats() == dyn.stats()
    twin.verify()
    # The restored maintainer keeps maintaining, with the id high-water
    # mark intact (no stable-id reuse after restart).
    twin.insert(7, [2, 5])
    twin.delete(7)
    twin.verify()


def test_checkpoint_is_stale_once_the_chain_moves(tmp_path):
    root = _build_chain(tmp_path, batches=(BATCH_1,))
    token = chain_token(root)
    with open_repository(root) as repo:
        ids = repo.stable_ids
        dyn = DynamicCover(repo.n, zip(ids, repo.iter_rows()))
    path = dyn.checkpoint(tmp_path / "cover.ckpt", root=root)
    assert DynamicCover.restore(path, root=root).cover == dyn.cover
    apply_delta(root, BATCH_2)
    assert chain_token(root) != token
    with pytest.raises(StaleCheckpointError):
        DynamicCover.restore(path, root=root)
    # Without a root the checkpoint itself is still internally valid.
    DynamicCover.restore(path).verify()


def test_checkpoint_corruption_is_refused(tmp_path):
    dyn = DynamicCover(8, enumerate(BASE_ROWS))
    path = dyn.checkpoint(tmp_path / "cover.ckpt")
    record = json.loads(path.read_text())
    record["counters"]["updates"] += 1
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError):
        DynamicCover.restore(path)
    path.write_text("{not json")
    with pytest.raises(CheckpointError):
        DynamicCover.restore(path)
    with pytest.raises(CheckpointError):
        DynamicCover.restore(tmp_path / "missing.ckpt")


def test_checkpoint_checksum_covers_every_field(tmp_path):
    dyn = DynamicCover(8, enumerate(BASE_ROWS))
    path = dyn.checkpoint(tmp_path / "cover.ckpt")
    record = json.loads(path.read_text())
    expected = zlib.crc32(
        json.dumps(
            {k: v for k, v in record.items() if k != "crc32"},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
    )
    assert record["crc32"] == expected
