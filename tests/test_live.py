"""Live repositories: scans and writers overlapping an in-place
compaction (DESIGN.md §13) plus the self-healing maintenance loop.

The concurrency tests drive a *real* background-thread ``compact`` and
pause it mid-staging (by wrapping
``write_shards`` with an event gate), so the assertions run while the
compactor genuinely holds its staging window open:

* every scan started before, during or after the fold is bit-identical
  to a quiescent twin that never compacted concurrently;
* ``apply_delta`` issued during the staging window lands without error,
  and the compactor restages to fold it in.

The maintenance-loop tests exercise every decision the loop can journal
(skip / compact / busy / repair / give-up / error) with fake clocks and
sleeps, so they are deterministic and fast.
"""

import shutil
import threading
from pathlib import Path

import pytest

import repro.setsystem.deltas as deltas_mod
from repro.setsystem import SetSystem
from repro.setsystem.deltas import apply_delta, compact, open_repository
from repro.setsystem.durability import (
    StagingLock,
    current_epoch,
    fsck_repository,
    staging_dir_for,
)
from repro.setsystem.maintenance import (
    MAINTENANCE_SCHEMA,
    MaintenanceLoop,
    maintenance_log_for,
    read_maintenance_log,
    repository_pressure,
)
from repro.setsystem.shards import RepositoryBusyError, write_shards

BASE_ROWS = [[0, 1], [2, 3], [4, 5], [6, 7], [1, 2], [5, 6]]
BATCH_1 = [{"op": "insert", "elements": [0, 3, 6]}, {"op": "delete", "id": 4}]
BATCH_2 = [{"op": "insert", "elements": [1, 4, 7]}, {"op": "delete", "id": 0}]
BATCH_3 = [{"op": "insert", "elements": [2, 5]}, {"op": "delete", "id": 1}]


def _build_chain(tmp_path, batches=(BATCH_1, BATCH_2)):
    root = write_shards(tmp_path / "root", SetSystem(8, BASE_ROWS),
                        chunk_rows=2)
    for batch in batches:
        apply_delta(root, batch)
    return root


def _masks(root):
    with open_repository(root) as repo:
        return list(repo.iter_row_masks())


class _StagingGate:
    """Wrap ``write_shards`` so a staging write signals and then waits.

    Only the *staging* write (destination named ``<root>.compact-tmp``)
    is gated; base writes pass straight through.  The gate opens once
    and stays open, so the compactor's restage loop never deadlocks.
    """

    def __init__(self, monkeypatch):
        self.staged = threading.Event()
        self.proceed = threading.Event()
        self._real = deltas_mod.write_shards
        monkeypatch.setattr(deltas_mod, "write_shards", self)

    def __call__(self, dest, rows, **kwargs):
        result = self._real(dest, rows, **kwargs)
        if Path(dest).name.endswith(".compact-tmp"):
            self.staged.set()
            assert self.proceed.wait(timeout=30)
        return result


def _fold_in_background(root, errors):
    """Run ``compact`` in a thread, capturing any failure
    (a compaction error must fail the test, not vanish with the thread)."""
    def run():
        try:
            compact(root)
        except BaseException as exc:  # noqa: BLE001 - asserted by the test
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# Property: overlapping scans are bit-identical to a quiescent twin
# ----------------------------------------------------------------------
def test_scans_overlapping_online_compact_are_bit_identical(
    tmp_path, monkeypatch
):
    root = _build_chain(tmp_path)
    twin = Path(shutil.copytree(root, tmp_path / "twin"))
    expected = _masks(twin)

    gate = _StagingGate(monkeypatch)
    errors = []
    with open_repository(root) as live:
        before = list(live.iter_row_masks())
        thread = _fold_in_background(root, errors)
        assert gate.staged.wait(timeout=30)
        # Mid-staging: the long-lived handle and a brand-new one both
        # see exactly the pre-fold bits.
        during = list(live.iter_row_masks())
        with open_repository(root) as mid:
            fresh = list(mid.iter_row_masks())
        gate.proceed.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not errors, errors
        # Post-swing: the pre-fold handle keeps serving the same bits
        # (its mmaps pin the superseded family until the lease drains).
        after_swing = list(live.iter_row_masks())
    assert before == during == fresh == after_swing == expected
    # A handle opened after the fold sees the same rows from one clean
    # generation, and the twin that never compacted agrees bit-for-bit.
    assert _masks(root) == expected
    with open_repository(root) as folded:
        assert folded.pending_deltas == 0
    assert current_epoch(root) == 1
    assert fsck_repository(root).ok


def test_apply_delta_lands_during_online_staging(tmp_path, monkeypatch):
    root = _build_chain(tmp_path)
    twin = Path(shutil.copytree(root, tmp_path / "twin"))

    gate = _StagingGate(monkeypatch)
    errors = []
    thread = _fold_in_background(root, errors)
    assert gate.staged.wait(timeout=30)
    # The acceptance criterion: a delta issued during the compact lands
    # without error (the staging window holds no repository lock).
    apply_delta(root, BATCH_3)
    gate.proceed.set()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not errors, errors
    # The compactor noticed the moved chain token under its lock and
    # restaged, so the landed delta is folded in, not dropped.
    with open_repository(root) as repo:
        assert repo.pending_deltas == 0
    apply_delta(twin, BATCH_3)
    assert _masks(root) == _masks(twin)
    assert fsck_repository(root).ok


def test_compact_outrun_by_deltas_is_busy_after_five_restages(
    tmp_path, monkeypatch
):
    """A writer that lands a delta during every staging lap makes the
    fold give up with the busy error, leaving no staging and every
    generation in place."""
    root = _build_chain(tmp_path)
    real = deltas_mod.write_shards
    laps = []

    def stage_then_churn(dest, rows, **kwargs):
        result = real(dest, rows, **kwargs)
        if Path(dest).name.endswith(".compact-tmp"):
            laps.append(dest)
            apply_delta(root, [{"op": "insert", "elements": [len(laps)]}])
        return result

    monkeypatch.setattr(deltas_mod, "write_shards", stage_then_churn)
    with pytest.raises(RepositoryBusyError, match="outrun"):
        compact(root)
    assert len(laps) == 5
    assert not staging_dir_for(root).exists()
    with open_repository(root) as repo:
        assert repo.pending_deltas == 2 + 5
    assert fsck_repository(root).ok


def test_online_compact_of_clean_repository_is_a_noop(tmp_path):
    root = _build_chain(tmp_path, batches=())
    before = _masks(root)
    compact(root)
    assert _masks(root) == before
    assert current_epoch(root) == 0  # no fold, no epoch bump


# ----------------------------------------------------------------------
# Maintenance pressure signals
# ----------------------------------------------------------------------
def test_repository_pressure_reads_only_manifests(tmp_path):
    root = _build_chain(tmp_path)
    pressure = repository_pressure(root)
    assert pressure["generations"] == 2
    assert pressure["base_rows"] == len(BASE_ROWS)
    assert pressure["total_rows"] == len(BASE_ROWS) + 2  # one insert each
    assert pressure["dead_rows"] == 2  # ids 4 and 0 tombstoned
    assert pressure["live_rows"] == pressure["total_rows"] - 2
    assert pressure["dead_fraction"] == pytest.approx(2 / 8)
    # The signals agree with the expensive merged view.
    with open_repository(root) as repo:
        assert pressure["live_rows"] == repo.m
    # A clean single generation is zero pressure.
    compact(root)
    pressure = repository_pressure(root)
    assert pressure["generations"] == 0
    assert pressure["dead_fraction"] == 0.0


# ----------------------------------------------------------------------
# MaintenanceLoop decisions
# ----------------------------------------------------------------------
def _loop(root, **kwargs):
    kwargs.setdefault("sleep", lambda seconds: None)
    return MaintenanceLoop(root, **kwargs)


def test_maintain_skips_below_thresholds(tmp_path):
    root = _build_chain(tmp_path)
    record = _loop(root, max_generations=99).run_once()
    assert record["action"] == "skip"
    assert record["schema"] == MAINTENANCE_SCHEMA
    assert record["pressure"]["generations"] == 2
    # The decision was journaled durably to the sibling log.
    assert maintenance_log_for(root).is_file()
    assert read_maintenance_log(root)[-1] == record
    # The log is a *sibling* of the root: the tree itself is untouched.
    assert maintenance_log_for(root).parent == root.parent
    assert not any(root.rglob("*.maintenance.log"))


def test_maintain_compacts_on_generation_pressure(tmp_path):
    root = _build_chain(tmp_path)
    record = _loop(root, max_generations=2).run_once()
    assert record["action"] == "compact"
    assert record["attempts"] == 1
    assert "generations 2 >= 2" in record["reason"]
    with open_repository(root) as repo:
        assert repo.pending_deltas == 0
    assert current_epoch(root) == 1
    assert _loop(root, max_generations=2).run_once()["action"] == "skip"


def test_maintain_compacts_on_dead_fraction_pressure(tmp_path):
    root = _build_chain(tmp_path)
    record = _loop(
        root, max_generations=99, max_dead_fraction=0.25
    ).run_once()
    assert record["action"] == "compact"
    assert "dead_fraction" in record["reason"]


def test_maintain_backs_off_on_contention_then_gives_up(tmp_path):
    root = _build_chain(tmp_path)
    sleeps = []
    loop = MaintenanceLoop(
        root,
        max_generations=1,
        retry={"attempts": 3, "backoff": 0.25, "jitter": 0.0},
        sleep=sleeps.append,
    )
    with StagingLock(root):  # a live compactor holds the marker
        record = loop.run_once()
    assert record["action"] == "give-up"
    assert record["attempts"] == 3
    # Exponential backoff between attempts (jitter zeroed): 0.25, 0.5.
    assert sleeps == [0.25, 0.5]
    actions = [r["action"] for r in read_maintenance_log(root)]
    assert actions == ["busy", "busy", "busy", "give-up"]
    # Contention cleared: the next cycle succeeds from scratch.
    record = loop.run_once()
    assert record["action"] == "compact"


def test_maintain_repairs_stale_staging_then_compacts(tmp_path):
    root = _build_chain(tmp_path)
    staging_dir_for(root).mkdir()  # crash debris, no live marker
    record = _loop(root, max_generations=1).run_once()
    assert record["action"] == "compact"
    assert record["attempts"] == 1  # the one-time self-heal is free
    actions = [r["action"] for r in read_maintenance_log(root)]
    assert actions == ["repair", "compact"]
    assert not staging_dir_for(root).exists()
    assert fsck_repository(root).ok


def test_watch_paces_cycles_and_survives_errors(tmp_path):
    root = _build_chain(tmp_path)
    compact(root)
    sleeps = []
    loop = MaintenanceLoop(
        root, max_generations=99, interval=5.0, sleep=sleeps.append
    )
    records = loop.watch(cycles=3)
    assert [r["action"] for r in records] == ["skip"] * 3
    assert sleeps == [5.0, 5.0]  # between cycles, not after the last
    # An unreadable repository is journaled, never fatal to the loop.
    shutil.rmtree(root)
    records = loop.watch(cycles=2)
    assert [r["action"] for r in records] == ["error", "error"]
    assert "no manifest.json" in records[0]["error"]


def test_watch_duration_budget_uses_the_injected_clock(tmp_path):
    root = _build_chain(tmp_path)
    compact(root)
    ticks = iter(range(100))
    loop = MaintenanceLoop(
        root,
        max_generations=99,
        interval=0.0,
        clock=lambda: next(ticks),
        sleep=lambda seconds: None,
    )
    records = loop.watch(duration=3)
    assert 1 <= len(records) <= 3
    assert all(r["action"] == "skip" for r in records)


def test_maintenance_loop_validates_knobs(tmp_path):
    root = _build_chain(tmp_path)
    with pytest.raises(ValueError, match="max_generations"):
        MaintenanceLoop(root, max_generations=0)
    with pytest.raises(ValueError, match="max_dead_fraction"):
        MaintenanceLoop(root, max_dead_fraction=0.0)
    with pytest.raises(ValueError, match="interval"):
        MaintenanceLoop(root, interval=-1)
    with pytest.raises(ValueError):
        MaintenanceLoop(root, retry={"no_such_knob": 1})


def test_read_maintenance_log_skips_torn_lines(tmp_path):
    root = _build_chain(tmp_path)
    _loop(root, max_generations=99).run_once()
    with open(maintenance_log_for(root), "a", encoding="utf-8") as handle:
        handle.write('{"torn": ')  # crash mid-append
    _loop(root, max_generations=99).run_once()
    records = read_maintenance_log(root)
    assert [r["action"] for r in records] == ["skip", "skip"]
    assert read_maintenance_log(root, limit=1) == records[-1:]
    assert read_maintenance_log(tmp_path / "nowhere") == []


def test_fsck_surfaces_the_maintenance_tail(tmp_path):
    root = _build_chain(tmp_path)
    loop = _loop(root, max_generations=1)
    for _ in range(7):
        loop.run_once()
    report = fsck_repository(root)
    assert report.ok
    assert len(report.maintenance) == 5  # the tail, not the whole log
    assert report.maintenance[0]["action"] in {"skip", "compact"}
    assert all(r["schema"] == MAINTENANCE_SCHEMA
               for r in report.maintenance)


# ----------------------------------------------------------------------
# Churn while cached: the hot chunk cache never serves a stale chunk
# ----------------------------------------------------------------------
def test_warm_cache_survives_compaction_without_staleness(tmp_path):
    from repro.engine import SerialScanExecutor
    from repro.engine.cache import configure_cache, get_cache

    root = _build_chain(tmp_path)
    mask = (1 << 8) - 1
    executor = SerialScanExecutor()
    configure_cache("8m")
    try:
        with open_repository(root) as view:
            cold = executor.scan_repository(view, mask)
            warm = executor.scan_repository(view, mask)
        assert list(cold.gains) == list(warm.gains)
        stats = get_cache().stats()
        assert stats["hits"] > 0, stats
        # Compaction rewrites the repository in place: the cache token
        # changes, so every warm entry becomes unreachable by key.
        compact(root)
        with open_repository(root) as view:
            cached_after = executor.scan_repository(view, mask)
        configure_cache("off")
        with open_repository(root) as view:
            reference = executor.scan_repository(view, mask)
        assert list(cached_after.gains) == list(reference.gains)
        assert cached_after.captured == reference.captured
    finally:
        configure_cache(None)


def test_warm_cache_with_online_compaction_stays_bit_identical(tmp_path):
    from repro.engine import SerialScanExecutor
    from repro.engine.cache import configure_cache

    root = _build_chain(tmp_path)
    mask = (1 << 8) - 1
    executor = SerialScanExecutor()
    configure_cache("8m")
    try:
        with open_repository(root) as view:
            executor.scan_repository(view, mask)  # warm the cache
        compact(root)
        apply_delta(root, BATCH_3)
        with open_repository(root) as view:
            churned = executor.scan_repository(view, mask)
        configure_cache("off")
        with open_repository(root) as view:
            reference = executor.scan_repository(view, mask)
        assert list(churned.gains) == list(reference.gains)
    finally:
        configure_cache(None)
