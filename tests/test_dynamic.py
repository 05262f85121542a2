"""Dynamic subsystem tests: delta shards, DynamicCover, churn parity.

The headline is the randomized churn-parity property suite
(:mod:`tests.churn`): hundreds of random insert/delete/compact
interleavings, each asserting after every step that the merged read
view equals a from-scratch reference (rows, stats, cost estimates),
that compaction is byte-identical to a clean rewrite, and that the
incremental :class:`repro.dynamic.DynamicCover` stays a valid cover
within its documented factor — across every instance family
(``tests/families.py``).  Satellite coverage: delta-chain corruption
taxonomy (typed :class:`~repro.setsystem.shards.ShardFormatError`),
the no-delta open regression (v3 opens, v1/v2 are refused untouched),
the remote-transport refusal, and DynamicCover unit edges.
"""

from __future__ import annotations

import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicCover, dynamic_approx_factor
from repro.offline.greedy import InfeasibleInstanceError
from repro.setsystem import SetSystem
from repro.setsystem.deltas import (
    DELTA_MANIFEST_NAME,
    DeltaShardWriter,
    MergedShardView,
    apply_delta,
    compact,
    open_repository,
)
from repro.setsystem.durability import leases_dir_for
from repro.setsystem.packed import ScanMask, pack_rows, scan_chunk
from repro.setsystem.shards import (
    MANIFEST_NAME,
    SHARD_SCHEMA,
    PendingDeltaError,
    ShardedRepository,
    ShardFormatError,
    write_shards,
)
from repro.streaming import SetStream
from repro.streaming.sharded import ShardedSetStream
from repro.workloads.churn import ChurnScript, delete_storm, rolling_blog_watch

from churn import drive_scenario, random_scenario
from families import assert_same_payload

# ----------------------------------------------------------------------
# Churn-parity property suite (the test tentpole)
# ----------------------------------------------------------------------
# 6 matrix cells x 17 seeds = 102 random interleavings, each checked
# step-by-step (merged rows == reference, cover valid + bounded) and at
# endgame (stats, cost estimates, byte-identical compaction, identical
# iter_set_cover solves between the chain and a from-scratch rebuild).
_MATRIX = [
    # instance family per cell (tests/families.py); a cell's seeds are
    # 1000 * cell + i
    "auto", "dense", "sparse", "auto", "rle", "auto",
]
_SEEDS_PER_CELL = 17


@pytest.mark.parametrize(
    "cell,family",
    list(enumerate(_MATRIX)),
    ids=[f"cell{cell}-{e}" for cell, e in enumerate(_MATRIX)],
)
def test_churn_parity_matrix(tmp_path, cell, family):
    from repro.engine.cache import configure_cache, get_cache

    incremental = []
    # The sweep doubles as the hot-cache leak check: a deliberately
    # tight byte budget forces constant eviction across ~100 scenarios
    # of churn, and the budget must hold at every step — a stale entry
    # pinned past its generation would show up here as byte growth.
    configure_cache("2m")
    for index in range(_SEEDS_PER_CELL):
        seed = 1000 * cell + index
        scenario = random_scenario(seed, family=family)
        outcome = drive_scenario(
            scenario,
            tmp_path / f"s{seed}",
            chunk_rows=5 + (seed % 4),
            # Keep the per-cell runtime down: the full solve referee runs
            # on a third of the scenarios; rows/stats/compaction parity
            # runs on every step of every scenario.
            solve=(index % 3 == 0),
        )
        stats = outcome["stats"]
        if stats["updates"]:
            incremental.append(stats["incremental_fraction"])
        cache = get_cache().stats()
        assert cache["bytes"] <= cache["max_bytes"], cache
        assert cache["entries"] >= 0 and cache["bytes"] >= 0, cache
    configure_cache(None)  # back to the environment default
    # The acceptance bar: the maintainer absorbs >= 90% of updates
    # without a full re-solve, on aggregate across the cell's scenarios.
    assert sum(incremental) / len(incremental) >= 0.9, incremental


# ----------------------------------------------------------------------
# Differential chain gate: a chain scans as its compaction does
# ----------------------------------------------------------------------
@st.composite
def _chain_cases(draw):
    """A tiny family, one or two delta generations over it, a chunk size,
    a residual mask and a capture rule."""
    n = draw(st.integers(1, 140))
    element = st.integers(0, n - 1)
    row = st.one_of(
        st.lists(element, max_size=3, unique=True),                  # sparse
        st.tuples(element, st.integers(1, n)).map(                   # a run
            lambda run: list(range(run[0], min(n, run[0] + run[1])))),
        st.tuples(st.integers(0, 1), st.sets(element, max_size=3)).map(
            # every other element, give or take three: dense once n >= 22
            lambda alt: sorted({e for e in range(n) if e % 2 == alt[0]} ^ alt[1])),
    )
    base = draw(st.lists(row, min_size=1, max_size=12))
    generations = []
    for _ in range(draw(st.integers(1, 2))):
        generations.append((
            draw(st.sets(st.integers(0, 40), max_size=5)),  # victims, by rank
            draw(st.lists(row, max_size=6)),
        ))
    mode = draw(st.sampled_from(("gain", "best", "ids")))
    kwargs = ({"best_only": True} if mode == "best"
              else {"min_capture_gain": draw(st.integers(0, 3))})
    if mode == "ids":
        kwargs["capture_ids"] = draw(st.sets(st.integers(0, 40)))
    return (n, base, generations, draw(st.integers(1, 5)),
            draw(st.integers(0, (1 << n) - 1)), kwargs)


@settings(max_examples=60, deadline=None)
@given(_chain_cases())
def test_chain_decodes_and_scans_as_its_compaction(case):
    """Per chunk, the merged view's ``decode_chunk`` payload and resident
    bytes equal its compaction's, and so do the gains and captures of
    the one ``scan_decoded``; a stream over the chain scans as
    ``SetStream`` over the live family."""
    n, base, generations, chunk_rows, mask_int, kwargs = case
    live = [sorted(row) for row in base]
    with tempfile.TemporaryDirectory() as tmp:
        root = write_shards(Path(tmp) / "chain", base, n=n, chunk_rows=chunk_rows)
        for victims, inserts in generations:
            with MergedShardView(root) as view:
                stable = view.stable_ids
            dead = sorted({rank % len(live) for rank in victims}) if live else []
            apply_delta(root, [{"op": "delete", "id": stable[i]} for i in dead]
                        + [{"op": "insert", "elements": row} for row in inserts])
            live = [r for i, r in enumerate(live) if i not in dead] + [
                sorted(row) for row in inserts]
        compacted = compact(root, output=Path(tmp) / "compacted")
        mask = ScanMask(n, mask_int)
        with MergedShardView(root) as view, ShardedRepository(compacted) as flat:
            assert view.shard_count == flat.shard_count
            for shard in range(view.shard_count):
                payload = view.decode_chunk(shard)
                assert_same_payload(payload, flat.decode_chunk(shard), shard)
                tags = flat._record_table(shard)[0]
                event("all-dense chunk" if not tags.any() else "mixed chunk")
                start, gains, captured = view.scan_decoded(
                    shard, payload[0], mask, **kwargs)
                flat_start, flat_gains, flat_captured = flat.scan_decoded(
                    shard, flat.decode_chunk(shard)[0], mask, **kwargs)
                assert start == flat_start
                assert gains.tolist() == flat_gains.tolist()
                assert captured == flat_captured
                assert captured.sparse == flat_captured.sparse
        stream = ShardedSetStream(root)
        try:
            got = stream.scan_gains(mask_int, **kwargs)
        finally:
            stream.close()
    system = SetSystem(n, live)
    expected = SetStream(system).scan_gains(mask_int, **kwargs)
    assert np.asarray(got.gains).tolist() == np.asarray(expected.gains).tolist()
    if not mask_int:
        # Repositories answer an empty mask without reading a chunk, so
        # they capture nothing there; the in-memory kernel scans it.
        assert got.captured == []
    elif kwargs.get("best_only"):
        # Each chunk captures its own first max: the packed kernel over
        # the live rows in the same chunks.
        rows = pack_rows(system.masks(), -(-n // 64))
        assert got.captured == [
            pair for start in range(0, system.m, chunk_rows)
            for pair in scan_chunk(start, rows[start:start + chunk_rows], mask,
                                   best_only=True)[1]
        ]
    else:
        assert got.captured == expected.captured


def test_churn_parity_survives_restarts(tmp_path):
    """Checkpoint/restore after every step preserves the churn bar.

    The maintainer is torn down and rebuilt from its durable checkpoint
    (bound to the chain token) after *each* scenario step; every
    per-step property — cover validity, the documented factor bound,
    merged-view parity — is then asserted against the restored
    instance, and the >= 90% incremental-fraction floor must hold with
    the counters carried across restarts.
    """
    incremental = []
    for index in range(8):
        seed = 7000 + index
        outcome = drive_scenario(
            random_scenario(seed),
            tmp_path / f"s{seed}",
            chunk_rows=5 + (seed % 4),
            solve=(index % 4 == 0),
            restart_every=1,
        )
        assert outcome["restarts"] == len(random_scenario(seed).steps)
        stats = outcome["stats"]
        if stats["updates"]:
            incremental.append(stats["incremental_fraction"])
    assert sum(incremental) / len(incremental) >= 0.9, incremental


def test_generated_churn_scripts_replay(tmp_path):
    """The shipped churn workloads replay through the same referee."""
    for name, script in (
        ("rolling", rolling_blog_watch(
            topics=40, blogs=80, generations=4, batch=4, seed=3)),
        ("storm", delete_storm(
            topics=40, blogs=80, generations=3, batch=5, seed=3)),
    ):
        root = write_shards(
            tmp_path / name, SetSystem(script.n, script.base), chunk_rows=16
        )
        for k, batch in enumerate(script.batches, start=1):
            apply_delta(root, batch)
            with MergedShardView(root) as view:
                assert [sorted(r) for r in view.iter_rows()] == [
                    sorted(r) for r in script.live_rows(k)
                ]
        roundtrip = ChurnScript.from_json(script.to_json())
        assert roundtrip == script


# ----------------------------------------------------------------------
# Delta-chain corruption taxonomy — every fault is a typed error
# ----------------------------------------------------------------------
@pytest.fixture
def chained(tmp_path):
    """A small repository with two delta generations."""
    system = SetSystem(8, [[0, 1], [2, 3], [4, 5], [6, 7], [0, 4], [1, 5]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    apply_delta(root, [
        {"op": "insert", "elements": [2, 6]},
        {"op": "delete", "id": 4},
    ])
    apply_delta(root, [
        {"op": "insert", "elements": [3, 7]},
        {"op": "delete", "id": 6},
    ])
    return root


def test_tombstone_for_never_written_row_is_rejected(chained):
    # At write time: the writer refuses out-of-range and dead ids.
    writer = DeltaShardWriter(chained)
    try:
        with pytest.raises(ValueError, match="parent view holds"):
            writer.delete(99)
        with pytest.raises(ValueError, match="already deleted"):
            writer.delete(4)
    finally:
        writer.abort()
    # At read time: a hand-tampered manifest fails with a typed error.
    manifest_path = chained / "deltas" / "00002" / DELTA_MANIFEST_NAME
    record = json.loads(manifest_path.read_text())
    record["tombstones"] = [99]
    record["crc32"] = zlib.crc32(json.dumps(
        {k: v for k, v in sorted(record.items()) if k != "crc32"},
        sort_keys=True, separators=(",", ":"),
    ).encode()) & 0xFFFFFFFF
    manifest_path.write_text(json.dumps(record))
    with pytest.raises(ShardFormatError, match="tombstone"):
        MergedShardView(chained)


def test_generation_gap_is_rejected(chained):
    (chained / "deltas" / "00002").rename(chained / "deltas" / "00005")
    with pytest.raises(ShardFormatError, match="generation"):
        MergedShardView(chained)


def test_tampered_delta_stats_crc32_is_rejected(chained):
    gen_manifest = chained / "deltas" / "00001" / MANIFEST_NAME
    manifest = json.loads(gen_manifest.read_text())
    manifest["shards"][0]["stats"]["set_bits"] += 1
    gen_manifest.write_text(json.dumps(manifest))
    with pytest.raises(ShardFormatError, match="stats checksum"):
        MergedShardView(chained)


def test_truncated_delta_shard_is_rejected(chained):
    shard = next((chained / "deltas" / "00001").glob("shard-*.bin"))
    shard.write_bytes(shard.read_bytes()[:-1])
    with pytest.raises(ShardFormatError, match="truncated or corrupt"):
        MergedShardView(chained)


def test_tampered_chain_self_checksum_is_rejected(chained):
    manifest_path = chained / "deltas" / "00001" / DELTA_MANIFEST_NAME
    record = json.loads(manifest_path.read_text())
    record["inserts"] += 1
    manifest_path.write_text(json.dumps(record))
    with pytest.raises(ShardFormatError, match="checksum"):
        MergedShardView(chained)


def test_severed_parent_anchor_is_rejected(chained):
    # Rewriting the base manifest (even with equivalent JSON) changes its
    # bytes, severing generation 1's parent_crc32 anchor.
    manifest_path = chained / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(json.loads(manifest_path.read_text()), indent=4)
    )
    with pytest.raises(ShardFormatError, match="parent"):
        MergedShardView(chained)


def test_plain_open_refuses_pending_deltas(chained):
    with pytest.raises(PendingDeltaError, match="pending delta"):
        ShardedRepository(chained)
    # base_only is the explicit escape hatch (parent-view access).
    with ShardedRepository(chained, base_only=True) as repo:
        assert repo.m == 6 and repo.pending_deltas == 2


def test_remote_transport_refuses_merged_views(chained):
    with pytest.raises(ValueError, match="remote transport"):
        ShardedSetStream(chained, workers=[("localhost", 9)])


def test_refused_remote_open_releases_its_generation_lease(chained):
    """The refusal closes the merged view it opened, lease included."""
    with pytest.raises(ValueError, match="remote transport"):
        ShardedSetStream(chained, workers=[("localhost", 9)])
    leases = leases_dir_for(chained)
    assert not leases.exists() or list(leases.iterdir()) == []


def test_delta_writer_abort_leaves_no_trace(tmp_path):
    system = SetSystem(4, [[0, 1], [2, 3]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    before = sorted(p.name for p in root.iterdir())
    writer = DeltaShardWriter(root)
    writer.append([0, 2])
    writer.abort()
    assert sorted(p.name for p in root.iterdir()) == before
    with ShardedRepository(root) as repo:  # no pending deltas left behind
        assert repo.pending_deltas == 0


# ----------------------------------------------------------------------
# No-delta regression: v3 opens untouched, older schemas are refused
# ----------------------------------------------------------------------
def _snapshot(root):
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def test_no_delta_repositories_open_byte_identically(tmp_path):
    system = SetSystem(10, [[i, (i + 1) % 10] for i in range(10)])
    root = write_shards(tmp_path / "v3", system, chunk_rows=3)
    snapshot = _snapshot(root)
    # open_repository hands back a plain repository (not a merged view),
    # reads the same rows, and leaves every byte untouched.
    with open_repository(root, verify=True) as repo:
        assert isinstance(repo, ShardedRepository)
        assert not isinstance(repo, MergedShardView)
        assert repo.schema == SHARD_SCHEMA
        assert repo.to_system() == system
    assert _snapshot(root) == snapshot, "opening mutated the repository"

    # A v1/v2 manifest is refused by name, and nothing is rewritten.
    for schema in ("repro.shards/v1", "repro.shards/v2"):
        old = write_shards(tmp_path / schema.replace("/", "_"), system,
                           chunk_rows=3)
        manifest = json.loads((old / MANIFEST_NAME).read_text())
        manifest["schema"] = schema
        (old / MANIFEST_NAME).write_text(json.dumps(manifest))
        snapshot = _snapshot(old)
        for opener in (ShardedRepository, open_repository):
            with pytest.raises(ShardFormatError, match=schema) as excinfo:
                opener(old)
            assert excinfo.value.code == "manifest-schema"
        assert _snapshot(old) == snapshot, f"{schema}: the refusal wrote"


def test_compact_is_noop_on_clean_repository(tmp_path):
    system = SetSystem(6, [[0, 1, 2], [3, 4, 5], [1, 4]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    snapshot = {p.name: p.read_bytes() for p in root.iterdir()}
    assert compact(root) == root
    assert {p.name: p.read_bytes() for p in root.iterdir()} == snapshot


# ----------------------------------------------------------------------
# DynamicCover unit edges
# ----------------------------------------------------------------------
def test_dynamic_cover_basic_validity():
    dyn = DynamicCover(4, [(0, [0, 1]), (1, [2, 3]), (2, [0, 2])])
    assert dyn.is_valid_cover()
    dyn.verify()
    assert dyn.cover_size <= dyn.approx_factor


def test_dynamic_cover_factor_documented():
    # 4 * (floor(log2 n) + 2): every level is within 2x of its density,
    # times the greedy H_n <= log n + 1 per level (DESIGN.md §11).
    assert dynamic_approx_factor(1) == 4 * 2
    assert dynamic_approx_factor(1024) == 4 * 12
    dyn = DynamicCover(16, [(0, range(16))])
    assert dyn.approx_factor == dynamic_approx_factor(16)


def test_dynamic_cover_infeasible_delete_is_refused():
    dyn = DynamicCover(3, [(0, [0, 1]), (1, [1, 2])])
    with pytest.raises(InfeasibleInstanceError):
        dyn.delete(0)  # element 0 has no other home
    dyn.verify()  # state unchanged and still valid
    assert sorted(dyn.rows()) == [0, 1]


def test_dynamic_cover_id_hygiene():
    dyn = DynamicCover(4, [(0, [0, 1]), (1, [2, 3])])
    with pytest.raises(ValueError, match="already live"):
        dyn.insert(1, [0])
    with pytest.raises(KeyError):
        dyn.delete(7)
    with pytest.raises(ValueError, match="non-negative"):
        dyn.insert(-1, [0])


def test_dynamic_cover_ids_stay_monotonic_after_deleting_max():
    # Regression: auto-assigned ids must never be reused after deleting
    # the highest id, or the maintainer drifts from the delta chain's
    # stable-id sequence.
    dyn = DynamicCover(4, [(0, [0, 1, 2, 3])])
    dyn.apply([{"op": "insert", "elements": [0, 1]}])   # id 1
    dyn.apply([{"op": "delete", "id": 1}])
    dyn.apply([{"op": "insert", "elements": [2, 3]}])   # must become id 2
    assert sorted(dyn.rows()) == [0, 2]


def test_dynamic_cover_full_solve_budget():
    dyn = DynamicCover(6, [(i, [i]) for i in range(6)], theta=0.5)
    solves_before = dyn.full_solves
    # Deleting singletons that are covered elsewhere is impossible here;
    # pile on inserts instead and watch the budget trigger eventually.
    for k in range(40):
        dyn.insert(6 + k, [k % 6, (k + 1) % 6])
    dyn.verify()
    stats = dyn.stats()
    assert stats["updates"] == 40
    assert dyn.full_solves >= solves_before  # budget may or may not fire
    assert dyn.is_valid_cover()


def test_merged_view_matches_delta_writer_ids(tmp_path):
    """DeltaShardWriter's returned stable ids line up with the view."""
    system = SetSystem(6, [[0, 1, 2], [3, 4, 5], [0, 3]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    with DeltaShardWriter(root) as writer:
        assert writer.append([1, 4]) == 3
        writer.delete(2)
        assert writer.append([2, 5]) == 4
    with MergedShardView(root) as view:
        assert list(view.stable_ids) == [0, 1, 3, 4]
        assert [sorted(r) for r in view.iter_rows()] == [
            [0, 1, 2], [3, 4, 5], [1, 4], [2, 5],
        ]


# ----------------------------------------------------------------------
# Checkpoint remap across a compaction (ISSUE 9)
# ----------------------------------------------------------------------
def test_checkpoint_remap_survives_a_compaction(tmp_path):
    """A compaction renumbers stable ids but moves no masks; with
    ``allow_remap=True`` a checkpoint follows the fold instead of dying
    as stale — the self-healing maintenance loop depends on this."""
    from repro.dynamic import StaleCheckpointError

    system = SetSystem(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    apply_delta(root, [{"op": "insert", "elements": [0, 2, 3]},
                       {"op": "delete", "id": 1}])
    with open_repository(root) as repo:
        cover = DynamicCover(repo.n, zip(repo.stable_ids, repo.iter_rows()))
    path = cover.checkpoint(tmp_path / "cover.ckpt", root=root)

    compact(root)
    # The strict restore still refuses (the chain token moved)...
    with pytest.raises(StaleCheckpointError):
        DynamicCover.restore(path, root=root)
    # ...but the remapping restore verifies masks-for-masks and lands on
    # the folded id space, fully operational.
    remapped = DynamicCover.restore(path, root=root, allow_remap=True)
    remapped.verify()
    assert remapped.cover_size == cover.cover_size
    assert remapped.m == cover.m
    remapped.insert(99, [0, 7])
    remapped.delete(99)
    remapped.verify()
    # Re-checkpointing binds the folded chain: strict restores work again.
    remapped.checkpoint(path, root=root)
    DynamicCover.restore(path, root=root).verify()


def test_checkpoint_remap_refuses_a_mutated_chain(tmp_path):
    """Remap is for compaction only: if rows changed (not just moved),
    silently rebinding would corrupt the cover — refuse loudly."""
    from repro.dynamic import StaleCheckpointError

    system = SetSystem(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    with open_repository(root) as repo:
        cover = DynamicCover(repo.n, enumerate(repo.iter_rows()))
    path = cover.checkpoint(tmp_path / "cover.ckpt", root=root)
    apply_delta(root, [{"op": "insert", "elements": [6, 7]}])  # a mutation
    compact(root)
    with pytest.raises(StaleCheckpointError, match="mutation"):
        DynamicCover.restore(path, root=root, allow_remap=True)


def _fuzz_checkpoint_cover() -> DynamicCover:
    """A small maintainer after churn — a deleted chosen set (repair
    picks) and a deleted top id — so the checkpoint's fields hold
    nontrivial values."""
    dyn = DynamicCover(9, [(0, [0, 1, 2]), (1, [3, 4]), (2, [5, 6, 7, 8]),
                           (3, [0, 3, 5]), (4, [1, 2])], theta=0.5)
    dyn.apply([{"op": "insert", "elements": [4, 6, 7, 8]},
               {"op": "delete", "id": 2},
               {"op": "insert", "elements": [5, 7]},
               {"op": "delete", "id": 6}])
    return dyn


_FUZZ_DROP = object()
_FUZZ_VALUES = st.one_of(
    st.just(_FUZZ_DROP), st.none(), st.booleans(), st.integers(-2, 12),
    st.just(1 << 40), st.floats(-2, 12), st.text(max_size=2),
    st.sampled_from(["1", "7", "ff", "0f", "-1", "A", " 3", "1f_f"]),
    st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "5", "x"]),
                    st.sampled_from(["1", "3f", 2]), max_size=2),
)
_FUZZ_FIELDS = (
    "schema", "n", "theta", "steal", "top", "rows", "own", "level", "counters",
    "counters.updates", "counters.budget_used", "counters.budget_limit",
    "rows.0", "rows.4", "rows.5", "own.0", "own.5", "level.0", "level.5",
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FUZZ_FIELDS), _FUZZ_VALUES)
def test_checkpoint_fuzz_exact_restore_or_typed_refusal(field, value):
    """One field of a re-sealed checkpoint set to a drawn JSON value (or
    dropped): :meth:`DynamicCover.restore` either refuses with a typed
    :class:`CheckpointError`, or restores exactly the state the file
    states — it verifies, its cover and rows are the file's, and a fresh
    checkpoint of it is the file again, so nothing was coerced."""
    from repro.dynamic import CheckpointError
    from repro.dynamic.cover import _checkpoint_checksum

    dyn = _fuzz_checkpoint_cover()
    with tempfile.TemporaryDirectory() as tmp:
        path = dyn.checkpoint(Path(tmp) / "cover.ckpt")
        record = json.loads(path.read_text())
        *outer, key = field.split(".")
        table = record[outer[0]] if outer else record
        if value is _FUZZ_DROP:
            table.pop(key, None)
        else:
            table[key] = value
        record["crc32"] = _checkpoint_checksum(record)
        path.write_text(json.dumps(record))
        try:
            restored = DynamicCover.restore(path)
        except CheckpointError as exc:
            event(type(exc).__name__)
            return
        event("restored")
        restored.verify()
        assert restored.cover == sorted(int(k) for k in record["own"])
        assert restored.rows() == {
            int(k): int(v, 16) for k, v in record["rows"].items()
        }
        if outer != ["rows"]:
            assert restored.cover == dyn.cover and restored.rows() == dyn.rows()
        again = restored.checkpoint(Path(tmp) / "again.ckpt")
        assert json.loads(again.read_text()) == record


def test_merged_view_warm_cache_tracks_delta_churn(tmp_path):
    """Every delta generation changes the merged view's cache token, so
    scans after each mutation match a cache-off reference exactly."""
    from repro.engine import SerialScanExecutor
    from repro.engine.cache import configure_cache, get_cache

    system = SetSystem(10, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [1, 8]])
    root = write_shards(tmp_path / "repo", system, chunk_rows=2)
    mask = (1 << 10) - 1
    executor = SerialScanExecutor()
    batches = [
        [{"op": "insert", "elements": [0, 9]}, {"op": "delete", "id": 2}],
        [{"op": "insert", "elements": [3, 4, 5]}, {"op": "delete", "id": 6}],
        [{"op": "delete", "id": 0}, {"op": "insert", "elements": [7]}],
    ]
    configure_cache("8m")
    try:
        with open_repository(root) as view:
            executor.scan_repository(view, mask)  # warm generation 0
        for batch in batches:
            apply_delta(root, batch)
            with open_repository(root) as view:
                churned = executor.scan_repository(view, mask)
                rescan = executor.scan_repository(view, mask)
            assert list(churned.gains) == list(rescan.gains)
            configure_cache("off")
            with open_repository(root) as view:
                reference = executor.scan_repository(view, mask)
            configure_cache("8m")
            assert list(churned.gains) == list(reference.gains)
            assert churned.captured == reference.captured
        assert get_cache().stats()["bytes"] <= get_cache().stats()["max_bytes"]
    finally:
        configure_cache(None)
