"""The scan engine: family x chain x transport parity.

The contract under test (DESIGN.md §6, §8, §9.2): for every algorithm,
every instance family (``tests/families.py``: all-dense chunks, sparse
and run-length rows, mixed chunks), a flat repository and the same rows
as a delta chain, and both transports — the serial executor and a
two-worker remote fleet (the ``worker_fleet`` fixture) — covers, pass
counts and the resident-buffer accounting are **bit-identical**: the
engine is an execution detail, never an observable one.  The remote
backend's wire, fault and crash contracts live in
``tests/test_remote.py`` and ``tests/test_fault.py``.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.baselines import MultiPassGreedy, ThresholdGreedy
from repro.core import IterSetCoverConfig, iter_set_cover
from repro.engine import (
    RemoteScanExecutor,
    SerialScanExecutor,
    executor_for,
    plan_batches,
)
from repro.partial.streaming import PartialIterSetCover
from repro.setsystem import SetSystem
from repro.setsystem.shards import ShardedRepository, write_shards
from repro.streaming import SetStream, ShardedSetStream
from repro.workloads import SCALES, build_instance

from families import FAMILIES, family_rows, family_system, write_family_chain


def _random_system(rng: np.random.Generator) -> SetSystem:
    n = int(rng.integers(1, 50))
    m = int(rng.integers(1, 30))
    sets = []
    for _ in range(m):
        size = int(rng.integers(0, n + 1))
        sets.append(rng.choice(n, size=size, replace=False).tolist())
    return SetSystem(n, sets)


def _lanes(worker_fleet):
    """The transports under test: ``workers`` for a serial and a fleet lane."""
    return (None, worker_fleet)


def _fingerprint(result, stream):
    return (
        result.selection,
        result.passes,
        result.feasible,
        result.peak_memory_words,
        stream.resident_words,
    )


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------
def test_executor_for_picks_backend():
    executor = executor_for()
    assert isinstance(executor, SerialScanExecutor)
    assert executor.jobs == 1
    executor = executor_for(workers="h:1,h:2,h:3")
    assert isinstance(executor, RemoteScanExecutor)
    assert executor.jobs == 3  # one lane per worker


def test_sharded_stream_auto_jobs_scans_serially(tmp_path):
    """By default a multi-shard repository scans in process, serially;
    workers alone select the remote transport."""
    system = SetSystem(40, [[i, (i * 7) % 40] for i in range(30)])
    path = write_shards(tmp_path / "repo", system, chunk_rows=4)
    for workers, executor_type in ((None, SerialScanExecutor),
                                   ("h:1,h:2", RemoteScanExecutor)):
        stream = ShardedSetStream(path, workers=workers)
        try:
            assert stream.repository.shard_count > 1
            assert stream.jobs == (1 if workers is None else 2)
            assert isinstance(stream._scan_executor(), executor_type)
        finally:
            stream.close()


def test_executor_for_transport_dispatch():
    """The transport is derived from ``workers``, never asked for."""
    assert executor_for().transport == "serial"
    assert executor_for(workers=[("h", 1)]).transport == "remote"
    assert executor_for(workers="h:1", retry={"attempts": 2}).retry.attempts == 2
    # A retry policy that cannot take effect errors instead of being
    # silently dropped: only remote scans have retriable faults.
    with pytest.raises(ValueError, match="--workers"):
        executor_for(retry={"attempts": 2})


def test_plan_batches_partitions_contiguously():
    for count in range(40):
        for jobs in (1, 2, 4):
            batches = plan_batches(count, jobs)
            # Contiguous runs in chunk order: an exact partition of 0..count-1.
            assert [index for batch in batches for index in batch] == list(range(count))
            for batch in batches:
                assert batch == list(range(batch[0], batch[0] + len(batch)))
            assert len(batches) == min(count, jobs * 4)
            if batches:
                assert max(map(len, batches)) - min(map(len, batches)) <= 1


def test_streams_expose_resolved_jobs(tmp_path, worker_fleet):
    system = SetSystem(8, [[0, 1], [2]])
    assert SetStream(system).jobs == 1  # in-memory families scan serially
    path = write_shards(tmp_path / "r", system)
    for workers, lanes in ((None, 1), (worker_fleet, 2), (worker_fleet[:1], 1)):
        stream = ShardedSetStream(path, workers=workers)
        assert stream.jobs == lanes
        stream.close()


# ----------------------------------------------------------------------
# Scan-level parity: gains, captures, both stream kinds, both transports
# ----------------------------------------------------------------------
def test_scan_gains_identical_across_jobs_and_encodings(tmp_path, worker_fleet):
    """Each case's family, flat and as a delta chain, against the
    in-memory stream; the fleet lane on every fifth case."""
    rng = np.random.default_rng(11)
    for case in range(25):
        family = FAMILIES[case % len(FAMILIES)]
        system = _random_system(rng) if case % 5 == 4 else family_system(family, rng)
        mask_int = int(rng.integers(0, 2 ** system.n)) if system.n < 60 else (
            sum(1 << e for e in range(0, system.n, 2))
        )
        chunk_rows = int(rng.integers(1, 8))
        flat = write_shards(tmp_path / f"{case}-flat", system, chunk_rows=chunk_rows)
        chain = write_family_chain(tmp_path / f"{case}-chain", system, chunk_rows,
                                   int(rng.integers(0, system.m + 1)))
        # Remote scans pay a round trip each: sweep every fifth case.
        lanes = _lanes(worker_fleet) if case % 5 == 0 else (None,)
        streams = [SetStream(system), ShardedSetStream(chain)]
        streams += [ShardedSetStream(flat, workers=workers) for workers in lanes]
        reference = None
        for stream in streams:
            scan = stream.scan_gains(mask_int, min_capture_gain=1)
            got = ([int(g) for g in scan.gains], scan.captured)
            if reference is None:
                reference = got
            else:
                assert got == reference
            assert stream.passes == 1


def test_best_only_capture_is_the_global_first_max(tmp_path, worker_fleet):
    system = SetSystem(12, [[0, 1], [2, 3, 4], [5, 6, 7], [8]])
    path = write_shards(tmp_path / "best", system, chunk_rows=1)
    for workers in _lanes(worker_fleet):
        stream = ShardedSetStream(path, workers=workers)
        scan = stream.scan_gains((1 << 12) - 1, best_only=True)
        from repro.setsystem.packed import first_argmax

        best = first_argmax(scan.gains)
        assert best == 1  # first of the two 3-gain rows
        assert any(i == best for i, _ in scan.captured)
        stream.close()


def test_abandoned_serial_multi_shard_scan_leaves_stream_usable(tmp_path):
    """Early-exiting a serial pass over many shards never wedges."""
    system = SetSystem(16, [[i % 16] for i in range(20)])
    path = write_shards(tmp_path / "abandon", system, chunk_rows=2)
    stream = ShardedSetStream(path)
    parts = stream.scan_gains_chunked((1 << 16) - 1)
    next(parts)
    parts.close()  # abandon mid-pass
    assert stream.passes == 1
    full = stream.scan_gains((1 << 16) - 1)
    assert len(full.gains) == 20
    stream.close()


def test_serial_multi_shard_scan_starts_no_thread(tmp_path, monkeypatch):
    """A serial pass is the plain in-order loop: no helper threads."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    system = SetSystem(16, [[i % 16] for i in range(20)])
    path = write_shards(tmp_path / "nothread", system, chunk_rows=2)
    stream = ShardedSetStream(path)
    assert stream.repository.shard_count == 10
    ThresholdGreedy().solve(stream)
    stream.close()
    assert started == []


# ----------------------------------------------------------------------
# Driver-side block accept (scan_accepts_chunked, DESIGN.md §8.4)
# ----------------------------------------------------------------------
def test_threshold_greedy_accepts_candidates_sequentially():
    # Rows 0 and 1 both reach threshold 2 against the pass-start
    # residual, but row 0's accept leaves row 1 a live hit of one.
    system = SetSystem(4, [[0, 1], [1, 2], [2, 3]])
    result = ThresholdGreedy().solve(SetStream(system))
    assert result.selection == [0, 2]  # 1's live hit shrank below 2
    assert result.passes == 1 and result.feasible
    residual = np.array([0b1111], dtype=np.uint64)
    stream = SetStream(system)
    parts = [(start, picked) for start, _, picked in
             stream.scan_accepts_chunked(residual, 2)]
    assert parts == [(0, [0, 2])]
    assert residual.tolist() == [0]
    empty = SetStream(SetSystem(4, []))
    residual = np.array([0b1111], dtype=np.uint64)
    assert list(empty.scan_accepts_chunked(residual, 2)) == []
    assert residual.tolist() == [0b1111] and empty.passes == 1


def test_scan_accepts_chunked_accepts_against_the_live_residual(
    tmp_path, worker_fleet
):
    system = SetSystem(8, [[0, 1, 2], [2, 3], [4, 5, 6, 7], [0]])
    path = write_shards(tmp_path / "acc", system, chunk_rows=2)
    for workers in _lanes(worker_fleet):
        stream = ShardedSetStream(path, workers=workers)
        residual = np.array([(1 << 8) - 1], dtype=np.uint64)
        parts = stream.scan_accepts_chunked(residual, 2)
        s0, cap0, picked0 = next(parts)
        # Both chunk-0 rows clear the pass-start threshold and are
        # captured, but row 0's accept leaves row 1 only element 3.
        assert s0 == 0
        assert [i for i, _ in cap0] == [0, 1]
        assert picked0 == [0]
        assert residual.tolist() == [0b11111000]  # shrunk before chunk 1
        s1, cap1, picked1 = next(parts)
        assert s1 == 2
        assert [i for i, _ in cap1] == [2]  # row 3's pass-start gain is 1
        assert picked1 == [2]
        assert residual.tolist() == [0b1000]
        assert list(parts) == []
        assert stream.passes == 1
        stream.close()
    stream = ShardedSetStream(path)
    with pytest.raises(ValueError, match="threshold"):
        stream.scan_accepts_chunked(np.ones(1, dtype=np.uint64), 0)
    assert stream.passes == 0
    stream.close()


def _threshold_replay_reference(stream, shrink=2.0):
    """The PR 3 ThresholdGreedy loop: driver-side replay of captures.

    Kept verbatim as the executable reference the block accept path
    must match pick for pick — plus the one schedule change since: a
    threshold above the largest set ``Δ`` gets no pass.
    """
    n = stream.n
    uncovered = (1 << n) - 1
    count = n
    selection = []
    threshold = float(n)
    while count and threshold >= 1.0:
        threshold = max(1.0, threshold / shrink)
        parts = stream.scan_gains_chunked(
            uncovered,
            min_capture_gain=math.ceil(threshold),
            include_gains=False,
        ) if math.ceil(threshold) <= stream.max_set_size else ()
        for _, _, captured in parts:
            for set_id, projection in captured:
                hit = projection & uncovered
                hit_count = hit.bit_count()
                if hit_count >= threshold:
                    selection.append(set_id)
                    uncovered &= ~hit
                    count -= hit_count
        if threshold <= 1.0:
            break
    return selection


def test_fused_accepts_match_the_replay_reference(tmp_path):
    rng = np.random.default_rng(53)
    for case in range(40):
        system = _random_system(rng)
        path = write_shards(tmp_path / f"f{case}", system,
                            chunk_rows=int(rng.integers(1, 5)))
        reference_stream = ShardedSetStream(path)
        reference = _threshold_replay_reference(reference_stream)
        reference_passes = reference_stream.passes
        reference_stream.close()
        for stream in (ShardedSetStream(path), SetStream(system)):
            result = ThresholdGreedy().solve(stream)
            label = (case, type(stream).__name__)
            assert result.selection == reference, label
            assert result.passes == reference_passes, label
            if isinstance(stream, ShardedSetStream):
                stream.close()


# ----------------------------------------------------------------------
# Algorithm-level parity: the satellite property test
# ----------------------------------------------------------------------
def test_threshold_parity_on_100_random_instances(tmp_path):
    """covers/passes/resident_words identical between a flat repository
    and the same rows as a delta chain, over every family.

    The remote lane of this sweep is
    ``tests/test_remote.py::test_remote_algorithm_parity_on_random_instances``.
    """
    rng = np.random.default_rng(23)
    for case in range(105):
        family = FAMILIES[case % len(FAMILIES)]
        system = family_system(family, rng)
        chunk_rows = int(rng.integers(1, 8))
        reference = None
        for kind, path in (
            ("flat", write_shards(tmp_path / f"t{case}", system,
                                  chunk_rows=chunk_rows)),
            ("chain", write_family_chain(tmp_path / f"t{case}-chain", system,
                                         chunk_rows,
                                         int(rng.integers(0, system.m + 1)))),
        ):
            stream = ShardedSetStream(path)
            result = ThresholdGreedy().solve(stream)
            fingerprint = _fingerprint(result, stream)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, (case, family, kind)
            stream.close()
        # The in-memory stream agrees too (modulo its zero buffer).
        memory = ThresholdGreedy().solve(SetStream(system))
        assert memory.selection == reference[0]
        assert memory.passes == reference[1]


def test_iter_set_cover_parity_on_random_instances(tmp_path, worker_fleet):
    """Flat vs chain parity over every family on every case; the fleet
    lane (flat only: a chain refuses remote scans) on every fifth."""
    rng = np.random.default_rng(31)
    for case in range(20):
        family = FAMILIES[case % len(FAMILIES)]
        system = family_system(family, rng)
        seed = int(rng.integers(0, 2**31))
        kwargs = dict(delta=0.5, seed=seed, use_polylog_factors=False,
                      include_rho=False)
        chunk_rows = int(rng.integers(1, 6))  # same geometry for every config
        flat = write_shards(tmp_path / f"i{case}", system, chunk_rows=chunk_rows)
        chain = write_family_chain(tmp_path / f"i{case}-chain", system, chunk_rows,
                                   int(rng.integers(0, system.m + 1)))
        lanes = [(chain, None)] + [
            (flat, workers)
            for workers in (_lanes(worker_fleet) if case % 5 == 0 else (None,))
        ]
        reference = None
        for path, workers in lanes:
            stream = ShardedSetStream(path, workers=workers)
            result = iter_set_cover(stream, **kwargs)
            fingerprint = _fingerprint(result, stream)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, (case, family, path, workers)
            stream.close()


@pytest.mark.parametrize("name,workload,params", SCALES["paper"])
def test_paper_roster_parity_across_transports_and_encodings(
    tmp_path, worker_fleet, name, workload, params
):
    """The paper roster, full algorithm set, serial and a 2-worker fleet."""
    system, _ = build_instance(workload, params, seed=0)
    algorithms = [
        ("threshold", lambda stream: ThresholdGreedy().solve(stream)),
        ("multipass", lambda stream: MultiPassGreedy(max_passes=4).solve(stream)),
        (
            "iter",
            lambda stream: iter_set_cover(
                stream, delta=0.5, seed=7,
                use_polylog_factors=False, include_rho=False,
            ),
        ),
        (
            "partial-iter",
            lambda stream: PartialIterSetCover(
                eps=0.1, seed=7,
                config=IterSetCoverConfig(
                    use_polylog_factors=False, include_rho=False
                ),
            ).solve(stream),
        ),
    ]
    fingerprints: dict[str, tuple] = {}
    flat = write_shards(tmp_path / name, system)
    with ShardedRepository(flat) as repo:
        chunk_rows = repo.chunk_rows
    chain = write_family_chain(tmp_path / f"{name}-chain", system, chunk_rows,
                               system.m // 2)
    for path, workers in ((flat, None), (flat, worker_fleet), (chain, None)):
        for algo_name, run in algorithms:
            stream = ShardedSetStream(path, workers=workers)
            result = run(stream)
            fingerprint = _fingerprint(result, stream)
            reference = fingerprints.setdefault(algo_name, fingerprint)
            assert fingerprint == reference, (algo_name, path, workers)
            stream.close()


def test_capture_only_scans_omit_the_gains_vector(tmp_path):
    system = SetSystem(16, [[0, 1], [2]])
    path = write_shards(tmp_path / "nog", system)
    stream = ShardedSetStream(path)
    scan = stream.scan_gains((1 << 16) - 1, min_capture_gain=1,
                             include_gains=False)
    assert scan.gains is None
    assert [i for i, _ in scan.captured] == [0, 1]
    from repro.engine import capture_words

    assert capture_words(scan.captured) == (2 + 1) + (1 + 1)
    stream.close()


def test_capture_scratch_is_chunk_bounded(tmp_path):
    """Replays hold at most one chunk's captured projections.

    Regression: m near-duplicate heavy sets all clear the pass-start
    threshold.  With one big chunk their projections are co-resident
    (and reported); with small chunks the chunk-streamed replay caps
    the scratch at a chunk's worth — it must never scale with m."""
    n, m = 64, 50
    system = SetSystem(n, [list(range(n)) for _ in range(m)])

    coarse = write_shards(tmp_path / "coarse", system, chunk_rows=m)
    result = ThresholdGreedy().solve(ShardedSetStream(coarse))
    assert result.extra["scan_capture_peak_words"] >= m * (n + 1)

    fine = write_shards(tmp_path / "fine", system, chunk_rows=2)
    bounded = ThresholdGreedy().solve(ShardedSetStream(fine))
    assert bounded.extra["scan_capture_peak_words"] <= 2 * (n + 1)
    assert bounded.selection == result.selection == [0]


# ----------------------------------------------------------------------
# Offline hot paths (DESIGN.md §8.5)
# ----------------------------------------------------------------------
def test_greedy_cover_backend_parity():
    from repro.offline import GreedySolver
    from repro.offline.greedy import _greedy_cover_frozenset, greedy_cover

    rng = np.random.default_rng(77)
    for case in range(15):
        n = int(rng.integers(1, 100))
        m = int(rng.integers(1, 50))
        sets = [
            rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
            for _ in range(m)
        ]
        sets.append(list(range(n)))  # keep the instance feasible
        system = SetSystem(n, sets)
        assert greedy_cover(system) == _greedy_cover_frozenset(system), case
        # The packed algOfflineSC entry picks what the frozenset path picks
        # on the renumbered projection onto the targets.
        targets = int(rng.integers(0, 1 << min(n, 62))) if n else 0
        rows = system.masks()
        solver = GreedySolver()
        packed = solver.solve_partial(n, rows, targets)
        unpacked = solver.solve_partial(
            n, list(system.sets), frozenset(e for e in range(n) if targets >> e & 1)
        )
        assert packed == unpacked, case


@pytest.mark.parametrize("family", ("auto", "dense"))
def test_every_shard_scan_takes_the_one_path(tmp_path, worker_fleet, monkeypatch, family):
    """With the cache off, serial scans of a flat repository and of a
    delta-merged view, and a two-worker remote scan, all run
    ``decode_chunk`` -> ``scan_decoded``: ``scan_shard`` raising changes
    nothing, each pass decodes every shard exactly once, and the results
    equal the referee's ``row_mask(i) & mask``."""
    from collections import Counter

    from repro.engine import configure_cache
    from repro.setsystem import MergedShardView, apply_delta

    def forbidden(*args, **kwargs):
        raise AssertionError("scan_shard is not a scan path")

    decodes = Counter()
    for cls in (ShardedRepository, MergedShardView):
        monkeypatch.setattr(cls, "scan_shard", forbidden, raising=False)
        real = cls.decode_chunk

        def counted(self, shard, real=real):
            decodes[shard] += 1
            return real(self, shard)

        monkeypatch.setattr(cls, "decode_chunk", counted)

    rng = np.random.default_rng(5)
    system = SetSystem(150, family_rows(family, rng, 150, 90))
    flat = write_shards(tmp_path / "flat", system, chunk_rows=16)
    merged = write_shards(
        tmp_path / "merged", SetSystem(system.n, system.sets[:60]),
        chunk_rows=16,
    )
    apply_delta(merged, [{"op": "delete", "id": 7}] + [
        {"op": "insert", "elements": sorted(s)} for s in system.sets[60:]
    ])
    mask = int.from_bytes(rng.bytes(19), "little") & ((1 << system.n) - 1)
    configure_cache("off")
    try:
        for path, workers in ((flat, None), (merged, None), (flat, worker_fleet)):
            stream = ShardedSetStream(path, workers=workers)
            repo = stream.repository
            assert isinstance(repo, MergedShardView) == (path == merged)
            decodes.clear()
            result = stream.scan_gains(mask, min_capture_gain=1)
            projections = [repo.row_mask(i) & mask for i in range(repo.m)]
            assert result.gains.tolist() == [bin(p).count("1") for p in projections]
            assert result.captured == [(i, p) for i, p in enumerate(projections) if p]
            assert decodes == Counter(range(repo.shard_count))
            stream.close()
    finally:
        configure_cache(None)
