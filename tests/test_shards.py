"""Shard repository format + ShardedSetStream: round-trips, corruption, parity."""

from __future__ import annotations

import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import MultiPassGreedy, StoreAllGreedy, ThresholdGreedy
from repro.core import iter_set_cover
from repro.partial.streaming import PartialIterSetCover, PartialThreshold
from repro.setsystem import SetSystem
from repro.setsystem.packed import ScanMask
from repro.setsystem.shards import (
    ENCODINGS,
    MANIFEST_NAME,
    SHARD_SCHEMA,
    SHARD_SCHEMA_V1,
    SHARD_SCHEMA_V2,
    ShardedRepository,
    ShardFormatError,
    ShardWriter,
    write_shards,
)
from repro.streaming import SetStream, ShardedSetStream, StreamAccessError
from repro.utils.bitset import mask_of
from repro.workloads import planted_instance, sparse_uniform_instance


def _random_system(rng: np.random.Generator) -> SetSystem:
    n = int(rng.integers(1, 40))
    m = int(rng.integers(1, 30))
    sets = []
    for _ in range(m):
        size = int(rng.integers(0, n + 1))
        sets.append(rng.choice(n, size=size, replace=False).tolist())
    return SetSystem(n, sets)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
def test_roundtrip_matches_in_memory_system(tmp_path):
    rng = np.random.default_rng(0)
    for case in range(30):
        system = _random_system(rng)
        path = write_shards(tmp_path / f"repo{case}", system,
                            chunk_rows=int(rng.integers(1, 9)))
        with ShardedRepository(path, verify=True) as repo:
            assert repo.n == system.n and repo.m == system.m
            assert repo.to_system() == system


def test_roundtrip_empty_family_and_empty_sets(tmp_path):
    system = SetSystem(6, [[], [0, 5], []])
    with ShardedRepository(write_shards(tmp_path / "a", system)) as repo:
        assert repo.to_system() == system

    empty = SetSystem(4, [])
    with ShardedRepository(write_shards(tmp_path / "b", empty)) as repo:
        assert repo.m == 0
        assert repo.to_system() == empty


def test_roundtrip_zero_ground_set(tmp_path):
    system = SetSystem(0, [[], []])
    with ShardedRepository(write_shards(tmp_path / "z", system)) as repo:
        assert (repo.n, repo.m, repo.words) == (0, 2, 0)
        assert repo.to_system() == system


def test_write_from_lazy_iterator(tmp_path):
    rows = ([i % 5] for i in range(12))  # a generator, never a list
    path = write_shards(tmp_path / "lazy", rows, n=5, chunk_rows=4)
    with ShardedRepository(path) as repo:
        assert repo.m == 12
        assert repo.shard_count == 3
        assert repo.to_system() == SetSystem(5, [[i % 5] for i in range(12)])


def test_writer_validates_elements_and_geometry(tmp_path):
    with pytest.raises(ValueError, match="outside the"):
        with ShardWriter(tmp_path / "w", n=3) as writer:
            writer.append([3])
    with pytest.raises(ValueError, match="non-integer"):
        with ShardWriter(tmp_path / "w1", n=3) as writer:
            writer.append([1.5])  # floats must not silently truncate
    with pytest.raises(ValueError, match="chunk_rows"):
        ShardWriter(tmp_path / "w2", n=3, chunk_rows=0)
    write_shards(tmp_path / "w3", SetSystem(2, [[0]]))
    with pytest.raises(ShardFormatError, match="refusing to overwrite"):
        ShardWriter(tmp_path / "w3", n=2)


# ----------------------------------------------------------------------
# v2 encodings: round-trips, v1 compatibility, fused scans
# ----------------------------------------------------------------------
def _mixed_system() -> SetSystem:
    """Rows that exercise every codec: runs, sparse points, dense noise.

    Ordered so that (at ``chunk_rows=2``) the first chunk is all-dense —
    written raw — while later chunks mix codecs and come out encoded.
    """
    n = 256
    rng = np.random.default_rng(5)
    sets = [
        sorted(rng.choice(n, size=200, replace=False).tolist()),  # dense
        list(range(0, 256, 2)),                                  # alternating
        list(range(40, 200)),                                    # run-length
        [0, 255],                                                # sparse
        [],                                                      # empty
        [7],                                                     # singleton
    ]
    return SetSystem(n, sets)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_v2_roundtrip_every_encoding(tmp_path, encoding):
    system = _mixed_system()
    path = write_shards(tmp_path / encoding, system, chunk_rows=2,
                        encoding=encoding)
    with ShardedRepository(path, verify=True) as repo:
        assert repo.schema == SHARD_SCHEMA
        assert repo.encoding == encoding
        assert repo.to_system() == system
        for i in range(system.m):
            assert repo.row_mask(i) == system.masks()[i]


def test_auto_encoding_mixes_layouts_and_shrinks_sparse(tmp_path):
    system = _mixed_system()
    auto = write_shards(tmp_path / "auto", system, chunk_rows=2)
    dense = write_shards(tmp_path / "dense", system, chunk_rows=2,
                         encoding="dense")
    with ShardedRepository(auto) as a, ShardedRepository(dense) as d:
        layouts = {meta["layout"] for meta in a._shard_meta}
        assert layouts == {"raw", "encoded"}  # dense rows stay raw chunks
        assert a.disk_bytes < d.disk_bytes
        assert a.to_system() == d.to_system() == system
        # The resident-buffer accounting is encoding-invariant.
        assert a.chunk_words == d.chunk_words

    sparse = sparse_uniform_instance(512, 200, expected_size=6, seed=9)
    small = write_shards(tmp_path / "s-auto", sparse)
    big = write_shards(tmp_path / "s-dense", sparse, encoding="dense")
    with ShardedRepository(small) as a, ShardedRepository(big) as d:
        assert a.disk_bytes * 2 <= d.disk_bytes  # the >=2x reduction regime


def test_v1_repository_still_opens_and_scans(tmp_path):
    """A v1 manifest (raw shards, no layout/encoding keys) reads unchanged."""
    system = _mixed_system()
    path = write_shards(tmp_path / "v1", system, chunk_rows=2,
                        encoding="dense")
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["schema"] = SHARD_SCHEMA_V1
    del manifest["encoding"]
    for meta in manifest["shards"]:
        del meta["layout"]
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with ShardedRepository(path, verify=True) as repo:
        assert repo.schema == SHARD_SCHEMA_V1
        assert repo.encoding == "dense"
        assert repo.to_system() == system
        mask = ScanMask(repo.n, (1 << repo.n) - 1)
        start, gains, captured = repo.scan_shard(0, mask, min_capture_gain=1)
        assert start == 0
        assert [int(g) for g in gains] == [len(s) for s in system.sets[:2]]


def test_scan_shard_matches_bruteforce_per_encoding(tmp_path):
    system = _mixed_system()
    masks = system.masks()
    mask_int = sum(1 << e for e in range(0, system.n, 3))
    expected = [(m & mask_int).bit_count() for m in masks]
    for encoding in ENCODINGS:
        path = write_shards(tmp_path / f"scan-{encoding}", system,
                            chunk_rows=2, encoding=encoding)
        with ShardedRepository(path) as repo:
            gains, captured = [], []
            for shard in range(repo.shard_count):
                _, g, c = repo.scan_shard(
                    shard, ScanMask(repo.n, mask_int), min_capture_gain=1
                )
                gains.extend(int(x) for x in g)
                captured.extend(c)
            assert gains == expected, encoding
            assert [i for i, _ in captured] == [
                i for i, g in enumerate(expected) if g >= 1
            ]
            for row_id, projection in captured:
                assert projection == masks[row_id] & mask_int


# ----------------------------------------------------------------------
# Writer cleanup on error
# ----------------------------------------------------------------------
def test_writer_aborts_cleanly_when_source_raises(tmp_path):
    """A generator raising mid-write must leave no partial repository."""

    def exploding_rows():
        yield [0, 1]
        yield [2]
        raise RuntimeError("disk full, say")

    target = tmp_path / "partial"
    with pytest.raises(RuntimeError, match="disk full"):
        write_shards(target, exploding_rows(), n=4, chunk_rows=1)
    assert not target.exists()  # directory created by the writer: removed


def test_writer_abort_in_preexisting_directory_removes_only_its_files(tmp_path):
    target = tmp_path / "existing"
    target.mkdir()
    foreign = target / "keep.txt"
    foreign.write_text("not a shard")
    with pytest.raises(ValueError, match="outside the"):
        with ShardWriter(target, n=3, chunk_rows=1) as writer:
            writer.append([0])
            writer.append([99])  # out of range -> abort
    assert foreign.exists()
    assert not (target / MANIFEST_NAME).exists()
    assert not list(target.glob("shard-*.bin"))
    # The directory is reusable afterwards.
    write_shards(target, SetSystem(3, [[0], [1, 2]]))
    with ShardedRepository(target) as repo:
        assert repo.m == 2


def test_writer_close_after_abort_raises(tmp_path):
    writer = ShardWriter(tmp_path / "w", n=3, chunk_rows=1)
    writer.append([0])
    writer.abort()
    with pytest.raises(ShardFormatError, match="aborted"):
        writer.close()
    with pytest.raises(ShardFormatError, match="closed"):
        writer.append([1])


# ----------------------------------------------------------------------
# Corrupt compressed blocks fail loudly
# ----------------------------------------------------------------------
def _corrupt_payload_byte(path, shard_name, edit):
    """Apply ``edit`` to a shard's bytes and re-stamp the manifest CRC,
    so only the decode-time validation (not the checksum) can catch it."""
    shard = path / shard_name
    payload = bytearray(shard.read_bytes())
    edit(payload)
    shard.write_bytes(bytes(payload))
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    for meta in manifest["shards"]:
        if meta["file"] == shard_name:
            meta["crc32"] = zlib.crc32(bytes(payload))
            meta["bytes"] = len(payload)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))


def test_corrupt_sparse_block_fails_loudly(tmp_path):
    system = SetSystem(10, [[1, 5], [2]])
    path = write_shards(tmp_path / "c1", system, chunk_rows=2,
                        encoding="sparse")

    # Row 0's payload is varint(1), varint(4); overwriting the final byte
    # with a continuation byte leaves a varint unterminated at the row
    # boundary.
    def unterminate(payload):
        payload[-2] = 0x80

    _corrupt_payload_byte(path, "shard-00000.bin", unterminate)
    with ShardedRepository(path, verify=True) as repo:  # CRC matches...
        with pytest.raises(ShardFormatError, match="corrupt|varint"):
            list(repo.iter_row_masks())  # ...decode still fails loudly
        with pytest.raises(ShardFormatError, match="corrupt|varint"):
            repo.scan_shard(0, ScanMask(10, (1 << 10) - 1), min_capture_gain=1)


def test_corrupt_element_out_of_range_fails_loudly(tmp_path):
    system = SetSystem(10, [[1], [2]])
    path = write_shards(tmp_path / "c2", system, chunk_rows=2,
                        encoding="sparse")

    def oversized_element(payload):
        payload[-2] = 0x7F  # row 0 becomes [127], outside [0, 10)

    _corrupt_payload_byte(path, "shard-00000.bin", oversized_element)
    with ShardedRepository(path) as repo:
        with pytest.raises(ShardFormatError, match="outside"):
            repo.row_mask(0)
        with pytest.raises(ShardFormatError, match="corrupt"):
            repo.scan_shard(0, ScanMask(10, (1 << 10) - 1), min_capture_gain=1)


def test_corrupt_record_table_fails_loudly(tmp_path):
    system = SetSystem(64, [[1, 3], [5]])
    path = write_shards(tmp_path / "c3", system, chunk_rows=2,
                        encoding="sparse")

    def inflate_length(payload):
        payload[4 + 2] = 0xEE  # lengths[0] no longer matches the payload

    _corrupt_payload_byte(path, "shard-00000.bin", inflate_length)
    with ShardedRepository(path) as repo:
        with pytest.raises(ShardFormatError, match="corrupt"):
            list(repo.iter_row_masks())


def test_corrupt_dense_tail_bits_fail_every_scan(tmp_path):
    """A dense row with bits at or above ``n`` fails every scan of its
    shard, including scans that do not capture it."""
    system = SetSystem(60, [list(range(0, 60, 2)), [1], [5]])
    path = write_shards(tmp_path / "c4", system, chunk_rows=3)
    head = 4 + 3 + 4 * 3  # row count, tags, lengths: row 0's payload follows

    def set_bit_63(payload):
        payload[head + 7] |= 0x80

    _corrupt_payload_byte(path, "shard-00000.bin", set_bit_63)
    with ShardedRepository(path) as repo:
        tags, _, _ = repo._encoded_header(0)
        assert tags.tolist() == [0, 1, 1]  # one dense row, two sparse rows
        with pytest.raises(ShardFormatError, match="beyond the ground set"):
            repo.row_mask(0)
        # Row 0 has gain 0 under the first mask (uncaptured), 30 under
        # the second (captured).
        for mask_int in (1 << 1, (1 << 60) - 1):
            mask = ScanMask(60, mask_int)
            with pytest.raises(ShardFormatError, match="beyond the ground set"):
                repo.scan_shard(0, mask, min_capture_gain=1)
            with pytest.raises(ShardFormatError, match="beyond the ground set"):
                repo.scan_decoded(0, repo.decode_chunk(0)[0], mask, min_capture_gain=1)


# ----------------------------------------------------------------------
# Captures built from decoded chunks match the referee decoder
# ----------------------------------------------------------------------
@st.composite
def _capture_cases(draw):
    n = draw(st.integers(1, 140))
    elements = st.integers(0, n - 1)
    runs = st.lists(st.tuples(elements, st.integers(1, n)), max_size=4).map(
        lambda pairs: sorted({e for s, k in pairs for e in range(s, min(n, s + k))})
    )
    half_dense = st.integers(0, (1 << n) - 1).map(
        lambda bits: [e for e in range(n) if bits >> e & 1]
    )
    row = st.one_of(st.lists(elements, max_size=n, unique=True), runs, half_dense)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    mode = draw(st.sampled_from(("gain", "gain+ids", "best")))
    if mode == "best":
        kwargs = {"best_only": True}
    else:
        kwargs = {"min_capture_gain": draw(st.integers(0, 4))}
        if mode == "gain+ids":
            kwargs["capture_ids"] = draw(st.sets(st.integers(0, len(rows) - 1)))
    return (
        SetSystem(n, rows),
        draw(st.sampled_from(ENCODINGS)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, (1 << n) - 1)),
        kwargs,
    )


def _expected_captures(start, gains, kwargs):
    if kwargs.get("best_only"):
        best = int(np.argmax(gains))
        return [start + best] if gains[best] > 0 else []
    ids = kwargs.get("capture_ids")
    return [
        start + local for local, gain in enumerate(gains)
        if gain >= kwargs["min_capture_gain"] and (ids is None or start + local in ids)
    ]


@settings(max_examples=150, deadline=None)
@given(_capture_cases())
def test_scan_captures_match_referee_decoder(case):
    """Cold and cached scans return the referee's gains and ``row ∩ mask``
    captures, in ascending id order, for every codec and capture mode."""
    system, encoding, shards, mask_int, kwargs = case
    chunk_rows = -(-system.m // shards)
    mask = ScanMask(system.n, mask_int)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(
            Path(tmp) / "repo", system, chunk_rows=chunk_rows, encoding=encoding
        )
        with ShardedRepository(path) as repo:
            projections = [repo.row_mask(i) & mask_int for i in range(repo.m)]
            assert projections == [mask_of(s) & mask_int for s in system.sets]
            for shard in range(repo.shard_count):
                for start, gains, captured in (
                    repo.scan_shard(shard, mask, **kwargs),
                    repo.scan_decoded(shard, repo.decode_chunk(shard)[0], mask, **kwargs),
                ):
                    expected_gains = [
                        projections[i].bit_count()
                        for i in range(start, start + len(gains))
                    ]
                    assert gains.tolist() == expected_gains
                    ids = (
                        _expected_captures(start, expected_gains, kwargs)
                        if mask_int else []
                    )
                    assert captured == [(i, projections[i]) for i in ids]


# ----------------------------------------------------------------------
# Truncation / corruption
# ----------------------------------------------------------------------
def _write_sample(tmp_path):
    system = SetSystem(70, [[i, (i * 3) % 70] for i in range(20)])
    return write_shards(tmp_path / "repo", system, chunk_rows=6), system


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(ShardFormatError, match="manifest"):
        ShardedRepository(tmp_path / "nowhere")


def test_unparseable_manifest_raises(tmp_path):
    path, _ = _write_sample(tmp_path)
    (path / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ShardFormatError, match="unparseable"):
        ShardedRepository(path)


def test_wrong_schema_raises(tmp_path):
    path, _ = _write_sample(tmp_path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["schema"] = "something/else"
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ShardFormatError, match="schema"):
        ShardedRepository(path)


def test_inconsistent_row_total_raises(tmp_path):
    path, _ = _write_sample(tmp_path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["m"] = 99
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ShardFormatError, match="sum to m"):
        ShardedRepository(path)


def test_missing_shard_file_raises(tmp_path):
    path, _ = _write_sample(tmp_path)
    (path / "shard-00001.bin").unlink()
    with pytest.raises(ShardFormatError, match="missing shard"):
        ShardedRepository(path)


def test_truncated_shard_raises(tmp_path):
    path, _ = _write_sample(tmp_path)
    shard = path / "shard-00000.bin"
    shard.write_bytes(shard.read_bytes()[:-8])
    with pytest.raises(ShardFormatError, match="truncated or corrupt"):
        ShardedRepository(path)


def test_closed_repository_raises_instead_of_presenting_empty(tmp_path):
    path, system = _write_sample(tmp_path)
    repo = ShardedRepository(path)
    repo.close()
    repo.close()  # idempotent
    with pytest.raises(ShardFormatError, match="closed"):
        list(repo.iter_row_masks())
    with pytest.raises(ShardFormatError, match="closed"):
        repo.row_mask(0)
    with pytest.raises(ShardFormatError, match="closed"):
        repo.validate()
    # A stream over a closed repository fails loudly too, rather than
    # running a 0-row "pass".
    stream = ShardedSetStream(repo)
    with pytest.raises(ShardFormatError, match="closed"):
        list(stream.iterate())


def test_bitflip_caught_by_checksum(tmp_path):
    path, _ = _write_sample(tmp_path)
    shard = path / "shard-00000.bin"
    payload = bytearray(shard.read_bytes())
    payload[0] ^= 0xFF
    shard.write_bytes(bytes(payload))
    # Size still matches, so plain open succeeds ...
    with ShardedRepository(path) as repo:
        with pytest.raises(ShardFormatError, match="checksum"):
            repo.validate()
    # ... but verify=True catches it on open.
    with pytest.raises(ShardFormatError, match="checksum"):
        ShardedRepository(path, verify=True)


# ----------------------------------------------------------------------
# ShardedSetStream: protocol + pass parity with SetStream
# ----------------------------------------------------------------------
def test_stream_protocol_and_access_rules(tmp_path):
    path, system = _write_sample(tmp_path)
    stream = ShardedSetStream(path)
    assert (stream.n, stream.m) == (system.n, system.m)
    assert stream.resident_words == 6 * stream.repository.words
    it = stream.iterate()
    next(it)
    with pytest.raises(StreamAccessError):
        next(stream.iterate())  # single read head
    it.close()
    assert stream.passes == 1
    stream.reset_passes()
    assert stream.passes == 0
    assert stream.verify_solution(range(system.m)) == system.is_feasible()
    assert stream.system == system
    stream.close()


def test_pass_counting_parity_on_random_instances(tmp_path):
    """100+ random instances: identical rows and pass accounting."""
    rng = np.random.default_rng(7)
    for case in range(105):
        system = _random_system(rng)
        path = write_shards(tmp_path / f"r{case}", system,
                            chunk_rows=int(rng.integers(1, 8)))
        mem, shard = SetStream(system), ShardedSetStream(path)

        assert [r for _, r in shard.iterate()] == [r for _, r in mem.iterate()]
        if case % 2:
            assert list(shard.iterate_packed()) == list(mem.iterate_packed())
        else:
            # Chunk geometry differs (one chunk in memory, one per shard on
            # disk); the stacked blocks must not.
            mem_block = np.concatenate([c for _, c in mem.iterate_chunks()])
            shard_block = np.concatenate([c for _, c in shard.iterate_chunks()])
            assert np.array_equal(shard_block, mem_block)

        # Abandoned passes count on both streams.
        for s in (mem, shard):
            it = s.iterate()
            next(it)
            it.close()
        assert shard.passes == mem.passes == 3
        shard.close()


def test_chunk_iteration_covers_family_and_counts_one_pass(tmp_path):
    path, system = _write_sample(tmp_path)
    stream = ShardedSetStream(path)
    starts, total = [], 0
    masks = []
    for start, matrix in stream.iterate_chunks():
        starts.append(start)
        total += matrix.shape[0]
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in matrix)
    assert total == system.m and starts[0] == 0 and stream.passes == 1
    assert masks == system.masks()

    mem = SetStream(system)
    mem_masks = []
    for _, matrix in mem.iterate_chunks():
        mem_masks.extend(int.from_bytes(row.tobytes(), "little") for row in matrix)
    assert mem_masks == masks and mem.passes == 1
    stream.close()


def _view_rows(stream, view):
    """One pass over ``stream`` in the named row format, as plain rows."""
    if view == "python":
        return list(stream.iterate_packed())
    if view == "frozenset":
        return list(stream.iterate())
    return [int.from_bytes(row.tobytes(), "little")
            for _, chunk in stream.iterate_chunks() for row in chunk]


@pytest.mark.parametrize("view", ["python", "numpy", "frozenset"])
def test_algorithm_parity_iter_set_cover(tmp_path, view):
    # iterSetCover runs on one driver path; after it, the sharded stream must
    # still replay the in-memory family in each row format (big-int rows,
    # uint64 chunks, frozensets), one more pass on both sides.
    planted = planted_instance(n=90, m=120, opt=5, seed=13)
    path = write_shards(tmp_path / "iter", planted.system, chunk_rows=11)
    kwargs = dict(delta=0.5, seed=3, use_polylog_factors=False,
                  include_rho=False)
    mem_stream = SetStream(planted.system)
    mem = iter_set_cover(mem_stream, **kwargs)
    stream = ShardedSetStream(path)
    shard = iter_set_cover(stream, **kwargs)
    assert shard.selection == mem.selection
    assert shard.passes == mem.passes
    assert shard.peak_memory_words == mem.peak_memory_words + stream.resident_words
    assert shard.extra["stream_buffer_words"] == stream.resident_words

    assert _view_rows(stream, view) == _view_rows(mem_stream, view)
    assert stream.passes == mem_stream.passes == mem.passes + 1
    stream.close()


def test_algorithm_parity_across_solvers(tmp_path):
    system = sparse_uniform_instance(60, 90, expected_size=5, seed=21)
    path = write_shards(tmp_path / "solvers", system, chunk_rows=13)
    for make in (
        lambda: ThresholdGreedy(),
        lambda: MultiPassGreedy(),
        lambda: StoreAllGreedy(),
        lambda: PartialThreshold(eps=0.1),
        lambda: PartialIterSetCover(eps=0.1, seed=5),
    ):
        mem = make().solve(SetStream(system))
        stream = ShardedSetStream(path)
        shard = make().solve(stream)
        assert shard.selection == mem.selection
        assert shard.passes == mem.passes
        # Out-of-core peak = in-memory peak + the resident chunk buffer.
        assert shard.peak_memory_words == mem.peak_memory_words + stream.resident_words
        stream.close()


# ----------------------------------------------------------------------
# v3 manifest statistics: write-time stats, checksums, lazy backfill
# ----------------------------------------------------------------------
def _downgrade_manifest(path, schema):
    """Rewrite a repository's manifest as an older schema (test fixture)."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["schema"] = schema
    manifest.pop("stats_crc32", None)
    for meta in manifest["shards"]:
        meta.pop("stats", None)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def test_v3_manifest_records_checksummed_stats(tmp_path):
    system = _mixed_system()
    path = write_shards(tmp_path / "v3", system, chunk_rows=2)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["schema"] == SHARD_SCHEMA == "repro.shards/v3"
    assert isinstance(manifest["stats_crc32"], int)
    with ShardedRepository(path, verify=True) as repo:
        assert repo.has_stats
        stats = repo.shard_stats()
        assert len(stats) == repo.shard_count
        # Totals reconcile with the instance across all shards.
        assert sum(s["set_bits"] for s in stats) == system.total_size()
        assert sum(sum(s["codec_mix"].values()) for s in stats) == system.m
        assert all(sum(s["density_hist"]) == int(meta["rows"])
                   for s, meta in zip(stats, repo._shard_meta))
        costs = repo.shard_cost_estimates()
        assert len(costs) == repo.shard_count
        assert all(cost >= 1 for cost in costs)


def test_tampered_stats_fail_loudly(tmp_path):
    path = write_shards(tmp_path / "tamper", _mixed_system(), chunk_rows=2)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["shards"][0]["stats"]["set_bits"] += 1
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ShardFormatError, match="stats checksum"):
        ShardedRepository(path)
    manifest["shards"][0]["stats"] = None
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ShardFormatError, match="stats"):
        ShardedRepository(path)


@pytest.mark.parametrize("schema", [SHARD_SCHEMA_V1, SHARD_SCHEMA_V2])
def test_pre_v3_repositories_open_and_backfill_idempotently(tmp_path, schema):
    system = _mixed_system()
    encoding = "dense" if schema == SHARD_SCHEMA_V1 else "auto"
    path = write_shards(tmp_path / schema.replace("/", "-"), system,
                        chunk_rows=2, encoding=encoding)
    with ShardedRepository(path) as fresh:
        expected_stats = fresh.shard_stats()
    _downgrade_manifest(path, schema)
    if schema == SHARD_SCHEMA_V1:  # v1 predates layout/encoding keys too
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest.pop("encoding")
        for meta in manifest["shards"]:
            meta.pop("layout")
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))

    # Opens unchanged, scans unchanged, costs estimated without stats.
    with ShardedRepository(path, verify=True) as repo:
        assert repo.schema == schema
        assert not repo.has_stats
        assert repo.shard_stats() == [None] * repo.shard_count
        assert all(cost >= 1 for cost in repo.shard_cost_estimates())
        assert repo.to_system() == system

        # Backfill recomputes exactly the write-time stats and upgrades.
        assert repo.backfill_stats() is True
        assert repo.schema == SHARD_SCHEMA and repo.has_stats
        assert repo.shard_stats() == expected_stats
        first = (path / MANIFEST_NAME).read_bytes()
        assert repo.backfill_stats() is False  # idempotent
        assert (path / MANIFEST_NAME).read_bytes() == first

    # The upgraded repository round-trips through a fresh open + verify.
    with ShardedRepository(path, verify=True) as upgraded:
        assert upgraded.has_stats
        assert upgraded.shard_stats() == expected_stats
        assert upgraded.to_system() == system
