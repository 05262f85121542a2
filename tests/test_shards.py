"""Shard repository format + ShardedSetStream: round-trips, corruption, parity."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import pickle
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.baselines import MultiPassGreedy, StoreAllGreedy, ThresholdGreedy
from repro.core import iter_set_cover
from repro.partial.streaming import PartialIterSetCover, PartialThreshold
from repro.engine import capture_words
from repro.engine.cache import scan_through_cache
from repro.engine.transport.remote import _decode_captures, _encode_captures
from repro.setsystem import MergedShardView, SetSystem, apply_delta
from repro.setsystem.packed import (
    Captures,
    ScanMask,
    accept_rows,
    pack_rows,
    scan_chunk,
)
from repro.setsystem.shards import (
    MANIFEST_NAME,
    SHARD_SCHEMA,
    ShardedRepository,
    ShardFormatError,
    ShardWriter,
    _ChunkCodec,
    _header_checksum,
    _stats_checksum,
    write_shards,
)
from repro.streaming import SetStream, ShardedSetStream, StreamAccessError
from repro.utils.bitset import mask_of
from repro.workloads import planted_instance, sparse_uniform_instance
from bounds import dual_bound_oracle
from families import FAMILIES, family_rows, family_system
from test_packed import _accept_reference, _words_of


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
# Row codecs: round-trips, fused scans, the pinned bytes
# ----------------------------------------------------------------------
def _mixed_system() -> SetSystem:
    """Rows that exercise every codec: runs, sparse points, dense noise.

    Ordered so that (at ``chunk_rows=2``) the first chunk is all dense
    while later chunks mix codecs.
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


def _family_system(family: str) -> SetSystem:
    """A fixed system of each family (``auto``: :func:`_mixed_system`):
    all-dense chunks, sparse rows, run-length rows, mixed chunks."""
    if family == "auto":
        return _mixed_system()
    rng = np.random.default_rng(FAMILIES.index(family))
    return SetSystem(130, family_rows(family, rng, 130, 6))


@pytest.mark.parametrize("family", FAMILIES)
def test_v2_roundtrip_every_encoding(tmp_path, family):
    """Each family (named by the codec its rows take; ``auto`` mixes
    them) reads back row for row from a verified open."""
    system = _family_system(family)
    path = write_shards(tmp_path / family, system, chunk_rows=2)
    with ShardedRepository(path, verify=True) as repo:
        assert repo.schema == SHARD_SCHEMA
        assert repo.to_system() == system
        for i in range(system.m):
            assert repo.row_mask(i) == system.masks()[i]


def test_families_reach_every_chunk_shape(tmp_path):
    """Under the one codec rule the test families give what the parity
    suites rely on: the dense family all-dense chunks, the sparse and
    run-length families only their codec's rows, the mixed family
    chunks that mix codecs."""
    rng = np.random.default_rng(3)
    for family in FAMILIES:
        mixes = []
        for case in range(8):
            system = family_system(family, rng)
            path = write_shards(tmp_path / f"{family}-{case}", system,
                                chunk_rows=5)
            with ShardedRepository(path) as repo:
                mixes += [stats["codec_mix"] for stats in repo.shard_stats()]
        if family == "auto":
            assert sum(len([k for k in mix if mix[k]]) > 1 for mix in mixes) \
                > len(mixes) // 2, mixes
            assert all(sum(mix[k] for mix in mixes) for k in mixes[0]), mixes
        else:
            assert all(mix[family] == sum(mix.values()) for mix in mixes), mixes


def test_auto_encoding_mixes_layouts_and_shrinks_sparse(tmp_path):
    """The one rule mixes codecs across (and within) chunks, keeps an
    all-dense chunk all dense, and stores a sparse family in at most
    half the bytes of its packed rows."""
    system = _mixed_system()
    path = write_shards(tmp_path / "auto", system, chunk_rows=2)
    with ShardedRepository(path) as repo:
        tags = [repo._record_table(s)[0].tolist() for s in range(repo.shard_count)]
        assert tags == [[0, 0], [2, 1], [1, 1]]
        dense_bytes = repo.m * repo.words * 8
        assert repo.disk_bytes < dense_bytes
        assert repo.to_system() == system
        # The resident-buffer accounting is the packed chunk's.
        assert repo.chunk_words == 2 * repo.words

    sparse = sparse_uniform_instance(512, 200, expected_size=6, seed=9)
    small = write_shards(tmp_path / "s-auto", sparse)
    with ShardedRepository(small) as a:
        assert a.disk_bytes * 2 <= a.m * a.words * 8  # the >=2x reduction regime


def test_scan_shard_matches_bruteforce_per_encoding(tmp_path):
    for family in FAMILIES:
        system = _family_system(family)
        masks = system.masks()
        mask_int = sum(1 << e for e in range(0, system.n, 3))
        expected = [(m & mask_int).bit_count() for m in masks]
        path = write_shards(tmp_path / f"scan-{family}", system, chunk_rows=2)
        with ShardedRepository(path) as repo:
            gains, captured = [], []
            for shard in range(repo.shard_count):
                _, g, c = repo.scan_shard(
                    shard, ScanMask(repo.n, mask_int), min_capture_gain=1
                )
                gains.extend(int(x) for x in g)
                captured.extend(c)
            assert gains == expected, family
            assert [i for i, _ in captured] == [
                i for i, g in enumerate(expected) if g >= 1
            ]
            for row_id, projection in captured:
                assert projection == masks[row_id] & mask_int


_PINNED_SHA256 = {
    "auto": {
        "manifest.json": "1a8325308aa76a4a61ca9d04402d5d871d4148f5d369ebe435a6d8e2e86d5283",
        "shard-00000.bin": "cf80deeecfb7e4886a3dd4ad2c8aae9669ff9f7d1bac5d11043f321b224bbb3e",
        "shard-00001.bin": "d2ce75e544ea6d76bbcda2915a2d79a950273520f6a4b56f248e9861583a6344",
        "shard-00002.bin": "eaaff6c107bb50a2a274ea522aaa247a703f7500b87fda5abeb5c77efd05d3fc",
    },
    "dense": {
        "manifest.json": "4f49bfaf08754343bba17e18e087ee22ac92d0dcd30ef6b09f43f9fc8dd40cf2",
        "shard-00000.bin": "74c64c375e1d8c51bf90a45b776550c08d5ed7fee5fd66db5ca2b362d9b47156",
        "shard-00001.bin": "23e6476b4151022bd435fb1aa84c2f4e86539291a301619b3ba4780a81b086fe",
        "shard-00002.bin": "1bfd9e4a3e90678ccf3916db610302172deb1cf6205f9dcec4a7734faa3bd6a0",
    },
    "sparse": {
        "manifest.json": "f3424ec5395547323813185572a95232f4429c49e0b3fe69adf609fb97c822a2",
        "shard-00000.bin": "2e9a0335d5b253a3c7deda9a7c2f3db4d6cebe0344588aa828bbf01420a1e46e",
        "shard-00001.bin": "dd910f0bd64a96396c6709d18beedfc92734ab397bb3aa27a8891ab3d314a72c",
        "shard-00002.bin": "72bf4e1e406d6c847ce4bf2705f34809a7ef7c2ea78a1bd4a76bbbf3cdb12dd3",
    },
    "rle": {
        "manifest.json": "82618df4eecb453dd7dbd4652e4c56ed4b753c0db7e0233bf50b5babccf64b53",
        "shard-00000.bin": "89a81b15c2dcbc23f5d78761e74482049c70f4ad99fc34d523ec714af208b841",
        "shard-00001.bin": "fa2fde19b1af4d00972dc7ec8ddff95efda93c149a1dbe224466ccabed40fe3e",
        "shard-00002.bin": "61dc74db4b80590365e66a0a6fda8cb800435082b3eb424054d98d08d72fff9b",
    },
}


def test_max_set_bits_is_the_largest_set_and_costs_no_pass(tmp_path):
    """Δ is manifest metadata: the same as the in-memory family's, read
    without a pass, and a merged delta view reports its live rows' Δ."""
    systems = [SetSystem(5, []), SetSystem(5, [[], []]), _mixed_system(),
               SetSystem(65, [[64], list(range(65)), [0]])]
    for case, system in enumerate(systems):
        stream = ShardedSetStream(write_shards(tmp_path / str(case), system,
                                               chunk_rows=2))
        assert stream.max_set_size == system.max_set_size()
        assert stream.lower_bound == SetStream(system).lower_bound
        assert stream.passes == 0
        stream.close()



def test_delta_chain_records_its_largest_live_set(tmp_path):
    """Each delta.json records the merged view's Δ, equal to what the
    compacted rewrite records; a forged one passes a plain open but not
    a verified open nor a deep fsck."""
    from repro.setsystem import compact
    from repro.setsystem.deltas import _chain_checksum
    from repro.setsystem.durability import fsck_repository

    path = write_shards(tmp_path / "chain", SetSystem(6, [[0, 1, 2, 3], [4], [5]]),
                        chunk_rows=2)
    widest = []
    for ops in ([{"op": "delete", "id": 1}],  # a narrow row: Δ stands
                [{"op": "delete", "id": 0},   # the widest row: rows decoded
                 {"op": "insert", "elements": [4, 5]}],
                [{"op": "insert", "elements": [0, 1, 2]}]):
        apply_delta(path, ops)
        with MergedShardView(path) as view:
            widest.append(view.max_set_bits)
            assert widest[-1] == view.to_system().max_set_size()
    assert widest == [4, 2, 3]

    record_path = path / "deltas" / "00003" / "delta.json"
    record = json.loads(record_path.read_text())
    record["max_set_bits"] = 2
    record["crc32"] = _chain_checksum(record)
    record_path.write_text(json.dumps(record))
    with MergedShardView(path) as view:
        assert view.max_set_bits == 2
    with pytest.raises(ShardFormatError) as refused:
        MergedShardView(path, verify=True)
    assert refused.value.code == "stats-max-set"
    assert fsck_repository(path).codes() == ["stats-max-set"]

    record["max_set_bits"] = 3
    record["crc32"] = _chain_checksum(record)
    record_path.write_text(json.dumps(record))
    compact(path)
    with ShardedRepository(path) as repo:
        assert repo.max_set_bits == 3


@st.composite
def _small_systems(draw):
    """Families over n <= 70 (two words) mixing empty, sparse, run-like
    and dense rows, possibly with elements in no set."""
    n = draw(st.integers(0, 70))
    rows = draw(st.lists(
        st.one_of(
            st.lists(st.integers(0, max(n - 1, 0)), max_size=6),
            st.integers(0, max(n - 1, 0)).flatmap(
                lambda a: st.integers(a, max(n, a)).map(lambda b: list(range(a, b)))
            ),
            st.sets(st.integers(0, max(n - 1, 0)), min_size=0, max_size=n),
        ),
        max_size=14,
    ))
    return SetSystem(n, rows if n else [[] for _ in rows])


@settings(max_examples=80, deadline=None)
@given(_small_systems(), st.integers(1, 5), st.data())
def test_dual_bound_matches_the_fraction_oracle(system, chunk_rows, data):
    """The recorded bound is the oracle's in memory, in the manifest, and
    after any apply_delta (deletes only, or deletes and inserts): a delta
    chain records the exact bound of its live rows, equal to the bound
    its compaction records."""
    from repro.setsystem import compact

    oracle = dual_bound_oracle(system.n, system.sets)
    assert system.lower_bound() == SetStream(system).lower_bound == oracle
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", system, chunk_rows=chunk_rows)
        stream = ShardedSetStream(path)
        assert stream.lower_bound == oracle and stream.passes == 0
        stream.close()
        live = list(system.sets)
        for _ in range(data.draw(st.integers(1, 3))):
            dead = data.draw(st.sets(st.integers(0, max(len(live) - 1, 0)),
                                     max_size=len(live)))
            inserts = data.draw(st.lists(
                st.lists(st.integers(0, max(system.n - 1, 0)), max_size=5),
                max_size=3)) if system.n else []
            with MergedShardView(path) as view:
                stable = view.stable_ids
            ops = [{"op": "delete", "id": stable[i]} for i in sorted(dead) if live]
            ops += [{"op": "insert", "elements": row} for row in inserts]
            if not ops:
                continue
            apply_delta(path, ops)
            live = [r for i, r in enumerate(live) if i not in dead] + [
                frozenset(r) for r in inserts]
            with MergedShardView(path, verify=True) as view:
                assert view.dual_bound == dual_bound_oracle(system.n, live)
                assert view.to_system().sets == tuple(live)
        compact(path)
        with ShardedRepository(path, verify=True) as repo:
            assert repo.dual_bound == dual_bound_oracle(system.n, live)


@settings(max_examples=60, deadline=None)
@given(_small_systems(), st.integers(1, 5), st.data())
def test_referee_rows_agree_with_to_system(system, chunk_rows, data):
    """select_rows, the referee's numpy decoder, gives every row of the
    source system, in the order asked, on every codec and on a delta
    view; verify_solution agrees with SetSystem.is_cover."""
    reference = system
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", system, chunk_rows=chunk_rows)
        if system.m and data.draw(st.booleans()):
            inserted = [0] if system.n else []
            apply_delta(path, [{"op": "delete", "id": 0},
                               {"op": "insert", "elements": inserted}])
            reference = SetSystem(system.n, [*system.sets[1:], inserted])
        stream = ShardedSetStream(path)
        try:
            assert stream.repository.to_system() == reference
            ids = data.draw(st.lists(st.integers(0, max(reference.m - 1, 0)),
                                     max_size=2 * reference.m)) if reference.m else []
            flat, sizes = stream.repository.select_rows(ids)
            starts = np.cumsum(sizes) - sizes
            assert [flat[a:a + b].tolist() for a, b in zip(starts, sizes)] == [
                sorted(reference.sets[i]) for i in ids]
            assert stream.verify_solution(ids) == reference.is_cover(ids)
            with pytest.raises(IndexError):
                stream.repository.select_rows([reference.m])
        finally:
            stream.close()


def test_forged_dual_bound_is_refused(tmp_path):
    """A bound re-sealed under header_crc32 but off the rows: one outside
    [ceil(n/Δ), n] is refused by any open, one inside by a verified open
    and a deep fsck, with code stats-dual-bound; an unsealed edit is
    header-checksum.  A delta chain records no bound: its view recounts
    the live rows'."""
    from repro.setsystem.durability import fsck_repository

    system = SetSystem(6, [[0, 1, 2, 3], [2, 3], [4], [5], [0, 1]])
    path = write_shards(tmp_path / "repo", system)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["dual_bound"] == 3  # 4 * 1/4 + 2 * 1/1; ceil(6/4) = 2

    def forge(bound, seal=True):
        forged = dict(manifest, dual_bound=bound)
        if seal:
            forged["header_crc32"] = _header_checksum(forged)
        (path / MANIFEST_NAME).write_text(json.dumps(forged))

    for bound, seal, opens, code in ((2, True, True, "stats-dual-bound"),
                                     (4, True, True, "stats-dual-bound"),
                                     (1, True, False, "stats-dual-bound"),
                                     (7, True, False, "stats-dual-bound"),
                                     (4, False, False, "header-checksum")):
        forge(bound, seal)
        if opens:
            with ShardedRepository(path) as repo:
                assert repo.dual_bound == bound
        with pytest.raises(ShardFormatError) as refused:
            ShardedRepository(path, verify=True)
        assert refused.value.code == code, bound
        assert fsck_repository(path).codes() == [code], bound
    forge(3)
    assert fsck_repository(path).ok

    # Deleting {0, 1, 2, 3} raises every y_e to 1/2: the view counts 4.
    apply_delta(path, [{"op": "delete", "id": 0}])
    record = json.loads((path / "deltas" / "00001" / "delta.json").read_text())
    assert "dual_bound" not in record and record["max_set_bits"] == 2
    with MergedShardView(path, verify=True) as view:
        assert view.dual_bound == 4 == dual_bound_oracle(6, view.to_system().sets)
    assert fsck_repository(path).ok


@pytest.mark.parametrize("family", FAMILIES)
def test_format_pin_mixed_system_bytes(tmp_path, family):
    """The on-disk bytes of a small repository of each family never move.

    The hashes were taken from the per-row scalar writer this format was
    defined by (the manifests re-pinned when the stats block gained
    ``max_set_bits``, when schema v4 added ``dual_bound`` and
    ``header_crc32``, and when v5 dropped ``encoding`` and ``layout``;
    v5 also re-pinned the mixed system's all-dense first shard, which
    v4 wrote as a bare packed block, and pinned the other families);
    any encoder change that shifts a byte of a shard file or of the
    manifest (stats included) fails here."""
    path = write_shards(tmp_path / family, _family_system(family),
                        chunk_rows=2)
    digests = {
        child.name: hashlib.sha256(child.read_bytes()).hexdigest()
        for child in sorted(path.iterdir())
    }
    assert digests == _PINNED_SHA256[family]


# ----------------------------------------------------------------------
# The chunk encoder against the per-row scalar oracle
# ----------------------------------------------------------------------
def _oracle_varint(value: int) -> bytes:
    out = bytearray()
    while True:
        low, value = value & 0x7F, value >> 7
        if not value:
            out.append(low)
            return bytes(out)
        out.append(low | 0x80)


def _oracle_runs(row):
    """Maximal runs ``[start, end)`` of a sorted, duplicate-free row."""
    start = prev = None
    for element in row:
        if prev is not None and element == prev + 1:
            prev = element
            continue
        if start is not None:
            yield start, prev + 1
        start = prev = element
    if start is not None:
        yield start, prev + 1


def _oracle_encode_sparse(row) -> bytes:
    prev, out = None, bytearray()
    for element in row:
        out += _oracle_varint(element if prev is None else element - prev)
        prev = element
    return bytes(out)


def _oracle_encode_rle(row) -> bytes:
    pos, out = 0, bytearray()
    for start, end in _oracle_runs(row):
        out += _oracle_varint(start - pos) + _oracle_varint(end - start - 1)
        pos = end
    return bytes(out)


def _oracle_choose_row_tag(row, words: int) -> int:
    """Cheapest codec tag (dense 0, sparse 1, run-length 2); ties prefer
    the faster decode."""
    best_tag, best_cost = 0, words * 8
    if len(row) < best_cost:
        cost = len(_oracle_encode_sparse(row))
        if cost < best_cost:
            best_tag, best_cost = 1, cost
    if len(_oracle_encode_rle(row)) < best_cost:
        best_tag = 2
    return best_tag


def _oracle_shard_stats(rows, tags, n: int) -> dict:
    hist = [0] * 16
    mix = {"dense": 0, "sparse": 0, "rle": 0}
    set_bits = runs = sparse_elems = rle_runs = widest = 0
    for row, tag in zip(rows, tags):
        widest = max(widest, len(row))
        hist[min(15, len(row) * 16 // n) if n > 0 else 0] += 1
        mix[("dense", "sparse", "rle")[tag]] += 1
        set_bits += len(row)
        row_runs = sum(1 for _ in _oracle_runs(row))
        runs += row_runs
        if tag == 1:
            sparse_elems += len(row)
        elif tag == 2:
            rle_runs += row_runs
    return {
        "density_hist": hist,
        "codec_mix": mix,
        "set_bits": set_bits,
        "max_set_bits": widest,
        "runs": runs,
        "sparse_elems": sparse_elems,
        "rle_runs": rle_runs,
    }


def _oracle_chunk(rows, n: int):
    """``(tags, payload, stats)`` of one chunk, row by row.  An all-dense
    chunk is a record table of tag-0 rows like any other."""
    words = -(-n // 64)
    tags = [_oracle_choose_row_tag(row, words) for row in rows]
    stats = _oracle_shard_stats(rows, tags, n)
    payloads = [
        (mask_of(row).to_bytes(words * 8, "little"), _oracle_encode_sparse(row),
         _oracle_encode_rle(row))[tag]
        for row, tag in zip(rows, tags)
    ]
    parts = [len(rows).to_bytes(4, "little"), bytes(tags)]
    parts += [len(p).to_bytes(4, "little") for p in payloads]
    return tags, b"".join(parts + payloads), stats


_VARINT_EDGES = (1, 2, 127, 128, 129, 255, 256, 16383, 16384, 16385,
                 (1 << 21) - 1, 1 << 21)


@st.composite
def _encoder_chunks(draw):
    n = draw(st.sampled_from((0, 1, 63, 64, 65, (1 << 14) + 3, (1 << 21) + 5)))
    if n == 0:
        return n, [[] for _ in range(draw(st.integers(1, 4)))]
    element = st.integers(0, n - 1)

    def run(start_len):
        start, length = start_len
        return list(range(start, min(n, start + length)))

    def edges(gaps):  # cumulative gaps straddling the varint widths
        out, pos = [], -1
        for gap in gaps:
            pos += gap
            if pos >= n:
                break
            out.append(pos)
        return out

    kinds = [
        st.just([]),
        st.tuples(element, st.integers(1, 300)).map(run),
        st.lists(element, max_size=40, unique=True).map(sorted),
        st.lists(element, max_size=12, unique=True).map(
            lambda row: sorted(set(row) | {n - 1})
        ),
        st.lists(st.sampled_from(_VARINT_EDGES), max_size=6).map(edges),
        st.lists(st.tuples(element, st.integers(1, 40)), max_size=5).map(
            lambda pairs: sorted({e for pair in pairs for e in run(pair)})
        ),
    ]
    dense_bytes = -(-n // 64) * 8
    if 128 + 2 * dense_bytes < n and dense_bytes <= 4096:
        # Sparse costs exactly the dense bytes (one 2-byte gap, the rest
        # 1-byte gaps of 2), and singleton runs make run-length dearer:
        # the tie must stay dense.
        tie = [0] + [128 + 2 * i for i in range(dense_bytes - 2)]
        kinds.append(st.just(tie))
    if n < 1 << 15:
        kinds.append(st.just(list(range(n))))
        kinds.append(st.integers(0, (1 << n) - 1).map(
            lambda bits: [e for e in range(n) if bits >> e & 1]
        ))
    rows = draw(st.lists(st.one_of(kinds), min_size=1, max_size=7))
    return n, rows


@settings(max_examples=120, deadline=None)
@given(_encoder_chunks())
def test_chunk_encoder_matches_scalar_oracle(case):
    """The chunk kernel emits the oracle's tags, payload bytes and stats,
    from rows (the writer) and from the referee's CSR of the written
    chunk (the merged view's re-encode); the written chunk round-trips
    through a verified open and the referee row decoder, row by row."""
    n, rows = case
    tags, payload, stats = _oracle_chunk(rows, n)
    event("all dense" if not any(tags) else "mixed")
    chunk = _ChunkCodec.of_rows(rows, n)
    assert chunk.tags.tolist() == tags
    assert chunk.payload() == payload
    assert chunk.stats() == stats
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", SetSystem(n, rows),
                            chunk_rows=len(rows))
        assert (path / "shard-00000.bin").read_bytes() == payload
        with ShardedRepository(path, verify=True) as repo:
            assert repo.shard_stats() == [stats]
            flat, sizes = repo.select_rows(np.arange(len(rows)))
            assert _ChunkCodec(flat, sizes, n).stats() == stats
            ends = np.cumsum(sizes)
            assert [flat[e - k:e].tolist() for e, k in zip(ends, sizes)] == [
                sorted(row) for row in rows]
            assert [repo.row_mask(i) for i in range(len(rows))] == [
                mask_of(row) for row in rows]
            assert repo.to_system() == SetSystem(n, rows)


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


def test_writer_extend_keeps_the_rows_before_a_bad_one(tmp_path):
    """A bad set raises from the `extend` that was passed it, with the
    sets before it appended (as one `append` each would have) and none
    after it; the bad set itself never reaches a shard file."""
    writer = ShardWriter(tmp_path / "w", n=3, chunk_rows=2)
    with pytest.raises(ValueError, match="set 3 contains element 9 outside"):
        writer.extend([[0], [2, 1], [1], [9], [2]])
    assert writer.m == 3
    writer.extend([[0, 0]])
    with ShardedRepository(writer.close()) as repo:
        assert repo.to_system() == SetSystem(3, [[0], [1, 2], [1], [0]])


#: Elements that make SetSystem refuse their set: floats (even integral
#: ones), strings, None, a nested list, and ints past any int64 range.
_BAD_ELEMENTS = (1.5, 1.0, "1", None, [0], 2**64, 2**70, -(2**63) - 1)


@st.composite
def _writer_inputs(draw):
    """A small family as a writer gets it: unsorted rows, duplicates,
    empty sets, bools as elements, tuples as rows, and in about half the
    cases one malformed set."""
    n = draw(st.integers(0, 12))
    valid = st.integers(0, max(n - 1, 0))
    element = st.one_of(valid, st.booleans()) if n >= 2 else valid
    size = 8 if n else 0  # over an empty ground set every set is empty
    rows = draw(st.lists(st.lists(element, max_size=size), max_size=9))
    rows = [tuple(row) if draw(st.booleans()) else row for row in rows]
    label = "well-formed"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(rows)))
        kind = draw(st.sampled_from(["element", "range", "row"]))
        if kind == "row":
            bad = draw(st.sampled_from([5, None, 2.5]))
            rows.insert(at, bad)
        else:
            bad = draw(st.sampled_from(
                _BAD_ELEMENTS if kind == "element" else (n, n + 3, -1)))
            row = draw(st.lists(element, max_size=min(size, 4)))
            row.insert(draw(st.integers(0, len(row))), bad)
            rows.insert(at, row)
        label = f"{kind} {bad!r}"
    return n, rows, draw(st.sampled_from([1, 2, 7, None])), label


@settings(max_examples=150, deadline=None)
@given(_writer_inputs())
def test_writer_fuzz_matches_set_system(case):
    """Differential fuzzing of the writer's chunk kernel against
    SetSystem.  A well-formed family writes byte-identical repositories
    whether its rows arrive as a list, a generator or one `append` each,
    and reads back as `SetSystem(n, rows)`; a malformed one raises the
    very ValueError SetSystem raises and leaves no directory behind."""
    n, rows, chunk_rows, label = case
    event(label.split()[0])
    try:
        expected = SetSystem(n, rows)
    except ValueError as exc:
        expected = exc

    def by_append(path):
        with ShardWriter(path, n, chunk_rows=chunk_rows) as writer:
            for row in rows:
                writer.append(row)
        return path

    writers = {
        "list": lambda path: write_shards(path, rows, n=n, chunk_rows=chunk_rows),
        "generator": lambda path: write_shards(
            path, (row for row in rows), n=n, chunk_rows=chunk_rows),
        "append": by_append,
    }
    with tempfile.TemporaryDirectory() as tmp:
        written = {}
        for how, write in writers.items():
            path = Path(tmp) / how
            if isinstance(expected, ValueError):
                with pytest.raises(ValueError) as info:
                    write(path)
                assert str(info.value) == str(expected), (how, label)
                assert not path.exists(), (how, label)
            else:
                write(path)
                written[how] = {p.name: p.read_bytes() for p in path.iterdir()}
        if written:
            assert written["list"] == written["generator"] == written["append"]
            with ShardedRepository(Path(tmp) / "list", verify=True) as repo:
                assert repo.to_system() == expected


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
    path = write_shards(tmp_path / "c1", system, chunk_rows=2)

    # Row 0's payload is varint(1), varint(4); overwriting the final byte
    # with a continuation byte leaves a varint unterminated at the row
    # boundary.
    def unterminate(payload):
        payload[-2] = 0x80

    _corrupt_payload_byte(path, "shard-00000.bin", unterminate)
    # The CRC matches, but a verified open decodes every row...
    with pytest.raises(ShardFormatError, match="corrupt|varint"):
        ShardedRepository(path, verify=True)
    with ShardedRepository(path) as repo:  # ...and so does any later read
        with pytest.raises(ShardFormatError, match="corrupt|varint"):
            list(repo.iter_row_masks())
        with pytest.raises(ShardFormatError, match="corrupt|varint"):
            repo.scan_shard(0, ScanMask(10, (1 << 10) - 1), min_capture_gain=1)


def test_corrupt_element_out_of_range_fails_loudly(tmp_path):
    system = SetSystem(10, [[1], [2]])
    path = write_shards(tmp_path / "c2", system, chunk_rows=2)

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
    path = write_shards(tmp_path / "c3", system, chunk_rows=2)

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
        tags, _, _ = repo._record_table(0)
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


def test_overlong_varint_is_refused_by_every_reader(tmp_path):
    """Row 0 of a sparse repository over n = 10 stores 1 as the two-byte
    varint ``0x81 0x00``: longer than any value below n needs.  The scan,
    a verified open, random access and a deep fsck all refuse it."""
    from repro.setsystem.durability import fsck_repository

    path = write_shards(tmp_path / "overlong", SetSystem(10, [[1], [2]]),
                        chunk_rows=2)

    def overlong(payload):
        assert bytes(payload[4:]) == bytes([1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2])
        payload[6:7] = b"\x02"  # row 0's length: 2 bytes
        payload[14:15] = b"\x81\x00"

    _corrupt_payload_byte(path, "shard-00000.bin", overlong)
    with ShardedRepository(path) as repo:
        with pytest.raises(ShardFormatError, match="varint overflow"):
            repo.scan_shard(0, ScanMask(10, (1 << 10) - 1), min_capture_gain=1)
        with pytest.raises(ShardFormatError, match="varint overflow"):
            repo.row_mask(0)
    with pytest.raises(ShardFormatError, match="varint overflow") as refused:
        ShardedRepository(path, verify=True)
    assert refused.value.code == "shard-decode"
    assert fsck_repository(path).codes() == ["shard-decode"]


def _pad_varint(payload, row, pick, extra):
    """Re-encode varint ``pick`` of row ``row`` of an encoded shard as an
    overlong LEB128 of the same value, ``extra`` bytes longer, and fix
    the row's recorded length (dense and empty rows are left alone)."""
    rows = int.from_bytes(payload[:4], "little")
    row %= rows
    table = slice(4 + rows, 4 + 5 * rows)
    lengths = np.frombuffer(bytes(payload[table]), dtype="<u4").astype(np.int64)
    start = 4 + 5 * rows + int(lengths[:row].sum())
    ends = [start + i for i, byte in enumerate(payload[start:start + lengths[row]])
            if byte < 0x80]
    if payload[4 + row] == 0 or not ends:
        return
    end = ends[pick % len(ends)]
    payload[end] |= 0x80
    payload[end + 1:end + 1] = bytes([0x80] * (extra - 1) + [0])
    lengths[row] += extra
    payload[table] = lengths.astype("<u4").tobytes()


@st.composite
def _dense_systems(draw):
    """Families whose rows the one codec rule stores dense — every other
    element, give or take three — so their shards are all dense."""
    n = draw(st.integers(22, 70))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 1), st.sets(st.integers(0, n - 1), max_size=3)),
        min_size=1, max_size=8,
    ))
    return SetSystem(n, [
        sorted({e for e in range(n) if e % 2 == shift} ^ flips)
        for shift, flips in rows
    ])


_CODECS = ("dense", "sparse", "run-length")


@settings(max_examples=150, deadline=None)
@given(_small_systems() | _dense_systems(),
       st.none() | st.tuples(st.integers(0, 63), st.integers(0, 63),
                             st.integers(1, 2)),
       st.lists(st.tuples(st.integers(0, 1 << 12),
                          st.one_of(st.integers(0, 9), st.integers(0x80, 0x88),
                                    st.integers(0, 255))),
                max_size=3))
def test_referee_and_scan_agree_on_mutated_shards(system, pad, edits):
    """Byte-mutate a shard (and maybe lengthen one varint of an encoded
    one into an overlong varint) and reseal its CRC: the referee
    (select_rows) and the scan's decoder (decode_chunk + scan_decoded)
    read the same rows, or both raise ShardFormatError.  The events
    show the draws reach every codec and all-dense shards."""
    assume(system.n and system.m)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", system, chunk_rows=system.m)
        with ShardedRepository(path) as repo:
            tags = set(repo._record_table(0)[0].tolist())
        for tag in tags:
            event(f"{_CODECS[tag]} rows")
        shape = "all-dense" if tags == {0} else "mixed"

        def mutate(payload):
            if pad is not None:
                _pad_varint(payload, *pad)
            for at, value in edits:
                payload[at % len(payload)] = value

        _corrupt_payload_byte(path, "shard-00000.bin", mutate)
        with ShardedRepository(path) as repo:
            try:
                referee = [repo.row_mask(i) for i in range(repo.m)]
            except ShardFormatError:
                referee = None
            try:
                _, _, captured = repo.scan_decoded(
                    0, repo.decode_chunk(0)[0],
                    ScanMask(system.n, (1 << system.n) - 1), min_capture_gain=0,
                )
                scanned = captured.rows(range(repo.m))
            except ShardFormatError:
                scanned = None
        event(f"{shape}: {'refused' if referee is None else 'read'}")
        assert referee == scanned


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
    row = st.one_of(
        st.lists(elements, max_size=2, unique=True),
        st.lists(elements, max_size=n, unique=True),
        runs,
        half_dense,
    )
    # Half-dense rows alone: all-dense chunks once n passes 16.
    rows = draw(st.lists(half_dense if draw(st.booleans()) else row,
                         min_size=1, max_size=12))
    mode = draw(st.sampled_from(("gain", "gain+ids", "best")))
    if mode == "best":
        kwargs = {"best_only": True}
    else:
        kwargs = {"min_capture_gain": draw(st.integers(0, 4))}
        if mode == "gain+ids":
            kwargs["capture_ids"] = draw(st.sets(st.integers(0, len(rows) - 1)))
    return (
        SetSystem(n, rows),
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


def _assert_capture_record(captured, start, gains, projections, kwargs, skipped,
                           probe):
    """``captured`` holds ``row ∩ mask`` of the expected ids, laid out by
    the byte rule, and every record method agrees with the referee.

    ``skipped``: the producer short-circuits an empty mask (repositories
    and views do, the raw kernel does not) and captures nothing.
    ``probe``: ``(second_mask, index, threshold)`` for the method checks."""
    expected_gains = [
        projections[i].bit_count() for i in range(start, start + len(gains))
    ]
    assert gains.tolist() == expected_gains
    ids = [] if skipped else _expected_captures(start, expected_gains, kwargs)
    assert isinstance(captured, Captures)
    assert captured.ids == ids  # ascending, as _expected_captures lists them
    assert len(captured) == len(ids)
    words = captured.width
    rows = [projections[i] for i in ids]
    bits = sum(row.bit_count() for row in rows)
    assert captured.sparse == (2 * bits < len(ids) * words)
    event(f"layout={'sparse' if captured.sparse else 'full'}")
    for j, row in enumerate(rows):
        where, row_bits = captured.row_words(j)
        assert row_bits.dtype == np.dtype("<u8")
        full = _words_of(0, words)
        full[where] = row_bits
        assert full.tolist() == _words_of(row, words).tolist()
    assert captured.rows(range(len(ids))) == rows
    assert capture_words(captured) == bits + len(ids)
    assert captured == [(i, projections[i]) for i in ids]
    second, index, threshold = probe
    second_words = _words_of(second, words)
    assert captured.gains(second_words).tolist() == [
        (row & second).bit_count() for row in rows
    ]
    index = [j for j in index if j < len(ids)]
    assert captured.gains_at(np.array(index, dtype=np.int64), second_words).tolist() == [
        (rows[j] & second).bit_count() for j in index
    ]
    picked, residual = _accept_reference(list(zip(ids, rows)), second, threshold)
    assert accept_rows(captured, second_words, threshold) == picked
    assert second_words.tolist() == _words_of(residual, words).tolist()


@settings(max_examples=150, deadline=None)
@given(_capture_cases(), st.data())
def test_scan_captures_match_referee_decoder(case, data):
    """Every capture producer returns a record whose rows are the
    referee's ``row ∩ mask``, ids ascending, in the layout the byte rule
    predicts, for every codec and capture mode: cold and cached shard
    scans, the packed ``scan_chunk`` kernel, a delta-merged view, and the
    record after a pickle or a remote wire round trip.
    Against a second drawn mask, ``gains``/``gains_at`` match the
    referee's popcounts and ``accept_rows`` the row-by-row int loop."""
    system, shards, mask_int, kwargs = case
    n, words = system.n, -(-system.n // 64)
    chunk_rows = -(-system.m // shards)
    mask = ScanMask(n, mask_int)
    projections = [mask_of(s) & mask_int for s in system.sets]
    probe = (
        data.draw(st.integers(0, (1 << n) - 1), label="second mask"),
        data.draw(st.lists(st.integers(0, system.m - 1), unique=True), label="index"),
        data.draw(st.integers(1, 4), label="threshold"),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", system, chunk_rows=chunk_rows)
        scans = []
        with ShardedRepository(path) as repo:
            assert [repo.row_mask(i) & mask_int for i in range(repo.m)] == projections
            for shard in range(repo.shard_count):
                scans.append(repo.scan_shard(shard, mask, **kwargs))
                scans.append(
                    repo.scan_decoded(shard, repo.decode_chunk(shard)[0], mask, **kwargs)
                )
        raw_from = len(scans)
        rows = pack_rows([mask_of(s) for s in system.sets], words)
        for start in range(0, system.m, chunk_rows):
            gains, captured = scan_chunk(
                start, rows[start : start + chunk_rows], mask, **kwargs
            )
            scans.append((start, gains, captured))
        raw_to = len(scans)
        # The same family as a base plus one delta generation.
        split = data.draw(st.integers(1, system.m), label="base rows")
        merged = write_shards(
            Path(tmp) / "merged", SetSystem(n, system.sets[:split]),
            chunk_rows=chunk_rows,
        )
        if split < system.m:
            apply_delta(merged, [
                {"op": "insert", "elements": sorted(s)} for s in system.sets[split:]
            ])
        with MergedShardView(merged) as view:
            assert [view.row_mask(i) & mask_int for i in range(view.m)] == projections
            for shard in range(view.shard_count):
                scans.append(scan_through_cache(view, shard, mask, **kwargs)[0])
                scans.append(
                    view.scan_decoded(shard, view.decode_chunk(shard)[0], mask, **kwargs)
                )
    for position, (start, gains, captured) in enumerate(scans):
        skipped = not mask_int and not raw_from <= position < raw_to
        assert captured.width == words
        for record in (
            captured,
            pickle.loads(pickle.dumps(captured)),
            _decode_captures(
                position, (start, gains.size), *_encode_captures(captured), n
            ),
        ):
            _assert_capture_record(
                record, start, gains, projections, kwargs, skipped, probe
            )


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
        assert list(shard.iterate_packed()) == list(mem.iterate_packed())

        # Abandoned passes count on both streams.
        for s in (mem, shard):
            it = s.iterate()
            next(it)
            it.close()
        assert shard.passes == mem.passes == 3
        shard.close()


def _view_rows(stream, view):
    """One pass over ``stream`` in the named row format, as plain rows."""
    if view == "python":
        return list(stream.iterate_packed())
    return list(stream.iterate())


@pytest.mark.parametrize("view", ["python", "frozenset"])
def test_algorithm_parity_iter_set_cover(tmp_path, view):
    # iterSetCover runs on one driver path; after it, the sharded stream must
    # still replay the in-memory family in each row format (big-int rows,
    # frozensets), one more pass on both sides.
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
# v3 manifest statistics: write-time stats, checksums
# ----------------------------------------------------------------------

def test_v3_manifest_records_checksummed_stats(tmp_path):
    system = _mixed_system()
    path = write_shards(tmp_path / "v3", system, chunk_rows=2)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["schema"] == SHARD_SCHEMA == "repro.shards/v5"
    assert "encoding" not in manifest
    assert all("layout" not in meta for meta in manifest["shards"])
    assert isinstance(manifest["stats_crc32"], int)
    assert isinstance(manifest["header_crc32"], int)
    assert manifest["dual_bound"] == dual_bound_oracle(system.n, system.sets)
    with ShardedRepository(path, verify=True) as repo:
        stats = repo.shard_stats()
        assert len(stats) == repo.shard_count
        # Totals reconcile with the instance across all shards.
        assert sum(s["set_bits"] for s in stats) == system.total_size()
        assert sum(sum(s["codec_mix"].values()) for s in stats) == system.m
        assert all(sum(s["density_hist"]) == int(meta["rows"])
                   for s, meta in zip(stats, repo._shard_meta))


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


# ----------------------------------------------------------------------
# The one manifest reader: malformed entries, forged names, fuzzing
# ----------------------------------------------------------------------
def _edit_manifest(path, mutate):
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    mutate(manifest)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


def _set_rows(shard, rows):
    return lambda m: m["shards"][shard].update(rows=rows)


_MALFORMED_ENTRIES = {
    "shards-not-objects": (
        lambda m: m.update(shards=[1, 2]),
        "manifest-malformed", "entry 0 is not an object"),
    "shards-a-dict": (
        lambda m: m.update(shards=dict(enumerate(m["shards"]))),
        "manifest-malformed", "'shards' is not a list"),
    "rows-a-string": (
        _set_rows(0, "x"), "manifest-malformed", "'rows' is not an integer"),
    "bytes-a-float": (
        lambda m: m["shards"][1].update(bytes=float(m["shards"][1]["bytes"])),
        "manifest-malformed", "'bytes' is not an integer"),
    "crc32-a-string": (
        lambda m: m["shards"][0].update(crc32=str(m["shards"][0]["crc32"])),
        "manifest-malformed", "'crc32' is not an integer"),
    "chunk-rows-zero": (
        lambda m: m.update(chunk_rows=0), "manifest-geometry", "chunk_rows=0"),
    "short-inner-shard": (
        _set_rows(1, 5), "manifest-geometry", "shard 1 holds 5 rows"),
    "empty-last-shard": (
        _set_rows(3, 0), "manifest-geometry", "shard 3 holds 0 rows"),
    "overfull-last-shard": (
        _set_rows(3, 7), "manifest-geometry", "shard 3 holds 7 rows"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ENTRIES))
def test_malformed_shard_entries_are_typed_refusals(tmp_path, case):
    """Each malformed entry is a ShardFormatError on open and an fsck
    finding with the same code — never an AttributeError, a bare
    ValueError, or a zero-row chunk geometry."""
    from repro.setsystem.durability import fsck_repository

    mutate, code, match = _MALFORMED_ENTRIES[case]
    path, _ = _write_sample(tmp_path)  # 20 rows at chunk_rows=6: 6, 6, 6, 2
    _edit_manifest(path, mutate)
    with pytest.raises(ShardFormatError, match=match) as excinfo:
        ShardedRepository(path)
    assert excinfo.value.code == code
    assert fsck_repository(path).codes() == [code]


def _victim(path):
    """``../victim.bin``: a byte-identical copy of shard 0 that sits
    outside the repository."""
    victim = path.parent / "victim.bin"
    victim.write_bytes((path / "shard-00000.bin").read_bytes())
    return victim


def _forge_outside_name(path):
    """Point shard 0's entry at :func:`_victim`'s file."""
    victim = _victim(path)
    _edit_manifest(path, lambda m: m["shards"][0].update(file="../victim.bin"))
    return victim


def test_manifest_cannot_name_a_file_outside_the_repository(tmp_path):
    from repro.setsystem.durability import fsck_repository

    path, _ = _write_sample(tmp_path)
    victim = _forge_outside_name(path)
    with pytest.raises(ShardFormatError, match="victim.bin") as excinfo:
        ShardedRepository(path, verify=True)
    assert excinfo.value.code == "manifest-malformed"
    assert fsck_repository(path).codes() == ["manifest-malformed"]
    assert victim.is_file()


def test_compact_never_deletes_a_file_the_manifest_names_outside(tmp_path):
    """A forged base entry under a well-anchored delta chain: the chain
    checksums hold, but compaction refuses before it can take
    ``../victim.bin`` as a superseded file and unlink it."""
    from repro.setsystem.deltas import DELTA_MANIFEST_NAME, _chain_checksum, compact

    path, _ = _write_sample(tmp_path)
    apply_delta(path, [{"op": "insert", "elements": [1, 2]},
                       {"op": "delete", "id": 3}])
    victim = _forge_outside_name(path)
    before = victim.read_bytes()
    chain = path / "deltas" / "00001" / DELTA_MANIFEST_NAME
    record = json.loads(chain.read_text())
    record["parent_crc32"] = zlib.crc32((path / MANIFEST_NAME).read_bytes())
    record["crc32"] = _chain_checksum(record)
    chain.write_text(json.dumps(record, indent=2) + "\n")
    with pytest.raises(ShardFormatError, match="victim.bin"):
        compact(path)
    with pytest.raises(ShardFormatError, match="victim.bin"):
        apply_delta(path, [{"op": "insert", "elements": [0]}])
    assert victim.read_bytes() == before


def _fuzz_system() -> SetSystem:
    """Every codec, in three shards at ``chunk_rows=3`` (3, 3, 2 rows):
    an all-dense chunk, then mixed chunks."""
    n = 250
    rng = np.random.default_rng(11)
    return SetSystem(n, [
        sorted(rng.choice(n, size=200, replace=False).tolist()),  # dense
        list(range(0, n, 2)),                                    # alternating
        sorted(rng.choice(n, size=180, replace=False).tolist()),  # dense
        list(range(40, 200)),                                    # run-length
        [0, n - 1],                                              # sparse
        [],                                                      # empty
        [7],                                                     # singleton
        list(range(100, n)),                                     # run to the end
    ])


def _json_nodes(node, path=()):
    """Every ``(path, value)`` below the root of a JSON tree."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in children:
        yield path + (key,), value
        yield from _json_nodes(value, path + (key,))


def _parent(tree, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


@st.composite
def _manifest_mutations(draw):
    """One mutation of a manifest: ``(label, mutate)``."""
    kind = draw(st.sampled_from(
        ["drop", "retype", "bump", "rename", "reorder", "schema", "max_set_bits",
         "dual_bound"]
    ))
    if kind == "dual_bound":
        # The bound edited and the header re-sealed: the reader's range
        # check or the verified open's recount must catch it.
        op = draw(st.sampled_from(["drop", None, True, 1.5, "x", -1, 1, "zero", "n+1"]))

        def mutate(m):
            if op == "drop":
                m.pop("dual_bound")
            elif type(op) is int:  # ±1, not True
                m["dual_bound"] += op
            else:
                m["dual_bound"] = {"zero": 0, "n+1": m["n"] + 1}.get(op, op)
            m["header_crc32"] = _header_checksum(m)

        return f"dual_bound {op!r}", mutate
    if kind == "max_set_bits":
        # Δ edited and the stats re-sealed, so the reader's own checks
        # (type, range, histogram) and the decoded rows must catch it.
        shard = draw(st.integers(0, 2))
        op = draw(st.sampled_from(["drop", None, True, 1.5, "x", -1, 1, "zero", "n+1"]))

        def mutate(m):
            stats = m["shards"][shard]["stats"]
            if op == "drop":
                stats.pop("max_set_bits")
            elif type(op) is int:  # ±1, not True
                stats["max_set_bits"] += op
            else:
                stats["max_set_bits"] = {"zero": 0, "n+1": m["n"] + 1}.get(op, op)
            m["stats_crc32"] = _stats_checksum(m["shards"])

        return f"max_set_bits {shard} {op!r}", mutate
    if kind == "schema":
        tag = draw(st.sampled_from(
            ["repro.shards/v1", "repro.shards/v2", "repro.shards/v4",
             "repro.shards/v5", "", None]
        ))
        return f"schema {tag!r}", lambda m: m.update(schema=tag)
    if kind == "rename":
        shard = draw(st.integers(0, 2))
        name = draw(st.sampled_from(
            ["../victim.bin", "shard-00003.bin", f"shard-{shard:05d}.bin.bak",
             f"./shard-{shard:05d}.bin"]
        ))
        return (f"rename {shard}->{name}",
                lambda m: m["shards"][shard].update(file=name))
    if kind == "reorder":
        order = draw(st.sampled_from(
            [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]))
        return (f"reorder {order}",
                lambda m: m.update(shards=[m["shards"][i] for i in order]))
    # drop / retype / bump pick a node of the (fixed) fixture manifest.
    nodes = list(_json_nodes(_fuzz_manifest()))
    if kind == "bump":
        nodes = [(p, v) for p, v in nodes if type(v) is int]
    path, value = draw(st.sampled_from(nodes))
    if kind == "drop":
        return f"drop {path}", lambda m: _parent(m, path).pop(path[-1])
    if kind == "bump":
        delta = draw(st.sampled_from([-1, 1]))
        return (f"bump {path} by {delta}",
                lambda m: _parent(m, path).__setitem__(path[-1], value + delta))
    other = draw(st.sampled_from(
        [v for v in (None, True, 1.5, 7, "x", [], {}) if type(v) is not type(value)]
    ))
    return (f"retype {path} to {other!r}",
            lambda m: _parent(m, path).__setitem__(path[-1], other))


@functools.lru_cache(maxsize=None)
def _fuzz_manifest() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", _fuzz_system(), chunk_rows=3)
        return json.loads((path / MANIFEST_NAME).read_text())


@settings(max_examples=150, deadline=None)
@given(_manifest_mutations())
def test_manifest_fuzz_exact_decode_or_typed_refusal(mutation):
    """Direction-3 fuzzing of the manifest reader.  After one mutation,
    a verified open plus a decode of every row either reproduces the
    written system or raises ShardFormatError — never another exception
    — and a deep fsck never raises and is ok exactly when that open
    succeeded.  Nothing outside the repository is touched."""
    from repro.setsystem.durability import fsck_repository

    label, mutate = mutation
    event(label.split()[0])
    system = _fuzz_system()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_shards(Path(tmp) / "repo", system, chunk_rows=3)
        victim = _victim(path)
        _edit_manifest(path, mutate)
        try:
            with ShardedRepository(path, verify=True) as repo:
                decoded = repo.to_system()
        except ShardFormatError:
            opened = False
        else:
            opened = True
            assert not label.startswith(("max_set_bits", "dual_bound")), label
            assert decoded == system, label
        report = fsck_repository(path)
        assert report.ok == opened, (label, report.codes())
        assert victim.read_bytes() == (path / "shard-00000.bin").read_bytes()
