"""The remote transport backend: parity, wire protocol, crash hygiene.

The contract under test (DESIGN.md §9): a two-worker localhost fleet
produces **bit-identical** covers, pass counts, captures and accounting
to the serial executor, on every instance family — and a
worker that dies mid-batch surfaces as a loud ``RuntimeError`` with no
partial state.

In-process :class:`~repro.engine.transport.remote.WorkerServer` threads
(the ``worker_fleet`` fixture in ``conftest.py``) back the parity sweeps
(cheap, no subprocess spawn); the crash tests use
real ``python -m repro worker serve`` subprocesses via
:func:`~repro.engine.transport.remote.spawn_local_worker`, because the
worker SIGKILLs itself mid-scan.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import MultiPassGreedy, ThresholdGreedy
from repro.core import iter_set_cover
from repro.engine import (
    RemoteScanExecutor,
    SerialScanExecutor,
    WorkerServer,
    executor_for,
    resolve_workers,
)
from repro.engine.transport import remote as remote_mod
from repro.engine.transport.remote import (
    PROTOCOL_VERSION,
    ProtocolError,
    WorkerFaultError,
    _decode_captures,
    _encode_captures,
    _encode_gains,
    manifest_token,
    recv_bytes,
    recv_json,
    send_bytes,
    send_json,
    spawn_local_worker,
)
from repro.setsystem import Captures, SetSystem, pack_rows
from repro.setsystem.packed import ScanMask
from repro.setsystem.shards import ShardedRepository, write_shards
from repro.streaming import SetStream, ShardedSetStream
from test_parallel import _threshold_replay_reference

from families import FAMILIES, family_system




def _random_system(rng: np.random.Generator) -> SetSystem:
    n = int(rng.integers(1, 50))
    m = int(rng.integers(1, 30))
    sets = []
    for _ in range(m):
        size = int(rng.integers(0, n + 1))
        sets.append(rng.choice(n, size=size, replace=False).tolist())
    return SetSystem(n, sets)


def _fingerprint(result, stream):
    return (
        result.selection,
        result.passes,
        result.feasible,
        result.peak_memory_words,
        stream.resident_words,
    )


# ----------------------------------------------------------------------
# Knob resolution and executor construction
# ----------------------------------------------------------------------
def test_resolve_workers_validation():
    assert resolve_workers("a:1,b:2") == [("a", 1), ("b", 2)]
    assert resolve_workers(" a:1 , b:2 ") == [("a", 1), ("b", 2)]
    assert resolve_workers(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
    for bad in (None, "", "a", ":80", "a:", "a:0", "a:-1", "a:65536",
                "a:http", "a:1,,b:2", [("a",)], [("a", "x")]):
        # The message names the CLI flag that feeds this knob.
        with pytest.raises(ValueError, match="--workers"):
            resolve_workers(bad)


def test_executor_for_builds_remote():
    executor = executor_for(workers="h:1,h:2")
    assert isinstance(executor, RemoteScanExecutor)
    assert executor.transport == "remote"
    assert executor.jobs == 2  # one lane per worker
    assert executor_for(workers=[("h", 1)]).jobs == 1
    with pytest.raises(ValueError, match="--workers"):
        executor_for(workers="nonsense")


def test_remote_refuses_in_memory_chunk_scans(worker_fleet):
    """An in-memory family has no path a worker could open, so
    ``SetStream`` takes no workers and always scans serially."""
    system = SetSystem(8, [[0, 1], [2]])
    with pytest.raises(TypeError, match="workers"):
        SetStream(system, workers=worker_fleet)
    stream = SetStream(system)
    assert stream.jobs == 1 and stream.fault_log is None


# ----------------------------------------------------------------------
# Scan- and algorithm-level parity: the acceptance property test
# ----------------------------------------------------------------------
def test_remote_scan_gains_match_serial(tmp_path, worker_fleet):
    rng = np.random.default_rng(101)
    for case in range(15):
        family = FAMILIES[case % len(FAMILIES)]
        for kind, system in (("drawn", _random_system(rng)),
                             (family, family_system(family, rng))):
            mask_int = sum(1 << e for e in range(0, system.n, 2)) | 1
            path = write_shards(tmp_path / f"g{case}-{kind}", system,
                                chunk_rows=int(rng.integers(1, 6)))
            serial = ShardedSetStream(path)
            reference = serial.scan_gains(mask_int, min_capture_gain=1)
            serial.close()
            stream = ShardedSetStream(
                path, workers=worker_fleet,
            )
            scan = stream.scan_gains(mask_int, min_capture_gain=1)
            assert [int(g) for g in scan.gains] == [
                int(g) for g in reference.gains
            ], (case, kind)
            assert scan.captured == reference.captured
            assert stream.passes == 1
            stream.close()


def test_remote_algorithm_parity_on_random_instances(tmp_path, worker_fleet):
    """Covers/passes/accounting: remote == serial, the §9 guarantee."""
    rng = np.random.default_rng(103)
    algorithms = [
        ("threshold", lambda stream: ThresholdGreedy().solve(stream)),
        ("multipass", lambda stream: MultiPassGreedy(max_passes=4).solve(stream)),
        (
            "iter",
            lambda stream: iter_set_cover(
                stream, delta=0.5, seed=13,
                use_polylog_factors=False, include_rho=False,
            ),
        ),
    ]
    for case in range(20):
        family = FAMILIES[case % len(FAMILIES)]
        system = family_system(family, rng)
        chunk_rows = int(rng.integers(1, 6))
        path = write_shards(tmp_path / f"a{case}", system, chunk_rows=chunk_rows)
        algo_name, run = algorithms[case % len(algorithms)]
        serial_stream = ShardedSetStream(path)
        reference = _fingerprint(run(serial_stream), serial_stream)
        serial_stream.close()
        stream = ShardedSetStream(path, workers=worker_fleet)
        fingerprint = _fingerprint(run(stream), stream)
        assert fingerprint == reference, (case, algo_name, family)
        stream.close()


def test_remote_threshold_greedy_matches_the_replay_reference(
    tmp_path, worker_fleet
):
    """Remote ThresholdGreedy picks exactly the driver-side replay's rows."""
    rng = np.random.default_rng(59)
    systems = [SetSystem(8, [[0, 1, 2], [2, 3], [4, 5, 6, 7], [0]])]
    systems += [_random_system(rng) for _ in range(6)]
    for case, system in enumerate(systems):
        path = write_shards(tmp_path / f"acc{case}", system,
                            chunk_rows=int(rng.integers(1, 5)))
        reference_stream = ShardedSetStream(path)
        reference = _threshold_replay_reference(reference_stream)
        reference_passes = reference_stream.passes
        reference_stream.close()
        stream = ShardedSetStream(path, workers=worker_fleet)
        result = ThresholdGreedy().solve(stream)
        assert result.selection == reference, case
        assert result.passes == reference_passes, case
        stream.close()


def test_remote_single_worker_and_abandoned_scan(tmp_path, worker_fleet):
    """One worker serves everything; an abandoned pass leaves no wreckage."""
    system = SetSystem(16, [[i % 16] for i in range(20)])
    path = write_shards(tmp_path / "one", system, chunk_rows=2)
    stream = ShardedSetStream(path, workers=worker_fleet[:1])
    parts = stream.scan_gains_chunked((1 << 16) - 1)
    next(parts)
    parts.close()  # abandon mid-pass
    assert stream.passes == 1
    full = stream.scan_gains((1 << 16) - 1)
    assert len(full.gains) == 20
    stream.close()


def test_lanes_wake_when_the_scan_ends(tmp_path, worker_fleet, monkeypatch):
    """Idle lanes exit as soon as a scan ends instead of sleeping out
    their queue poll: joined with a 0.1 s timeout, none is abandoned."""
    system = SetSystem(64, [[i % 64, (3 * i) % 64] for i in range(96)])
    path = write_shards(tmp_path / "wake", system, chunk_rows=4)
    join = remote_mod._join_reaped
    monkeypatch.setattr(
        remote_mod, "_join_reaped",
        lambda thread, what, timeout=5.0: join(thread, what, timeout=0.1),
    )
    stream = ShardedSetStream(path, workers=worker_fleet)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(5):
            assert len(stream.scan_gains((1 << 64) - 1).gains) == 96
    stream.close()
    abandoned = [w for w in caught if "abandoned as a daemon thread" in str(w.message)]
    assert not abandoned, [str(w.message) for w in abandoned]


def test_both_ends_disable_nagle(tmp_path, worker_fleet, monkeypatch):
    """Every request and result is two small frames (header, then mask
    or gains): the driver's lane socket and the worker's accepted
    connection both set ``TCP_NODELAY``, so no round trip waits out a
    delayed ACK."""
    path = write_shards(tmp_path / "nodelay", SetSystem(8, [[0, 1], [2, 3]]))
    seen = {"driver": [], "worker": []}

    def nodelay(sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    connect = RemoteScanExecutor._connect_worker

    def spy_connect(self, worker):
        sock = connect(self, worker)
        seen["driver"].append(nodelay(sock))
        return sock

    handle = WorkerServer._handle_scan

    def spy_handle(self, conn, request):
        seen["worker"].append(nodelay(conn))
        return handle(self, conn, request)

    monkeypatch.setattr(RemoteScanExecutor, "_connect_worker", spy_connect)
    monkeypatch.setattr(WorkerServer, "_handle_scan", spy_handle)
    stream = ShardedSetStream(path, workers=worker_fleet)
    assert stream.scan_gains(0xFF).gains.tolist() == [2, 2]
    stream.close()
    assert seen["driver"] and all(seen["driver"]), seen
    assert seen["worker"] and all(seen["worker"]), seen


def test_shared_queue_under_thread_churn(tmp_path):
    """More lanes than cores pulling off the one shared queue, with a
    shortened switch interval: every scan still delivers each shard
    exactly once, matching the serial scan."""
    system = SetSystem(96, [[i % 96, (5 * i) % 96, (7 * i) % 96]
                            for i in range(240)])
    path = write_shards(tmp_path / "churn", system, chunk_rows=3)
    reference = ShardedSetStream(path)
    expected = reference.scan_gains((1 << 96) - 1, min_capture_gain=2)
    reference.close()
    servers = [WorkerServer(tmp_path).start() for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        stream = ShardedSetStream(
            path, workers=[server.address for server in servers]
        )
        for _ in range(5):
            scan = stream.scan_gains((1 << 96) - 1, min_capture_gain=2)
            assert [int(g) for g in scan.gains] == [
                int(g) for g in expected.gains
            ]
            assert scan.captured == expected.captured
        ledger = stream._executor.placement_ledger()
        stream.close()
    finally:
        sys.setswitchinterval(interval)
        for server in servers:
            server.stop()
    assert sum(row["delivered"] for row in ledger.values()) == 80


# ----------------------------------------------------------------------
# Wire-protocol failure modes
# ----------------------------------------------------------------------
def test_manifest_token_mismatch_is_refused(tmp_path, worker_fleet):
    """A worker never scans a repository whose manifest content differs
    from what the driver's token promises (a stale or divergent mount)."""
    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "tok", system)
    stale = manifest_token(path)
    stale = [stale[0] + 1, stale[1] ^ 0xDEAD]  # a token from "elsewhere"
    host, port = worker_fleet[0]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, {
            "op": "scan", "path": str(path), "token": stale, "n": 8,
            "shards": [0], "min_capture_gain": None, "capture_ids": None,
            "best_only": False, "include_gains": True,
        })
        from repro.engine.transport.remote import send_bytes

        send_bytes(sock, (255).to_bytes(1, "little"))  # the mask frame
        reply = recv_json(sock)
        assert reply["op"] == "error"
        assert "token mismatch" in reply["message"]
    # The full driver path reports the same failure loudly.
    stream = ShardedSetStream(path, workers=worker_fleet)
    real = stream.scan_gains((1 << 8) - 1)  # sanity: matching token works
    assert len(real.gains) == 2
    stream.close()


_MISSING = object()


@pytest.mark.parametrize("field, value", [
    ("min_capture_gain", "x"),
    ("min_capture_gain", [1]),
    ("min_capture_gain", 0),
    ("min_capture_gain", True),
    ("capture_ids", 5),
    ("capture_ids", [[1]]),
    ("capture_ids", [1.5]),
    ("best_only", "yes"),
    ("include_gains", 1),
    ("include_gains", _MISSING),
    ("mask", b"\xff" * 9),
    ("mask", b"\xff"),
    ("n", "8"),
    ("n", 8.9),
    ("shards", [0.7]),
    ("shards", "0"),
    ("shards", [0, 0]),
], ids=[
    "gain-str", "gain-list", "gain-zero", "gain-bool", "ids-int",
    "ids-nested", "ids-float", "best-str", "gains-int", "gains-missing",
    "mask-wide", "mask-short", "n-str", "n-float", "shards-float",
    "shards-str", "shards-repeated",
])
def test_malformed_scan_request_gets_a_typed_error(
    tmp_path, worker_fleet, field, value
):
    """A scan request with a mistyped field, or a mask frame that is not
    exactly the repository's word count, gets an ``error`` reply; the
    connection thread never dies with a raw exception."""
    path = write_shards(tmp_path / "bad", SetSystem(8, [[0, 1], [2, 3]]))
    request = {
        "op": "scan", "path": str(path), "token": manifest_token(path),
        "n": 8, "shards": [0], "min_capture_gain": None,
        "capture_ids": None, "best_only": False, "include_gains": True,
    }
    mask = (255).to_bytes(8, "little")
    if field == "mask":
        mask = value
    elif value is _MISSING:
        del request[field]
    else:
        request[field] = value
    with socket.create_connection(worker_fleet[0], timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, request)
        send_bytes(sock, mask)
        reply = recv_json(sock)
    assert reply["op"] == "error", reply
    assert "malformed scan request" in reply["message"]


def test_paths_outside_worker_root_are_rejected(tmp_path):
    system = SetSystem(8, [[0, 1], [2, 3]])
    inside = tmp_path / "root"
    inside.mkdir()
    outside = write_shards(tmp_path / "outside", system)
    with WorkerServer(inside) as server:
        server.start()
        stream = ShardedSetStream(outside, workers=[server.address])
        with pytest.raises(RuntimeError, match="outside the serving root"):
            stream.scan_gains((1 << 8) - 1)
        stream.close()


def test_protocol_version_mismatch_is_loud(worker_fleet):
    host, port = worker_fleet[0]
    # The worker speaks exactly PROTOCOL_VERSION: any other hello value,
    # older, newer or mistyped, is refused loudly.
    assert PROTOCOL_VERSION == 4
    for offer in (3, 5, "4"):
        with socket.create_connection((host, port), timeout=10.0) as sock:
            send_json(sock, {"op": "hello", "protocol": offer})
            reply = recv_json(sock)
            assert reply["op"] == "error", offer
            assert "protocol mismatch" in reply["message"], offer


def test_driver_refuses_a_worker_speaking_another_protocol(tmp_path):
    """A worker whose hello reply names protocol 2 is refused after one
    dial: the driver neither redials nor offers an older version."""
    path = write_shards(tmp_path / "repo", SetSystem(8, [[0, 1], [2, 3]]))
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    hellos, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                hellos.append(recv_json(conn))
                send_json(conn, {"op": "hello", "protocol": 2})

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    stream = ShardedSetStream(path, workers=[(host, port)])
    try:
        with pytest.raises(RuntimeError, match=f"{host}:{port}"):
            stream.scan_gains((1 << 8) - 1)
    finally:
        stream.close()
        stop.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert hellos == [{"op": "hello", "protocol": PROTOCOL_VERSION}]


def test_ping_pong(worker_fleet):
    host, port = worker_fleet[0]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, {"op": "ping"})
        assert recv_json(sock)["op"] == "pong"


def test_unreachable_worker_fails_before_any_request(tmp_path):
    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "unreach", system)
    # Grab a port that is certainly closed by binding and releasing it.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    stream = ShardedSetStream(
        path, workers=[("127.0.0.1", dead_port)]
    )
    with pytest.raises(RuntimeError, match="cannot reach remote worker"):
        stream.scan_gains((1 << 8) - 1)
    stream.close()


# ----------------------------------------------------------------------
# Crash hygiene: a worker killed mid-batch is loud, leak-free, recoverable
# ----------------------------------------------------------------------
def test_worker_crash_mid_batch_is_loud_and_leak_free(tmp_path):
    """A real subprocess worker SIGKILLs itself after its first shard
    result; the driver must raise a RuntimeError naming the worker (not
    hang, not return a short scan), leave /dev/shm clean, and a fresh
    worker must serve the same repository immediately afterwards.
    """
    system = SetSystem(64, [[i % 64, (i * 3) % 64] for i in range(30)])
    path = write_shards(tmp_path / "crash", system, chunk_rows=4)
    mask_int = (1 << 64) - 1
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()

    process, address = spawn_local_worker(
        tmp_path, extra_env={remote_mod._CRASH_TEST_ENV: "1"}
    )
    try:
        stream = ShardedSetStream(path, workers=[address])
        with pytest.raises(RuntimeError, match="remote worker .* failed"):
            stream.scan_gains(mask_int)
        stream.close()
    finally:
        process.terminate()
        process.wait(timeout=10)

    if os.path.isdir(shm_dir):  # no leaked SharedMemory segments
        leaked = {
            entry for entry in set(os.listdir(shm_dir)) - before
            if entry.startswith("psm_")
        }
        assert not leaked, leaked

    # No partial state anywhere: a fresh worker reproduces the serial scan.
    process, address = spawn_local_worker(tmp_path)
    try:
        recovered = ShardedSetStream(path, workers=[address])
        serial = ShardedSetStream(path)
        assert (
            [int(g) for g in recovered.scan_gains(mask_int).gains]
            == [int(g) for g in serial.scan_gains(mask_int).gains]
        )
        recovered.close()
        serial.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_spawned_worker_round_trip(tmp_path):
    """The subprocess worker (the CLI path) serves a real solve."""
    system = SetSystem(24, [[i % 24, (i * 5) % 24] for i in range(18)])
    path = write_shards(tmp_path / "spawn", system, chunk_rows=3)
    reference = ThresholdGreedy().solve(ShardedSetStream(path))
    process, address = spawn_local_worker(tmp_path)
    try:
        stream = ShardedSetStream(path, workers=[address])
        result = ThresholdGreedy().solve(stream)
        assert result.selection == reference.selection
        assert result.passes == reference.passes
        assert result.peak_memory_words == reference.peak_memory_words
        stream.close()
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_repo_cache_eviction_defers_while_busy(tmp_path):
    """Evicting a repository a scan still holds must not close its mmaps.

    The server's cache may be asked to drop an entry (same-path rewrite,
    LRU overflow) while another connection thread is mid-scan on it;
    the close must defer to the last release (regression for the
    use-after-close race)."""
    from repro.setsystem.shards import ShardFormatError

    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "busy", system)
    server = WorkerServer(tmp_path)
    try:
        token = manifest_token(path)
        key, repo = server._open_repository(str(path), token)  # refs = 1
        with server._repo_lock:
            server._evict_locked(key)  # busy: doomed, NOT closed
        assert repo.row_mask(0) == 0b11  # still scannable
        server._release_repository(key)  # last holder gone: now closed
        with pytest.raises(ShardFormatError, match="closed"):
            repo.row_mask(0)

        # A cache hit on a doomed-but-busy entry revives it: the entry
        # is hot again, so draining to zero holders keeps it cached.
        key, repo = server._open_repository(str(path), token)
        with server._repo_lock:
            server._evict_locked(key)
        key2, repo2 = server._open_repository(str(path), token)
        assert key2 == key and repo2 is repo
        server._release_repository(key)
        server._release_repository(key)
        assert repo.row_mask(1) == 0b1100  # revived: stays open, cached

        # Idle eviction closes immediately.
        with server._repo_lock:
            server._evict_locked(key)
        with pytest.raises(ShardFormatError, match="closed"):
            repo.row_mask(0)
    finally:
        server.stop()


def _forged_worker(path, forge):
    """A one-connection worker whose honest shard replies pass through
    ``forge(reply, arrays, gains) -> (reply, frame, gains)`` before they
    are sent; ``arrays`` is the capture frame's ``(ids, flat, bits)``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, ShardedRepository(path) as repo:
            try:
                recv_json(conn)  # hello
                send_json(conn, {"op": "hello", "protocol": PROTOCOL_VERSION})
                while True:  # one scan request per batch, until the driver hangs up
                    request = recv_json(conn)
                    mask = ScanMask(
                        request["n"], int.from_bytes(recv_bytes(conn), "little")
                    )
                    for shard in request["shards"]:
                        start, gains, captured = repo.scan_shard(
                            shard, mask, min_capture_gain=request["min_capture_gain"]
                        )
                        flat, bits = captured.entries()
                        reply, frame, gains = forge({
                            "op": "result", "shard": shard, "start": start,
                            "captured": [len(captured), flat.size], "gains": True,
                        }, (np.array(captured.ids), flat, bits), gains)
                        send_json(conn, reply)
                        if reply["captured"] != [0, 0]:
                            send_bytes(conn, frame)
                        if reply["gains"]:
                            send_bytes(conn, _encode_gains(gains))
                    send_json(conn, {"op": "done", "shards": len(request["shards"])})
            except (ConnectionError, OSError, ProtocolError):
                pass  # the driver hung up, or dropped a connection it refused

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def _frame(ids, flat, bits):
    return b"".join((
        np.asarray(ids, "<i8").tobytes(), np.asarray(flat, "<i8").tobytes(),
        np.asarray(bits, "<u8").tobytes(),
    ))


def _honest(reply, arrays, gains):
    return reply, _frame(*arrays), gains


def _shift_start(reply, arrays, gains):
    return dict(reply, start=reply["start"] + 1), _frame(*arrays), gains


def _id_past_the_shard(reply, arrays, gains):
    ids, flat, bits = arrays
    ids = [*ids[:-1], reply["start"] + gains.size]
    return reply, _frame(ids, flat, bits), gains


def _ids_descending(reply, arrays, gains):
    ids, flat, bits = arrays
    return reply, _frame(ids[::-1], flat, bits), gains


def _gains_short(reply, arrays, gains):
    return reply, _frame(*arrays), gains[:-1]


def _gains_missing(reply, arrays, gains):
    return dict(reply, gains=False), _frame(*arrays), gains


def _start_float(reply, arrays, gains):
    return dict(reply, start=float(reply["start"])), _frame(*arrays), gains


def _shard_bool(reply, arrays, gains):
    return dict(reply, shard=True), _frame(*arrays), gains


def _frame_short(reply, arrays, gains):
    return reply, _frame(*arrays)[:-8], gains


def _counts_float(reply, arrays, gains):
    rows, stored = reply["captured"]
    return dict(reply, captured=[float(rows), stored]), _frame(*arrays), gains


def _flat_past_the_rows(reply, arrays, gains):
    ids, flat, bits = arrays
    return reply, _frame(ids, [*flat[:-1], len(ids)], bits), gains


def _bit_past_n(reply, arrays, gains):
    ids, flat, bits = arrays
    return reply, _frame(ids, flat, [*bits[:-1], int(bits[-1]) | 1 << 8]), gains


@pytest.mark.parametrize("forge, match", [
    (_shift_start, "reply starts at row 4, not 3"),
    (_id_past_the_shard, r"ids outside \[3, 6\) or out of order"),
    (_ids_descending, r"ids outside \[3, 6\) or out of order"),
    (_gains_short, "carries 2 gains for 3 rows"),
    (_gains_missing, "carries 0 gains for 3 rows"),
    (_start_float, "at row 3.0: not JSON integers"),
    (_shard_bool, "names shard True at row 3: not JSON integers"),
    (_frame_short, r"capture frame of 64 bytes does not hold \[rows, stored\] = \[3, 3\]"),
    (_counts_float, r"capture frame of 72 bytes does not hold"),
    (_flat_past_the_rows, r"capture words lie outside \[0, 3\) or out of order"),
    (_bit_past_n, "captures a bit past n=8"),
])
def test_forged_worker_replies_are_protocol_faults(tmp_path, forge, match):
    """The driver checks every shard result against its own request: the
    shard's start row, one capture frame of exactly the stated size with
    strictly ascending ids inside the shard, strictly ascending word
    positions inside the record and no bit past ``n``, and one gain per
    row when gains were asked for.  A forged reply is a
    ``ProtocolError`` on the lane-fault path (here fail-loud), never a
    wrong scan result; the same worker replying honestly scans
    bit-identically to serial."""
    system = SetSystem(8, [[0, 1], [2, 3], [1, 2], [0, 4], [5, 6], [1, 7]])
    path = write_shards(tmp_path / "forged", system, chunk_rows=3)
    with ShardedRepository(path) as repo:
        serial = list(SerialScanExecutor().iter_scan_repository(
            repo, 0xFF, min_capture_gain=1
        ))

        def forge_second(reply, arrays, gains):  # shard 0 stays honest
            return (forge if reply["shard"] == 1 else _honest)(reply, arrays, gains)

        for case, expect in ((_honest, None), (forge_second, match)):
            listener, thread = _forged_worker(path, case)
            executor = RemoteScanExecutor([listener.getsockname()[:2]])
            try:
                scan = executor.iter_scan_repository(repo, 0xFF, min_capture_gain=1)
                if expect is None:
                    remote = list(scan)
                    assert [(s, g.tolist(), c) for s, g, c in remote] == [
                        (s, g.tolist(), c) for s, g, c in serial
                    ]
                else:
                    with pytest.raises(WorkerFaultError, match=expect):
                        list(scan)
            finally:
                executor.close()
                listener.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()


def _split_frame(frame, counts):
    rows, stored = counts
    ids = np.frombuffer(frame, "<i8", rows).tolist()
    flat = np.frombuffer(frame, "<i8", stored, 8 * rows).tolist()
    bits = np.frombuffer(frame, "<u8", stored, 8 * (rows + stored)).tolist()
    return ids, flat, bits


def _mutate_frame(kind, data, counts, frame, span, n):
    """One forged ``(counts, frame)`` of the named kind, or ``None`` when the
    record has nothing that kind can forge (too few ids or words)."""
    ids, flat, bits = _split_frame(frame, counts)
    first, rows = span
    width = (n + 63) // 64

    def pick(size):
        return data.draw(st.integers(0, size - 1), label=f"{kind} at")

    if kind == "length":
        delta = data.draw(st.sampled_from([-16, -8, -1, 1, 8, 16]), label="delta")
        if len(frame) + delta < 0:
            return None
        return counts, frame[:delta] if delta < 0 else frame + b"\0" * delta
    if kind == "id order":
        if len(ids) < 2:
            return None
        j = pick(len(ids) - 1)
        ids[j], ids[j + 1] = ids[j + 1], ids[j]
    elif kind == "id span":
        if not ids:
            return None
        ids[pick(len(ids))] = data.draw(
            st.sampled_from([first - 1, first + rows, -1, 1 << 62]), label="id"
        )
    elif kind == "flat order":
        if len(flat) < 2:
            return None
        j = pick(len(flat) - 1)
        flat[j], flat[j + 1] = flat[j + 1], flat[j]
    elif kind == "flat range":
        if not flat:
            return None
        flat[pick(len(flat))] = data.draw(
            st.sampled_from([-1, len(ids) * width, 1 << 62]), label="flat"
        )
    else:  # a bit past n
        tails = [j for j, at in enumerate(flat) if at % width == width - 1]
        if n % 64 == 0 or not tails:
            return None
        j = tails[pick(len(tails))]
        bits[j] |= 1 << data.draw(st.integers(n % 64, 63), label="bit")
    return counts, _frame(ids, flat, bits)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_capture_frames_decode_exactly_or_refuse(data):
    """Every capture frame round-trips to the record it encodes, in both
    layouts, and every forged frame — wrong length, ids out of order or
    outside the shard, word positions out of order or outside the record,
    a bit past ``n`` — raises ``ProtocolError``; a frame that decodes at
    all decodes to exactly the record that was sent, never a wrong row."""
    n = data.draw(st.integers(1, 200), label="n")
    width = (n + 63) // 64
    first = 0
    for shard in range(data.draw(st.integers(0, 3), label="shards")):
        rows = data.draw(st.integers(0, 8), label="rows")
        ids = sorted(data.draw(
            st.sets(st.integers(first, first + rows - 1)) if rows else st.just(set()),
            label="ids",
        ))
        dense = data.draw(st.booleans(), label="dense rows")
        row = st.integers(0, (1 << n) - 1) if dense else st.sampled_from(
            [0] + [1 << bit for bit in range(n)]
        )
        projections = [data.draw(row, label="projection") for _ in ids]
        record = Captures(ids, pack_rows(projections, width))
        span = (first, rows)
        counts, frame = _encode_captures(record)
        assert len(frame) == 8 * (counts[0] + 2 * counts[1])
        decoded = _decode_captures(shard, span, counts, frame, n)
        assert decoded.ids == ids and decoded.width == width
        assert decoded == list(zip(ids, projections))
        kind = data.draw(st.sampled_from(
            ["length", "id order", "id span", "flat order", "flat range", "bit past n"]
        ), label="mutation")
        forged = _mutate_frame(kind, data, counts, frame, span, n)
        if forged is None:
            forged = counts, frame
        try:
            got = _decode_captures(shard, span, *forged, n)
        except ProtocolError:
            assert forged != (counts, frame)
        else:
            assert forged == (counts, frame), kind
            assert got.ids == ids and got == decoded
        first += rows


def test_full_mask_scan_wire_bytes_are_the_capture_words(
    tmp_path, worker_fleet, monkeypatch
):
    """A full-mask remote scan of a sparse repository puts exactly
    ``8 · (rows + 2 · stored)`` capture bytes on the wire — the record's
    ids, word positions and words — plus the gains and small headers."""
    rng = np.random.default_rng(5)
    system = SetSystem(1000, [
        rng.choice(1000, size=int(rng.integers(1, 6)), replace=False).tolist()
        for _ in range(300)
    ])
    path = write_shards(tmp_path / "sparse", system, chunk_rows=32)
    frames, last = [], {}
    send = remote_mod._send_frame

    def counting(sock, tag, payload):
        me = threading.get_ident()
        if tag == b"J":
            last[me] = [json.loads(payload)["op"], 0]
            frames.append(("J", last[me][0], len(payload)))
        else:
            op, seen = last[me]
            frames.append(("B", (op, seen), len(payload)))
            last[me][1] += 1
        send(sock, tag, payload)

    monkeypatch.setattr(remote_mod, "_send_frame", counting)
    full = (1 << system.n) - 1
    with ShardedRepository(path) as repo:
        serial = list(SerialScanExecutor().iter_scan_repository(
            repo, full, min_capture_gain=1
        ))
        executor = RemoteScanExecutor(worker_fleet)
        try:
            remote = list(executor.iter_scan_repository(repo, full, min_capture_gain=1))
        finally:
            executor.close()
    assert [(s, g.tolist(), c) for s, g, c in remote] == [
        (s, g.tolist(), c) for s, g, c in serial
    ]
    rows = sum(len(captured) for _, _, captured in serial)
    stored = sum(captured.entries()[0].size for _, _, captured in serial)
    assert rows == system.m and 2 * stored < rows * repo.words  # word-sparse
    capture_bytes = sum(size for tag, what, size in frames if what == ("result", 0))
    gains_bytes = sum(size for tag, what, size in frames if what == ("result", 1))
    headers = [size for tag, op, size in frames if op == "result"]
    assert capture_bytes == 8 * (rows + 2 * stored)
    assert gains_bytes == 8 * system.m
    assert len(headers) == len(serial) and max(headers) <= 128


def test_manifest_token_is_content_keyed(tmp_path):
    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "t1", system)
    token = manifest_token(path)
    assert token == manifest_token(path)  # stable
    other = write_shards(tmp_path / "t2", SetSystem(8, [[0], [1, 2, 3]]))
    assert token != manifest_token(other)


# ----------------------------------------------------------------------
# Stale repositories: typed wire error, precise eviction, driver salvage
# ----------------------------------------------------------------------
def _churn_and_fold(path):
    """Land one delta and fold it, rewriting the base manifest."""
    from repro.setsystem.deltas import apply_delta, compact

    apply_delta(path, [{"op": "insert", "elements": [0, 1]}])
    compact(path)


def test_stale_repository_error_is_typed_and_keeps_connection(
    tmp_path, worker_fleet
):
    """A cold worker whose disk moved past the driver's token reports the
    typed retriable ``stale-repository`` error — and keeps the
    connection, because the repository moved, not the worker failed."""
    from repro.engine.transport.remote import send_bytes

    system = SetSystem(8, [[0, 1], [2, 3]])
    path = write_shards(tmp_path / "stale-wire", system)
    old = manifest_token(path)
    _churn_and_fold(path)
    assert manifest_token(path) != old
    host, port = worker_fleet[0]
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_json(sock)["op"] == "hello"
        send_json(sock, {
            "op": "scan", "path": str(path), "token": list(old), "n": 8,
            "shards": [0], "min_capture_gain": None, "capture_ids": None,
            "best_only": False, "include_gains": True,
        })
        send_bytes(sock, (255).to_bytes(1, "little"))  # the mask frame
        reply = recv_json(sock)
        assert reply["op"] == "error"
        assert reply["kind"] == "stale-repository"
        assert "rewritten" in reply["message"]
        # The connection survived the typed error: the worker still
        # serves, and its pong carries the eviction counters.
        send_json(sock, {"op": "ping"})
        pong = recv_json(sock)
        assert pong["op"] == "pong"
        assert set(pong["evictions"]) == {"stale", "overflow"}


def test_worker_cache_eviction_is_precise_and_counted(tmp_path):
    """Opening a path's *new* generation sweeps exactly the superseded
    cache entries for that path — never unrelated repositories — and
    every eviction is counted by cause."""
    from repro.engine import StaleRepositoryError

    path_a = write_shards(tmp_path / "gen-a", SetSystem(8, [[0, 1], [2, 3]]))
    path_b = write_shards(tmp_path / "gen-b", SetSystem(8, [[4, 5], [6, 7]]))
    server = WorkerServer(tmp_path)
    try:
        token_a = manifest_token(path_a)
        token_b = manifest_token(path_b)
        key_a, _ = server._open_repository(str(path_a), token_a)
        key_b, _ = server._open_repository(str(path_b), token_b)
        server._release_repository(key_a)
        server._release_repository(key_b)

        # A token matching neither the cache nor the disk is the typed
        # stale error — and evicts nothing (the cached generation may
        # still be serving another driver).
        with pytest.raises(StaleRepositoryError, match="rewritten"):
            server._open_repository(
                str(path_a), [token_a[0] + 1, token_a[1] ^ 1]
            )
        assert server._evictions == {"stale": 0, "overflow": 0}
        assert key_a in server._repos and key_b in server._repos

        _churn_and_fold(path_a)
        token_a2 = manifest_token(path_a)
        assert token_a2 != token_a
        # Warm cache: the superseded generation is still served on a
        # cache hit (the driver that opened it must finish its scan on
        # exactly those bits).
        key_hit, _ = server._open_repository(str(path_a), token_a)
        assert key_hit == key_a
        server._release_repository(key_hit)
        assert server._evictions["stale"] == 0

        # First sight of the NEW generation sweeps the old entry for
        # this path — and only this path.
        key_a2, _ = server._open_repository(str(path_a), token_a2)
        assert key_a2 != key_a
        assert server._evictions == {"stale": 1, "overflow": 0}
        assert key_a not in server._repos
        assert key_b in server._repos  # unrelated repository untouched
        server._release_repository(key_a2)
    finally:
        server.stop()


def test_driver_salvages_when_every_worker_reports_stale(tmp_path):
    """A compaction lands mid-stream: cold workers report the
    typed stale error for the driver's generation, and the driver
    salvages the scan through its own open handle — bit-identically to
    the generation it opened, with the whole episode in the fault log."""
    from repro.setsystem.deltas import apply_delta, compact

    system = SetSystem(32, [[i % 32, (i * 7) % 32] for i in range(24)])
    path = write_shards(tmp_path / "salvage", system, chunk_rows=3)
    mask_int = (1 << 32) - 1
    servers = [WorkerServer(tmp_path).start(), WorkerServer(tmp_path).start()]
    try:
        stream = ShardedSetStream(
            path, workers=[server.address for server in servers],
        )
        baseline = [int(g) for g in stream.scan_gains(mask_int).gains]
        serial = ShardedSetStream(path)
        assert baseline == [
            int(g) for g in serial.scan_gains(mask_int).gains
        ]
        serial.close()

        # The repository moves underneath the open stream...
        apply_delta(path, [{"op": "insert", "elements": [0, 1, 2]},
                           {"op": "delete", "id": 3}])
        compact(path)
        # ...and the workers lose their cached copy of the old family,
        # so the driver's token can no longer be served remotely at all.
        for server in servers:
            with server._repo_lock:
                for key in list(server._repos):
                    server._evict_locked(key)

        again = [int(g) for g in stream.scan_gains(mask_int).gains]
        assert again == baseline  # the opened generation, bit-for-bit
        kinds = {event.kind for event in stream.fault_log.events}
        assert "stale-repository" in kinds
        assert "stale-salvage" in kinds
        stream.close()
    finally:
        for server in servers:
            server.stop()
