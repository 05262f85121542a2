"""Fault tolerance on the remote transport: retries, chaos, no hangs.

The contract under test (DESIGN.md §10 / ISSUE 6): under every chaos
mode and a mid-batch SIGKILL, a remote solve with retries enabled
completes **bit-identical** to the serial executor; with retries
disabled the PR 5 fail-loud contract holds verbatim — a loud typed
error naming the worker, never a hang, never a /dev/shm leak, never
partial state.  Chaos is injected by
:class:`~repro.engine.fault.ChaosProxy`, the same harness CI's
chaos-smoke job and the ``REPRO_CHAOS`` env knob use.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import zlib

import numpy as np
import pytest

from repro.baselines import MultiPassGreedy, ThresholdGreedy
from repro.core import iter_set_cover
from repro.engine import (
    CHAOS_ENV,
    CHAOS_MODES,
    ChaosProxy,
    FaultLog,
    RemoteScanExecutor,
    RetryPolicy,
    WorkerFaultError,
    WorkerServer,
    chaos_spec_from_env,
    executor_for,
    parse_chaos_spec,
)
from repro.engine.fault import chaos as chaos_mod
from repro.engine.transport import remote as remote_mod
from repro.engine.transport.remote import ProtocolError, spawn_local_worker
from repro.setsystem import SetSystem
from repro.setsystem.shards import write_shards
from repro.streaming import ShardedSetStream

ENCODINGS_UNDER_TEST = ("dense", "auto")

#: Fast, deterministic retry bundle for the chaos sweeps: short timeouts
#: so blackhole faults surface in well under a second, seeded jitter.
FAST_RETRY = {
    "attempts": 4,
    "backoff": 0.01,
    "backoff_max": 0.05,
    "connect_timeout": 0.6,
    "idle_timeout": 0.6,
    "seed": 0,
}




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


def _fault_threads() -> list:
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith(("repro-remote-", "repro-chaos-"))
    ]


def _assert_no_fault_threads(timeout: float = 5.0) -> None:
    """Lanes and chaos relays must all wind down — no silent leaks."""
    deadline = time.monotonic() + timeout
    while _fault_threads() and time.monotonic() < deadline:
        time.sleep(0.02)
    leaked = _fault_threads()
    assert not leaked, [thread.name for thread in leaked]


def _dead_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ----------------------------------------------------------------------
# RetryPolicy: validation, backoff, resolution
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_default_is_fail_loud_with_finite_idle_timeout(self):
        policy = RetryPolicy()
        assert policy.attempts == 1 and not policy.enabled
        # The one default that *changes* PR 5 behaviour: a wedged peer
        # errors after idle_timeout instead of hanging forever.
        assert policy.idle_timeout == 120.0
        assert policy.deadline is None
        assert policy.local_fallback is True
        assert RetryPolicy(attempts=3).enabled

    @pytest.mark.parametrize("knob, value, flag", [
        ("attempts", 0, "--retry-attempts"),
        ("attempts", 1.5, "--retry-attempts"),
        ("attempts", True, "--retry-attempts"),
        ("eject_after", 0, "--retry-eject-after"),
        ("backoff", -0.1, "--retry-backoff"),
        ("backoff_max", float("inf"), "--retry-backoff-max"),
        ("rejoin_backoff", -1, "--retry-rejoin-backoff"),
        ("jitter", 1.5, "--retry-jitter"),
        ("jitter", -0.1, "--retry-jitter"),
        ("connect_timeout", 0, "--connect-timeout"),
        ("ping_interval", 0, "--ping-interval"),
        ("idle_timeout", 0, "--idle-timeout"),
        ("deadline", -3, "--deadline"),
    ])
    def test_invalid_knobs_name_their_cli_flag(self, knob, value, flag):
        with pytest.raises(ValueError, match=flag.replace("-", "[-]")):
            RetryPolicy(**{knob: value})

    def test_optional_timeouts_accept_none(self):
        policy = RetryPolicy(idle_timeout=None, deadline=None)
        assert policy.idle_timeout is None and policy.deadline is None

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(attempts=5, backoff=0.1, backoff_max=0.3,
                             jitter=0.0)
        sleeps = [policy.backoff_seconds(a) for a in (1, 2, 3, 4)]
        assert sleeps == [0.1, 0.2, 0.3, 0.3]  # capped at backoff_max

    def test_backoff_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(attempts=3, backoff=1.0, jitter=0.5, seed=7)
        rng = policy.jitter_rng()
        values = [policy.backoff_seconds(1, rng) for _ in range(50)]
        assert all(0.5 <= value <= 1.0 for value in values)
        fresh = policy.jitter_rng()
        again = [policy.backoff_seconds(1, fresh) for _ in range(50)]
        assert values == again  # same seed, same jitter sequence

    def test_resolve(self):
        assert RetryPolicy.resolve(None) == RetryPolicy()
        policy = RetryPolicy(attempts=2)
        assert RetryPolicy.resolve(policy) is policy
        assert RetryPolicy.resolve({"attempts": 3}).attempts == 3
        with pytest.raises(ValueError, match="unknown retry policy knob"):
            RetryPolicy.resolve({"bogus": 1})
        with pytest.raises(ValueError, match="--retry-"):
            RetryPolicy.resolve("3 attempts please")

    def test_retry_knob_requires_remote_transport(self):
        with pytest.raises(ValueError, match="workers"):
            executor_for(retry={"attempts": 2})


# ----------------------------------------------------------------------
# FaultLog: the observability ledger
# ----------------------------------------------------------------------
class TestFaultLog:
    def test_record_and_summarize(self):
        log = FaultLog()
        assert not log and len(log) == 0
        log.record("scan", ("h", 1), "peer closed", batch=(3, 4), attempt=2)
        log.record("redispatch", "h:2", "requeued", batch=(3, 4))
        log.record("fallback", "driver", "quorum loss", batch=(4,))
        assert len(log) == 3 and bool(log)
        summary = log.summary()
        assert summary["events"] == 3
        assert summary["by_kind"] == {"scan": 1, "redispatch": 1,
                                      "fallback": 1}
        assert summary["by_worker"]["h:1"] == 1  # tuple worker normalized
        assert summary["degraded_to_local"] is True
        rows = log.as_rows()
        assert rows[0]["batch"] == [3, 4] and rows[0]["attempt"] == 2
        assert all(row["elapsed"] >= 0 for row in rows)
        log.clear()
        assert not log and log.summary()["degraded_to_local"] is False


# ----------------------------------------------------------------------
# Chaos spec parsing and the proxy's frame view of the protocol
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_every_mode_parses(self):
        for mode in CHAOS_MODES:
            assert parse_chaos_spec(mode) == {"mode": mode}

    def test_options(self):
        assert parse_chaos_spec("drop, after=3, times=1, seed=7") == {
            "mode": "drop", "after_frames": 3, "times": 1, "seed": 7,
        }
        assert parse_chaos_spec("delay,delay=0.5,prob=0.25") == {
            "mode": "delay", "delay": 0.5, "prob": 0.25,
        }

    @pytest.mark.parametrize("spec", ["", "nonsense", "drop,after",
                                      "drop,color=red", "drop,after=soon"])
    def test_bad_specs_name_the_env_knob(self, spec):
        with pytest.raises(ValueError, match=CHAOS_ENV):
            parse_chaos_spec(spec)

    def test_spec_from_env(self):
        assert chaos_spec_from_env({}) is None
        assert chaos_spec_from_env({CHAOS_ENV: "  "}) is None
        assert chaos_spec_from_env({CHAOS_ENV: "corrupt,seed=3"}) == {
            "mode": "corrupt", "seed": 3,
        }

    def test_proxy_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosProxy(("127.0.0.1", 1), mode="nope")
        with pytest.raises(ValueError, match="after_frames"):
            ChaosProxy(("127.0.0.1", 1), mode="drop", after_frames=-1)
        with pytest.raises(ValueError, match="prob"):
            ChaosProxy(("127.0.0.1", 1), mode="drop", prob=2.0)

    def test_frame_header_mirrors_the_transport(self):
        # chaos.py deliberately duplicates the frame header rather than
        # importing the transport it sabotages; they must never diverge.
        assert (chaos_mod._FRAME_HEADER.format
                == remote_mod._FRAME_HEADER.format)
        assert chaos_mod._FRAME_HEADER.size == remote_mod._FRAME_HEADER.size


def test_frame_checksum_detects_corruption():
    """Protocol v2's crc32 turns a flipped byte into a loud error."""
    left, right = socket.socketpair()
    try:
        payload = b"gains-vector-bytes" * 4
        header = remote_mod._FRAME_HEADER.pack(
            b"B", len(payload), zlib.crc32(payload)
        )
        frame = bytearray(header + payload)
        frame[-1] ^= 0x40  # one bit, last payload byte
        left.sendall(bytes(frame))
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            remote_mod._recv_frame(right)
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# The acceptance property: every chaos mode × retries → identical results
# ----------------------------------------------------------------------
def test_chaos_modes_recover_bit_identical_with_retries(
    tmp_path, worker_fleet
):
    """20 random instances × rotating encoding/chaos mode.

    One worker sits behind a chaos proxy that sabotages its first
    connection (``times=1``, ``after_frames=0`` so the fault always
    fires, on the hello of the lane's eager connect); retries reconnect
    cleanly and the scan must be bit-identical to serial.  ``delay``
    corrupts nothing and must be identical without any fault at all.
    """
    rng = np.random.default_rng(211)
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()
    for case in range(20):
        mode = CHAOS_MODES[case % len(CHAOS_MODES)]
        system = _random_system(rng)
        mask_int = (1 << system.n) - 1
        encoding = ENCODINGS_UNDER_TEST[case % 2]
        path = write_shards(tmp_path / f"c{case}", system,
                            chunk_rows=int(rng.integers(1, 6)),
                            encoding=encoding)
        serial = ShardedSetStream(path)
        reference = serial.scan_gains(mask_int, min_capture_gain=1)
        serial.close()
        with ChaosProxy(worker_fleet[0], mode=mode, after_frames=0,
                        times=1, seed=case) as proxy:
            stream = ShardedSetStream(
                path, workers=[proxy.address, worker_fleet[1]],
                retry=FAST_RETRY,
            )
            scan = stream.scan_gains(mask_int, min_capture_gain=1)
            assert [int(g) for g in scan.gains] == [
                int(g) for g in reference.gains
            ], (case, mode, encoding)
            assert scan.captured == reference.captured
            assert stream.passes == 1
            if mode != "delay":  # delay injects latency, not faults
                assert proxy.sabotaged_connections >= 1
                events = stream.fault_log.events
                assert any(
                    event.kind in ("connect", "scan", "deadline")
                    for event in events
                ), (case, mode, [event.kind for event in events])
                # The survived faults surface in the result's extra.
                assert scan.extra["fault_summary"]["events"] >= 1
                assert scan.extra["fault_summary"]["degraded_to_local"] is False
            stream.close()
    _assert_no_fault_threads()
    if os.path.isdir(shm_dir):
        leaked = {
            entry for entry in set(os.listdir(shm_dir)) - before
            if entry.startswith("psm_")
        }
        assert not leaked, leaked


def test_algorithm_parity_under_mid_stream_chaos(tmp_path, worker_fleet):
    """Full algorithms over chaos that strikes mid-result-stream.

    ``after_frames=2`` lets the handshake and the first result through
    before sabotaging, so re-dispatch must skip already-delivered shards
    — the reorder-window dedup that keeps retried runs bit-identical.
    """
    rng = np.random.default_rng(223)
    algorithms = [
        ("threshold", lambda stream: ThresholdGreedy().solve(stream)),
        ("multipass",
         lambda stream: MultiPassGreedy(max_passes=4).solve(stream)),
        (
            "iter",
            lambda stream: iter_set_cover(
                stream, delta=0.5, seed=13,
                use_polylog_factors=False, include_rho=False,
            ),
        ),
    ]
    cases = [("drop", 0), ("corrupt", 1), ("truncate", 2), ("drop", 1),
             ("corrupt", 2), ("truncate", 0)]
    for case, (mode, algo_index) in enumerate(cases):
        system = _random_system(rng)
        encoding = ENCODINGS_UNDER_TEST[case % 2]
        path = write_shards(tmp_path / f"alg{case}", system,
                            chunk_rows=int(rng.integers(1, 6)),
                            encoding=encoding)
        algo_name, run = algorithms[algo_index]
        serial_stream = ShardedSetStream(path)
        reference = _fingerprint(run(serial_stream), serial_stream)
        serial_stream.close()
        with ChaosProxy(worker_fleet[0], mode=mode, after_frames=2,
                        times=1, seed=case) as proxy:
            stream = ShardedSetStream(
                path, workers=[proxy.address, worker_fleet[1]],
                retry=FAST_RETRY,
            )
            fingerprint = _fingerprint(run(stream), stream)
            assert fingerprint == reference, (case, mode, algo_name)
            stream.close()
    _assert_no_fault_threads()


def test_threshold_solve_recovers_through_a_dropping_proxy(
    tmp_path, worker_fleet
):
    """A threshold solve behind a dropping worker equals the serial one."""
    system = SetSystem(8, [[0, 1, 2], [2, 3], [4, 5, 6, 7], [0]])
    path = write_shards(tmp_path / "acc", system, chunk_rows=2)
    serial_stream = ShardedSetStream(path)
    reference = _fingerprint(ThresholdGreedy().solve(serial_stream),
                             serial_stream)
    serial_stream.close()
    with ChaosProxy(worker_fleet[0], mode="drop", after_frames=0,
                    times=1, seed=0) as proxy:
        stream = ShardedSetStream(
            path, workers=[proxy.address, worker_fleet[1]], retry=FAST_RETRY,
        )
        fingerprint = _fingerprint(ThresholdGreedy().solve(stream), stream)
        assert stream.fault_log
        stream.close()
    assert fingerprint == reference


# ----------------------------------------------------------------------
# Fail-loud preserved verbatim when retries are off
# ----------------------------------------------------------------------
def test_fail_loud_contract_without_retries(tmp_path, worker_fleet):
    """attempts=1 (the default): the first fault aborts, loudly, typed."""
    system = SetSystem(32, [[i % 32, (i * 5) % 32] for i in range(24)])
    path = write_shards(tmp_path / "loud", system, chunk_rows=2)
    mask_int = (1 << 32) - 1
    with ChaosProxy(worker_fleet[0], mode="drop", after_frames=2,
                    times=None, seed=0) as proxy:
        stream = ShardedSetStream(path, workers=[proxy.address])
        with pytest.raises(WorkerFaultError,
                           match="remote worker .* failed mid-scan") as info:
            stream.scan_gains(mask_int)
        # No retries → the PR 5 message, with no attempt-counter suffix.
        assert "attempt" not in str(info.value)
        assert "must be rerun" in str(info.value)
        stream.close()
    _assert_no_fault_threads()


def test_corrupt_frame_without_retries_is_loud_not_wrong(
    tmp_path, worker_fleet
):
    """A flipped byte mid-stream must abort — never a wrong gains vector."""
    system = SetSystem(24, [[i % 24, (i * 7) % 24] for i in range(20)])
    path = write_shards(tmp_path / "flip", system, chunk_rows=2)
    with ChaosProxy(worker_fleet[0], mode="corrupt", after_frames=2,
                    times=None, seed=3) as proxy:
        stream = ShardedSetStream(path, workers=[proxy.address])
        with pytest.raises(WorkerFaultError, match="checksum mismatch"):
            stream.scan_gains((1 << 24) - 1)
        stream.close()


def test_blackhole_without_retries_times_out_instead_of_hanging(
    tmp_path, worker_fleet
):
    """The satellite-1 regression: post-handshake reads carry a timeout.

    PR 5 set ``settimeout(None)`` after the handshake, so a peer that
    wedged mid-scan hung the driver forever.  A blackhole proxy is
    exactly that peer; the idle timeout must surface it as a loud error.
    """
    system = SetSystem(16, [[i % 16] for i in range(12)])
    path = write_shards(tmp_path / "hole", system, chunk_rows=2)
    with ChaosProxy(worker_fleet[0], mode="blackhole", after_frames=1,
                    times=None, seed=0) as proxy:
        stream = ShardedSetStream(
            path, workers=[proxy.address],
            retry={"idle_timeout": 0.4},  # attempts=1: still fail-loud
        )
        begin = time.monotonic()
        with pytest.raises(WorkerFaultError, match="idle timeout"):
            stream.scan_gains((1 << 16) - 1)
        assert time.monotonic() - begin < 10.0  # an error, not a hang
        stream.close()


def test_batch_deadline_is_enforced(tmp_path, worker_fleet):
    system = SetSystem(16, [[i % 16] for i in range(12)])
    path = write_shards(tmp_path / "dl", system, chunk_rows=2)
    with ChaosProxy(worker_fleet[0], mode="blackhole", after_frames=1,
                    times=None, seed=0) as proxy:
        stream = ShardedSetStream(
            path, workers=[proxy.address],
            retry={"deadline": 0.4, "idle_timeout": 5.0},
        )
        with pytest.raises(WorkerFaultError,
                           match="deadline of 0.4s exceeded"):
            stream.scan_gains((1 << 16) - 1)
        assert any(event.kind == "deadline"
                   for event in stream.fault_log.events)
        stream.close()


# ----------------------------------------------------------------------
# Quorum loss: local fallback (or a loud refusal)
# ----------------------------------------------------------------------
def test_quorum_loss_degrades_to_local_scan(tmp_path, worker_fleet):
    rng = np.random.default_rng(229)
    system = _random_system(rng)
    mask_int = (1 << system.n) - 1
    path = write_shards(tmp_path / "quorum", system, chunk_rows=2)
    serial = ShardedSetStream(path)
    reference = serial.scan_gains(mask_int, min_capture_gain=1)
    serial.close()
    # Every connection through the proxy dies at the hello; with
    # eject_after=1 the lone lane ejects on its first fault and the
    # driver is left with zero workers mid-scan.
    with ChaosProxy(worker_fleet[0], mode="drop", after_frames=0,
                    times=None, seed=0) as proxy:
        stream = ShardedSetStream(
            path, workers=[proxy.address],
            retry=dict(FAST_RETRY, attempts=2, eject_after=1),
        )
        with pytest.warns(RuntimeWarning, match="degraded to local"):
            scan = stream.scan_gains(mask_int, min_capture_gain=1)
        assert [int(g) for g in scan.gains] == [
            int(g) for g in reference.gains
        ]
        assert scan.captured == reference.captured
        summary = stream.fault_log.summary()
        assert summary["degraded_to_local"] is True
        kinds = set(summary["by_kind"])
        assert {"connect", "eject", "fallback"} <= kinds, kinds
        assert scan.extra["fault_summary"]["degraded_to_local"] is True
        stream.close()
    _assert_no_fault_threads()


def test_quorum_loss_with_fallback_disabled_is_loud(tmp_path, worker_fleet):
    system = SetSystem(8, [[0, 1], [2, 3], [4, 5]])
    path = write_shards(tmp_path / "nofb", system, chunk_rows=1)
    with ChaosProxy(worker_fleet[0], mode="drop", after_frames=0,
                    times=None, seed=0) as proxy:
        stream = ShardedSetStream(
            path, workers=[proxy.address],
            retry=dict(FAST_RETRY, attempts=2, eject_after=1,
                       local_fallback=False),
        )
        with pytest.raises(WorkerFaultError,
                           match="local fallback disabled"):
            stream.scan_gains((1 << 8) - 1)
        stream.close()


# ----------------------------------------------------------------------
# Worker health: ejection, rejoin, idle pings
# ----------------------------------------------------------------------
def test_ejection_and_rejoin_ledger():
    """The executor-scoped health ledger, exercised without a network."""
    executor = RemoteScanExecutor(
        [("h", 1), ("h", 2)],
        retry={"attempts": 2, "eject_after": 2, "rejoin_backoff": 0.05},
    )
    flaky, steady = ("h", 1), ("h", 2)
    assert executor._note_failure(flaky) is False  # 1 of 2
    assert executor._note_failure(flaky) is True   # ejected
    assert executor._roster() == [steady]
    time.sleep(0.06)  # cooldown elapses → rejoin-on-backoff
    assert executor._roster() == [flaky, steady]
    rejoins = [event for event in executor.fault_log.events
               if event.kind == "rejoin"]
    assert rejoins and "backoff elapsed" in rejoins[-1].detail
    # Success resets the consecutive-fault counter.
    assert executor._note_failure(steady) is False
    executor._note_success(steady)
    assert executor._note_failure(steady) is False
    # All ejected → necessity rejoin rather than an unscannable fleet.
    executor._note_failure(flaky), executor._note_failure(flaky)
    executor._note_failure(steady), executor._note_failure(steady)
    roster = executor._roster()
    assert roster == [flaky, steady]
    assert any("rejoined early" in event.detail
               for event in executor.fault_log.events)
    executor.close()


def test_ejected_worker_sits_out_then_rejoins_across_scans(
    tmp_path, worker_fleet
):
    """Pass 1 loses the worker, pass 2 rejoins it (times=1 chaos)."""
    system = SetSystem(12, [[i % 12, (i + 3) % 12] for i in range(10)])
    mask_int = (1 << 12) - 1
    path = write_shards(tmp_path / "rejoin", system, chunk_rows=2)
    serial = ShardedSetStream(path)
    reference = serial.scan_gains(mask_int, min_capture_gain=1)
    serial.close()
    with ChaosProxy(worker_fleet[0], mode="drop", after_frames=0,
                    times=1, seed=0) as proxy:
        stream = ShardedSetStream(
            path, workers=[proxy.address],
            retry=dict(FAST_RETRY, attempts=2, eject_after=1,
                       rejoin_backoff=30.0),
        )
        # Scan 1: the only worker ejects on its first connect fault and
        # the scan degrades to local — results still correct.
        with pytest.warns(RuntimeWarning, match="degraded to local"):
            first = stream.scan_gains(mask_int, min_capture_gain=1)
        assert [int(g) for g in first.gains] == [
            int(g) for g in reference.gains
        ]
        # Scan 2: the worker is mid-cooldown but is the whole fleet, so
        # necessity rejoins it early; connection 1 is clean and the scan
        # completes remotely (exactly one fallback ever recorded).
        second = stream.scan_gains(mask_int, min_capture_gain=1)
        assert [int(g) for g in second.gains] == [
            int(g) for g in reference.gains
        ]
        summary = stream.fault_log.summary()
        assert summary["by_kind"]["fallback"] == 1
        assert any("rejoined early" in event.detail
                   for event in stream.fault_log.events)
        assert stream.passes == 2
        stream.close()


def test_idle_lane_ping_notices_a_dead_peer(worker_fleet):
    """The ping verb guards idle connections (it was dead code in PR 5).

    A lane holding an open connection with no work pings its worker
    every ``ping_interval``; a blackhole peer must surface as a recorded
    ``ping`` fault, not wedge the lane.
    """
    policy = RetryPolicy(attempts=2, ping_interval=0.05, idle_timeout=0.3,
                         connect_timeout=1.0, eject_after=1, seed=0)
    executor = RemoteScanExecutor([worker_fleet[0]], retry=policy)
    # A healthy peer pongs.
    state = remote_mod._ScanState([(0, 0)], [remote_mod._Batch(0, [0])])
    state.work.get()  # park the batch so the lane idles forever
    lane = remote_mod._WorkerLane(
        executor, worker_fleet[0], state, {}, b"\x00", True,
    )
    lane.sock = executor._connect_worker(worker_fleet[0])
    assert lane._ping() is True
    assert not executor.fault_log
    # A blackhole peer: the ping's pong never arrives → a "ping" fault.
    with ChaosProxy(worker_fleet[0], mode="blackhole", after_frames=1,
                    times=None, seed=0) as proxy:
        sock, _ = remote_mod._connect(proxy.address, policy,
                                      display=worker_fleet[0])
        lane = remote_mod._WorkerLane(
            executor, worker_fleet[0], state, {}, b"\x00", True, sock=sock,
        )
        lane.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if any(event.kind == "ping"
                   for event in executor.fault_log.events):
                break
            time.sleep(0.02)
        state.stop.set()
        lane.join(timeout=10.0)
        assert not lane.is_alive()
    pings = [event for event in executor.fault_log.events
             if event.kind == "ping"]
    assert pings, executor.fault_log.as_rows()
    executor.close()


# ----------------------------------------------------------------------
# A real mid-batch SIGKILL: re-dispatch to the survivor
# ----------------------------------------------------------------------
def test_sigkill_mid_batch_redispatches_to_survivor(tmp_path):
    """One subprocess worker SIGKILLs itself after its first shard
    result; with retries the survivor finishes the batch and the scan is
    bit-identical to serial — the tentpole acceptance test."""
    system = SetSystem(64, [[i % 64, (i * 3) % 64] for i in range(30)])
    path = write_shards(tmp_path / "kill", system, chunk_rows=4)
    mask_int = (1 << 64) - 1
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()
    serial = ShardedSetStream(path)
    reference = serial.scan_gains(mask_int, min_capture_gain=1)
    serial.close()

    crasher, crash_addr = spawn_local_worker(
        tmp_path, extra_env={remote_mod._CRASH_TEST_ENV: "1"}
    )
    survivor, live_addr = spawn_local_worker(tmp_path)
    try:
        stream = ShardedSetStream(
            path, workers=[crash_addr, live_addr],
            # A large attempt budget plus fast ejection: the crasher's
            # lane dies after two consecutive faults (the SIGKILL, then
            # the refused reconnect) and the survivor absorbs its work.
            retry={"attempts": 10, "backoff": 0.01, "backoff_max": 0.05,
                   "eject_after": 2, "connect_timeout": 2.0, "seed": 0},
        )
        scan = stream.scan_gains(mask_int, min_capture_gain=1)
        assert [int(g) for g in scan.gains] == [
            int(g) for g in reference.gains
        ]
        assert scan.captured == reference.captured
        assert stream.passes == 1
        summary = stream.fault_log.summary()
        assert summary["events"] >= 1
        assert summary["degraded_to_local"] is False  # survivor, not local
        stream.close()
    finally:
        for process in (crasher, survivor):
            process.terminate()
            process.wait(timeout=10)
    _assert_no_fault_threads()
    if os.path.isdir(shm_dir):
        leaked = {
            entry for entry in set(os.listdir(shm_dir)) - before
            if entry.startswith("psm_")
        }
        assert not leaked, leaked


# ----------------------------------------------------------------------
# spawn_local_worker edge cases: wedged and vanishing workers (sat. 4)
# ----------------------------------------------------------------------
def test_spawn_wedged_before_announce_is_a_named_error(tmp_path):
    """A worker that binds and serves but never prints its announce line
    must trip the spawn timeout — a named error, never a hang."""
    begin = time.monotonic()
    with pytest.raises(RuntimeError, match="did not announce within"):
        spawn_local_worker(
            tmp_path, extra_env={remote_mod._WEDGE_TEST_ENV: "1"},
            timeout=3.0,
        )
    assert time.monotonic() - begin < 30.0


def test_spawn_announce_then_exit_is_a_named_error(tmp_path):
    """A worker that announces its address and immediately exits must
    fail the post-announce connect probe with its exit status."""
    with pytest.raises(RuntimeError,
                       match="exited during startup \\(rc=0\\)"):
        spawn_local_worker(
            tmp_path, extra_env={remote_mod._EXIT_TEST_ENV: "1"},
            timeout=15.0,
        )


# ----------------------------------------------------------------------
# The REPRO_CHAOS env knob: executor-interposed proxies
# ----------------------------------------------------------------------
def test_chaos_env_knob_interposes_proxies(tmp_path, worker_fleet,
                                           monkeypatch):
    """Setting REPRO_CHAOS makes the executor wrap every worker in a
    proxy — the no-code-changes path CI's chaos-smoke job uses."""
    system = SetSystem(16, [[i % 16, (i + 5) % 16] for i in range(14)])
    mask_int = (1 << 16) - 1
    path = write_shards(tmp_path / "env", system, chunk_rows=2)
    serial = ShardedSetStream(path)
    reference = serial.scan_gains(mask_int, min_capture_gain=1)
    serial.close()
    monkeypatch.setenv(CHAOS_ENV, "drop,after=0,times=1,seed=5")
    stream = ShardedSetStream(
        path, workers=worker_fleet, retry=FAST_RETRY,
    )
    assert len(stream._scan_executor()._chaos) == len(worker_fleet)
    scan = stream.scan_gains(mask_int, min_capture_gain=1)
    assert [int(g) for g in scan.gains] == [
        int(g) for g in reference.gains
    ]
    stream.close()  # must also stop the interposed proxies
    _assert_no_fault_threads()


def test_chaos_env_knob_rejects_garbage(monkeypatch):
    monkeypatch.setenv(CHAOS_ENV, "explode")
    with pytest.raises(ValueError, match=CHAOS_ENV):
        RemoteScanExecutor([("127.0.0.1", 1)])


# ----------------------------------------------------------------------
# ping_worker: the operator's health probe
# ----------------------------------------------------------------------
def test_ping_worker_reports_health(worker_fleet):
    host, port = worker_fleet[0]
    report = remote_mod.ping_worker(f"{host}:{port}", pings=2)
    assert report["worker"] == f"{host}:{port}"
    assert report["protocol"] == remote_mod.PROTOCOL_VERSION
    assert isinstance(report["pid"], int)
    assert len(report["rtt_ms"]) == 2
    assert all(rtt >= 0 for rtt in report["rtt_ms"])

    with pytest.raises(ValueError, match="exactly one worker"):
        remote_mod.ping_worker("a:1,b:2")
    with pytest.raises(RuntimeError, match="cannot reach remote worker"):
        remote_mod.ping_worker(
            ("127.0.0.1", _dead_port()),
            policy=RetryPolicy(connect_timeout=0.5),
        )
