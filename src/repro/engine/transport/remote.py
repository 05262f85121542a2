"""Remote-worker backend: scans spread over multiple machines (DESIGN.md §9).

The multi-pass algorithms of the paper trade passes for space, so at
scale the dominant cost is re-scanning the repository every pass — the
regime where adding machines adds scan bandwidth.  This backend spreads
one logical scan over a fleet of worker processes reachable by TCP:

* a **worker** (``python -m repro worker serve --root <dir>``) owns a
  directory tree of shard repositories.  Per scan request it opens the
  named repository *by path* (cached, keyed by path + manifest token),
  scans the requested shards via its own ``mmap``, and streams
  per-shard results back as they complete;
* the **driver** (:class:`RemoteScanExecutor`) plans contiguous
  even shard batches (:func:`repro.engine.plan.plan_batches`),
  feeds them through a shared work queue to one lane thread per worker,
  and funnels every reply through the shared
  :class:`~repro.engine.merge.ReorderWindow` — so whatever order
  workers finish in, consumers observe exactly the serial executor's
  chunk sequence and results stay bit-identical (§9.2).

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------
Driver and worker speak exactly one version: the hello exchange refuses
any other with a ``protocol mismatch`` error.  Every frame is ``tag(1
byte) + length(u32 big-endian) + crc32(u32 big-endian) + payload``; tag
``J`` marks a UTF-8 JSON payload, tag ``B`` raw bytes.  The checksum
covers the payload and is verified on every receive, so a byte
corrupted in transit surfaces as a loud
:class:`ProtocolError` instead of a silently-wrong gains vector.
JSON frames carry control fields and counts only; every bulk payload
is a ``B`` frame: the residual mask (little-endian packed words), each
shard result's capture record — the row ids, then the flat word
positions and the words of :meth:`~repro.setsystem.packed.Captures.entries`,
8 bytes each — and its gains vector (``int64`` little-endian).  The
driver rebuilds the record with ``np.frombuffer`` after checking every
id, word position and tail bit.  See docs/DISTRIBUTED.md for the full
message table.

Failure model (DESIGN.md §10)
-----------------------------
Failure handling is governed by a
:class:`~repro.engine.fault.RetryPolicy`.  The default is **fail-loud**:
the first worker fault aborts the scan with a :class:`WorkerFaultError`
naming the worker — never a hang (post-handshake reads carry the
policy's idle timeout) and never a silently-short scan.  With retries
enabled (``attempts > 1``) a failed batch is re-dispatched — shards
already delivered are never re-sent, so the reorder window sees each
shard exactly once and results stay bit-identical no matter which
worker died when.  Workers accumulating consecutive faults are ejected
for ``rejoin_backoff`` seconds; if every worker is lost mid-scan the
driver degrades to a local serial scan of the undelivered shards (with
a warning) unless ``local_fallback`` is off.  Everything observed along
the way lands in the executor's :class:`~repro.engine.fault.FaultLog`.
The driver holds no shared state with its workers, so there is nothing to
leak or recover; workers are stateless between requests.

The protocol carries set-system scan requests only — no code, no
pickles — but it is **unauthenticated**: run workers on a trusted
network (or an SSH tunnel), and point ``--root`` at the narrowest
directory that contains your repositories (path traversal outside the
root is rejected).
"""

from __future__ import annotations

import json
import os
import queue
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
import zlib
from pathlib import Path

import numpy as np

from repro.engine.cache import cache_key_for, get_cache, scan_through_cache
from repro.engine.fault import ChaosProxy, FaultLog, RetryPolicy, chaos_spec_from_env
from repro.engine.merge import ReorderWindow
from repro.engine.plan import plan_batches, resolve_workers
from repro.engine.transport.base import ScanExecutor
from repro.engine.transport.serial import iter_shard_scans
from repro.setsystem.packed import WORD_BITS, Captures, ScanMask

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteScanExecutor",
    "StaleRepositoryError",
    "WorkerFaultError",
    "WorkerServer",
    "manifest_token",
    "ping_worker",
    "spawn_local_worker",
]

#: Bumped whenever a frame or message field changes shape.  Driver and
#: worker exchange versions in the hello handshake and both must speak
#: exactly this one: a worker refuses any other version with a
#: ``protocol mismatch`` error, and a driver refuses a worker whose
#: hello reply names another.  Fleets are upgraded together.
PROTOCOL_VERSION = 4

_FRAME_JSON = b"J"
_FRAME_BYTES = b"B"
#: tag(1) + payload length(u32 BE) + payload crc32(u32 BE).  Mirrored by
#: ``repro.engine.fault.chaos._FRAME_HEADER`` (tests assert they agree).
_FRAME_HEADER = struct.Struct(">cII")

#: Frames larger than this indicate a desynchronized (or hostile) peer.
_MAX_FRAME_BYTES = 1 << 30

#: Worker-side cap on cached opened repositories.
_SERVER_REPO_CACHE = 8

#: Test hook (``tests/test_remote.py``): when set in a worker's
#: environment, the worker SIGKILLs itself after streaming its first
#: shard result, so the disconnect contract (loud error, no partial
#: state) stays regression-tested.
_CRASH_TEST_ENV = "REPRO_TEST_CRASH_REMOTE"

#: Test hooks (``tests/test_fault.py``) for the spawn_local_worker edge
#: cases: a worker that binds and serves but never prints its announce
#: line, and a worker that announces and then immediately exits.  Both
#: must surface as a named RuntimeError from spawn_local_worker — never
#: a hang.  Honoured by ``repro worker serve`` (see repro.cli).
_WEDGE_TEST_ENV = "REPRO_TEST_WEDGE_ANNOUNCE"
_EXIT_TEST_ENV = "REPRO_TEST_EXIT_AFTER_ANNOUNCE"

#: How long :func:`spawn_local_worker` waits for the announce line.
_SPAWN_TIMEOUT_SECONDS = 30.0


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class ProtocolError(RuntimeError):
    """A malformed, truncated, corrupted or mismatched protocol exchange."""


class WorkerFaultError(RuntimeError):
    """A remote scan failed after exhausting its fault budget.

    Raised by :class:`RemoteScanExecutor` when a batch runs out of
    attempts (with the default fail-loud policy: on the first fault), or
    when every worker is lost and local fallback is disabled.  The
    message names the worker and the last fault.
    """


class StaleRepositoryError(ProtocolError):
    """The generation the driver is scanning is gone from the worker's disk.

    Raised worker-side when a scan request's manifest token neither hits
    the repository cache nor matches what the worker reads from disk —
    the repository was rewritten (almost always: compacted) after the
    driver opened it.  The condition is *retriable*, not fatal: another
    worker may still hold that generation open, and the driver itself
    always can (its ``mmap`` pins the old family), so the driver
    re-dispatches or salvages the batch locally instead of aborting.
    The worker reports it as an ``error`` reply tagged
    ``kind="stale-repository"`` and keeps the connection.
    """


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    parts = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _send_frame(sock: socket.socket, tag: bytes, payload: bytes) -> None:
    header = _FRAME_HEADER.pack(tag, len(payload), zlib.crc32(payload))
    sock.sendall(header + payload)


def _recv_frame(sock: socket.socket) -> tuple[bytes, bytes]:
    header = _recv_exact(sock, _FRAME_HEADER.size)
    tag, length, checksum = _FRAME_HEADER.unpack(header)
    if tag not in (_FRAME_JSON, _FRAME_BYTES):
        raise ProtocolError(f"unknown frame tag {tag!r}")
    if length > _MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame ({length} bytes)")
    payload = _recv_exact(sock, length)
    observed = zlib.crc32(payload)
    if observed != checksum:
        raise ProtocolError(
            f"frame checksum mismatch (sender says {checksum:#010x}, payload "
            f"hashes to {observed:#010x}) — the frame was corrupted in transit"
        )
    return tag, payload


def send_json(sock: socket.socket, message: dict) -> None:
    """Send one JSON control frame."""
    _send_frame(sock, _FRAME_JSON, json.dumps(message).encode("utf-8"))


def send_bytes(sock: socket.socket, payload: bytes) -> None:
    """Send one raw-bytes bulk frame."""
    _send_frame(sock, _FRAME_BYTES, payload)


def recv_json(sock: socket.socket) -> dict:
    """Receive one frame and require it to be JSON."""
    tag, payload = _recv_frame(sock)
    if tag != _FRAME_JSON:
        raise ProtocolError("expected a JSON frame, got bytes")
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ProtocolError("JSON frame is not an object")
    return message


def recv_bytes(sock: socket.socket) -> bytes:
    """Receive one frame and require it to be raw bytes."""
    tag, payload = _recv_frame(sock)
    if tag != _FRAME_BYTES:
        raise ProtocolError("expected a bytes frame, got JSON")
    return payload


def manifest_token(path: "str | Path") -> list[int]:
    """Content identity of a repository's manifest: ``[size, crc32]``.

    Unlike an ``(inode, mtime, size)`` key — which is only meaningful on
    one filesystem — this token is pure content, so a driver and a worker
    that see the repository through different mounts still agree on what
    they are scanning.  A worker whose manifest
    bytes hash differently refuses the scan instead of silently scanning
    a different family.
    """
    data = (Path(path) / "manifest.json").read_bytes()
    return [len(data), zlib.crc32(data)]


def _encode_captures(captured: Captures) -> "tuple[list, bytes]":
    """A record's ``[rows, stored]`` header field and its ``B`` frame: the
    ids, then :meth:`Captures.entries`' flat positions and words, 8 bytes
    each.  An empty record (``[0, 0]``) is sent with no frame."""
    flat, bits = captured.entries()
    ids = np.asarray(captured.ids, dtype="<i8")
    return [ids.size, flat.size], b"".join(
        (ids.tobytes(), flat.astype("<i8").tobytes(), bits.astype("<u8").tobytes())
    )


def _decode_captures(shard: int, span, counts, payload: bytes, n: int) -> Captures:
    """The driver's capture record from one result's ``captured`` field and frame.

    ``span`` is the driver's own ``(start, rows)`` for ``shard``.  The
    frame must be exactly ``8 · (rows + 2 · stored)`` bytes, the ids
    strictly ascending inside the span, the flat word positions strictly
    ascending inside ``[0, rows · width)``, and no bit at or above ``n``
    set.  Anything else is a :class:`ProtocolError`.  No row becomes a
    Python int.
    """
    if not (
        type(counts) is list and len(counts) == 2
        and all(type(c) is int and c >= 0 for c in counts)
        and len(payload) == 8 * (counts[0] + 2 * counts[1])
    ):
        raise ProtocolError(
            f"shard {shard} capture frame of {len(payload)} bytes does not "
            f"hold [rows, stored] = {counts!r}"
        )
    (rows, stored), (first, count) = counts, span
    width = (n + WORD_BITS - 1) // WORD_BITS
    ids = np.frombuffer(payload, "<i8", rows)
    flat = np.frombuffer(payload, "<i8", stored, 8 * rows)
    bits = np.frombuffer(payload, "<u8", stored, 8 * (rows + stored))
    if rows and not (
        first <= ids[0] and ids[-1] < first + count and (ids[1:] > ids[:-1]).all()
    ):
        raise ProtocolError(
            f"shard {shard} reply captures ids outside [{first}, {first + count}) "
            "or out of order"
        )
    if stored and not (
        0 <= flat[0] and flat[-1] < rows * width and (flat[1:] > flat[:-1]).all()
    ):
        raise ProtocolError(
            f"shard {shard} reply's capture words lie outside "
            f"[0, {rows * width}) or out of order"
        )
    spill = n % WORD_BITS
    if spill and (bits[flat % width == width - 1] >> np.uint64(spill)).any():
        raise ProtocolError(f"shard {shard} reply captures a bit past n={n}")
    return Captures.from_words(ids.tolist(), width, [(flat, bits)])


def _encode_gains(gains) -> bytes:
    return np.ascontiguousarray(gains, dtype="<i8").tobytes()


def _close_socket(sock) -> None:
    # shutdown() before close(): close alone does not send FIN (or wake
    # a concurrent recv) while another thread's syscall still references
    # the socket's file description — and close_socket() exists exactly
    # to unblock a lane stuck in recv from the driver's finally.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer is already gone
    try:
        sock.close()
    except OSError:  # pragma: no cover - already dead
        pass


def _join_reaped(thread: threading.Thread, what: str, timeout: float = 5.0) -> bool:
    """Join ``thread``; warn loudly instead of silently leaking it.

    The old code joined with a timeout and dropped still-running threads
    on the floor without a trace.  A daemon thread that outlives its
    join is still abandoned (there is nothing safer to do), but now the
    leak is *named* so tests and operators can see it.
    """
    thread.join(timeout=timeout)
    if thread.is_alive():
        warnings.warn(
            f"{what} ({thread.name!r}) did not exit within {timeout}s and was "
            "abandoned as a daemon thread",
            RuntimeWarning,
            stacklevel=2,
        )
        return False
    return True


# ----------------------------------------------------------------------
# Worker server
# ----------------------------------------------------------------------
class WorkerServer:
    """One remote scan worker: serves shard scans under a root directory.

    Lifecycle: construct (binds and listens immediately, so
    :attr:`address` is final even with ``port=0``), then either
    :meth:`serve_forever` on the current thread (the CLI) or
    :meth:`start` a daemon thread (tests), and :meth:`stop` to unbind.
    Each connection is handled on its own thread; requests on one
    connection are processed strictly in order.  The server holds
    repositories open in a small cache keyed by (path, manifest token) —
    a repository that was rewritten in place simply misses the cache and
    re-opens.
    """

    def __init__(self, root: "str | Path", host: str = "127.0.0.1", port: int = 0):
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise ValueError(f"worker root {self.root} is not a directory")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        # Repository cache with reference counts: concurrent connections
        # may be scanning a repository the moment eviction wants it gone,
        # so evicted-while-busy entries are only *doomed* and closed by
        # the releasing scan once their refcount drains to zero.
        self._repos: dict = {}
        self._repo_refs: dict = {}
        self._repo_doomed: set = set()
        # Eviction counters, reported in every `done` and `pong` reply so
        # drivers (and tests) can see cache churn without guessing:
        # "stale" = a superseded generation swept on first sight of its
        # successor, "overflow" = capacity pressure.
        self._evictions = {"stale": 0, "overflow": 0}
        self._repo_lock = threading.Lock()
        self._stopped = threading.Event()
        self._thread: "threading.Thread | None" = None

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` the server is listening on."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    # -- lifecycle ------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop` (or EINTR)."""
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-worker-conn", daemon=True,
            )
            thread.start()

    def start(self) -> "WorkerServer":
        """Serve on a daemon thread (in-process workers for tests)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-worker-accept", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Unbind the listener and drop cached repositories."""
        self._stopped.set()
        try:
            # Closing a listening socket does not reliably wake a thread
            # blocked in accept(); poke it with a throwaway connection so
            # serve_forever re-checks the stop flag and exits promptly.
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass
        with self._repo_lock:
            for repo in self._repos.values():
                repo.close()
            self._repos.clear()
            self._repo_refs.clear()
            self._repo_doomed.clear()
        if self._thread is not None:
            _join_reaped(self._thread, "worker accept loop")
            self._thread = None

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- request handling -----------------------------------------------
    def _open_repository(self, path_text: str, token):
        """Resolve one scan request to an open repository, cache-first.

        The cache is consulted **before** the disk: an entry keyed by
        the driver's exact ``(path, token)`` serves even after the
        on-disk repository was compacted underneath it — the entry's
        ``mmap`` pins the old family, so a driver mid-fleet keeps
        getting bit-identical answers for the generation it opened.
        Only a cache *miss* consults the disk; a disk token that
        disagrees with the driver's raises the retriable
        :class:`StaleRepositoryError` (never evicting entries other
        drivers may still be scanning), while an agreeing one opens
        fresh and precisely sweeps the now-superseded same-path entries.
        """
        resolved = Path(path_text)
        if not resolved.is_absolute():
            resolved = self.root / resolved
        resolved = resolved.resolve()
        if self.root != resolved and self.root not in resolved.parents:
            raise ProtocolError(
                f"repository {path_text!r} is outside the serving root "
                f"{self.root}"
            )
        try:
            key = (str(resolved), tuple(int(part) for part in token))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed manifest token {token!r}") from exc
        with self._repo_lock:
            repo = self._repos.get(key)
            if repo is not None:
                self._repo_doomed.discard(key)  # hot again: cancel eviction
                self._repo_refs[key] += 1
                return key, repo
        observed = manifest_token(resolved)
        if list(key[1]) != observed:
            raise StaleRepositoryError(
                f"manifest token mismatch for {path_text!r}: driver sent "
                f"{list(key[1])}, worker sees {observed} — the repository "
                "was rewritten (likely compacted) after the driver opened "
                "it; re-open and re-dispatch"
            )
        from repro.setsystem.durability import COMPACT_INTENT_NAME
        from repro.setsystem.shards import (
            InterruptedCompactionError,
            PendingDeltaError,
            RepositoryBusyError,
            ShardedRepository,
        )

        try:
            fresh = ShardedRepository(resolved)
        except (
            InterruptedCompactionError, PendingDeltaError,
            RepositoryBusyError,
        ) as exc:
            raise StaleRepositoryError(
                f"repository {path_text!r} is mid-maintenance on the "
                f"worker ({exc}); re-open and re-dispatch"
            ) from exc
        # Seqlock-style validation (same discipline as open_repository):
        # the manifest read and the shard mmaps are not atomic, so a
        # compaction swinging in between could hand us old-manifest/
        # new-data hybrids.  A swing always moves data files before the
        # manifest and unlinks its intent after, so re-checking both
        # detects any overlap.
        if (
            manifest_token(resolved) != observed
            or (resolved / COMPACT_INTENT_NAME).exists()
        ):
            fresh.close()
            raise StaleRepositoryError(
                f"repository {path_text!r} was compacted while the worker "
                "opened it; re-open and re-dispatch"
            )
        with self._repo_lock:
            repo = self._repos.get(key)
            if repo is not None:  # another connection raced us to it
                fresh.close()
                self._repo_doomed.discard(key)
                self._repo_refs[key] += 1
                return key, repo
            # Precise stale sweep: same path, different token — those
            # entries describe generations this disk no longer carries.
            # (On the StaleRepositoryError paths above nothing is swept:
            # a cached old generation may still be serving its driver.)
            for stale in [
                k for k in self._repos
                if k[0] == str(resolved) and k != key
            ]:
                self._evict_locked(stale)
                self._evictions["stale"] += 1
            # The hot chunk cache rides the same supersession signal:
            # decoded chunks of the swept generations are unreachable by
            # key (the token changed) but still charge the byte budget,
            # so reclaim them now instead of waiting for LRU pressure.
            key_base = cache_key_for(fresh)
            if key_base is not None:
                get_cache().invalidate(key_base[0], keep_token=key_base[1])
            # Evict exactly the overflow count of *live* entries: a
            # doomed-but-busy entry stays in the dict until released
            # (it is already as evicted as it can get), so re-checking
            # len() here would doom the whole hot working set.
            excess = (
                len(self._repos) - len(self._repo_doomed)
                - _SERVER_REPO_CACHE + 1
            )
            for victim in list(self._repos):
                if excess <= 0:
                    break
                if victim in self._repo_doomed:
                    continue
                self._evict_locked(victim)
                self._evictions["overflow"] += 1
                excess -= 1
            self._repos[key] = fresh
            self._repo_refs.setdefault(key, 0)
            self._repo_refs[key] += 1
        return key, fresh

    def _evict_locked(self, key) -> None:
        """Drop a cache entry; close now if idle, else on last release.

        Closing a memory-mapped repository another connection thread is
        mid-scan on would pull the mmap out from under it, so busy
        entries are only marked doomed here and the final
        :meth:`_release_repository` performs the close.
        """
        if self._repo_refs.get(key, 0) > 0:
            self._repo_doomed.add(key)
        else:
            self._repos.pop(key).close()
            self._repo_refs.pop(key, None)
            self._repo_doomed.discard(key)

    def _release_repository(self, key) -> None:
        with self._repo_lock:
            if key not in self._repos:
                return  # stop() already closed everything
            self._repo_refs[key] -= 1
            if key in self._repo_doomed and self._repo_refs[key] <= 0:
                self._repos.pop(key).close()
                self._repo_refs.pop(key, None)
                self._repo_doomed.discard(key)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            try:
                # A request is two small frames (header, then mask); with
                # Nagle on, delayed ACKs stall every round trip.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = recv_json(conn)
                if hello.get("op") != "hello":
                    raise ProtocolError(f"expected hello, got {hello.get('op')!r}")
                peer = hello.get("protocol")
                if type(peer) is not int or peer != PROTOCOL_VERSION:
                    send_json(conn, {
                        "op": "error",
                        "message": (
                            f"protocol mismatch: driver speaks {peer!r}, "
                            f"worker speaks {PROTOCOL_VERSION}"
                        ),
                    })
                    return
                send_json(conn, {
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "root": str(self.root),
                })
                while True:
                    try:
                        request = recv_json(conn)
                    except ConnectionError:
                        return  # driver went away between requests: normal
                    op = request.get("op")
                    if op == "ping":
                        with self._repo_lock:
                            evictions = dict(self._evictions)
                        cache = get_cache()
                        send_json(conn, {
                            "op": "pong", "evictions": evictions,
                            "cache": cache.stats() if cache.enabled else None,
                        })
                    elif op == "scan":
                        try:
                            self._handle_scan(conn, request)
                        except StaleRepositoryError as exc:
                            # Retriable, and raised before any result
                            # frame (the request is fully consumed), so
                            # the connection stays in sync: report the
                            # typed error and keep serving.
                            send_json(conn, {
                                "op": "error",
                                "kind": "stale-repository",
                                "message": str(exc),
                            })
                    else:
                        raise ProtocolError(f"unknown op {op!r}")
            except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
                # Describe the failure to the driver if the socket still
                # works, then drop the connection: per-connection state is
                # only the repo cache, which is shared and still valid.
                try:
                    send_json(conn, {"op": "error", "message": str(exc)})
                except OSError:
                    pass

    def _handle_scan(self, conn: socket.socket, request: dict) -> None:
        mask_bytes = recv_bytes(conn)
        try:
            key, repo = self._open_repository(request["path"], request["token"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed scan request: {exc}") from exc
        try:
            try:
                # JSON integers and booleans arrive as exactly ``int`` and
                # ``bool`` (``type(True) is not int``).
                n = request["n"]
                if type(n) is not int:
                    raise ValueError(f"n must be an integer, got {n!r}")
                if n != repo.n:
                    raise ProtocolError(
                        f"driver expects n={n}, repository has n={repo.n}"
                    )
                shards = request["shards"]
                if type(shards) is not list or not all(
                    type(shard) is int for shard in shards
                ):
                    raise ValueError("shards must be a list of integers")
                if len(set(shards)) != len(shards):
                    raise ValueError(f"shards {shards} repeat a shard")
                for shard in shards:
                    if not 0 <= shard < repo.shard_count:
                        raise ProtocolError(
                            f"shard {shard} outside 0..{repo.shard_count - 1}"
                        )
                min_gain = request["min_capture_gain"]
                if min_gain is not None and not (
                    type(min_gain) is int and min_gain >= 1
                ):
                    raise ValueError(
                        "min_capture_gain must be null or an integer >= 1, "
                        f"got {min_gain!r}"
                    )
                capture_ids = request["capture_ids"]
                if capture_ids is not None and not (
                    type(capture_ids) is list
                    and all(type(i) is int for i in capture_ids)
                ):
                    raise ValueError(
                        "capture_ids must be null or a list of integers"
                    )
                best_only = request["best_only"]
                include_gains = request["include_gains"]
                if type(best_only) is not bool or type(include_gains) is not bool:
                    raise ValueError("best_only and include_gains must be booleans")
                mask_int = int.from_bytes(mask_bytes, "little")
                if (
                    len(mask_bytes) != max(1, 8 * repo.words)
                    or mask_int.bit_length() > WORD_BITS * repo.words
                ):
                    raise ValueError(
                        f"mask frame of {len(mask_bytes)} bytes does not hold "
                        f"{repo.words} word(s)"
                    )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"malformed scan request: {exc}") from exc
            mask = ScanMask(n, mask_int)
            if capture_ids is not None:
                capture_ids = frozenset(capture_ids)
            crash_hook = os.environ.get(_CRASH_TEST_ENV)
            for shard in shards:
                (start, gains, captured), hot = scan_through_cache(
                    repo, shard, mask,
                    min_capture_gain=min_gain,
                    capture_ids=capture_ids,
                    best_only=best_only,
                )
                counts, frame = _encode_captures(captured)
                send_json(conn, {
                    "op": "result",
                    "shard": shard,
                    "start": start,
                    "captured": counts,
                    "hot": bool(hot),
                    "gains": include_gains,
                })
                if frame:  # an empty record sends no frame
                    send_bytes(conn, frame)
                if include_gains:
                    send_bytes(conn, _encode_gains(gains))
                if crash_hook:  # pragma: no cover - dies by design
                    os.kill(os.getpid(), signal.SIGKILL)
            with self._repo_lock:
                evictions = dict(self._evictions)
            cache = get_cache()
            send_json(conn, {
                "op": "done", "shards": len(shards), "evictions": evictions,
                "cache": cache.stats() if cache.enabled else None,
            })
        finally:
            self._release_repository(key)


# ----------------------------------------------------------------------
# Driver connections
# ----------------------------------------------------------------------
def _connect(worker, policy=None, display=None):
    """Dial a worker and run the hello handshake.

    Returns ``(socket, hello_reply)``.  Both sides speak exactly
    :data:`PROTOCOL_VERSION`: a worker's refusal, or a reply naming any
    other version, is a ``RuntimeError`` naming the worker after this
    one dial.  ``display`` names the worker in error messages when the
    dialed address is an interposed proxy (the chaos harness) rather
    than the worker itself.  The connect timeout stays in force through
    the handshake: a host that accepts the connection but never replies
    (wedged worker, wrong service) must error, not hang the driver.
    Post-handshake reads carry the policy idle timeout — the old
    ``settimeout(None)`` meant a peer that wedged *after* the handshake
    could hang a scan forever.
    """
    policy = RetryPolicy.resolve(policy)
    host, port = worker
    shown = display if display is not None else (host, port)
    shown = f"{shown[0]}:{shown[1]}"
    try:
        sock = socket.create_connection(
            (host, port), timeout=policy.connect_timeout
        )
    except OSError as exc:
        raise RuntimeError(
            f"cannot reach remote worker {shown}: {exc} "
            "(is `python -m repro worker serve` running there?)"
        ) from exc
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_json(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
        reply = recv_json(sock)
        if reply.get("op") == "error":
            raise ProtocolError(reply.get("message", "worker refused the hello"))
        if reply.get("op") != "hello" or reply.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(f"unexpected hello reply {reply!r}")
    except (ProtocolError, ConnectionError, OSError) as exc:
        sock.close()
        raise RuntimeError(
            f"handshake with remote worker {shown} failed: {exc}"
        ) from exc
    sock.settimeout(policy.idle_timeout)
    return sock, reply


def ping_worker(worker, policy=None, pings: int = 3) -> dict:
    """Round-trip ``ping`` frames to one worker and report its health.

    ``worker`` is a ``(host, port)`` pair or a ``HOST:PORT`` string.
    Returns ``{"worker", "protocol", "pid", "root", "rtt_ms"}`` — the
    handshake facts plus one measured round-trip per ping.  Raises the
    usual named ``RuntimeError`` when the worker is unreachable or the
    handshake fails; backs ``repro worker ping``.
    """
    targets = resolve_workers(worker if isinstance(worker, str) else [worker])
    if len(targets) != 1:
        raise ValueError(
            f"ping takes exactly one worker, got {len(targets)} "
            "(the worker ping command takes a single HOST:PORT)"
        )
    (host, port), = targets
    policy = RetryPolicy.resolve(policy)
    sock, hello = _connect((host, port), policy)
    try:
        rtts = []
        for _ in range(max(1, int(pings))):
            begin = time.monotonic()
            send_json(sock, {"op": "ping"})
            reply = recv_json(sock)
            if reply.get("op") != "pong":
                raise ProtocolError(f"expected pong, got {reply.get('op')!r}")
            rtts.append(time.monotonic() - begin)
    except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
        raise RuntimeError(
            f"ping to remote worker {host}:{port} failed: {exc}"
        ) from exc
    finally:
        _close_socket(sock)
    return {
        "worker": f"{host}:{port}",
        "protocol": int(hello.get("protocol", PROTOCOL_VERSION)),
        "pid": hello.get("pid"),
        "root": hello.get("root"),
        "rtt_ms": [round(rtt * 1000.0, 3) for rtt in rtts],
    }


# ----------------------------------------------------------------------
# Driver executor
# ----------------------------------------------------------------------
class _LaneFault(Exception):
    """Internal: one recoverable fault observed by a worker lane."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class _Batch:
    """One planned unit of re-dispatchable work (a list of shard ids).

    ``stale_workers`` collects workers that reported the repository
    generation stale for this batch — a retriable condition tracked
    separately from ``attempts`` (staleness is the repository moving,
    not the worker failing).  Once every rostered worker is in the set
    the driver stops re-dispatching and salvages the batch locally
    through its own open handle.
    """

    __slots__ = ("index", "shards", "attempts", "stale_workers")

    def __init__(self, index: int, shards):
        self.index = index
        self.shards = list(shards)
        self.attempts = 0
        self.stale_workers: set = set()


class _WorkerHealth:
    """Executor-scoped per-worker state (guarded by the executor lock)."""

    __slots__ = ("consecutive", "ejected_until")

    def __init__(self):
        self.consecutive = 0
        self.ejected_until = 0.0


class _ScanState:
    """Shared state of one in-flight scan: the work queue, delivery ledger.

    ``deliver`` marks a shard delivered *and* queues it for the reorder
    window in one step, so a batch that faults mid-stream re-dispatches
    only its undelivered remainder — the window never sees a shard
    twice, which is what keeps retried scans bit-identical.

    Every batch goes on the one shared ``work`` queue in plan order, and
    every lane pulls the next batch whenever it is free, so a slow lane
    simply pulls fewer.  Requeues from the fault paths go back on the
    same queue, where any surviving lane picks them up.  The queue
    decides only *where* a shard is scanned; the reorder window alone
    decides observation order, so results are bit-identical whichever
    lane scans what.
    """

    def __init__(self, spans, batches):
        #: ``(start, rows)`` of every shard, what each reply is checked against.
        self.spans = spans
        self.shard_count = len(spans)
        self.stop = threading.Event()
        self.results: "queue.Queue[tuple]" = queue.Queue()
        self.work: "queue.Queue[_Batch | None]" = queue.Queue()
        #: Workers participating in this scan — the denominator for the
        #: "every worker reports this batch's generation stale" check.
        self.roster: set = set()
        self._lock = threading.Lock()
        self._delivered: set = set()
        #: worker -> {"delivered": n, "hot": n}; "driver" for salvage.
        self.delivered_by: dict = {}
        self._batches = len(batches)
        self._done_batches = 0
        self._exited: set = set()
        self._stale_queued: set = set()
        for batch in batches:
            self.work.put(batch)

    def mark_stale(self, batch: _Batch, worker) -> bool:
        """Record one stale-repository report against ``batch``.

        Returns ``True`` when the batch is (or already was) handed to
        the driver for local salvage — exactly once, even when several
        lanes report concurrently — which happens as soon as every
        *still-running* rostered lane has reported the batch stale.
        ``False`` means the caller should requeue the batch for the
        remaining workers.
        """
        with self._lock:
            batch.stale_workers.add(worker)
            if batch.index in self._stale_queued:
                return True
            if self.roster - self._exited <= batch.stale_workers:
                self._stale_queued.add(batch.index)
                self.results.put(("stale", batch))
                return True
            return False

    def note_exit(self, worker) -> None:
        """A lane is gone: stop counting it toward the stale quorum."""
        with self._lock:
            self._exited.add(worker)

    def todo(self, batch: _Batch) -> list:
        with self._lock:
            return [s for s in batch.shards if s not in self._delivered]

    def deliver(self, shard: int, item, worker=None, hot: bool = False) -> None:
        with self._lock:
            self._delivered.add(shard)
            if worker is not None:
                ledger = self.delivered_by.setdefault(
                    worker, {"delivered": 0, "hot": 0}
                )
                ledger["delivered"] += 1
                if hot:
                    ledger["hot"] += 1
        self.results.put(("item", (shard, item)))

    def batch_done(self, batch: _Batch) -> None:
        with self._lock:
            self._done_batches += 1

    def finished(self) -> bool:
        with self._lock:
            return self._done_batches >= self._batches

    def undelivered(self) -> tuple:
        with self._lock:
            return tuple(sorted(set(range(self.shard_count)) - self._delivered))


class _WorkerLane(threading.Thread):
    """One worker's lane: pulls batches off the shared queue, streams
    results, and converts faults into retry/re-dispatch decisions."""

    def __init__(
        self, executor, worker, state, request, mask_bytes, include_gains,
        sock=None,
    ):
        host, port = worker
        super().__init__(name=f"repro-remote-{host}:{port}", daemon=True)
        self.executor = executor
        self.worker = worker
        self.state = state
        self.request = request
        self.mask_bytes = mask_bytes
        self.include_gains = include_gains
        self.sock = sock

    # -- lifecycle ------------------------------------------------------
    def run(self) -> None:
        executor = self.executor
        policy = executor.retry
        state = self.state
        try:
            if self.sock is None and policy.enabled:
                # Eager connect keeps idle lanes pingable; failures here
                # are not fatal — each batch retries the connect itself.
                try:
                    self.sock = executor._connect_worker(self.worker)
                except RuntimeError as exc:
                    executor.fault_log.record("connect", self.worker, str(exc))
                    if self._note_failure():
                        return
            last_beat = time.monotonic()
            while not state.stop.is_set():
                try:
                    batch = state.work.get(timeout=0.25)
                except queue.Empty:
                    batch = None  # idle: maybe finished, maybe time to ping
                if state.stop.is_set():
                    return  # the scan ended (or was abandoned) while idle
                if batch is None:
                    if state.finished():
                        return
                    if (
                        self.sock is not None
                        and time.monotonic() - last_beat >= policy.ping_interval
                    ):
                        last_beat = time.monotonic()
                        if not self._ping() and self._note_failure():
                            return
                    continue
                todo = state.todo(batch)
                if not todo:
                    state.batch_done(batch)
                    continue
                if self.worker in batch.stale_workers:
                    # This worker already proved it cannot serve the
                    # batch's generation; hand it back for a peer that
                    # may still hold it cached, without burning a lap.
                    # (mark_stale re-checks the quorum in case the
                    # missing reporters have since exited.)
                    if not state.mark_stale(batch, self.worker):
                        state.work.put(batch)
                        state.stop.wait(0.05)
                    continue
                try:
                    self._run_batch(todo)
                except _LaneFault as fault:
                    if fault.kind == "stale-repository":
                        # The repository moved, not the worker failing:
                        # the connection is healthy (the worker kept
                        # it), so no close, no attempt burned, no health
                        # strike.  Re-dispatch until every rostered
                        # worker has reported stale, then hand the batch
                        # to the driver for local salvage.
                        executor.fault_log.record(
                            fault.kind, self.worker, fault.detail,
                            batch=tuple(todo),
                        )
                        if not state.mark_stale(batch, self.worker):
                            state.work.put(batch)
                        continue
                    self._close()
                    if state.stop.is_set():
                        return  # scan abandoned: not a fault, just exit
                    batch.attempts += 1
                    executor.fault_log.record(
                        fault.kind, self.worker, fault.detail,
                        batch=tuple(todo), attempt=batch.attempts,
                    )
                    if batch.attempts >= policy.attempts:
                        state.results.put(
                            ("fatal", (self.worker, batch, fault.detail))
                        )
                        return
                    remaining = state.todo(batch)
                    if remaining:
                        executor.fault_log.record(
                            "redispatch", self.worker,
                            f"batch {batch.index} requeued with "
                            f"{len(remaining)} shard(s) undelivered",
                            batch=tuple(remaining), attempt=batch.attempts,
                        )
                        state.work.put(batch)
                    else:
                        # The fault hit after the last shard arrived but
                        # before `done` — nothing left to re-dispatch.
                        state.batch_done(batch)
                    if self._note_failure():
                        return
                    state.stop.wait(
                        policy.backoff_seconds(batch.attempts, executor._rng)
                    )
                else:
                    state.batch_done(batch)
                    executor._note_success(self.worker)
                    last_beat = time.monotonic()
        finally:
            self._close()
            state.note_exit(self.worker)
            state.results.put(("lane_exit", self.worker))

    # -- one batch ------------------------------------------------------
    def _run_batch(self, todo) -> None:
        executor = self.executor
        policy = executor.retry
        if self.sock is None:
            try:
                self.sock = executor._connect_worker(self.worker)
            except RuntimeError as exc:
                raise _LaneFault("connect", str(exc)) from exc
        sock = self.sock
        deadline = (
            time.monotonic() + policy.deadline
            if policy.deadline is not None
            else None
        )
        expected = set(todo)
        try:
            send_json(sock, dict(self.request, shards=list(todo)))
            send_bytes(sock, self.mask_bytes)
            while expected:
                self._arm_timeout(sock, deadline)
                message = recv_json(sock)
                op = message.get("op")
                if op == "error":
                    if message.get("kind") == "stale-repository":
                        raise _LaneFault(
                            "stale-repository", str(message.get("message"))
                        )
                    raise _LaneFault("scan", str(message.get("message")))
                if op == "done":
                    raise ProtocolError(
                        f"worker finished with {len(expected)} shard(s) "
                        "undelivered"
                    )
                if op != "result":
                    raise ProtocolError(f"unexpected op {op!r} mid-scan")
                shard, start = message["shard"], message["start"]
                if type(shard) is not int or type(start) is not int:
                    raise ProtocolError(
                        f"result names shard {shard!r} at row {start!r}: "
                        "not JSON integers"
                    )
                if shard not in expected:
                    raise ProtocolError(f"unrequested shard {shard} delivered")
                # The reply must answer the request: start at the
                # driver's own first row of the shard, capture inside it
                # (_decode_captures) and carry one gain per row if asked.
                first, rows = span = self.state.spans[shard]
                if start != first:
                    raise ProtocolError(
                        f"shard {shard} reply starts at row {start}, not {first}"
                    )
                counts, frame = message["captured"], b""
                if counts != [0, 0]:
                    self._arm_timeout(sock, deadline)
                    frame = recv_bytes(sock)
                captured = _decode_captures(
                    shard, span, counts, frame, self.request["n"]
                )
                gains = None
                if message.get("gains"):
                    self._arm_timeout(sock, deadline)
                    gains = np.frombuffer(recv_bytes(sock), dtype="<i8")
                if self.include_gains and (gains is None or gains.size != rows):
                    raise ProtocolError(
                        f"shard {shard} reply carries "
                        f"{0 if gains is None else gains.size} gains for {rows} rows"
                    )
                item = (
                    start, (gains if self.include_gains else None), captured
                )
                expected.discard(shard)
                self.state.deliver(
                    shard, item, worker=self.worker,
                    hot=bool(message.get("hot")),
                )
            self._arm_timeout(sock, deadline)
            message = recv_json(sock)
            if message.get("op") != "done":
                raise ProtocolError(
                    f"expected done after last shard, got {message.get('op')!r}"
                )
            cache = message.get("cache")
            if cache is not None:
                executor._note_worker_cache(self.worker, cache)
        except _LaneFault:
            raise
        except (ProtocolError, ConnectionError, OSError, ValueError, KeyError) as exc:
            if isinstance(exc, (socket.timeout, TimeoutError)):
                if deadline is not None and time.monotonic() >= deadline:
                    raise _LaneFault(
                        "deadline",
                        f"batch deadline of {policy.deadline}s exceeded",
                    ) from exc
                raise _LaneFault(
                    "scan",
                    f"idle timeout: no data within {policy.idle_timeout}s",
                ) from exc
            raise _LaneFault("scan", f"{type(exc).__name__}: {exc}") from exc

    def _arm_timeout(self, sock, deadline) -> None:
        """Point the socket timeout at min(idle timeout, deadline left)."""
        policy = self.executor.retry
        timeout = policy.idle_timeout
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _LaneFault(
                    "deadline",
                    f"batch deadline of {policy.deadline}s exceeded",
                )
            timeout = remaining if timeout is None else min(timeout, remaining)
        sock.settimeout(timeout)

    # -- health ---------------------------------------------------------
    def _ping(self) -> bool:
        """Health-check an idle connection with the protocol ping verb."""
        policy = self.executor.retry
        sock = self.sock
        try:
            sock.settimeout(policy.idle_timeout or policy.connect_timeout)
            send_json(sock, {"op": "ping"})
            reply = recv_json(sock)
            if reply.get("op") != "pong":
                raise ProtocolError(f"expected pong, got {reply.get('op')!r}")
            cache = reply.get("cache")
            if cache is not None:
                self.executor._note_worker_cache(self.worker, cache)
            return True
        except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
            self.executor.fault_log.record(
                "ping", self.worker, f"{type(exc).__name__}: {exc}"
            )
            self._close()
            return False

    def _note_failure(self) -> bool:
        """Count one fault against this worker; True when now ejected."""
        policy = self.executor.retry
        if self.executor._note_failure(self.worker):
            self.executor.fault_log.record(
                "eject", self.worker,
                f"ejected after {policy.eject_after} consecutive fault(s); "
                f"eligible to rejoin in {policy.rejoin_backoff}s",
            )
            return True
        return False

    def _close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            _close_socket(sock)

    def close_socket(self) -> None:
        """Unblock a lane stuck in recv (called by the driver's finally)."""
        sock = self.sock
        if sock is not None:
            _close_socket(sock)


class RemoteScanExecutor(ScanExecutor):
    """Chunk scans fanned out over remote worker processes.

    ``workers`` takes anything :func:`repro.engine.plan.resolve_workers`
    accepts (the CLI's ``host:port,host:port`` string or a list of
    pairs).  ``retry`` takes anything
    :meth:`repro.engine.fault.RetryPolicy.resolve` accepts; the default
    is the fail-loud policy.  Each scan's even contiguous batches (§8.2)
    go on one shared queue in plan order, and one lane per worker pulls
    the next batch whenever it is free, so a slow worker just pulls
    fewer.  Connections are opened per scan and closed
    when the scan's iterator is exhausted or abandoned — workers keep no
    per-driver state, so a failed scan needs no cleanup beyond
    reconnecting.  Worker health (consecutive faults, ejection cooldown)
    and the :attr:`fault_log` persist across scans on one executor, so a
    flaky worker ejected in pass 3 sits out pass 4 and rejoins later.

    When the ``REPRO_CHAOS`` environment knob is set, one
    :class:`~repro.engine.fault.ChaosProxy` is interposed per worker at
    construction (and torn down by :meth:`close`): every connection the
    executor dials then crosses the fault injector, which is how the CI
    chaos-smoke job and ad-hoc resilience experiments run unmodified
    solves under injected faults.

    Only repository scans are remote: the whole point of the backend is
    that workers re-open the shard repository themselves and page it
    through their own ``mmap``.  In-memory families have no path a
    worker could open, so they always scan serially.
    """

    transport = "remote"

    def __init__(self, workers, retry=None):
        self.workers = resolve_workers(workers)
        self.jobs = len(self.workers)
        self.retry = RetryPolicy.resolve(retry)
        self.fault_log = FaultLog()
        self._rng = self.retry.jitter_rng()
        self._health = {worker: _WorkerHealth() for worker in self.workers}
        self._health_lock = threading.Lock()
        self._worker_cache: dict = {}
        self._last_ledger: dict = {}
        self._dial: dict = {}
        self._chaos: list = []
        spec = chaos_spec_from_env(os.environ)
        if spec is not None:
            for worker in self.workers:
                proxy = ChaosProxy(worker, **spec).start()
                self._chaos.append(proxy)
                self._dial[worker] = proxy.address

    def close(self) -> None:
        """Tear down any interposed chaos proxies (idempotent)."""
        for proxy in self._chaos:
            proxy.stop()
        self._chaos = []
        self._dial = {}

    # -- observability -----------------------------------------------------
    @property
    def cache_stats(self) -> "dict | None":
        """Fleet-aggregated hot-cache counters from worker replies.

        Workers report their process-wide :class:`ChunkCache` counters
        on every ``done`` and ``pong``; this sums the latest snapshot
        per worker.  ``None`` until at least one worker has reported.
        """
        with self._health_lock:
            snapshots = [dict(s) for s in self._worker_cache.values() if s]
        if not snapshots:
            return None
        agg = {
            key: sum(int(snap.get(key, 0)) for snap in snapshots)
            for key in ("hits", "misses", "evictions", "entries", "bytes")
        }
        agg["max_bytes"] = max(
            int(snap.get("max_bytes", 0)) for snap in snapshots
        )
        agg["workers"] = len(snapshots)
        return agg

    def placement_ledger(self) -> dict:
        """Per-worker delivery counts of the most recent scan.

        ``{"host:port": {"delivered": n, "hot": n}, ...}`` (plus a
        ``"driver"`` row when local salvage/fallback scanned shards).
        Observability only — the chaos-smoke job asserts load *shifted*
        away from a delayed worker without timing anything.
        """
        return {worker: dict(row) for worker, row in self._last_ledger.items()}

    def _note_worker_cache(self, worker, stats) -> None:
        with self._health_lock:
            self._worker_cache[worker] = stats

    # -- health ledger ----------------------------------------------------
    def _note_success(self, worker) -> None:
        with self._health_lock:
            self._health[worker].consecutive = 0

    def _note_failure(self, worker) -> bool:
        """Count one fault; True when the worker just got ejected."""
        with self._health_lock:
            health = self._health[worker]
            health.consecutive += 1
            if health.consecutive >= self.retry.eject_after:
                health.ejected_until = (
                    time.monotonic() + self.retry.rejoin_backoff
                )
                health.consecutive = 0
                return True
            return False

    def _roster(self) -> list:
        """Workers eligible for this scan (rejoin-on-backoff applied)."""
        now = time.monotonic()
        with self._health_lock:
            roster = []
            for worker in self.workers:
                health = self._health[worker]
                if health.ejected_until:
                    if health.ejected_until > now:
                        continue  # still sitting out its rejoin backoff
                    health.ejected_until = 0.0
                    health.consecutive = 0
                    self.fault_log.record(
                        "rejoin", worker,
                        "rejoin backoff elapsed; rejoining the fleet",
                    )
                roster.append(worker)
            if not roster:
                # Every worker is inside its cooldown: rejoin them all
                # rather than refuse to scan — necessity beats backoff.
                for worker in self.workers:
                    health = self._health[worker]
                    health.ejected_until = 0.0
                    health.consecutive = 0
                    self.fault_log.record(
                        "rejoin", worker,
                        "rejoined early: every worker was ejected",
                    )
                roster = list(self.workers)
        return roster

    def _connect_worker(self, worker):
        """Dial one worker (through its chaos proxy when interposed)."""
        sock, _ = _connect(
            self._dial.get(worker, worker), self.retry, display=worker
        )
        return sock

    # -- the scan ---------------------------------------------------------
    def _raise_fatal(self, payload) -> None:
        worker, batch, message = payload
        host, port = worker
        attempts = ""
        if self.retry.enabled:
            attempts = f" (attempt {batch.attempts} of {self.retry.attempts})"
        raise WorkerFaultError(
            f"remote worker {host}:{port} failed mid-scan: {message}"
            f"{attempts} — the scan is incomplete and must be rerun (chunks "
            "yielded before the failure may already have been consumed)"
        )

    def iter_scan_repository(
        self, repository, mask_int, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        count = repository.shard_count
        if count == 0:
            return
        policy = self.retry
        # The token names the generation the driver actually has open —
        # ShardedRepository captures it from the manifest bytes at open —
        # so a compaction that rewrites the disk mid-fleet surfaces as a
        # typed stale-repository condition, never as silently-different
        # scan results.
        request = {
            "op": "scan",
            "path": str(Path(repository.path).resolve()),
            "token": list(repository.token),
            "n": repository.n,
            "min_capture_gain": min_capture_gain,
            "capture_ids": (
                sorted(capture_ids) if capture_ids is not None else None
            ),
            "best_only": bool(best_only),
            "include_gains": bool(include_gains),
        }
        mask_bytes = mask_int.to_bytes(max(1, repository.words * 8), "little")
        batches = [
            _Batch(index, shards)
            for index, shards in enumerate(plan_batches(count, self.jobs))
        ]
        roster = self._roster()
        state = _ScanState(repository.shard_spans(), batches)
        state.roster = set(roster)
        preconnected: dict = {}
        if not policy.enabled:
            # Fail-loud contract: connect to every worker before any
            # request, so an unreachable fleet fails before work starts.
            try:
                for worker in roster:
                    preconnected[worker] = self._connect_worker(worker)
            except Exception:
                for sock in preconnected.values():
                    _close_socket(sock)
                raise

        def scan_locally(shards):  # stale salvage and quorum-loss fallback
            return zip(shards, iter_shard_scans(
                repository, shards, ScanMask(repository.n, mask_int),
                min_capture_gain, capture_ids, best_only, include_gains,
            ))

        lanes: list[_WorkerLane] = []
        try:
            for worker in roster:
                lane = _WorkerLane(
                    self, worker, state, request, mask_bytes, include_gains,
                    sock=preconnected.pop(worker, None),
                )
                lane.start()
                lanes.append(lane)
            window = ReorderWindow(count)
            alive = len(lanes)
            while not window.complete:
                kind, payload = state.results.get()
                if kind == "item":
                    shard, item = payload
                    window.push(shard, item)
                    yield from window.pop_ready()
                elif kind == "fatal":
                    self._raise_fatal(payload)
                elif kind == "stale":
                    # Every rostered worker reports this batch's
                    # generation gone from its disk and cache.  The
                    # driver's own handle still pins the old family, so
                    # salvage the remainder locally — delivered through
                    # the same ledger + reorder window, so results stay
                    # bit-identical and nothing is re-dispatched.
                    batch = payload
                    todo = state.todo(batch)
                    self.fault_log.record(
                        "stale-salvage", "driver",
                        "every worker reports the repository stale "
                        f"(compacted mid-scan); scanning {len(todo)} "
                        "shard(s) locally through the driver's open "
                        "handle",
                        batch=tuple(todo),
                    )
                    for shard, item in scan_locally(todo):
                        state.deliver(shard, item, worker="driver")
                    state.batch_done(batch)
                else:  # lane_exit
                    alive -= 1
                    if alive:
                        continue
                    # Every lane is gone.  Drain what they queued before
                    # exiting, then decide whether this is quorum loss.
                    while True:
                        try:
                            kind, payload = state.results.get_nowait()
                        except queue.Empty:
                            break
                        if kind == "item":
                            shard, item = payload
                            window.push(shard, item)
                            yield from window.pop_ready()
                        elif kind == "fatal":
                            self._raise_fatal(payload)
                    if window.complete:
                        break
                    missing = state.undelivered()
                    if not policy.local_fallback:
                        raise WorkerFaultError(
                            f"remote scan lost all {len(lanes)} worker(s) "
                            f"with {len(missing)} shard(s) undelivered and "
                            "local fallback disabled — the scan is "
                            "incomplete and must be rerun"
                        )
                    self.fault_log.record(
                        "fallback", "driver",
                        "quorum loss: every worker ejected or exited; "
                        f"scanning {len(missing)} shard(s) locally",
                        batch=missing,
                    )
                    warnings.warn(
                        f"remote scan degraded to local: all {len(lanes)} "
                        f"worker(s) failed; scanning {len(missing)} "
                        "remaining shard(s) in-process (results are "
                        "unaffected)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    for shard, item in scan_locally(missing):
                        # Every lane already exited: the results queue
                        # has no consumer but this loop, so bypass
                        # deliver() and feed the window directly (still
                        # recording the ledger row).
                        row = state.delivered_by.setdefault(
                            "driver", {"delivered": 0, "hot": 0}
                        )
                        row["delivered"] += 1
                        window.push(shard, item)
                        yield from window.pop_ready()
        finally:
            state.stop.set()
            for _ in lanes:
                state.work.put(None)  # wakes an idle lane now, not at its poll
            for lane in lanes:
                lane.close_socket()
            for lane in lanes:
                host, port = lane.worker
                _join_reaped(lane, f"remote lane for worker {host}:{port}")
            # Persist the delivered-shard ledger on the executor (the
            # chaos-smoke job asserts load skew on it).
            self._last_ledger = {
                (
                    worker if isinstance(worker, str)
                    else f"{worker[0]}:{worker[1]}"
                ): dict(row)
                for worker, row in state.delivered_by.items()
            }


# ----------------------------------------------------------------------
# Local spawn helper (tests, benchmarks, CI smoke)
# ----------------------------------------------------------------------
def spawn_local_worker(
    root: "str | Path",
    host: str = "127.0.0.1",
    extra_env: "dict | None" = None,
    timeout: float = _SPAWN_TIMEOUT_SECONDS,
):
    """Start ``python -m repro worker serve`` as a localhost subprocess.

    Binds an ephemeral port (``--port 0``) and parses the worker's
    announce line for the actual address, then probes the endpoint with
    one TCP connect — a worker that announces and immediately dies must
    raise a named ``RuntimeError`` here, not hang the first scan.
    Returns ``(process, (host, port))``; the caller owns the process and
    should ``terminate()`` it when done.  ``extra_env`` entries overlay
    the inherited environment (used by the crash-hygiene tests to plant
    :data:`_CRASH_TEST_ENV` and friends).
    """
    import repro

    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = (
        package_parent + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else package_parent
    )
    if extra_env:
        env.update(extra_env)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "serve",
         "--root", str(root), "--host", host, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + timeout
    announce = ""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            process.terminate()
            raise RuntimeError(f"worker did not announce within {timeout}s")
        # select() guards the readline: a worker that wedges before
        # printing (and never exits) must trip the timeout, not block
        # this call forever on the pipe.
        ready, _, _ = select.select([process.stdout], [], [],
                                    min(0.5, remaining))
        if process.poll() is not None and not ready:
            rest = process.stdout.read() or ""
            raise RuntimeError(
                f"worker exited during startup (rc={process.returncode}): "
                f"{announce}{rest}"
            )
        if not ready:
            continue
        announce = process.stdout.readline()
        if "listening on" in announce:
            break
        if announce == "" and process.poll() is not None:
            raise RuntimeError(
                f"worker exited during startup (rc={process.returncode})"
            )
    port = int(announce.rstrip().rsplit(":", 1)[1])
    # Probe the announced endpoint before handing it to a driver: the
    # connect must succeed while the worker lives, and fail fast (with
    # the process's exit status) when it announced and then died.
    while True:
        try:
            probe = socket.create_connection((host, port), timeout=1.0)
            probe.close()
            break
        except OSError as exc:
            if process.poll() is not None:
                raise RuntimeError(
                    f"worker announced {host}:{port} but exited during "
                    f"startup (rc={process.returncode})"
                ) from exc
            if time.monotonic() >= deadline:
                process.terminate()
                raise RuntimeError(
                    f"worker announced {host}:{port} but never accepted a "
                    f"connection within {timeout}s: {exc}"
                ) from exc
            time.sleep(0.05)
    return process, (host, port)
