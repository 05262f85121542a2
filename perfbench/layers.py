"""Per-layer tracing from outside the program: wrappers around public entry points.

:class:`Tracer` patches a handful of public methods of ``repro`` in the
current process so that each call is timed and counted under a layer
name. Nothing under ``src/`` changes; the wrappers are installed only in
traced solves (``runner.py --trace-out``), never in the solves that give
the end-to-end numbers.

Layers on the main thread form a stack, so each has an inclusive time
and a self time (its time minus its child spans). The stack's root frame
opens when the tracer is made, before ``import repro.cli``, and closes in
:meth:`Tracer.finish`; its self time is the runner's time in no layer.

* ``import``  ``import repro.cli``, timed by the runner with :meth:`Tracer.span`
* ``open``    ``ShardedSetStream(...)``
* ``driver``  the algorithm's ``solve()`` (``IterSetCover``, ``ThresholdGreedy``)
* ``scan``    each ``next()`` on a ``scan_gains_chunked`` / ``scan_accepts_chunked``
  iterator: the time the driver is blocked on the scan engine
* ``sample``  ``draw_sample``
* ``offline`` ``OfflineSolver.solve_partial`` (algOfflineSC)
* ``verify``  ``ShardedSetStream.verify_solution``

Storage and kernel calls (``ShardedRepository.decode_chunk``,
``scan_decoded``, ``scan_shard``) are timed as busy time in any thread; a
serial scan of several shards runs them in a prefetch thread, so they are
not part of the stack. They are recorded only in the driver process:
forked pool workers inherit the wrappers but cannot report back, so
those metrics are absent, not zero, when the scans ran in a pool.

Memory is attributed the same way as self time: each time a span opens or
closes, the growth of ``VmHWM`` (``/proc/self/status``) since the previous
boundary goes to the layer that was running.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import defaultdict

_STATUS = "/proc/self/status"


def vm_hwm_kb() -> int:
    """This process's peak resident set (``VmHWM``) in KiB."""
    with open(_STATUS, "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Accumulates layer times, counts and high-water growth for one solve."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.hwm_kb = defaultdict(int)
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)
        self.stream_jobs = None
        self.cache_stats = None
        self._pid = os.getpid()
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        # Frames are [layer, start, time spent in child spans].
        self._stack = [["outside", time.perf_counter(), 0.0]]
        self._last_hwm = vm_hwm_kb()

    # -- spans ---------------------------------------------------------
    def _boundary(self) -> None:
        hwm = vm_hwm_kb()
        self.hwm_kb[self._stack[-1][0]] += hwm - self._last_hwm
        self._last_hwm = hwm

    def _enter(self, layer: str) -> None:
        self._boundary()
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, start, children = self._stack[-1]
        duration = time.perf_counter() - start
        self._boundary()
        self._stack.pop()
        self.inclusive[layer] += duration
        self.self_time[layer] += duration - children
        self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time the body of a ``with`` block on the main thread as ``layer``."""
        self._enter(layer)
        try:
            yield
        finally:
            self._exit()

    def _spanned(self, layer: str, method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main_thread:
                return method(*args, **kwargs)
            with self.span(layer):
                return method(*args, **kwargs)

        return wrapper

    def _busy(self, key: str, method):
        """Time calls from any thread of the driver process (not forked workers)."""
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return method(*args, **kwargs)
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.busy[key] += elapsed
                    self.counts[key] += 1

        return wrapper

    def _timed_parts(self, parts, captured_at: int):
        """Yield a scan's chunks, timing each ``next()`` as ``scan``."""
        iterator = iter(parts)
        try:
            while True:
                self._enter("scan")
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self.counts["chunks"] += 1
                self.counts["captured_rows"] += len(item[captured_at])
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _scan(self, method, captured_at: int):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            return self._timed_parts(method(*args, **kwargs), captured_at)

        return wrapper

    def _offline(self, method):
        @functools.wraps(method)
        def wrapper(solver, n, sets, targets):
            picked = method(solver, n, sets, targets)
            self.counts["offline_calls"] += 1
            self.counts["offline_sets_in"] += len(sets)
            self.counts["offline_picks"] += len(picked)
            return picked

        return self._spanned("offline", wrapper)

    def _close(self, method):
        @functools.wraps(method)
        def wrapper(stream):
            self.stream_jobs = stream.jobs
            self.cache_stats = stream.cache_stats
            return method(stream)

        return wrapper

    # -- installation --------------------------------------------------
    @staticmethod
    def _patch(owner, name: str, wrap) -> None:
        setattr(owner, name, wrap(getattr(owner, name)))

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        from repro.baselines.greedy_stream import ThresholdGreedy
        from repro.offline.base import OfflineSolver
        from repro.setsystem.shards import ShardedRepository
        from repro.streaming.sharded import ShardedSetStream
        from repro.streaming.stream import SetStreamBase

        # ``repro.core.iter_set_cover`` the attribute is the function, so
        # fetch the module itself to patch the name it calls.
        iter_module = importlib.import_module("repro.core.iter_set_cover")
        spanned = self._spanned
        self._patch(ShardedSetStream, "__init__", functools.partial(spanned, "open"))
        self._patch(
            ShardedSetStream, "verify_solution", functools.partial(spanned, "verify")
        )
        self._patch(ShardedSetStream, "close", self._close)
        self._patch(
            SetStreamBase, "scan_gains_chunked", lambda m: self._scan(m, captured_at=2)
        )
        self._patch(
            SetStreamBase, "scan_accepts_chunked", lambda m: self._scan(m, captured_at=1)
        )
        self._patch(iter_module.IterSetCover, "solve", functools.partial(spanned, "driver"))
        self._patch(ThresholdGreedy, "solve", functools.partial(spanned, "driver"))
        self._patch(iter_module, "draw_sample", functools.partial(spanned, "sample"))
        self._patch(OfflineSolver, "solve_partial", self._offline)
        self._patch(ShardedRepository, "decode_chunk", functools.partial(self._busy, "decode"))
        self._patch(ShardedRepository, "scan_decoded", functools.partial(self._busy, "kernel"))
        self._patch(ShardedRepository, "scan_shard", functools.partial(self._busy, "kernel"))

    # -- results -------------------------------------------------------
    def finish(self) -> dict:
        """Close the root frame and return the layer metrics of this process.

        ``None`` marks a metric not recorded here. ``trace.runner_s`` is the
        root frame's whole time and ``trace.root_self_s`` its self time: the
        runner's time outside every span (argument parsing, printing).
        """
        _, start, children = self._stack[0]
        runner_s = time.perf_counter() - start
        mib = 1.0 / 1024.0
        cache = self.cache_stats or {}
        hits, misses = cache.get("hits"), cache.get("misses")
        lookups = (hits or 0) + (misses or 0)
        # Storage and kernel calls only happen in this process when the
        # scans were not shipped to a pool.
        in_process = self.counts["decode"] > 0 or self.counts["kernel"] > 0
        return {
            "cli.import_s": self.inclusive["import"],
            "stream.open_s": self.inclusive["open"],
            "stream.scan_wait_s": self.inclusive["scan"],
            "stream.chunks": self.counts["chunks"],
            "stream.captured_rows": self.counts["captured_rows"],
            "stream.verify_s": self.inclusive["verify"],
            "transport.jobs": self.stream_jobs,
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_rate": hits / lookups if lookups else None,
            "storage.decode_s": self.busy["decode"] if in_process else None,
            "storage.decode_calls": self.counts["decode"] if in_process else None,
            "kernel.scan_s": self.busy["kernel"] if in_process else None,
            "driver.sample_s": self.inclusive["sample"],
            "driver.self_s": self.self_time["driver"],
            "offline.solve_s": self.inclusive["offline"],
            "offline.calls": self.counts["offline_calls"],
            "offline.sets_in": self.counts["offline_sets_in"],
            "offline.picks": self.counts["offline_picks"],
            "mem.hwm_scan_mb": self.hwm_kb["scan"] * mib,
            "mem.hwm_driver_mb": (self.hwm_kb["driver"] + self.hwm_kb["sample"]) * mib,
            "mem.hwm_offline_mb": self.hwm_kb["offline"] * mib,
            "trace.runner_s": runner_s,
            "trace.root_self_s": runner_s - children,
        }
