"""Failure handling for the remote scan engine (DESIGN.md §10).

PR 5's remote transport was strictly fail-loud: one worker disconnect,
SIGKILL or silent stall aborted the whole solve.  This package turns
worker faults into *recoverable events* while keeping results
bit-identical to a serial scan — the §8.2 batches are deterministic,
content-addressed units, so a failed batch can be resubmitted to any
surviving worker (or, under quorum loss, scanned locally) and its
results flow through the same chunk-order
:class:`~repro.engine.merge.ReorderWindow` as everyone else's.

Three cleanly separated pieces:

* :mod:`repro.engine.fault.policy` — :class:`RetryPolicy`: the knob
  bundle (attempt budget, exponential backoff + jitter, connect/idle
  socket timeouts, per-batch scan deadline, ejection and rejoin rules,
  local-fallback switch) threaded through
  :func:`repro.engine.transport.executor_for`, the stream constructors
  and the ``repro solve --retry-*`` CLI flags;
* :mod:`repro.engine.fault.log` — :class:`FaultLog` /
  :class:`FaultEvent`: the thread-safe record of what failed, what was
  done about it, and what that cost — surfaced in
  ``ScanResult.extra["fault_summary"]`` and on ``repro solve`` stderr;
* :mod:`repro.engine.fault.chaos` — :class:`ChaosProxy`: a frame-aware
  TCP fault injector (drop, delay, truncate-frame, corrupt-payload,
  blackhole modes; seeded RNG) usable from tests and via the
  ``REPRO_CHAOS`` environment knob, so every failure path above stays
  exercised instead of theoretical.

The default :class:`RetryPolicy` keeps PR 5's fail-loud contract
verbatim (``attempts=1``: the first fault raises a ``RuntimeError``
naming the worker) — but its finite idle timeout already fixes the one
genuine bug in that contract: a wedged peer now errors instead of
hanging a scan forever.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".chaos": [
        "CHAOS_ENV",
        "CHAOS_MODES",
        "ChaosProxy",
        "chaos_spec_from_env",
        "parse_chaos_spec",
    ],
    ".log": ["FaultEvent", "FaultLog"],
    ".policy": ["RetryPolicy"],
})
