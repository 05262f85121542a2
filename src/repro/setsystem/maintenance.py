"""Self-healing background maintenance for live repositories.

The streaming model keeps the set system arriving while the algorithm
works, so a repository under churn grows a delta chain forever unless
someone folds it.  :class:`MaintenanceLoop` is that someone: it watches
two cheap pressure signals — chain length and dead-row fraction — and
triggers :func:`repro.setsystem.deltas.compact` (which folds without
stopping readers or writers) when either crosses its threshold, with
retry/backoff/jitter borrowed from
the remote engine's :class:`~repro.engine.fault.RetryPolicy` so
contention degrades into patience instead of a crash.

Every decision — skip, compact, busy-backoff, repair, give-up — is
journaled as one JSON line in a sibling ``<root>.maintenance.log`` so
``repro shard fsck`` can answer "what has maintenance been doing?" even
after the loop's process is gone.  The log is a *sibling* of the
repository root (like the lease and retired directories) so the
byte-identity contract of the root tree is untouched.

>>> from repro.setsystem.shards import write_shards
>>> from repro.setsystem.deltas import apply_delta
>>> import tempfile, pathlib
>>> tmp = tempfile.TemporaryDirectory()
>>> root = pathlib.Path(tmp.name) / "repo"
>>> write_shards(root, [[0, 1], [1, 2]], n=4)  # doctest: +ELLIPSIS
PosixPath('...')
>>> _ = apply_delta(root, [{"op": "insert", "elements": [2, 3]}])
>>> loop = MaintenanceLoop(root, max_generations=1)
>>> loop.run_once()["action"]
'compact'
>>> loop.run_once()["action"]
'skip'
>>> tmp.cleanup()
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.engine.fault import RetryPolicy
from repro.setsystem.deltas import read_delta_manifest
from repro.setsystem.durability import fsync_file
from repro.setsystem.shards import (
    RepositoryBusyError,
    ShardFormatError,
    StaleStagingError,
    read_manifest,
)

__all__ = [
    "MAINTENANCE_LOG_SUFFIX",
    "MAINTENANCE_SCHEMA",
    "MaintenanceLoop",
    "maintenance_log_for",
    "read_maintenance_log",
    "repository_pressure",
]

#: Schema tag stamped on every maintenance-log line.
MAINTENANCE_SCHEMA = "repro.maintenance/v1"

#: Sibling suffix of the JSONL decision log (``<root>.maintenance.log``).
MAINTENANCE_LOG_SUFFIX = ".maintenance.log"


def maintenance_log_for(root: "str | Path") -> Path:
    """The sibling JSONL decision log of a repository."""
    root = Path(root)
    return root.parent / (root.name + MAINTENANCE_LOG_SUFFIX)


def read_maintenance_log(
    root: "str | Path", limit: "int | None" = None
) -> "list[dict]":
    """Parsed maintenance-log records, oldest first (tail with ``limit``).

    Unparseable lines (a crash mid-append) are skipped, not fatal — the
    log is an audit trail, never an integrity anchor.
    """
    path = maintenance_log_for(root)
    if not path.is_file():
        return []
    records: "list[dict]" = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    if limit is not None and limit >= 0:
        records = records[-limit:]
    return records


def repository_pressure(root: "str | Path") -> dict:
    """Cheap maintenance pressure signals, no shard bytes touched.

    Reads only the manifests, through their readers
    (:func:`~repro.setsystem.shards.read_manifest`,
    :func:`~repro.setsystem.deltas.read_delta_manifest`): the base row
    count plus each generation's insert count and tombstone list.
    Returns ``{"generations", "base_rows", "total_rows", "dead_rows",
    "live_rows", "dead_fraction"}``.  The reader refuses a tombstone
    named twice in the chain, so ``dead_fraction`` is exact; a defective
    manifest raises its :class:`~repro.setsystem.shards.ShardFormatError`.
    """
    manifest, _ = read_manifest(root)
    base_rows = manifest["m"]
    chain = read_delta_manifest(root, manifest["n"], base_rows)
    total = base_rows + sum(record["inserts"] for _, record in chain)
    dead = sum(len(record["tombstones"]) for _, record in chain)
    return {
        "generations": len(chain),
        "base_rows": base_rows,
        "total_rows": total,
        "dead_rows": dead,
        "live_rows": total - dead,
        "dead_fraction": (dead / total) if total else 0.0,
    }


class MaintenanceLoop:
    """Watch a repository's pressure and fold it when it builds.

    Parameters
    ----------
    root:
        The repository to maintain.
    max_generations:
        Fold once the delta chain reaches this many generations.
    max_dead_fraction:
        Fold once this fraction of rows in view order is tombstoned.
    retry:
        ``None``, a dict of knobs or a
        :class:`~repro.engine.fault.RetryPolicy` — resolved exactly like
        the remote engine resolves ``--retry-*``.  ``attempts`` bounds
        how many times one cycle retries a busy/contended compaction
        before journaling ``give-up`` (the *next* cycle starts fresh —
        the loop never crashes on contention).
    interval:
        Sleep between :meth:`watch` cycles, seconds.
    """

    def __init__(
        self,
        root: "str | Path",
        max_generations: int = 8,
        max_dead_fraction: float = 0.5,
        retry: "RetryPolicy | dict | None" = None,
        interval: float = 1.0,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if max_generations < 1:
            raise ValueError(
                f"max_generations must be >= 1, got {max_generations!r}"
            )
        if not 0.0 < max_dead_fraction <= 1.0:
            raise ValueError(
                "max_dead_fraction must be in (0, 1], "
                f"got {max_dead_fraction!r}"
            )
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval!r}")
        self.root = Path(root)
        self.max_generations = int(max_generations)
        self.max_dead_fraction = float(max_dead_fraction)
        self.policy = RetryPolicy.resolve(retry)
        self.interval = float(interval)
        self._clock = clock
        self._sleep = sleep
        self._rng = self.policy.jitter_rng()

    # ------------------------------------------------------------------
    def _journal(self, record: dict) -> dict:
        """Append one decision line durably; return the full record."""
        record = {"schema": MAINTENANCE_SCHEMA, **record}
        path = maintenance_log_for(self.root)
        with open(path, "a+b") as handle:
            # A crash mid-append can leave a torn line with no trailing
            # newline; restore the line boundary first so the torn line
            # stays isolated instead of corrupting this record too.
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(
                json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            )
        fsync_file(path)
        return record

    def _due(self, pressure: dict) -> "str | None":
        """The threshold that fired, or ``None`` when nothing is due."""
        if pressure["generations"] >= self.max_generations:
            return (
                f"generations {pressure['generations']} >= "
                f"{self.max_generations}"
            )
        if pressure["dead_fraction"] >= self.max_dead_fraction:
            return (
                f"dead_fraction {pressure['dead_fraction']:.3f} >= "
                f"{self.max_dead_fraction:.3f}"
            )
        return None

    # ------------------------------------------------------------------
    def run_once(self) -> dict:
        """One maintenance cycle: measure, decide, (maybe) compact.

        Returns the journaled decision record.  ``action`` is one of
        ``"skip"`` (below thresholds), ``"compact"`` (folded, with the
        attempt count), ``"repair"`` (stale staging discarded via
        ``fsck --repair``, compaction retried) or ``"give-up"`` (still
        busy after the policy's attempt budget — the next cycle will try
        again; never an exception).
        """
        from repro.setsystem.deltas import compact

        pressure = repository_pressure(self.root)
        reason = self._due(pressure)
        if reason is None:
            return self._journal(
                {"action": "skip", "pressure": pressure}
            )
        attempts = max(1, self.policy.attempts)
        attempt = 0
        repaired = False
        while attempt < attempts:
            attempt += 1
            try:
                compact(self.root)
            except RepositoryBusyError as exc:
                self._journal(
                    {
                        "action": "busy",
                        "attempt": attempt,
                        "reason": reason,
                        "error": str(exc),
                    }
                )
                if attempt < attempts:
                    self._sleep(
                        self.policy.backoff_seconds(attempt, self._rng)
                    )
                continue
            except StaleStagingError as exc:
                # Crash debris from an earlier (dead) compactor: self-heal
                # via the sanctioned repair path, then retry the fold in
                # the same cycle.  One repair per
                # cycle is free — it is not contention, so it must not
                # consume the busy budget (attempts=1 would otherwise
                # turn every self-heal into a give-up).
                from repro.setsystem.durability import fsck_repository

                fsck_repository(self.root, repair=True)
                self._journal(
                    {
                        "action": "repair",
                        "attempt": attempt,
                        "reason": reason,
                        "error": str(exc),
                    }
                )
                if not repaired:
                    repaired = True
                    attempt -= 1
                continue
            return self._journal(
                {
                    "action": "compact",
                    "attempts": attempt,
                    "reason": reason,
                    "pressure": pressure,
                }
            )
        return self._journal(
            {
                "action": "give-up",
                "attempts": attempts,
                "reason": reason,
                "pressure": pressure,
            }
        )

    def watch(
        self,
        cycles: "int | None" = None,
        duration: "float | None" = None,
        on_cycle=None,
    ) -> "list[dict]":
        """Run cycles until a budget runs out; return their records.

        ``cycles`` bounds the number of cycles, ``duration`` the
        wall-clock seconds (whichever comes first; both ``None`` runs
        forever).  ``on_cycle`` is called with each decision record —
        the CLI uses it to stream decisions to stdout.
        """
        started = self._clock()
        records: "list[dict]" = []
        count = 0
        while True:
            if cycles is not None and count >= cycles:
                break
            if (
                duration is not None
                and self._clock() - started >= duration
            ):
                break
            try:
                record = self.run_once()
            except (ShardFormatError, OSError) as exc:
                # Even an unreadable repository must not kill the loop:
                # journal and keep watching (the operator may be
                # restoring it right now).
                record = self._journal(
                    {"action": "error", "error": str(exc)}
                )
            records.append(record)
            if on_cycle is not None:
                on_cycle(record)
            count += 1
            if cycles is not None and count >= cycles:
                break
            if (
                duration is not None
                and self._clock() - started >= duration
            ):
                break
            if self.interval:
                self._sleep(self.interval)
        return records
