"""Batch planning and knob resolution for the scan engine.

This module is the *scheduling* layer of :mod:`repro.engine` (DESIGN.md
§8, §9.1): it decides how a scan's chunks are grouped into work units
and how the ``jobs`` / ``--workers`` knobs resolve into concrete
parallelism — and nothing else.  Plans are pure schedules: whatever this
module produces, the merge layer (:mod:`repro.engine.merge`) re-assembles
results in chunk order, so a plan can change wall-clock time but never a
result.

The cost model consumed by :func:`plan_batches` comes from the shard
manifest statistics
(:meth:`repro.setsystem.shards.ShardedRepository.shard_cost_estimates`);
the remote transport (:mod:`repro.engine.transport.remote`) is the only
consumer of the plans; serial and process-pool scans run one chunk per
step or task and need none.
"""

from __future__ import annotations

import operator

__all__ = [
    "JOBS_AUTO",
    "plan_batches",
    "resolve_jobs",
    "resolve_workers",
]

#: The default value of every ``jobs`` knob.
JOBS_AUTO = "auto"

#: Planner batching: cost-balanced batches per worker.  More batches
#: load-balance better, fewer batches amortize IPC better; 4 keeps the
#: largest batch under ~25% of one worker's share.
_BATCHES_PER_WORKER = 4

#: TCP ports a ``--workers`` entry may name.
_PORT_RANGE = (1, 65535)


def resolve_jobs(jobs=JOBS_AUTO) -> int:
    """Resolve a ``jobs`` knob to a concrete worker count (>= 1).

    ``"auto"`` (or ``None``) resolves to 1, the serial executor: on the
    measured roster a local process pool never beats an in-process scan
    (DESIGN.md §6.1), so parallel lanes are opt-in.  Integers (and
    integer strings, for CLI plumbing) pass through after validation;
    zero and negative counts raise a ``ValueError`` naming the
    ``--jobs`` CLI flag that usually feeds this knob.

    >>> resolve_jobs(4)
    4
    >>> resolve_jobs("auto")
    1
    >>> resolve_jobs(0)
    Traceback (most recent call last):
        ...
    ValueError: jobs must be 'auto' or a positive integer, got 0 (the --jobs flag takes the same values)
    """
    if jobs is None or jobs == JOBS_AUTO:
        return 1
    try:
        # operator.index rejects floats; digit-strings come from the CLI.
        value = int(jobs, 10) if isinstance(jobs, str) else operator.index(jobs)
    except (TypeError, ValueError):
        raise ValueError(
            f"jobs must be 'auto' or a positive integer, got {jobs!r} "
            "(the --jobs flag takes the same values)"
        ) from None
    if value < 1:
        raise ValueError(
            f"jobs must be 'auto' or a positive integer, got {jobs!r} "
            "(the --jobs flag takes the same values)"
        )
    return value


def _workers_error(spec, detail: str) -> ValueError:
    return ValueError(
        f"workers must be comma-separated host:port pairs, got {spec!r}: "
        f"{detail} (the --workers flag takes the same values)"
    )


def resolve_workers(workers) -> "list[tuple[str, int]]":
    """Resolve a ``--workers`` knob to ``[(host, port), ...]``.

    Accepts the CLI's comma-joined string form (``"h1:2001,h2:2001"``),
    an iterable of ``"host:port"`` strings, or an iterable of
    ``(host, port)`` pairs.  Empty hosts, missing colons and ports
    outside ``1..65535`` raise a ``ValueError`` naming the ``--workers``
    CLI flag that usually feeds this knob — the same error path as
    :func:`resolve_jobs`, so argparse surfaces both as usage errors.

    >>> resolve_workers("127.0.0.1:9041, 127.0.0.1:9042")
    [('127.0.0.1', 9041), ('127.0.0.1', 9042)]
    >>> resolve_workers([("worker-a", 7000)])
    [('worker-a', 7000)]
    >>> resolve_workers("localhost:http")
    Traceback (most recent call last):
        ...
    ValueError: workers must be comma-separated host:port pairs, got 'localhost:http': port 'http' is not an integer (the --workers flag takes the same values)
    """
    if workers is None:
        raise _workers_error(workers, "no workers given")
    entries = (
        [part.strip() for part in workers.split(",")]
        if isinstance(workers, str)
        else list(workers)
    )
    if not entries:
        raise _workers_error(workers, "no workers given")
    resolved: list[tuple[str, int]] = []
    for entry in entries:
        if isinstance(entry, (tuple, list)):
            if len(entry) != 2:
                raise _workers_error(workers, f"{entry!r} is not a (host, port) pair")
            host, port_text = str(entry[0]), entry[1]
        else:
            text = str(entry).strip()
            if not text:
                raise _workers_error(workers, "empty worker entry")
            host, colon, port_text = text.rpartition(":")
            if not colon:
                raise _workers_error(workers, f"{text!r} has no ':port'")
        host = host.strip()
        if not host:
            raise _workers_error(workers, f"empty host in {entry!r}")
        try:
            port = int(port_text, 10) if isinstance(port_text, str) else operator.index(port_text)
        except (TypeError, ValueError):
            raise _workers_error(
                workers, f"port {port_text!r} is not an integer"
            ) from None
        low, high = _PORT_RANGE
        if not low <= port <= high:
            raise _workers_error(
                workers, f"port {port} is outside {low}..{high}"
            )
        resolved.append((host, port))
    return resolved


def plan_batches(
    costs, jobs: int, batches_per_worker: int = _BATCHES_PER_WORKER
) -> list[list[int]]:
    """Cost-balanced, contiguous chunk batches, in chunk order.

    Partitions chunk indices ``0..len(costs)-1`` into at most
    ``jobs * batches_per_worker`` **contiguous** segments whose
    estimated costs are as even as a greedy prefix walk can make them:
    contiguity keeps each worker's page faults sequential (what the OS
    readahead rewards), and the cost-equalized split — not submission
    order — is what keeps one dense straggler from serializing a scan.
    Batches stay in chunk order because consumers drain results in
    chunk order: pool workers pull tasks FIFO, so completion tracks
    submission and the driver's reorder window stays a few batches deep
    instead of buffering most of the scan behind a late first chunk.
    Purely a schedule: results are re-assembled in chunk order
    regardless, so the plan can never change what a scan returns.

    >>> plan_batches([4, 4, 4, 4], jobs=2, batches_per_worker=1)
    [[0, 1], [2, 3]]
    >>> plan_batches([1, 1, 8, 1, 1], jobs=2, batches_per_worker=2)
    [[0, 1], [2], [3], [4]]
    >>> plan_batches([], jobs=4)
    []
    """
    count = len(costs)
    if count == 0:
        return []
    target_batches = max(1, min(count, jobs * batches_per_worker))
    batches: list[list[int]] = []
    batch: list[int] = []
    batch_cost = 0
    remaining = sum(costs)  # cost not yet sealed into a closed batch
    for index, cost in enumerate(costs):
        batches_left = target_batches - len(batches)
        # Seal the batch before a chunk that would push it past an even
        # share of the remaining cost (the last batch takes everything).
        if (
            batch
            and batches_left > 1
            and batch_cost + cost > remaining / batches_left
        ):
            batches.append(batch)
            remaining -= batch_cost
            batch, batch_cost = [], 0
        batch.append(index)
        batch_cost += cost
    batches.append(batch)
    return batches
