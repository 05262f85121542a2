"""Batch planning and knob resolution for the scan engine.

This module is the *scheduling* layer of :mod:`repro.engine` (DESIGN.md
§8, §9.1): it decides how a scan's chunks are grouped into remote work
units and how the ``--workers`` knob resolves into worker addresses —
and nothing else.  Plans are pure schedules: whatever this
module produces, the merge layer (:mod:`repro.engine.merge`) re-assembles
results in chunk order, so a plan can change wall-clock time but never a
result.

:func:`plan_batches` needs only the shard count.  The remote transport
(:mod:`repro.engine.transport.remote`) is the only consumer of the
plans; a serial scan runs one shard per step and needs none.
"""

from __future__ import annotations

import operator

__all__ = [
    "plan_batches",
    "resolve_workers",
]

#: Planner batching: batches per worker.  More batches load-balance
#: better, fewer batches amortize IPC better; 4 keeps the largest batch
#: near 25% of one worker's share.
_BATCHES_PER_WORKER = 4

#: TCP ports a ``--workers`` entry may name.
_PORT_RANGE = (1, 65535)


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
    CLI flag that usually feeds this knob, so argparse surfaces it as a
    usage error.

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
    count: int, jobs: int, batches_per_worker: int = _BATCHES_PER_WORKER
) -> list[list[int]]:
    """Even, contiguous chunk batches, in chunk order.

    Partitions chunk indices ``0..count-1`` into
    ``min(count, jobs * batches_per_worker)`` **contiguous** runs whose
    sizes differ by at most one.  Contiguity keeps each worker's page
    faults sequential (what the OS readahead rewards); lanes pull the
    batches off one shared queue, so a slow lane or a dense batch just
    means that lane pulls fewer.  Batches stay in chunk order because
    consumers drain results in chunk order, so the driver's reorder
    window stays a few batches deep.  Purely a schedule: results are
    re-assembled in chunk order regardless, so the plan can never change
    what a scan returns.

    >>> plan_batches(4, jobs=2, batches_per_worker=1)
    [[0, 1], [2, 3]]
    >>> plan_batches(5, jobs=2, batches_per_worker=1)
    [[0, 1], [2, 3, 4]]
    >>> plan_batches(0, jobs=4)
    []
    """
    if count == 0:
        return []
    target = min(count, max(1, jobs * batches_per_worker))
    bounds = [index * count // target for index in range(target + 1)]
    return [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
