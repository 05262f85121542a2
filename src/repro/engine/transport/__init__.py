"""Transport backends for the scan engine.

One module per execution substrate, both implementing the
:class:`~repro.engine.transport.base.ScanExecutor` protocol:

======= =================================================== ==========
backend substrate                                           module
======= =================================================== ==========
serial  inline, in order, no threads                        serial.py
remote  TCP worker fleet (``python -m repro worker serve``) remote.py
======= =================================================== ==========

Serial reads shards in order; the remote fleet runs cost-balanced
batches from :mod:`repro.engine.plan`.  :func:`executor_for` derives the
backend from whether ``workers`` are given.  Both backends share the
merge layer (:mod:`repro.engine.merge`), which is why results are
bit-identical across them.
"""

from __future__ import annotations

from repro.engine.transport.base import ScanExecutor
from repro.engine.transport.remote import (
    RemoteScanExecutor,
    StaleRepositoryError,
    WorkerFaultError,
    WorkerServer,
    ping_worker,
    spawn_local_worker,
)
from repro.engine.transport.serial import SerialScanExecutor

__all__ = [
    "RemoteScanExecutor",
    "StaleRepositoryError",
    "ScanExecutor",
    "SerialScanExecutor",
    "WorkerFaultError",
    "WorkerServer",
    "executor_for",
    "ping_worker",
    "spawn_local_worker",
]


def executor_for(workers=None, retry=None) -> ScanExecutor:
    """The serial executor, or the remote one when ``workers`` are given.

    ``workers`` takes anything :func:`repro.engine.plan.resolve_workers`
    accepts.  ``retry`` (anything
    :meth:`repro.engine.fault.RetryPolicy.resolve` accepts) sets the
    remote transport's failure handling; without workers it is a
    ``ValueError``, since local faults are crashes, not retriable
    events.  Results never depend on either knob.

    >>> executor_for().transport
    'serial'
    >>> executor_for(workers="127.0.0.1:9041").jobs
    1
    """
    if workers is not None:
        return RemoteScanExecutor(workers, retry=retry)
    if retry is not None:
        raise ValueError(
            "retry only applies to remote workers (the --retry-* flags "
            "pair with --workers the same way)"
        )
    return SerialScanExecutor()
