"""Subprocess entry point for the crash-injection harness (DESIGN.md §12).

``tests/test_durability.py`` builds its fixtures in the parent pytest
process with no ``REPRO_CRASHPOINT`` in the environment, then runs *one*
storage operation here with the variable set — so the injected
``os._exit`` (or ``ENOSPC``) fires inside exactly the operation under
test and never during fixture setup.  The parent asserts on the exit
status (:data:`repro.setsystem.durability.CRASHPOINT_EXIT_CODE` for a
simulated crash) and on the on-disk state left behind.

Operations (first argv token):

``create DEST SYSTEM.json CHUNK_ROWS``
    ``write_shards`` of a saved :class:`~repro.setsystem.SetSystem`.
``delta ROOT OPS.json``
    ``apply_delta`` of one churn batch.
``compact ROOT``
    In-place intent-journaled ``compact``.
``compact-online ROOT``
    Online ``compact(online=True)`` (lock-free staging, journaled
    swing, leased reclaim).
``compact-output ROOT DEST``
    Side-output ``compact`` (source must stay untouched).
``open-hold ROOT``
    ``open_repository`` and exit without closing — leaves a lease whose
    holder pid is dead (crash-debris twin of a reader crash).
``checkpoint ROOT CKPT OPS.json``
    Restore a :class:`~repro.dynamic.DynamicCover` from ``CKPT``, apply
    the ops in memory, re-checkpoint to the same path.

Run only via ``subprocess`` from the tests; importing it is harmless.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv: "list[str]") -> int:
    operation, *rest = argv
    if operation == "create":
        from repro.setsystem.io import load
        from repro.setsystem.shards import write_shards

        dest, system_path, chunk_rows = rest
        write_shards(dest, load(system_path), chunk_rows=int(chunk_rows))
        return 0
    if operation == "delta":
        from repro.setsystem.deltas import apply_delta

        root, ops_path = rest
        apply_delta(root, json.loads(Path(ops_path).read_text()))
        return 0
    if operation == "compact":
        from repro.setsystem.deltas import compact

        (root,) = rest
        compact(root)
        return 0
    if operation == "compact-online":
        from repro.setsystem.deltas import compact

        (root,) = rest
        compact(root, online=True)
        return 0
    if operation == "compact-output":
        from repro.setsystem.deltas import compact

        root, dest = rest
        compact(root, output=dest)
        return 0
    if operation == "open-hold":
        import os

        from repro.setsystem.deltas import open_repository

        (root,) = rest
        open_repository(root)
        os._exit(0)  # skip close(): the lease survives as dead-pid debris
        return 0
    if operation == "checkpoint":
        from repro.dynamic import DynamicCover

        root, ckpt, ops_path = rest
        cover = DynamicCover.restore(ckpt, root=root)
        cover.apply(json.loads(Path(ops_path).read_text()))
        cover.checkpoint(ckpt, root=root)
        return 0
    raise SystemExit(f"unknown driver operation {operation!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
