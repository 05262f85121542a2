"""Benchmark inputs: generate an instance file, probe a repository, check covers.

Run as a script from the repository root (``src`` on ``PYTHONPATH``)::

    python3 perfbench/instances.py generate FAMILY PARAMS_JSON SEED OUT META
    python3 perfbench/instances.py probe SHARD_DIR
    python3 perfbench/instances.py check INSTANCE COVERS_JSON

Each command runs in its own process so that the benchmark's parent
process stays small: a child's ``ru_maxrss`` also counts the memory its
parent had mapped when it was spawned.

``check`` is the correctness referee. It reads the instance JSON with the
standard library only and takes plain unions, so no ``repro`` code stands
between a solve's printed cover and its verdict.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def generate(family: str, params: dict, seed: int, out: str, meta: str) -> None:
    """Write ``family(**params, seed=seed)`` to ``out`` and its shape to ``meta``."""
    from repro.setsystem import save
    from repro.workloads import (
        planted_instance,
        sparse_uniform_instance,
        zipf_instance,
    )

    planted_opt = None
    if family == "planted":
        planted = planted_instance(seed=seed, **params)
        system, planted_opt = planted.system, planted.opt
    elif family == "zipf":
        system = zipf_instance(seed=seed, **params)
    elif family == "sparse_uniform":
        system = sparse_uniform_instance(seed=seed, **params)
    else:
        raise ValueError(f"unknown instance family {family!r}")
    save(system, out)
    with open(meta, "w") as handle:
        json.dump({"n": system.n, "m": system.m, "planted_opt": planted_opt}, handle)


def probe(root: str) -> dict:
    """What the solve's ``auto`` knobs resolve to on this repository and host."""
    import numpy

    # Importing the CLI here also leaves its modules compiled, so that the
    # first timed solve of a fresh checkout does not pay for that.
    import repro.cli  # noqa: F401
    from repro.engine import resolve_cache_bytes
    from repro.streaming.sharded import ShardedSetStream

    stream = ShardedSetStream(root)
    try:
        return {
            "shards": stream.repository.shard_count,
            "transport.jobs": stream.jobs,
            "cache_budget_bytes": resolve_cache_bytes("auto"),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
    finally:
        stream.close()


def check(instance: str, covers: list) -> list:
    """For each cover (a list of set ids): how many elements it leaves uncovered.

    An id outside the family counts as one uncovered element, so a
    malformed cover can never pass.
    """
    with open(instance) as handle:
        doc = json.load(handle)
    n, sets = int(doc["n"]), doc["sets"]
    verdicts = []
    for cover in covers:
        covered: set = set()
        bad_ids = 0
        for set_id in cover:
            if isinstance(set_id, int) and 0 <= set_id < len(sets):
                covered.update(sets[set_id])
            else:
                bad_ids += 1
        missing = sum(1 for element in range(n) if element not in covered)
        verdicts.append({"missing": missing + bad_ids})
    return verdicts


def main(argv: list) -> int:
    command, args = argv[0], argv[1:]
    if command == "generate":
        family, params, seed, out, meta = args
        generate(family, json.loads(params), int(seed), out, meta)
    elif command == "probe":
        print(json.dumps(probe(args[0])))
    elif command == "check":
        instance, covers = args
        with open(covers) as handle:
            print(json.dumps(check(instance, json.load(handle))))
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
