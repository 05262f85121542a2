"""Named instance rosters shared by the experiment suites and the tests.

:data:`SCALES` maps a roster name to ``(name, workload, params)``
entries; :func:`build_instance` materializes one entry, so a recorded
``(workload, params, seed)`` triple pins the exact instance.
"""

from __future__ import annotations

from repro.setsystem.set_system import SetSystem
from repro.workloads.random_instances import (
    planted_instance,
    sparse_uniform_instance,
    uniform_random_instance,
)
from repro.workloads.skewed import zipf_instance

__all__ = ["SCALES", "build_instance"]

#: Instance roster per scale: (name, workload, params).
SCALES = {
    "paper": [
        ("planted_n100_m200", "planted", dict(n=100, m=200, opt=8)),
        ("uniform_n500_m1000", "uniform", dict(n=500, m=1000, density=0.02)),
        # The acceptance instance: dense decoys (as large as the planted
        # parts) put greedy in its hard, churn-heavy regime.
        ("planted_n2000_m4000", "planted",
         dict(n=2000, m=4000, opt=8, decoy_fraction_of_part=1.0)),
    ],
    # The out-of-core regime: instances at the n ~ 5*10^4, m ~ 2*10^5
    # scale of the streaming literature, run through the sharded
    # repository (DESIGN.md §5).
    "large": [
        ("planted_n50000_m200000", "planted",
         dict(n=50_000, m=200_000, opt=100, decoy_fraction_of_part=0.05)),
        ("sparse_n50000_m200000", "sparse_uniform",
         dict(n=50_000, m=200_000, expected_size=12)),
        ("zipf_n50000_m200000", "zipf",
         dict(n=50_000, m=200_000, exponent=1.2, max_set_fraction=0.005)),
    ],
}


def build_instance(workload: str, params: dict, seed: int) -> tuple[SetSystem, "int | None"]:
    """Materialize one roster entry; returns ``(system, known_opt_or_None)``.

    >>> system, opt = build_instance("planted", dict(n=20, m=10, opt=2), seed=0)
    >>> system.n, system.m, opt
    (20, 10, 2)
    """
    if workload == "planted":
        planted = planted_instance(
            params["n"],
            params["m"],
            opt=params["opt"],
            seed=seed,
            decoy_fraction_of_part=params.get("decoy_fraction_of_part", 0.6),
        )
        return planted.system, planted.opt
    if workload == "uniform":
        return (
            uniform_random_instance(
                params["n"], params["m"], density=params["density"], seed=seed
            ),
            None,
        )
    if workload == "sparse_uniform":
        return (
            sparse_uniform_instance(
                params["n"],
                params["m"],
                expected_size=params.get("expected_size", 10.0),
                seed=seed,
            ),
            None,
        )
    if workload == "zipf":
        return (
            zipf_instance(
                params["n"],
                params["m"],
                exponent=params.get("exponent", 1.2),
                max_set_fraction=params.get("max_set_fraction", 0.3),
                seed=seed,
            ),
            None,
        )
    raise ValueError(f"unknown workload {workload!r}")
