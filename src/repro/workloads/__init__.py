"""Workload generators for benchmarks, examples and tests."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".churn": ["ChurnScript", "delete_storm", "rolling_blog_watch"],
    ".coverage": ["blog_watch_instance"],
    ".random_instances": [
        "PlantedInstance",
        "planted_instance",
        "sparse_uniform_instance",
        "uniform_random_instance",
    ],
    ".roster": ["SCALES", "build_instance"],
    ".skewed": [
        "nested_chain_instance",
        "threshold_trap_instance",
        "zipf_instance",
    ],
})
