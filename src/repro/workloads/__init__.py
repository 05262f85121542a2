"""Workload generators for benchmarks, examples and tests."""

from repro.workloads.churn import ChurnScript, delete_storm, rolling_blog_watch
from repro.workloads.coverage import blog_watch_instance
from repro.workloads.random_instances import (
    PlantedInstance,
    planted_instance,
    sparse_uniform_instance,
    uniform_random_instance,
)
from repro.workloads.roster import SCALES, build_instance
from repro.workloads.skewed import (
    nested_chain_instance,
    threshold_trap_instance,
    zipf_instance,
)

__all__ = [
    "SCALES",
    "ChurnScript",
    "PlantedInstance",
    "blog_watch_instance",
    "build_instance",
    "delete_storm",
    "nested_chain_instance",
    "planted_instance",
    "rolling_blog_watch",
    "sparse_uniform_instance",
    "threshold_trap_instance",
    "uniform_random_instance",
    "zipf_instance",
]
