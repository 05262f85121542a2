"""Sampling primitives: relative (p, eps)-approximations and element sampling."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".element_sampling": [
        "element_sample",
        "element_sample_size",
        "project_onto_sample",
    ],
    ".epsilon_net": [
        "draw_epsilon_net",
        "epsilon_net_size",
        "is_epsilon_net",
        "net_violators",
    ],
    ".relative_approximation": [
        "RelativeApproximationCheck",
        "draw_sample",
        "is_relative_approximation",
        "relative_approximation_size",
        "violating_ranges",
    ],
    ".vc_dimension": [
        "is_shattered",
        "shatter_counts",
        "vc_dimension",
        "vc_dimension_upper_bound",
    ],
})
