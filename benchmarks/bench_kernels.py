"""K1 — packed bitmask kernel layer: big-int vs frozenset (DESIGN.md §4.3).

Runs the `repro.bench` harness at smoke scale so CI validates the
`BENCH_kernels.json` schema on every run, and renders the big-int vs
frozenset-reference speedup table into the reports directory.  The real numbers (paper/full
scale) come from ``python -m repro bench``.
"""

from __future__ import annotations

import json

from repro.bench import SCHEMA, render_summary, run_benchmarks

_EXPECTED_BENCHMARKS = {
    "pack_build",
    "union",
    "gains",
    "is_cover",
    "project",
    "without_dominated_sets",
    "greedy_cover",
    "iter_set_cover",
}
#: The out-of-core row families, labelled by encoding / executor / cache
#: state rather than by representation.
_SHARDED_BENCHMARKS = {
    "encode_write",
    "scan_parallel_gains",
    "scan_cached_pass",
    "delta_apply",
    "delta_compact",
    "dynamic_maintain",
}


def test_kernel_bench_smoke(tmp_path, write_report):
    output = tmp_path / "BENCH_kernels.json"
    payload = run_benchmarks(scale="smoke", repeats=1, output=output)

    # Schema contract: what `python -m repro bench` promises in DESIGN.md §4.3.
    assert payload["schema"] == SCHEMA
    assert {"scale", "repeats", "environment", "instances", "results", "summary"} <= set(
        payload
    )
    for row in payload["results"]:
        assert set(row) == {
            "benchmark", "instance", "backend", "seconds", "repeats",
            "peak_rss_bytes",
        }
        assert row["seconds"] >= 0
        if row["benchmark"] in _EXPECTED_BENCHMARKS:
            assert row["backend"] in {"frozenset", "python"}
    assert {row["benchmark"] for row in payload["results"]} == (
        _EXPECTED_BENCHMARKS | _SHARDED_BENCHMARKS
    )

    # Speedup fields are present wherever a frozenset baseline exists
    # (pack_build is cost-only: packing has no frozenset counterpart).
    for benchmark, instances in payload["summary"].items():
        if benchmark == "pack_build":
            continue
        for entry in instances.values():
            if "frozenset_seconds" in entry and "python_seconds" in entry:
                assert "python_speedup" in entry

    # The written file round-trips.
    on_disk = json.loads(output.read_text())
    assert on_disk["schema"] == SCHEMA
    assert on_disk["results"] == payload["results"]

    write_report("K1_kernel_backends", render_summary(payload))
