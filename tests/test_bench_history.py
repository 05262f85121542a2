"""Bench trajectory: BENCH_history.jsonl appending, peak RSS."""

from __future__ import annotations

import json

import pytest

from repro.bench import HISTORY_NAME, HISTORY_SCHEMA, SCHEMA, run_benchmarks
from repro.engine import shutdown_pools


@pytest.fixture(scope="module")
def smoke_payloads(tmp_path_factory):
    """Two smoke-scale runs into one directory (shared: bench is slow)."""
    out_dir = tmp_path_factory.mktemp("bench")
    report = out_dir / "BENCH_kernels.json"
    payloads = [
        run_benchmarks(scale="smoke", repeats=1, output=report, jobs=2)
        for _ in range(2)
    ]
    shutdown_pools()
    return out_dir, report, payloads


def test_report_rows_carry_peak_rss(smoke_payloads):
    _, report, payloads = smoke_payloads
    payload = payloads[-1]
    assert payload["schema"] == SCHEMA
    assert json.loads(report.read_text())["schema"] == SCHEMA
    rss = [row["peak_rss_bytes"] for row in payload["results"]]
    assert all(value is None or value > 0 for value in rss)
    assert any(value is not None for value in rss)  # POSIX CI boxes


def test_history_appends_one_line_per_run(smoke_payloads):
    out_dir, _, payloads = smoke_payloads
    lines = (out_dir / HISTORY_NAME).read_text().splitlines()
    assert len(lines) == len(payloads)
    for line in lines:
        entry = json.loads(line)
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["recorded_unix"] > 0
        assert entry["scale"] == "smoke"
        assert entry["parallel_parity"]["identical"]
        assert entry["peak_rss_bytes"]  # per-benchmark high-water marks
        assert "scan_parallel_gains" in entry["best_speedups"]
        assert entry["scan_parallel"]  # the executor sweep, absolute seconds


def test_no_history_written_without_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_benchmarks(scale="smoke", repeats=1, output=None, jobs=1)
    shutdown_pools()
    assert not (tmp_path / HISTORY_NAME).exists()
