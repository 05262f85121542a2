"""The ``repro experiments`` orchestrator: schema, parity, docs injection."""

from __future__ import annotations

import json
import platform

import pytest

from repro.experiments import (
    SCHEMA,
    SUITES,
    available_suites,
    render_tables,
    run_suite,
    update_experiments_md,
)

_MARKED = "\n".join(
    [
        "# EXPERIMENTS",
        "",
        "<!-- experiments:smoke:begin -->",
        "_stale_",
        "<!-- experiments:smoke:end -->",
        "",
    ]
)


def test_available_suites_cover_registry():
    suites = available_suites()
    assert set(suites) == set(SUITES)
    assert all(isinstance(desc, str) and desc for desc in suites.values())


def test_unknown_suite_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", output_dir=tmp_path, docs_path=None)


def test_smoke_suite_payload_schema_and_report(tmp_path):
    payload = run_suite("smoke", seed=0, output_dir=tmp_path, docs_path=None)

    assert payload["schema"] == SCHEMA
    assert payload["suite"] == "smoke"
    assert payload["seed"] == 0
    assert payload["command"] == "python -m repro experiments --suite smoke --seed 0"
    assert {"python", "numpy", "platform"} <= set(payload["environment"])
    # OS and architecture, never the kernel release.
    assert payload["environment"]["platform"] == (
        f"{platform.system()}-{platform.machine()}"
    )
    assert payload["rows"] and payload["tables"]

    # Parity rows all matched, and the accounting row is bounded.
    parity = [r for r in payload["rows"] if "match" in r]
    assert parity and all(r["match"] for r in parity)
    accounting = [r for r in payload["rows"] if r.get("check") == "accounting"]
    assert accounting and accounting[0]["bounded"]
    assert accounting[0]["peak_words"] < accounting[0]["repository_words"]

    # Sharded space exceeds in-memory space by exactly the chunk buffer.
    for row in parity:
        assert (
            row["peak_words_sharded"]
            == row["peak_words_memory"] + row["buffer_words"]
        )

    # The JSON report on disk round-trips.
    on_disk = json.loads((tmp_path / "EXPERIMENTS_smoke.json").read_text())
    assert on_disk["schema"] == SCHEMA
    assert on_disk["rows"] == json.loads(json.dumps(payload["rows"]))


def test_docs_injection_replaces_marker_block(tmp_path):
    docs = tmp_path / "EXPERIMENTS.md"
    docs.write_text(_MARKED)
    payload = run_suite("smoke", seed=1, output_dir=tmp_path, docs_path=docs)

    text = docs.read_text()
    assert "_stale_" not in text
    assert "--suite smoke --seed 1" in text
    assert f"`{SCHEMA}`" in text
    for title in payload["tables"]:
        assert title in text
    # Markers survive, so the block is re-injectable.
    assert "<!-- experiments:smoke:begin -->" in text
    assert "<!-- experiments:smoke:end -->" in text

    # Re-running replaces rather than duplicates.
    update_experiments_md(docs, payload)
    assert docs.read_text().count("--suite smoke --seed 1") == 1


def test_docs_injection_requires_markers(tmp_path):
    docs = tmp_path / "EXPERIMENTS.md"
    docs.write_text("# no markers here\n")
    payload = {"suite": "smoke", "seed": 0, "tables": {}, "notes": []}
    with pytest.raises(ValueError, match="marker block"):
        update_experiments_md(docs, payload)


def test_render_tables_carries_provenance():
    payload = {
        "suite": "parity",
        "seed": 9,
        "tables": {"T": "| a |\n|---|\n| 1 |"},
        "notes": ["note"],
    }
    block = render_tables(payload)
    assert "--suite parity --seed 9" in block
    assert "EXPERIMENTS_parity.json" in block
    assert "**T**" in block and "_note_" in block


def test_repo_experiments_md_has_marker_blocks_for_all_persistent_suites():
    """EXPERIMENTS.md can absorb every suite the orchestrator may write."""
    from pathlib import Path

    text = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
    for suite in SUITES:
        if suite == "smoke":  # CI-only, keeps no block in the repo docs
            continue
        assert f"<!-- experiments:{suite}:begin -->" in text, suite
        assert f"<!-- experiments:{suite}:end -->" in text, suite
