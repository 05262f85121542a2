"""Scenario-suite orchestrator: ``python -m repro experiments``.

This module runs *named scenario suites* — reproducible experiment
campaigns over the workload generators — and records every run in
machine-readable JSON plus regenerated markdown tables in
EXPERIMENTS.md.  Each suite:

* builds its instances deterministically from ``(workload, params, seed)``
  via :func:`repro.workloads.build_instance`, so a recorded seed pins the
  exact inputs;
* runs its algorithms through the pass-counted stream protocol — most
  suites through :class:`~repro.streaming.sharded.ShardedSetStream`, i.e.
  the out-of-core path, with the ``parity`` suite asserting
  cover-for-cover, pass-for-pass agreement against the in-memory
  :class:`~repro.streaming.stream.SetStream`;
* emits ``EXPERIMENTS_<suite>.json`` (schema ``repro.experiments/v1``)
  holding the command line, seed, environment, raw rows and rendered
  tables;
* injects the rendered tables between ``<!-- experiments:<suite>:begin/end -->``
  markers in EXPERIMENTS.md, each stamped with the exact command, seed
  and schema version that produced it.

Suites
------
``smoke``
    Seconds-fast parity + accounting check (CI guard).
``parity``
    Sharded vs in-memory equality on the ``paper`` roster: same
    covers, same pass counts, for iterSetCover, threshold greedy and the
    partial variants.  Mismatches raise — the suite *proves* parity.
``tradeoff``
    Theorem 2.8's pass/space trade-off: a delta sweep of iterSetCover
    over the sharded acceptance instance.
``single_pass``
    The low-pass rows of Figure 1.1 (store-all, [SG09], [ER14], partial
    threshold) on planted and skewed instances; the passes column shows
    what each baseline actually consumed.
``partial``
    eps-Partial Set Cover: coverage-slack sweep for the multi-pass and
    one-pass partial algorithms.
``large``
    The out-of-core regime (n = 5*10^4, m = 2*10^5): instances that run
    exclusively through ShardedSetStream, with resident memory asserted
    to be chunk buffer + algorithm state — never repository size
    (DESIGN.md §3.6).
``dynamic``
    Churn regimes (rolling blog-watch, adversarial delete storms) driving
    the delta-shard chain and the :class:`~repro.dynamic.DynamicCover`
    maintainer in lockstep: every generation asserts the merged view
    equals the reference merge and the maintained cover is valid within
    the documented factor; the suite also asserts the maintainer stays
    incremental on >= 90% of updates and that compaction is bit-identical
    to a from-scratch rewrite (DESIGN.md §11).
"""

from __future__ import annotations

import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.baselines import EmekRosen, SahaGetoor, StoreAllGreedy, ThresholdGreedy
from repro.core import IterSetCoverConfig, iter_set_cover
from repro.partial.streaming import PartialIterSetCover, PartialThreshold
from repro.setsystem.shards import ShardedRepository, write_shards
from repro.streaming.sharded import ShardedSetStream
from repro.streaming.stream import SetStream
from repro.workloads import SCALES, build_instance

__all__ = [
    "SCHEMA",
    "SUITES",
    "available_suites",
    "render_tables",
    "run_suite",
    "update_experiments_md",
]

SCHEMA = "repro.experiments/v1"

#: Marker pair delimiting a suite's autogenerated block in EXPERIMENTS.md.
_MARKER = "<!-- experiments:{suite}:{edge} -->"

#: Small slack (loop counters, scalars) allowed by the accounting asserts.
_ACCOUNTING_SLACK_WORDS = 64


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------
def _markdown_table(headers: list[str], rows: list[list]) -> str:
    def fmt(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3g}"
        return str(value)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


def _command_line(suite: str, seed: int) -> str:
    return f"python -m repro experiments --suite {suite} --seed {seed}"


def _provenance(suite: str, seed: int) -> str:
    return (
        f"_Regenerated by `{_command_line(suite, seed)}` "
        f"(schema `{SCHEMA}`, raw rows in `EXPERIMENTS_{suite}.json`)._"
    )


def render_tables(payload: dict) -> str:
    """The markdown block injected into EXPERIMENTS.md for one suite."""
    parts = [_provenance(payload["suite"], payload["seed"])]
    for title, table in payload["tables"].items():
        parts.append(f"**{title}**\n\n{table}")
    for note in payload.get("notes", []):
        parts.append(f"_{note}_")
    return "\n\n".join(parts)


def update_experiments_md(docs_path: "str | Path", payload: dict) -> None:
    """Replace the suite's marker block in EXPERIMENTS.md with fresh tables."""
    docs_path = Path(docs_path)
    suite = payload["suite"]
    begin = _MARKER.format(suite=suite, edge="begin")
    end = _MARKER.format(suite=suite, edge="end")
    text = docs_path.read_text()
    if begin not in text or end not in text:
        raise ValueError(
            f"{docs_path} has no '{begin}' ... '{end}' marker block; "
            "EXPERIMENTS.md must contain one per suite"
        )
    pattern = re.compile(
        re.escape(begin) + r".*?" + re.escape(end), flags=re.DOTALL
    )
    replacement = f"{begin}\n{render_tables(payload)}\n{end}"
    docs_path.write_text(pattern.sub(lambda _: replacement, text, count=1))


# ----------------------------------------------------------------------
# Shared execution helpers
# ----------------------------------------------------------------------
def _iter_config(delta: float = 0.5) -> IterSetCoverConfig:
    """The experiment-scale iterSetCover configuration (DESIGN.md §3.2)."""
    return IterSetCoverConfig(
        delta=delta, use_polylog_factors=False, include_rho=False
    )


def _algorithms(seed: int) -> list[tuple[str, "callable"]]:
    """The algorithm roster of the parity suites (fresh instance per call)."""
    return [
        (
            "iterSetCover (delta=0.5)",
            lambda stream: iter_set_cover(
                stream, delta=0.5, seed=seed,
                use_polylog_factors=False, include_rho=False,
            ),
        ),
        (
            "greedy (threshold)",
            lambda stream: ThresholdGreedy().solve(stream),
        ),
        (
            "partial iter (eps=0.1)",
            lambda stream: PartialIterSetCover(
                eps=0.1, config=_iter_config(), seed=seed
            ).solve(stream),
        ),
        (
            "partial threshold (eps=0.1)",
            lambda stream: PartialThreshold(eps=0.1).solve(stream),
        ),
    ]


def _parity_rows(
    roster: list[tuple[str, str, dict]],
    seed: int,
    chunk_rows: "int | None" = None,
) -> list[dict]:
    """Run every (instance, algorithm) pair on both streams; assert parity."""
    rows: list[dict] = []
    for name, workload, params in roster:
        system, opt = build_instance(workload, params, seed)
        with tempfile.TemporaryDirectory(prefix="repro-parity-") as tmp:
            path = write_shards(Path(tmp) / name, system, chunk_rows=chunk_rows)
            with ShardedRepository(path) as repo:
                for algo_name, run in _algorithms(seed):
                    in_memory = run(SetStream(system))
                    sharded_stream = ShardedSetStream(repo)
                    sharded = run(sharded_stream)
                    if in_memory.selection != sharded.selection:
                        raise AssertionError(
                            f"cover mismatch on {name}/{algo_name}: "
                            f"{in_memory.selection} != {sharded.selection}"
                        )
                    if in_memory.passes != sharded.passes:
                        raise AssertionError(
                            f"pass-count mismatch on {name}/{algo_name}: "
                            f"{in_memory.passes} != {sharded.passes}"
                        )
                    rows.append(
                        {
                            "instance": name,
                            "n": system.n,
                            "m": system.m,
                            "opt": opt,
                            "algorithm": algo_name,
                            "solution_size": sharded.solution_size,
                            "passes": sharded.passes,
                            "feasible": sharded.feasible,
                            "peak_words_memory": in_memory.peak_memory_words,
                            "peak_words_sharded": sharded.peak_memory_words,
                            "buffer_words": sharded_stream.resident_words,
                            "match": True,
                        }
                    )
    return rows


def _parity_table(rows: list[dict]) -> str:
    return _markdown_table(
        ["instance", "algorithm", "\\|sol\\|", "passes",
         "space (in-mem)", "space (sharded)", "chunk buffer", "identical"],
        [
            [r["instance"], r["algorithm"], r["solution_size"], r["passes"],
             r["peak_words_memory"], r["peak_words_sharded"],
             r["buffer_words"], r["match"]]
            for r in rows
        ],
    )


def _assert_bounded(result, stream: ShardedSetStream, name: str) -> dict:
    """DESIGN.md §3.6: peak = chunk buffer + algorithm state, never O(input).

    Returns the accounting columns for the row; raises if the reported
    peak exceeds the resident model (buffer + O(n) state + solution),
    if the scan-capture scratch of an executor-driven run exceeds its
    one-chunk bound (DESIGN.md §6.1), or if the peak fails to stay
    below the repository size.
    """
    repo_words = stream.repository.repository_words
    buffer_words = stream.resident_words
    capture_words = result.extra.get("scan_capture_peak_words", 0)
    n = stream.n
    # Chunk-streamed replays hold at most one chunk's captured
    # projections: projections are subsets of the chunk's rows (at most
    # chunk_words element-words) plus one id per captured row.
    capture_bound = (
        stream.repository.chunk_words + stream.repository.chunk_rows
        + _ACCOUNTING_SLACK_WORDS
    )
    if capture_words > capture_bound:
        raise AssertionError(
            f"{name}: scan capture scratch {capture_words} words exceeds "
            f"the one-chunk bound {capture_bound} — the replay is not "
            "chunk-streamed"
        )
    state_bound = (
        buffer_words + 2 * n + 2 * result.solution_size + _ACCOUNTING_SLACK_WORDS
    )
    if result.peak_memory_words > state_bound:
        raise AssertionError(
            f"{name}: peak {result.peak_memory_words} words exceeds the "
            f"resident model (chunk buffer {buffer_words} + state bound)"
        )
    # The "resident stays below the repository" check is only meaningful
    # when the repository dwarfs the allowed state (toy smoke instances
    # can legitimately have peak ~ repository size).
    if repo_words > state_bound and result.peak_memory_words >= repo_words:
        raise AssertionError(
            f"{name}: peak {result.peak_memory_words} words is not below the "
            f"repository size {repo_words} — the run was not out-of-core"
        )
    return {
        "peak_words": result.peak_memory_words,
        "buffer_words": buffer_words,
        "scan_capture_words": capture_words,
        "repository_words": repo_words,
        "bounded": True,
    }


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
def _suite_smoke(seed: int) -> tuple[list[dict], dict, list[str]]:
    roster = [
        ("planted_n64_m48", "planted", dict(n=64, m=48, opt=4)),
        ("sparse_n50_m80", "sparse_uniform", dict(n=50, m=80, expected_size=4)),
    ]
    # Tiny chunks force several shards per instance, so the smoke suite
    # still exercises chunk-boundary logic.
    rows = _parity_rows(roster, seed, chunk_rows=7)
    system, _ = build_instance(*roster[1][1:], seed)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        path = write_shards(Path(tmp) / "bounded", system, chunk_rows=7)
        stream = ShardedSetStream(path)
        result = ThresholdGreedy().solve(stream)
        accounting = _assert_bounded(result, stream, "smoke/bounded")
        stream.close()
    tables = {
        "Sharded vs in-memory parity (smoke roster)": _parity_table(rows),
        "Resident-memory accounting (smoke)": _markdown_table(
            ["algorithm", "peak words", "chunk buffer", "repository words", "bounded"],
            [["greedy (threshold)", accounting["peak_words"],
              accounting["buffer_words"], accounting["repository_words"],
              accounting["bounded"]]],
        ),
    }
    rows.append({"check": "accounting", **accounting})
    return rows, tables, []


def _suite_parity(seed: int) -> tuple[list[dict], dict, list[str]]:
    rows = _parity_rows(SCALES["paper"], seed)
    notes = [
        "Every row asserts identical covers and identical pass counts "
        "between SetStream and ShardedSetStream; a mismatch fails the "
        "suite. The sharded space column exceeds the in-memory one by "
        "exactly the resident chunk buffer (DESIGN.md §3.6).",
    ]
    return rows, {"Sharded vs in-memory parity (paper roster)": _parity_table(rows)}, notes


def _suite_tradeoff(seed: int) -> tuple[list[dict], dict, list[str]]:
    name, workload, params = SCALES["paper"][-1]  # the acceptance instance
    system, opt = build_instance(workload, params, seed)
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-tradeoff-") as tmp:
        path = write_shards(Path(tmp) / name, system)
        with ShardedRepository(path) as repo:
            for delta in (1.0, 0.5, 1 / 3, 0.25):
                stream = ShardedSetStream(repo)
                result = iter_set_cover(
                    stream, delta=delta, seed=seed,
                    use_polylog_factors=False, include_rho=False,
                )
                rows.append(
                    {
                        "instance": name,
                        "delta": round(delta, 4),
                        "passes": result.passes,
                        "cleanup_passes": result.cleanup_passes,
                        "peak_words": result.peak_memory_words,
                        "solution_size": result.solution_size,
                        "opt": opt,
                        "ratio": round(result.solution_size / opt, 3),
                        "feasible": result.feasible,
                    }
                )
    table = _markdown_table(
        ["delta", "passes", "cleanup", "space (words)", "\\|sol\\|", "opt", "ratio"],
        [[r["delta"], r["passes"], r["cleanup_passes"], r["peak_words"],
          r["solution_size"], r["opt"], r["ratio"]] for r in rows],
    )
    notes = [
        f"Instance: {name} (planted, n={system.n}, m={system.m}, opt={opt}), "
        "run out-of-core through ShardedSetStream. Smaller delta buys fewer "
        "sets per iteration at the price of more passes — the Theorem 2.8 "
        "trade-off.",
    ]
    return rows, {"Pass/space trade-off (delta sweep, sharded)": table}, notes


def _suite_single_pass(seed: int) -> tuple[list[dict], dict, list[str]]:
    roster = [
        ("planted_n500_m1000", "planted", dict(n=500, m=1000, opt=8)),
        ("zipf_n500_m800", "zipf", dict(n=500, m=800)),
    ]
    algorithms = [
        ("greedy (store-all)", lambda: StoreAllGreedy()),
        ("SG09", lambda: SahaGetoor()),
        ("ER14", lambda: EmekRosen()),
        ("partial threshold (eps=0)", lambda: PartialThreshold(eps=0.0)),
    ]
    rows: list[dict] = []
    for name, workload, params in roster:
        system, opt = build_instance(workload, params, seed)
        with tempfile.TemporaryDirectory(prefix="repro-onepass-") as tmp:
            path = write_shards(Path(tmp) / name, system)
            with ShardedRepository(path) as repo:
                for algo_name, make in algorithms:
                    stream = ShardedSetStream(repo)
                    result = make().solve(stream)
                    rows.append(
                        {
                            "instance": name,
                            "algorithm": algo_name,
                            "passes": result.passes,
                            "peak_words": result.peak_memory_words,
                            "solution_size": result.solution_size,
                            "feasible": result.feasible,
                            "opt": opt,
                        }
                    )
    table = _markdown_table(
        ["instance", "algorithm", "passes", "space (words)", "\\|sol\\|", "feasible"],
        [[r["instance"], r["algorithm"], r["passes"], r["peak_words"],
          r["solution_size"], r["feasible"]] for r in rows],
    )
    notes = [
        "The low-pass regime of Figure 1.1: store-all pays O(mn) words in "
        "one pass; the semi-streaming baselines trade solution quality "
        "(and, for [SG09], extra refinement passes) for space. All runs "
        "stream from the sharded repository.",
    ]
    return rows, {"Single-pass baselines (sharded)": table}, notes


def _suite_partial(seed: int) -> tuple[list[dict], dict, list[str]]:
    name, workload, params = (
        "planted_n1000_m2000", "planted", dict(n=1000, m=2000, opt=8),
    )
    system, opt = build_instance(workload, params, seed)
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-partial-") as tmp:
        path = write_shards(Path(tmp) / name, system)
        with ShardedRepository(path) as repo:
            for eps in (0.05, 0.1, 0.2, 0.4):
                for algo_name, make in (
                    (
                        "partial iterSetCover",
                        lambda eps=eps: PartialIterSetCover(
                            eps=eps, config=_iter_config(), seed=seed
                        ),
                    ),
                    ("partial threshold", lambda eps=eps: PartialThreshold(eps=eps)),
                ):
                    stream = ShardedSetStream(repo)
                    result = make().solve(stream)
                    rows.append(
                        {
                            "instance": name,
                            "algorithm": algo_name,
                            "eps": eps,
                            "passes": result.passes,
                            "peak_words": result.peak_memory_words,
                            "solution_size": result.solution_size,
                            "uncovered_left": result.extra.get(
                                "uncovered_left",
                                system.n - result.extra.get("covered", system.n),
                            ),
                            "feasible": result.feasible,
                        }
                    )
    table = _markdown_table(
        ["algorithm", "eps", "passes", "space (words)", "\\|sol\\|", "uncovered left"],
        [[r["algorithm"], r["eps"], r["passes"], r["peak_words"],
          r["solution_size"], r["uncovered_left"]] for r in rows],
    )
    notes = [
        f"Instance: {name} (planted, n={system.n}, m={system.m}, opt={opt}), "
        "sharded. Larger coverage slack eps saves iterations (multi-pass) "
        "and picks (one-pass) — the E11 effect, now out-of-core.",
    ]
    return rows, {"eps-Partial Set Cover (sharded)": table}, notes


def _suite_large(seed: int) -> tuple[list[dict], dict, list[str]]:
    rows: list[dict] = []
    for name, workload, params in SCALES["large"]:
        system, opt = build_instance(workload, params, seed)
        total_words = system.total_size()
        with tempfile.TemporaryDirectory(prefix="repro-large-") as tmp:
            path = write_shards(Path(tmp) / name, system)
            del system  # the algorithms must only see the on-disk repository
            with ShardedRepository(path) as repo:
                for algo_name, make in (
                    ("greedy (threshold)", lambda: ThresholdGreedy()),
                    ("partial threshold (eps=0.1)", lambda: PartialThreshold(eps=0.1)),
                ):
                    stream = ShardedSetStream(repo)
                    result = make().solve(stream)
                    if not result.feasible:
                        raise AssertionError(f"{name}/{algo_name} did not finish")
                    accounting = _assert_bounded(result, stream, f"{name}/{algo_name}")
                    rows.append(
                        {
                            "instance": name,
                            "workload": workload,
                            "n": repo.n,
                            "m": repo.m,
                            "opt": opt,
                            "input_words": total_words,
                            "algorithm": algo_name,
                            "passes": result.passes,
                            "solution_size": result.solution_size,
                            **accounting,
                        }
                    )
    table = _markdown_table(
        ["instance", "algorithm", "n", "m", "passes", "\\|sol\\|",
         "peak (words)", "chunk buffer", "repository (words)", "bounded"],
        [[r["instance"], r["algorithm"], r["n"], r["m"], r["passes"],
          r["solution_size"], r["peak_words"], r["buffer_words"],
          r["repository_words"], r["bounded"]] for r in rows],
    )
    notes = [
        "Every run streams exclusively from the on-disk shard repository; "
        "`bounded` asserts peak resident words = chunk buffer + O(n) "
        "algorithm state, two to three orders of magnitude below the "
        "repository size (DESIGN.md §3.6).",
    ]
    return rows, {"Out-of-core scale (m = 2*10^5, sharded only)": table}, notes


def _suite_dynamic(seed: int) -> tuple[list[dict], dict, list[str]]:
    from repro.dynamic import DynamicCover
    from repro.offline import greedy_cover
    from repro.setsystem import SetSystem
    from repro.setsystem.deltas import MergedShardView, apply_delta, compact
    from repro.workloads.churn import delete_storm, rolling_blog_watch

    scenarios = [
        (
            "rolling_blog_watch",
            rolling_blog_watch(
                topics=60, blogs=120, generations=10, batch=6, seed=seed
            ),
        ),
        (
            "delete_storm",
            delete_storm(
                topics=60, blogs=120, generations=8, batch=8, seed=seed
            ),
        ),
    ]
    maintain_rows: list[dict] = []
    parity_rows: list[dict] = []
    for name, script in scenarios:
        with tempfile.TemporaryDirectory(prefix="repro-dynamic-") as tmp:
            tmp = Path(tmp)
            root = write_shards(
                tmp / name, SetSystem(script.n, script.base), chunk_rows=32
            )
            # theta=2: the delete-storm regime tears out chosen sets every
            # batch; the wider repair budget keeps maintenance incremental
            # (the documented factor bound is independent of theta).
            dyn = DynamicCover(script.n, enumerate(script.base), theta=2.0)
            for k, batch in enumerate(script.batches, start=1):
                apply_delta(root, batch)
                dyn.apply(batch)
                dyn.verify()
                with MergedShardView(root) as view:
                    merged = [sorted(row) for row in view.iter_rows()]
                if merged != [sorted(r) for r in script.live_rows(k)]:
                    raise AssertionError(
                        f"{name}: merged view diverged from the reference "
                        f"merge after generation {k}"
                    )
            final = SetSystem(script.n, script.live_rows())
            greedy = len(greedy_cover(final))
            bound = dyn.approx_factor * max(1, greedy)
            if dyn.cover_size > bound:
                raise AssertionError(
                    f"{name}: maintained cover {dyn.cover_size} exceeds the "
                    f"documented bound {bound}"
                )
            stats = dyn.stats()
            if stats["incremental_fraction"] < 0.9:
                raise AssertionError(
                    f"{name}: only {stats['incremental_fraction']:.0%} of "
                    "updates were incremental (acceptance floor: 90%)"
                )
            # Solve parity: the merged chain and a from-scratch rewrite
            # must produce identical covers, passes and space.
            rebuilt = write_shards(tmp / f"{name}-rebuilt", final, chunk_rows=32)
            results = []
            for path in (root, rebuilt):
                stream = ShardedSetStream(path)
                results.append(
                    iter_set_cover(
                        stream, delta=0.5, seed=seed,
                        use_polylog_factors=False, include_rho=False,
                    )
                )
                stream.close()
            merged_res, rebuilt_res = results
            solve_identical = (
                merged_res.selection == rebuilt_res.selection
                and merged_res.passes == rebuilt_res.passes
                and merged_res.peak_memory_words == rebuilt_res.peak_memory_words
            )
            if not solve_identical:
                raise AssertionError(f"{name}: merged vs rebuilt solve diverged")
            # Compaction bit-identity against the from-scratch rewrite.
            compacted = compact(root, output=tmp / f"{name}-compacted")
            names = sorted(p.name for p in Path(compacted).iterdir())
            compact_identical = names == sorted(
                p.name for p in Path(rebuilt).iterdir()
            ) and all(
                (Path(compacted) / f).read_bytes() == (Path(rebuilt) / f).read_bytes()
                for f in names
            )
            if not compact_identical:
                raise AssertionError(f"{name}: compaction is not bit-identical")
            maintain_rows.append(
                {
                    "scenario": name,
                    "generations": len(script.batches),
                    "updates": stats["updates"],
                    "cover_size": dyn.cover_size,
                    "greedy_size": greedy,
                    "factor_bound": bound,
                    "incremental_fraction": round(
                        stats["incremental_fraction"], 3
                    ),
                    "full_solves": stats["full_solves"],
                    "repair_picks": stats["repair_picks"],
                    "steals": stats["steals"],
                    "valid": True,
                }
            )
            parity_rows.append(
                {
                    "scenario": name,
                    "live_rows": final.m,
                    "solution_size": merged_res.solution_size,
                    "passes": merged_res.passes,
                    "peak_words": merged_res.peak_memory_words,
                    "merged_equals_reference": True,
                    "solve_identical": solve_identical,
                    "compact_bit_identical": compact_identical,
                }
            )
    tables = {
        "Dynamic maintenance under churn": _markdown_table(
            ["scenario", "gens", "updates", "\\|cover\\|", "greedy",
             "bound", "incremental", "full re-solves", "valid"],
            [[r["scenario"], r["generations"], r["updates"], r["cover_size"],
              r["greedy_size"], r["factor_bound"],
              f"{r['incremental_fraction']:.1%}", r["full_solves"],
              r["valid"]] for r in maintain_rows],
        ),
        "Delta-chain parity (merged vs from-scratch)": _markdown_table(
            ["scenario", "live rows", "\\|sol\\|", "passes", "space (words)",
             "solve identical", "compact bit-identical"],
            [[r["scenario"], r["live_rows"], r["solution_size"], r["passes"],
              r["peak_words"], r["solve_identical"],
              r["compact_bit_identical"]] for r in parity_rows],
        ),
    }
    notes = [
        "Each generation applies one churn batch to the delta-shard chain "
        "and the in-memory maintainer in lockstep; the merged view is "
        "asserted equal to the reference merge every step, the maintained "
        "cover stays within the documented O(log n) factor of greedy, and "
        "`repro shard compact` output is byte-for-byte the from-scratch "
        "repository (DESIGN.md §11).",
    ]
    return maintain_rows + parity_rows, tables, notes


SUITES: dict[str, tuple] = {
    "smoke": (_suite_smoke, "seconds-fast parity + accounting guard (CI)"),
    "parity": (_suite_parity, "sharded vs in-memory equality on the paper roster"),
    "tradeoff": (_suite_tradeoff, "Theorem 2.8 delta sweep, out-of-core"),
    "single_pass": (_suite_single_pass, "one-pass baselines of Figure 1.1"),
    "partial": (_suite_partial, "eps-partial coverage-slack sweep"),
    "large": (_suite_large, "out-of-core regime, resident memory asserted"),
    "dynamic": (_suite_dynamic, "churn regimes: delta chain + incremental cover"),
}


def available_suites() -> dict[str, str]:
    """Suite name -> one-line description."""
    return {name: desc for name, (_, desc) in SUITES.items()}


def run_suite(
    suite: str,
    seed: int = 0,
    output_dir: "str | Path" = ".",
    docs_path: "str | Path | None" = "EXPERIMENTS.md",
) -> dict:
    """Run one named suite; write its JSON report and refresh EXPERIMENTS.md.

    Parameters
    ----------
    suite:
        A key of :data:`SUITES`.
    seed:
        Master seed recorded in the report; all instances derive from it.
    output_dir:
        Where ``EXPERIMENTS_<suite>.json`` is written.
    docs_path:
        EXPERIMENTS.md to update in place, or ``None`` to skip the
        markdown refresh (CI uses this).

    Returns
    -------
    dict
        The report payload (also written to disk).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    runner, description = SUITES[suite]
    rows, tables, notes = runner(seed)
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "description": description,
        "seed": seed,
        "command": _command_line(suite, seed),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            # OS and architecture only: the kernel release would rewrite
            # every artifact regenerated on another host.
            "platform": f"{platform.system()}-{platform.machine()}",
        },
        "rows": rows,
        "tables": tables,
        "notes": notes,
    }
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / f"EXPERIMENTS_{suite}.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    if docs_path is not None:
        update_experiments_md(docs_path, payload)
    return payload
