"""Self-tests of the benchmark at toy sizes of each workload shape.

    python3 perfbench/selftest.py

Each test calls ``run.main`` in this process with the workloads swapped for
tiny instances of the same families, and checks what it prints: every
metric by name and unit, a tampered cover counted as a failure, and a
refusal to run without the program's sources. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


#: Tiny instances of each workload's family, scanned in the solve process.
TOY_PARAMS = {
    "iter-planted": {"n": 400, "m": 1200, "opt": 8, "decoy_fraction_of_part": 0.05},
    "iter-zipf": {"n": 300, "m": 900, "exponent": 1.2, "max_set_fraction": 0.005},
    "threshold-sparse": {"n": 1000, "m": 4000, "expected_size": 12},
}
TOY_WORKLOADS = {
    name: dataclasses.replace(workload, params=TOY_PARAMS[name], setup_repeats=1)
    for name, workload in run.WORKLOADS.items()
}


def bench(*args: str):
    """Run every toy workload through ``run.main``; return (code, lines, result)."""
    out = io.StringIO()
    with mock.patch.object(run, "WORKLOADS", TOY_WORKLOADS), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", "all", "--seconds", "0", *args])
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


REAL_CHECK_COVERS = run.check_covers


def tampered_check_covers(solves, *rest):
    """``run.check_covers`` after dropping the first half of every cover."""
    for solve in solves:
        if solve.cover is not None:
            solve.cover = solve.cover[len(solve.cover) // 2:]
    return REAL_CHECK_COVERS(solves, *rest)


def report_lines(lines: list, workload: str) -> list:
    """The metric lines of one workload's table."""
    start = next(i for i, line in enumerate(lines) if line.startswith(f"== {workload} "))
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("record: "))
    return lines[start + 1:end]


class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.lines, cls.result = bench("--trace", "0")

    def test_passes_on_the_program(self):
        self.assertEqual(self.code, 0, self.lines)
        self.assertTrue(self.result["correct"])
        self.assertEqual(self.result["failed"], 0)
        self.assertGreaterEqual(self.result["attempted"], run.MIN_SOLVES * len(run.WORKLOADS))

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            table = {line.split()[0]: line.split() for line in report_lines(self.lines, workload)}
            for name, unit in run.END_TO_END:
                self.assertIn(name, table, workload)
                self.assertEqual(table[name][2], unit)
                self.assertTrue(table[name][3].startswith("n="))
            self.assertEqual(table["error_rate"][1], "0")
            for name, unit in run.END_TO_END:
                if name in run.REPORT_ONLY:
                    continue
                entry = self.result["metrics"][f"{workload}.{name}"]
                self.assertEqual(entry["unit"], unit)
                self.assertGreater(entry["value"], 0)

    def test_run_record(self):
        records = [json.loads(line[len("record: "):])
                   for line in self.lines if line.startswith("record: ")]
        self.assertEqual([r["workload"] for r in records], list(run.WORKLOADS))
        for record in records:
            for key in ("seed", "n", "m", "planted_opt", "shards", "transport.jobs",
                        "cache_budget_bytes", "nproc", "python", "numpy"):
                self.assertIn(key, record)
        self.assertEqual(records[0]["planted_opt"], TOY_PARAMS["iter-planted"]["opt"])


class Traced(unittest.TestCase):
    def test_every_layer_metric_is_printed_with_its_unit(self):
        code, lines, result = bench("--trace", "1")
        self.assertEqual(code, 0, lines)
        for workload in run.WORKLOADS:
            table = {line.split()[0]: line.split() for line in report_lines(lines, workload)}
            for name, unit in run.PER_LAYER:
                self.assertEqual(table[name][2], unit, (workload, name))
                if name not in run.DRIVER_ONLY:
                    self.assertEqual(result["metrics"][f"{workload}.{name}"]["unit"], unit)
            # Toy repositories are scanned in the solve process itself,
            # so the storage layer is recorded rather than absent.
            self.assertNotEqual(table["storage.decode_calls"][1], "absent")
            self.assertGreaterEqual(float(table["trace.other_s"][1]), 0.0)


class Tampered(unittest.TestCase):
    def test_tampered_cover_counts_as_failure(self):
        with mock.patch.object(run, "check_covers", tampered_check_covers):
            code, lines, result = bench("--trace", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        for workload in run.WORKLOADS:
            table = {line.split()[0]: line.split() for line in report_lines(lines, workload)}
            self.assertEqual(table["error_rate"][1], "1")
        self.assertTrue(any("uncovered" in line for line in lines))


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_what_run_emits(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [m for m in run.END_TO_END if m[0] not in run.REPORT_ONLY],
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [m for m in run.PER_LAYER if m[0] not in run.DRIVER_ONLY],
        )
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench" / path.name)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
