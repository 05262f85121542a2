"""Out-of-core solve benchmark: ``repro solve`` timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload iter-planted --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each

One run of a workload:

1. generates the workload's instance file from ``--seed``;
2. ``repro shard create``-s it into a fresh directory, as many times as
   the workload's ``setup_repeats`` (``setup_s`` is the median);
3. solves the repository in fresh processes, one at a time, until
   ``--seconds`` have passed (at least ``MIN_SOLVES`` solves); each solve
   runs ``runner.py`` which calls ``repro.cli.main(["solve", ...])``;
4. re-checks every printed cover against the instance with a plain union
   (``instances.py check``), and requires every solve of the seed to print
   the same cover, passes and space.

With ``--trace 1`` the solves alternate between untraced and traced
(``runner.py --trace-out``), and the run reports the per-layer metrics
instead of the end-to-end ones. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every solve passed every check. See README.md for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_SOLVES = 2
# A run must end well inside three minutes, generation and set-up included.
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    params: dict
    solve_args: tuple
    # Shard creates per run. A cheap set-up is repeated more, since
    # interpreter start-up noise is a larger share of it.
    setup_repeats: int = 3


# Why each workload is here, and which layers it should and should not
# move, is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iter-planted",
            "planted",
            {"n": 20000, "m": 60000, "opt": 50, "decoy_fraction_of_part": 0.05},
            ("--no-polylog",),
        ),
        Workload(
            "iter-zipf",
            "zipf",
            {"n": 2500, "m": 7500, "exponent": 1.2, "max_set_fraction": 0.005},
            ("--no-polylog",),
            setup_repeats=7,
        ),
        Workload(
            "threshold-sparse",
            "sparse_uniform",
            # m=2e5 (299 shards) costs ~60 s a run, mostly in shard create;
            # 1e5 keeps the pool, the cache and the pass count in half that.
            {"n": 50000, "m": 100000, "expected_size": 12},
            ("--algorithm", "threshold"),
        ),
    )
}

#: (name, unit) of the end-to-end metrics, all lower-is-better.
END_TO_END = (
    ("solve_s", "s"),
    ("solve_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("passes", "count"),
    ("space_words", "words"),
    ("cover_size", "sets"),
    ("setup_s", "s"),
    ("repo_mb", "MiB"),
    ("error_rate", "fraction"),
)
#: ``error_rate`` is zero on a correct program, and the result line carries
#: it as ``failed``/``attempted``; the other metrics go in ``metrics``.
REPORT_ONLY = {"error_rate"}

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("stream.open_s", "s"),
    ("stream.scan_wait_s", "s"),
    ("stream.chunks", "count"),
    ("stream.captured_rows", "count"),
    ("stream.verify_s", "s"),
    ("transport.jobs", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "fraction"),
    ("storage.decode_s", "s"),
    ("storage.decode_calls", "count"),
    ("kernel.scan_s", "s"),
    ("driver.sample_s", "s"),
    ("driver.self_s", "s"),
    ("offline.solve_s", "s"),
    ("offline.calls", "count"),
    ("offline.sets_in", "count"),
    ("offline.picks", "count"),
    ("mem.hwm_scan_mb", "MiB"),
    ("mem.hwm_driver_mb", "MiB"),
    ("mem.hwm_offline_mb", "MiB"),
    ("trace.other_s", "s"),
    ("trace.overhead_s", "s"),
)
#: Recorded only when the scans run in the solve process itself; under a
#: process pool they are reported as absent and left out of the result line.
DRIVER_ONLY = {"storage.decode_s", "storage.decode_calls", "kernel.scan_s"}

#: Top-level layers whose times, plus ``trace.other_s``, add up to a traced solve.
TOP_LEVEL = (
    "cli.import_s",
    "stream.open_s",
    "stream.scan_wait_s",
    "driver.sample_s",
    "driver.self_s",
    "offline.solve_s",
    "stream.verify_s",
)

_RESULT = re.compile(r"^result\s*:\s*(\S+) with (\d+) sets$", re.M)
_PASSES = re.compile(r"^passes\s*:\s*(\d+)$", re.M)
_SPACE = re.compile(r"^space\s*:\s*(\d+) words$", re.M)
_SETS = re.compile(r"^sets\s*:\s*\[([\d, ]*)\]$", re.M)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed solve)."""


@dataclass
class Solve:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: "str | None" = None
    cover_size: "int | None" = None
    passes: "int | None" = None
    space_words: "int | None" = None
    cover: "list | None" = None
    trace: "dict | None" = None
    errors: list = field(default_factory=list)


# -- processes -------------------------------------------------------------
def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pid: int, timeout: float = 10.0) -> None:
    """Kill what is left in the session ``pid`` led and wait until it is gone.

    Those processes are not this one's children, so they cannot be waited
    for; the group disappears once the system has reaped them.
    """
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_timed(cmd: list, env: dict, log: Path, timeout: float):
    """Run ``cmd`` to completion in its own session.

    Returns ``(exit_code, wall_s, cpu_s, maxrss_mib)``: wall time from spawn
    to exit, and the ``wait4`` usage of the process together with every
    child it reaped (a solve's pool workers). Standard output and error go
    to ``log`` and ``log.err``.
    """
    with open(log, "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        watchdog = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)  # anything the process left behind in its session
    return (
        proc.returncode,
        wall_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def run_helper(args: list, env: dict, timeout: float) -> str:
    """Run ``instances.py`` and return its standard output."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "instances.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"instances.py {args[0]} timed out") from None
    if done.returncode != 0:
        raise BenchmarkError(f"instances.py {args[0]} failed:\n{done.stderr}")
    return done.stdout


def directory_mib(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


# -- one solve -------------------------------------------------------------
def parse_solve(solve: Solve, stdout: str) -> None:
    result, passes = _RESULT.search(stdout), _PASSES.search(stdout)
    space, sets = _SPACE.search(stdout), _SETS.search(stdout)
    if not (result and passes and space and sets):
        solve.errors.append("unparseable solve output")
        return
    solve.status, solve.cover_size = result.group(1), int(result.group(2))
    solve.passes, solve.space_words = int(passes.group(1)), int(space.group(1))
    solve.cover = [int(token) for token in sets.group(1).replace(",", " ").split()]
    if solve.status != "cover":
        solve.errors.append(f"solve reported {solve.status}")
    if len(solve.cover) != solve.cover_size:
        solve.errors.append(
            f"printed {len(solve.cover)} set ids for a cover of {solve.cover_size}"
        )


def solve_once(workload: Workload, repo: Path, work: Path, env: dict, index: int,
               traced: bool, timeout: float) -> Solve:
    log = work / f"solve-{index}.out"
    trace_file = work / f"trace-{index}.json"
    cmd = [sys.executable, str(HERE / "runner.py")]
    if traced:
        cmd += ["--trace-out", str(trace_file)]
    cmd += ["solve", str(repo), *workload.solve_args, "--show-cover"]
    code, wall_s, cpu_s, rss_mb = run_timed(cmd, env, log, timeout)
    solve = Solve(traced, code, wall_s, cpu_s, rss_mb)
    if code != 0:
        tail = Path(f"{log}.err").read_text(errors="replace").strip().splitlines()[-1:]
        solve.errors.append(f"exit code {code} {tail}")
    parse_solve(solve, log.read_text(errors="replace"))
    if traced and code == 0:
        solve.trace = json.loads(trace_file.read_text())
    return solve


# -- one workload ------------------------------------------------------------
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    work = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(work / "tmp")
    try:
        instance, meta = work / "instance.json", work / "meta.json"
        run_helper(
            ["generate", workload.family, json.dumps(workload.params), str(seed),
             str(instance), str(meta)],
            env, deadline - time.perf_counter(),
        )
        shape = json.loads(meta.read_text())

        setup_times = []
        for attempt in range(workload.setup_repeats):
            repo = work / f"repo-{attempt}"
            if attempt:
                shutil.rmtree(work / f"repo-{attempt - 1}")
            code, wall_s, _, _ = run_timed(
                [sys.executable, "-m", "repro", "shard", "create", str(instance), str(repo)],
                env, work / "setup.out", deadline - time.perf_counter(),
            )
            if code != 0:
                raise BenchmarkError(
                    f"shard create exited {code}:\n{(work / 'setup.out.err').read_text()}"
                )
            setup_times.append(wall_s)
        record = {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "params": workload.params,
            "n": shape["n"],
            "m": shape["m"],
            "planted_opt": shape["planted_opt"],
            **json.loads(run_helper(["probe", str(repo)], env, deadline - time.perf_counter())),
        }

        solves = []
        window = time.perf_counter()
        while True:
            untraced = [s for s in solves if not s.traced]
            enough = len(untraced) >= MIN_SOLVES
            if trace:
                enough = len(untraced) >= 1 and len(solves) - len(untraced) >= 1
            now = time.perf_counter()
            if enough and now - window >= seconds:
                break
            last = solves[-1].wall_s if solves else 0.0
            if solves and now + 1.5 * last + 5.0 > deadline:
                break
            traced = trace and len(solves) % 2 == 1
            solves.append(
                solve_once(workload, repo, work, env, len(solves), traced, deadline - now)
            )

        check_covers(solves, shape, instance, env, deadline)
        return summarize(record, solves, setup_times, directory_mib(repo), trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_covers(solves: list, shape: dict, instance: Path, env: dict,
                 deadline: float) -> None:
    """Correctness gate: union check, agreement across solves, planted OPT."""
    parsed = [s for s in solves if s.cover is not None]
    covers = []
    for solve in parsed:
        if solve.cover not in covers:
            covers.append(solve.cover)
    if covers:
        covers_file = instance.with_name("covers.json")
        covers_file.write_text(json.dumps(covers))
        verdicts = json.loads(run_helper(
            ["check", str(instance), str(covers_file)], env, deadline - time.perf_counter(),
        ))
        for solve in parsed:
            missing = verdicts[covers.index(solve.cover)]["missing"]
            if missing:
                solve.errors.append(f"cover leaves {missing} element(s) uncovered")
    if parsed:
        first = parsed[0]
        for solve in parsed[1:]:
            if (solve.cover, solve.passes, solve.space_words) != (
                first.cover, first.passes, first.space_words
            ):
                solve.errors.append("cover, passes or space differ from the first solve")
    opt = shape["planted_opt"]
    if opt is not None:
        for solve in parsed:
            if solve.cover_size > opt:
                solve.errors.append(f"cover of {solve.cover_size} exceeds planted OPT {opt}")


def _median(values: list):
    return statistics.median(values) if values else None


def summarize(record: dict, solves: list, setup_times: list, repo_mb: float,
              trace: bool) -> dict:
    untraced = [s for s in solves if not s.traced]
    traced = [s for s in solves if s.traced]
    ok = [s for s in solves if s.cover is not None]
    failed = sum(1 for s in solves if s.errors)
    # Exact outputs: every solve must print the same ones (check_covers).
    first = ok[0] if ok else Solve(False, 0, 0.0, 0.0, 0.0)
    values = {
        "solve_s": _median([s.wall_s for s in untraced]),
        "solve_cpu_s": _median([s.cpu_s for s in untraced]),
        "peak_rss_mb": _median([s.rss_mb for s in untraced]),
        "passes": first.passes,
        "space_words": first.space_words,
        "cover_size": first.cover_size,
        "setup_s": _median(setup_times),
        "repo_mb": repo_mb,
        "error_rate": failed / len(solves),
    }
    samples = {name: len(untraced) for name in ("solve_s", "solve_cpu_s", "peak_rss_mb")}
    samples.update(passes=len(ok), space_words=len(ok), cover_size=len(ok),
                   setup_s=len(setup_times), repo_mb=1, error_rate=len(solves))
    layers, layer_samples = {}, {}
    if trace:
        layers, layer_samples = summarize_trace(traced, untraced)
    return {
        "record": record,
        "end_to_end": values,
        "samples": samples,
        "layers": layers,
        "layer_samples": layer_samples,
        "attempted": len(solves),
        "failed": failed,
        "errors": [f"solve {i}: {e}" for i, s in enumerate(solves) for e in s.errors],
    }


def summarize_trace(traced: list, untraced: list):
    """Per-layer medians over the traced solves, with the coverage check."""
    rows = []
    for solve in traced:
        if solve.trace is None:
            continue
        row = dict(solve.trace)
        # ``trace.other_s`` is the time no layer claims: the runner's own
        # time outside every span (measured by the tracer's root frame),
        # plus interpreter start-up and shutdown around the runner.
        runner_s = row.pop("trace.runner_s")
        row["trace.other_s"] = row.pop("trace.root_self_s") + (solve.wall_s - runner_s)
        # The root frame adds up its direct child spans itself; the named
        # layers add up the same time from their own totals. The two agree
        # only if the top-level layers neither nest nor leave a span out.
        named = sum(row[name] for name in TOP_LEVEL) + row["trace.other_s"]
        if abs(named - solve.wall_s) > 1e-6 * max(1.0, solve.wall_s):
            raise BenchmarkError(
                "named layers plus trace.other_s do not add up to solve_s: "
                "a top-level layer nests in another or is missing from TOP_LEVEL"
            )
        rows.append(row)
    layers = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        column = [row.get(name) for row in rows]
        layers[name] = None if not column or None in column else _median(column)
    walls_t = [s.wall_s for s in traced]
    walls_u = [s.wall_s for s in untraced]
    layers["trace.overhead_s"] = (
        _median(walls_t) - _median(walls_u) if walls_t and walls_u else None
    )
    return layers, {"traced": len(rows), "untraced": len(walls_u)}


# -- output ------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}"
    return f"{value:g}" if isinstance(value, float) else str(value)


def print_report(result: dict, trace: bool) -> None:
    record = result["record"]
    print(
        f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"n={record['n']} m={record['m']} planted_opt={record['planted_opt']}  "
        f"shards={record['shards']} jobs={record['transport.jobs']}"
    )
    if trace:
        jobs = record["transport.jobs"]
        for name, unit in PER_LAYER:
            value = result["layers"].get(name)
            note = ""
            if value is None and name in DRIVER_ONLY:
                note = f"  (scans ran in {jobs} pool workers)"
            print(f"  {name:<22} {_fmt(value):>14} {unit:<8}{note}")
        samples = result["layer_samples"]
        print(f"  layers: median of {samples['traced']} traced solve(s); "
              f"overhead against {samples['untraced']} untraced")
    else:
        for name, unit in END_TO_END:
            value = result["end_to_end"][name]
            print(f"  {name:<14} {_fmt(value):>14} {unit:<9} "
                  f"n={result['samples'][name]}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print("record: " + json.dumps(record, sort_keys=True))


def result_metrics(result: dict, trace: bool) -> dict:
    if trace:
        return {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in PER_LAYER
            if name not in DRIVER_ONLY and result["layers"].get(name) is not None
        }
    return {
        name: {"value": result["end_to_end"][name], "unit": unit}
        for name, unit in END_TO_END
        if name not in REPORT_ONLY and result["end_to_end"][name] is not None
    }


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each workload keeps starting solves")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            print_report(results[name], trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = result_metrics(results[names[0]], trace)
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result_metrics(result, trace).items()
        }
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
