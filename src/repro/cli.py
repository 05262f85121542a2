"""Command-line interface: ``python -m repro <command>``.

Six commands, all file-based so the library is usable without writing
Python:

* ``generate`` — emit a workload instance to a file (text or .json);
* ``shard``    — shard-repository tooling: ``shard create`` converts an
  instance file into a chunked on-disk repository
  (:mod:`repro.setsystem.shards`) for out-of-core runs, ``shard
  apply-delta`` appends insert/tombstone delta generations from a
  churn script or op list
  (:mod:`repro.setsystem.deltas`) — with ``--checkpoint`` it also
  maintains a durable :class:`~repro.dynamic.cover.DynamicCover`
  across batches, so incremental maintenance survives process
  restarts — ``shard compact`` folds pending deltas back into a
  single flat repository (intent-journaled in place, so a crash is
  always recoverable), ``shard fsck`` sweeps every storage invariant
  into a typed findings report (``--repair`` resolves interrupted
  compactions and invisible partial state), and ``shard
  churn-script`` emits a reproducible mutation script
  (:mod:`repro.workloads.churn`) for the others to consume;
* ``solve``    — run a streaming algorithm over an instance file *or a
  shard directory* and print the cover plus the pass/space accounting;
  ``--workers host:port,...`` spreads the scans over ``repro worker
  serve`` processes (results are bit-identical to the serial scan,
  DESIGN.md §9);
* ``worker``   — ``worker serve --root <dir>``: serve shard scans to
  remote drivers over TCP (:mod:`repro.engine.transport.remote`);
  ``worker ping HOST:PORT``: round-trip a protocol ping to a running
  worker and print its latency, protocol version, pid and root —
  the operator's fleet-health probe;
* ``info``     — instance statistics (n, m, sparsity, density, optimum
  bounds);
* ``experiments`` — run a named scenario suite, write
  ``EXPERIMENTS_<suite>.json`` and regenerate the EXPERIMENTS.md tables
  (see :mod:`repro.experiments`).

Knob validation is shared with the library: every flag that feeds an
engine knob (``--workers``, ``--cache-bytes``) converts through the
library's resolver inside :func:`_library_flag`, so invalid values
surface as argparse usage errors naming the flag — never tracebacks —
with one error path for all of them.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def _lib(path: str):
    """The object at dotted ``path``, importing its package on first use.

    The CLI imports nothing of the library up front: each command loads
    only the modules it runs (DESIGN.md §15).
    """
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


_ALGORITHMS = {
    "iter": lambda args: _lib("repro.core.IterSetCover")(
        config=_lib("repro.core.IterSetCoverConfig")(
            delta=args.delta,
            sample_constant=args.sample_constant,
            use_polylog_factors=not args.no_polylog,
            include_rho=not args.no_polylog,
        ),
        seed=args.seed,
    ),
    "store-all": lambda args: _lib("repro.baselines.StoreAllGreedy")(),
    "multi-pass": lambda args: _lib("repro.baselines.MultiPassGreedy")(),
    "threshold": lambda args: _lib("repro.baselines.ThresholdGreedy")(),
    "er14": lambda args: _lib("repro.baselines.EmekRosen")(),
    "cw16": lambda args: _lib("repro.baselines.ChakrabartiWirth")(
        passes=args.passes
    ),
    "sg09": lambda args: _lib("repro.baselines.SahaGetoor")(),
}

_GENERATORS = {
    "uniform": lambda args: _lib("repro.workloads.uniform_random_instance")(
        args.n, args.m, density=args.density, seed=args.seed
    ),
    "sparse-uniform": lambda args: _lib("repro.workloads.sparse_uniform_instance")(
        args.n, args.m, expected_size=args.expected_size, seed=args.seed
    ),
    "planted": lambda args: _lib("repro.workloads.planted_instance")(
        args.n, args.m, opt=args.opt, seed=args.seed
    ).system,
    "zipf": lambda args: _lib("repro.workloads.zipf_instance")(
        args.n, args.m, seed=args.seed
    ),
    "blog": lambda args: _lib("repro.workloads.blog_watch_instance")(
        topics=args.n, blogs=args.m, seed=args.seed
    ),
}


def _library_flag(convert):
    """Shared argparse error path for library-validated knob flags.

    Wraps a library resolver (:func:`repro.engine.resolve_workers`,
    :func:`repro.engine.resolve_cache_bytes`) as an argparse ``type``:
    the library's ``ValueError`` — whose message names the flag — becomes
    an :class:`argparse.ArgumentTypeError`, so every invalid knob value
    surfaces as the same kind of usage error, never a traceback.
    """

    def parse(value: str):
        try:
            return convert(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _workers_value(value: str):
    """``--workers`` resolver: comma-joined host:port pairs."""
    from repro.engine import resolve_workers

    return resolve_workers(value)


def _cache_value(value: str) -> str:
    """``--cache-bytes`` validator: keep the raw text, reject junk now."""
    from repro.engine import resolve_cache_bytes

    resolve_cache_bytes(value)  # raises ValueError on malformed budgets
    return value


def _add_cache_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-bytes",
        type=_library_flag(_cache_value),
        default=None,
        metavar="BYTES",
        help="decoded-chunk hot-cache budget: a byte count (k/m/g "
        "suffixes ok), 'auto' (a fraction of available RAM; the "
        "default) or 'off'; exported to worker processes via "
        "REPRO_CACHE_BYTES — results are identical at every setting",
    )


def _apply_cache_option(args) -> None:
    """Propagate ``--cache-bytes`` to this process and its workers."""
    value = getattr(args, "cache_bytes", None)
    if value is None:
        return
    from repro.engine import CACHE_ENV, configure_cache

    os.environ[CACHE_ENV] = value  # inherited by spawned workers
    configure_cache(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming Set Cover (PODS 2016 reproduction) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload instance")
    gen.add_argument("workload", choices=sorted(_GENERATORS))
    gen.add_argument("output", help="output path (.json or text)")
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--m", type=int, default=150)
    gen.add_argument("--density", type=float, default=0.1)
    gen.add_argument("--expected-size", type=float, default=10.0,
                     help="mean set size for sparse-uniform")
    gen.add_argument("--opt", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)

    shard = sub.add_parser("shard", help="on-disk shard repository tooling")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_create = shard_sub.add_parser(
        "create",
        help="convert an instance file into an on-disk shard repository",
    )
    shard_create.add_argument("input", help="instance path (.json or text)")
    shard_create.add_argument("output", help="shard directory to create")
    shard_create.add_argument(
        "--chunk-rows", type=int, default=None,
        help="sets per shard (default: sized for ~4 MiB shards)",
    )
    shard_delta = shard_sub.add_parser(
        "apply-delta",
        help="append insert/tombstone delta generation(s) from a churn "
        "script (each batch = one generation) or a single op list",
    )
    shard_delta.add_argument("root", help="shard repository to mutate")
    shard_delta.add_argument(
        "ops",
        help="JSON path: a churn script (repro.churn/v1), an "
        '{"ops": [...]} object, or a bare op list',
    )
    shard_delta.add_argument(
        "--batches", type=int, default=None, metavar="K",
        help="apply only the first K churn-script batches (default: all)",
    )
    shard_delta.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="maintain a durable DynamicCover alongside the chain: "
        "restore it from PATH if present (refusing stale checkpoints "
        "whose chain token no longer matches), mirror every batch into "
        "it, and re-checkpoint after each generation",
    )
    shard_delta.add_argument(
        "--force", action="store_true",
        help="discard a stale <root>.compact-tmp staging directory left "
        "by a compaction that crashed before its commit point",
    )
    shard_compact = shard_sub.add_parser(
        "compact",
        help="fold pending delta generations into a flat repository — "
        "bit-identical to writing the merged system from scratch; in "
        "place, readers and apply-delta keep using the live chain while "
        "the fold stages, and superseded files are parked until the "
        "last reader lease drains",
    )
    shard_compact.add_argument("root", help="shard repository to compact")
    shard_compact.add_argument(
        "--output", default=None, metavar="DIR",
        help="write the compacted repository here instead of rewriting "
        "ROOT in place (ROOT is left untouched); must not lie inside "
        "ROOT or name a non-empty existing directory",
    )
    shard_compact.add_argument(
        "--force", action="store_true",
        help="discard a stale <root>.compact-tmp staging directory left "
        "by a compaction that crashed before its commit point",
    )
    shard_maintain = shard_sub.add_parser(
        "maintain",
        help="self-healing maintenance: watch chain length and dead-row "
        "fraction, fold the chain with `compact` when either "
        "crosses its threshold, backing off on contention and "
        "journaling every decision to <root>.maintenance.log",
    )
    shard_maintain.add_argument("root", help="shard repository to maintain")
    shard_maintain.add_argument(
        "--watch", action="store_true",
        help="keep cycling (measure, maybe compact, sleep) instead of "
        "running a single cycle",
    )
    shard_maintain.add_argument(
        "--cycles", type=int, default=None, metavar="K",
        help="with --watch: stop after K cycles (default: run forever)",
    )
    shard_maintain.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="with --watch: stop after this much wall-clock time",
    )
    shard_maintain.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="sleep between --watch cycles (default: 1.0)",
    )
    shard_maintain.add_argument(
        "--max-generations", type=int, default=8, metavar="G",
        help="fold once the delta chain reaches G generations "
        "(default: 8)",
    )
    shard_maintain.add_argument(
        "--max-dead-fraction", type=float, default=0.5, metavar="F",
        help="fold once fraction F of rows is tombstoned (default: 0.5)",
    )
    shard_maintain.add_argument(
        "--retry-attempts", type=int, default=None, metavar="K",
        help="attempts per cycle when the repository is busy "
        "(default: 3; see `repro solve --retry-attempts`)",
    )
    shard_maintain.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base backoff between busy retries (default: 0.1)",
    )
    shard_maintain.add_argument(
        "--retry-backoff-max", type=float, default=None, metavar="SECONDS",
        help="backoff ceiling (default: 5.0)",
    )
    shard_maintain.add_argument(
        "--retry-jitter", type=float, default=None, metavar="FRACTION",
        help="randomized fraction of each backoff (default: 0.5)",
    )
    shard_maintain.add_argument(
        "--seed", type=int, default=None,
        help="seed for deterministic backoff jitter",
    )
    shard_fsck = shard_sub.add_parser(
        "fsck",
        help="sweep every storage invariant (manifest/stats/chain CRCs, "
        "shard checksums, codec decode, chain contiguity, interrupted "
        "compactions, orphan state) into a typed findings report",
    )
    shard_fsck.add_argument("root", help="shard repository to check")
    shard_fsck.add_argument(
        "--repair", action="store_true",
        help="resolve what is safely resolvable: complete interrupted "
        "compactions (roll the intent journal forward), discard "
        "pre-commit staging debris, remove invisible partial "
        "generations; checksum/codec corruption is only ever reported",
    )
    shard_fsck.add_argument(
        "--shallow", action="store_true",
        help="skip the full-read checks (per-shard CRC-32 and row codec "
        "decode); structural sweep only",
    )
    shard_fsck.add_argument(
        "--json", action="store_true",
        help="emit the findings report as JSON on stdout",
    )
    shard_churn = shard_sub.add_parser(
        "churn-script",
        help="emit a reproducible churn script (plus optionally its base "
        "instance) for `shard apply-delta`",
    )
    shard_churn.add_argument(
        "workload", choices=["rolling-blog-watch", "delete-storm"],
        help="churn regime (see repro.workloads.churn)",
    )
    shard_churn.add_argument("output", help="churn-script JSON path")
    shard_churn.add_argument("--topics", type=int, default=60)
    shard_churn.add_argument("--blogs", type=int, default=120)
    shard_churn.add_argument("--generations", type=int, default=8)
    shard_churn.add_argument("--batch", type=int, default=6)
    shard_churn.add_argument("--seed", type=int, default=0)
    shard_churn.add_argument(
        "--base-instance", default=None, metavar="PATH",
        help="also write the script's base family as an instance file "
        "(ready for `repro shard create`)",
    )

    worker = sub.add_parser("worker", help="distributed scan workers")
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    worker_serve = worker_sub.add_parser(
        "serve",
        help="serve shard scans over TCP to `repro solve --workers` "
        "drivers (trusted networks only; see docs/DISTRIBUTED.md)",
    )
    worker_serve.add_argument(
        "--root", required=True,
        help="directory tree the worker may open shard repositories under",
    )
    worker_serve.add_argument("--host", default="127.0.0.1")
    worker_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (0 = pick an ephemeral port and "
        "announce it on stdout)",
    )
    _add_cache_option(worker_serve)
    worker_ping = worker_sub.add_parser(
        "ping",
        help="round-trip a protocol ping to one worker: prints latency, "
        "protocol version, pid and serving root",
    )
    worker_ping.add_argument(
        "worker", metavar="HOST:PORT",
        help="address of a running `repro worker serve`",
    )
    worker_ping.add_argument(
        "--count", type=int, default=3, help="pings to send (default 3)"
    )
    worker_ping.add_argument(
        "--connect-timeout", type=float, default=5.0,
        help="seconds to wait for connect + handshake + each pong",
    )

    solve = sub.add_parser("solve", help="run a streaming algorithm")
    solve.add_argument(
        "input",
        help="instance path (.json or text) or a shard directory "
        "(runs out-of-core via ShardedSetStream)",
    )
    solve.add_argument(
        "--algorithm", choices=sorted(_ALGORITHMS), default="iter"
    )
    solve.add_argument("--delta", type=float, default=0.5)
    solve.add_argument("--passes", type=int, default=2, help="for cw16")
    solve.add_argument("--sample-constant", type=float, default=1.0)
    solve.add_argument(
        "--no-polylog",
        action="store_true",
        help="strip polylog/rho factors from the sample size (small inputs)",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--show-cover", action="store_true", help="print the chosen set ids"
    )
    _add_cache_option(solve)
    solve.add_argument(
        "--workers",
        type=_library_flag(_workers_value),
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="spread scans over these remote workers (start them with "
        "`repro worker serve`; requires a shard-directory input; results "
        "are identical to the default serial scan)",
    )
    retry = solve.add_argument_group(
        "remote fault tolerance",
        "failure handling for --workers (see docs/DISTRIBUTED.md); "
        "defaults are fail-loud: the first worker fault aborts the solve. "
        "Results are bit-identical whether or not retries fire.",
    )
    retry.add_argument(
        "--retry-attempts", type=int, default=None, metavar="N",
        help="scan attempts per batch (default 1 = fail-loud; N>1 enables "
        "re-dispatch of failed batches to surviving workers)",
    )
    retry.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base backoff between a lane's attempts (default 0.1; "
        "doubles per attempt, jittered)",
    )
    retry.add_argument(
        "--retry-backoff-max", type=float, default=None, metavar="SECONDS",
        help="backoff ceiling (default 5.0)",
    )
    retry.add_argument(
        "--retry-jitter", type=float, default=None, metavar="FRACTION",
        help="randomized fraction of each backoff, in [0,1] (default 0.5)",
    )
    retry.add_argument(
        "--connect-timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout for connect + handshake (default 30)",
    )
    retry.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="post-handshake read timeout: a wedged worker errors instead "
        "of hanging the scan (default 120)",
    )
    retry.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap per dispatched batch (default: none; the "
        "idle timeout still bounds every read)",
    )
    retry.add_argument(
        "--retry-eject-after", type=int, default=None, metavar="N",
        help="consecutive faults before a worker is ejected from the "
        "scan (default 3)",
    )
    retry.add_argument(
        "--retry-rejoin-backoff", type=float, default=None, metavar="SECONDS",
        help="cooldown before an ejected worker may rejoin (default 5)",
    )
    retry.add_argument(
        "--ping-interval", type=float, default=None, metavar="SECONDS",
        help="idle-connection health-ping interval (default 30)",
    )
    retry.add_argument(
        "--no-local-fallback", action="store_true",
        help="abort instead of degrading to a local serial scan when "
        "every worker is lost mid-scan",
    )

    info = sub.add_parser("info", help="instance statistics")
    info.add_argument("input", help="instance path (.json or text)")
    info.add_argument(
        "--bounds",
        action="store_true",
        help="also compute greedy upper / LP lower bounds on the optimum",
    )

    experiments = sub.add_parser(
        "experiments",
        help="run a named scenario suite and regenerate EXPERIMENTS.md tables",
    )
    experiments.add_argument(
        "--suite", default=None,
        help="suite name (see --list); required unless --list is given",
    )
    experiments.add_argument(
        "--list", action="store_true", help="list available suites and exit"
    )
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--output-dir", default=".",
        help="directory for EXPERIMENTS_<suite>.json (default: cwd)",
    )
    experiments.add_argument(
        "--docs", default="EXPERIMENTS.md",
        help="EXPERIMENTS.md to refresh in place",
    )
    experiments.add_argument(
        "--no-update-docs", action="store_true",
        help="skip the EXPERIMENTS.md refresh (CI smoke)",
    )
    return parser


def _cmd_generate(args) -> int:
    from repro.setsystem import save

    system = _GENERATORS[args.workload](args)
    save(system, args.output)
    print(f"wrote {args.workload} instance (n={system.n}, m={system.m}) "
          f"to {args.output}")
    return 0


def _cmd_shard_create(args) -> int:
    from repro.setsystem import load_rows
    from repro.setsystem.shards import ShardedRepository, write_shards

    # The rows go straight from the parser into the writer's chunk
    # kernel, which validates them; no SetSystem is built.
    try:
        n, rows = load_rows(args.input)
        path = write_shards(args.output, rows, n=n, chunk_rows=args.chunk_rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with ShardedRepository(path) as repo:
        print(
            f"wrote {repo.shard_count} shard(s) (n={repo.n}, m={repo.m}, "
            f"chunk_rows={repo.chunk_rows}) to {path}"
        )
    return 0


def _load_delta_batches(path: str) -> "list[list[dict]]":
    """Read ``apply-delta`` input: churn script, {"ops": [...]}, or op list."""
    import json

    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict) and "batches" in payload:
        from repro.workloads.churn import ChurnScript

        return [list(batch) for batch in ChurnScript.from_json(
            json.dumps(payload)).batches]
    if isinstance(payload, dict) and "ops" in payload:
        return [list(payload["ops"])]
    if isinstance(payload, list):
        return [list(payload)]
    raise ValueError(
        f"{path}: expected a churn script (repro.churn/v1), an "
        '{"ops": [...]} object, or a bare op list'
    )


def _load_maintainer(checkpoint: Path, root: str):
    """Restore the ``--checkpoint`` DynamicCover, or rebuild it from ROOT.

    Restores with ``allow_remap=True``: a chain that moved only by
    *compaction* (same live rows, renumbered ids — what a concurrent
    `repro shard maintain` does) remaps the checkpoint onto the folded
    repository instead of discarding it.  A chain that moved by
    *mutation* and a missing checkpoint file both rebuild from the
    merged view's live rows; staleness is reported on stderr so the
    full re-solve is never silent.  A corrupt or unreadable checkpoint
    is an error, not a rebuild: silently re-solving over a damaged file
    would hide exactly the durability bug the checkpoint exists to
    catch.
    """
    from repro.dynamic import CheckpointError, DynamicCover, StaleCheckpointError
    from repro.setsystem.deltas import open_repository

    if checkpoint.exists():
        try:
            return DynamicCover.restore(checkpoint, root=root, allow_remap=True)
        except StaleCheckpointError as exc:
            print(f"note: {exc}; rebuilding from {root}", file=sys.stderr)
        # CheckpointError propagates: corrupt state must be loud.
    with open_repository(root) as repo:
        ids = getattr(repo, "stable_ids", None) or range(repo.m)
        return DynamicCover(repo.n, zip(ids, repo.iter_rows()))


def _cmd_shard_apply_delta(args) -> int:
    from repro.setsystem.deltas import apply_delta
    from repro.setsystem.shards import ShardFormatError

    try:
        batches = _load_delta_batches(args.ops)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.batches is not None:
        batches = batches[: args.batches]
    try:
        maintainer = None
        if args.checkpoint is not None:
            from repro.dynamic import CheckpointError

            try:
                maintainer = _load_maintainer(Path(args.checkpoint), args.root)
            except (CheckpointError, ShardFormatError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        for batch in batches:
            summary = apply_delta(args.root, batch, force=args.force)
            print(
                f"generation {summary['generation']:>3}: "
                f"+{summary['inserts']} insert(s), "
                f"-{summary['tombstones']} tombstone(s), "
                f"{summary['live_rows']} live row(s)"
            )
            if maintainer is not None:
                # Mirror the batch with explicit stable ids so the
                # maintainer's id sequence can never drift from the
                # chain's, then re-checkpoint: the durable pair
                # (chain generation, checkpoint) moves in lockstep.
                next_id = summary["first_insert_id"]
                mirrored = []
                for op in batch:
                    if op.get("op") == "insert":
                        op = dict(op, id=next_id)
                        next_id += 1
                    mirrored.append(op)
                maintainer.apply(mirrored)
                maintainer.checkpoint(args.checkpoint, root=args.root)
        if maintainer is not None:
            stats = maintainer.stats()
            print(
                f"checkpoint {args.checkpoint}: |cover|={maintainer.cover_size} "
                f"(m={maintainer.m}, {stats['updates']} update(s), "
                f"{stats['full_solves']} full solve(s))"
            )
    except (ShardFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not batches:
        print("no ops to apply")
    return 0


def _cmd_shard_compact(args, parser) -> int:
    from repro.setsystem.deltas import compact, open_repository
    from repro.setsystem.shards import ShardFormatError

    if args.output is not None:
        out = Path(args.output).resolve()
        root = Path(args.root).resolve()
        if out == root or root in out.parents:
            parser.error(
                f"--output {args.output} lies inside the source repository "
                f"{args.root}; compaction would corrupt its own input"
            )
        if out.exists() and (not out.is_dir() or any(out.iterdir())):
            parser.error(
                f"--output {args.output} already exists and is not an "
                "empty directory; refusing to overwrite"
            )
    try:
        before = open_repository(args.root)
        pending = getattr(before, "pending_deltas", 0)
        before.close()
        path = compact(args.root, output=args.output, force=args.force)
        with open_repository(path) as repo:
            print(
                f"compacted {pending} pending generation(s) into {path} "
                f"({repo.shard_count} shard(s), n={repo.n}, m={repo.m})"
            )
    except (ShardFormatError, ValueError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _describe_maintenance(record: dict) -> str:
    """One operator-readable line for a maintenance decision record."""
    action = record.get("action", "?")
    if action == "skip":
        pressure = record.get("pressure", {})
        return (
            f"skip: generations={pressure.get('generations', '?')} "
            f"dead_fraction={pressure.get('dead_fraction', 0.0):.3f} "
            "below thresholds"
        )
    if action == "compact":
        return (
            f"compacted (attempt {record.get('attempts', 1)}): "
            f"{record.get('reason', '')}"
        )
    if action == "busy":
        return (
            f"busy (attempt {record.get('attempt', 1)}): "
            f"{record.get('error', '')}"
        )
    if action == "repair":
        return f"repaired stale staging: {record.get('error', '')}"
    if action == "give-up":
        return (
            f"gave up after {record.get('attempts', '?')} attempt(s): "
            f"{record.get('reason', '')} (next cycle retries)"
        )
    return f"{action}: {record.get('error', record.get('reason', ''))}"


def _cmd_shard_maintain(args) -> int:
    from repro.setsystem.maintenance import MaintenanceLoop
    from repro.setsystem.shards import ShardFormatError

    retry = {
        knob: value
        for knob, value in {
            "attempts": args.retry_attempts,
            "backoff": args.retry_backoff,
            "backoff_max": args.retry_backoff_max,
            "jitter": args.retry_jitter,
            "seed": args.seed,
        }.items()
        if value is not None
    }
    retry.setdefault("attempts", 3)  # a maintainer should be patient
    try:
        loop = MaintenanceLoop(
            args.root,
            max_generations=args.max_generations,
            max_dead_fraction=args.max_dead_fraction,
            retry=retry,
            interval=args.interval,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def show(record: dict) -> None:
        print(_describe_maintenance(record), flush=True)

    try:
        if args.watch:
            records = loop.watch(
                cycles=args.cycles, duration=args.duration, on_cycle=show
            )
        else:
            records = [loop.run_once()]
            show(records[0])
    except (ShardFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("maintenance interrupted; the journal has the trail")
        return 0
    failed = any(r.get("action") in ("give-up", "error") for r in records)
    return 1 if failed else 0


def _cmd_shard_fsck(args) -> int:
    import json

    from repro.setsystem.durability import fsck_repository

    report = fsck_repository(
        args.root, repair=args.repair, deep=not args.shallow
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    for action in report.repaired:
        print(f"repaired: {action}")
    for finding in report.findings:
        print(str(finding))
    if report.maintenance:
        print(f"maintenance log (last {len(report.maintenance)}):")
        for record in report.maintenance:
            print(f"  {_describe_maintenance(record)}")
    mode = "shallow" if args.shallow else "deep"
    if report.ok:
        print(f"{args.root}: clean ({mode} sweep"
              f"{', after repair' if report.repaired else ''})")
        return 0
    print(
        f"{args.root}: {len(report.findings)} finding(s) ({mode} sweep)"
        + ("" if args.repair else " — rerun with --repair to resolve "
           "interrupted compactions and partial state"),
        file=sys.stderr,
    )
    return 1


def _cmd_shard_churn_script(args) -> int:
    from repro.setsystem import SetSystem, save
    from repro.workloads.churn import delete_storm, rolling_blog_watch

    generator = (
        rolling_blog_watch
        if args.workload == "rolling-blog-watch"
        else delete_storm
    )
    script = generator(
        topics=args.topics,
        blogs=args.blogs,
        generations=args.generations,
        batch=args.batch,
        seed=args.seed,
    )
    script.save(args.output)
    print(
        f"wrote {args.workload} script (n={script.n}, "
        f"base m={len(script.base)}, {len(script.batches)} batch(es), "
        f"{script.updates} op(s)) to {args.output}"
    )
    if args.base_instance:
        save(SetSystem(script.n, script.base), args.base_instance)
        print(f"wrote base instance to {args.base_instance}")
    return 0


def _cmd_worker_serve(args) -> int:
    from repro.engine import WorkerServer
    from repro.engine.transport.remote import _EXIT_TEST_ENV, _WEDGE_TEST_ENV

    _apply_cache_option(args)
    server = WorkerServer(args.root, host=args.host, port=args.port)
    host, port = server.address
    announce = (
        f"repro worker (pid {os.getpid()}) serving {server.root}, "
        f"listening on {host}:{port}"
    )
    if os.environ.get(_EXIT_TEST_ENV):
        # Test hook: announce, then die before ever serving — the
        # spawn_local_worker connect probe must catch this, loudly.
        server.stop()
        print(announce, flush=True)
        return 0
    if not os.environ.get(_WEDGE_TEST_ENV):
        # (Other test hook: bind and serve but never announce — the
        # spawn announce timeout must catch that, loudly.)
        print(announce, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.stop()
    return 0


def _cmd_worker_ping(args) -> int:
    from repro.engine import RetryPolicy, ping_worker

    try:
        policy = RetryPolicy(
            connect_timeout=args.connect_timeout,
            idle_timeout=args.connect_timeout,
        )
        report = ping_worker(args.worker, policy=policy, pings=args.count)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rtts = report["rtt_ms"]
    print(f"worker    : {report['worker']}")
    print(f"protocol  : v{report['protocol']}")
    print(f"pid       : {report['pid']}")
    print(f"root      : {report['root']}")
    print(
        f"rtt (ms)  : min {min(rtts):.3f} / avg {sum(rtts) / len(rtts):.3f} "
        f"/ max {max(rtts):.3f} over {len(rtts)} ping(s)"
    )
    return 0


def _cmd_solve(args, parser: argparse.ArgumentParser) -> int:
    from repro.setsystem.set_system import lower_bound_floor

    _apply_cache_option(args)
    if args.workers is not None and not Path(args.input).is_dir():
        parser.error(
            "--workers needs a shard-directory input (remote workers "
            "open repositories by path; see `repro shard create`)"
        )
    retry = _resolve_retry_flags(args, parser)
    if Path(args.input).is_dir():
        from repro.setsystem.shards import ShardFormatError
        from repro.streaming.sharded import ShardedSetStream

        try:
            stream = ShardedSetStream(
                args.input, workers=args.workers, retry=retry
            )
        except ShardFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        from repro.setsystem import load
        from repro.streaming.stream import SetStream

        try:
            system = load(args.input)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stream = SetStream(system)
    try:
        algorithm = _ALGORITHMS[args.algorithm](args)
        result = algorithm.solve(stream)
        result.lower_bound = stream.lower_bound
        status = (
            "cover" if stream.verify_solution(result.selection) else "PARTIAL"
        )
        _report_faults(stream)
        print(f"algorithm : {result.algorithm}")
        print(f"result    : {status} with {result.solution_size} sets")
        print(f"passes    : {result.passes}")
        print(f"space     : {result.peak_memory_words} words")
        if result.best_k is not None:
            print(f"best guess: k={result.best_k}")
        lb = result.lower_bound
        ratio = result.solution_size / lb if lb else 1.0
        floor = lower_bound_floor(stream.n, stream.max_set_size)
        print(f"lower bnd : {lb} = dual bound (ceil(n/max|S|) = {floor}), "
              f"cover/LB = {ratio:.3f}")
        if args.show_cover:
            print(f"sets      : {sorted(set(result.selection))}")
        return 0 if status == "cover" else 1
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def _resolve_retry_flags(args, parser) -> "dict | None":
    """Bundle the solve ``--retry-*`` flags into a RetryPolicy dict.

    Returns ``None`` when no flag was given (the fail-loud default).
    Validation happens in :class:`repro.engine.fault.RetryPolicy`, whose
    ``ValueError`` messages name the flags — surfaced here as the usual
    argparse usage errors.
    """
    flags = {
        "attempts": args.retry_attempts,
        "backoff": args.retry_backoff,
        "backoff_max": args.retry_backoff_max,
        "jitter": args.retry_jitter,
        "connect_timeout": args.connect_timeout,
        "idle_timeout": args.idle_timeout,
        "deadline": args.deadline,
        "eject_after": args.retry_eject_after,
        "rejoin_backoff": args.retry_rejoin_backoff,
        "ping_interval": args.ping_interval,
    }
    flags = {knob: value for knob, value in flags.items() if value is not None}
    if args.no_local_fallback:
        flags["local_fallback"] = False
    if not flags:
        return None
    if args.workers is None:
        parser.error(
            "the --retry-*/--deadline/--idle-timeout/--connect-timeout/"
            "--ping-interval/--no-local-fallback flags only apply with "
            "--workers"
        )
    flags.setdefault("seed", args.seed)  # deterministic backoff jitter
    from repro.engine import RetryPolicy

    try:
        RetryPolicy(**flags)  # validate now: usage error, not traceback
    except ValueError as exc:
        parser.error(str(exc))
    return flags


def _report_faults(stream) -> None:
    """Print the remote fault log (if any) to stderr, operator-style."""
    fault_log = getattr(stream, "fault_log", None)
    if not fault_log:
        return
    summary = fault_log.summary()
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in sorted(summary["by_kind"].items())
    )
    degraded = (
        " — degraded to a local scan" if summary["degraded_to_local"] else ""
    )
    print(
        f"faults    : survived {summary['events']} event(s) "
        f"[{kinds}]{degraded}",
        file=sys.stderr,
    )
    for event in fault_log.events:
        print(
            f"  [{event.kind}] {event.worker}: {event.detail}",
            file=sys.stderr,
        )


def _cmd_info(args) -> int:
    from repro.offline import fractional_optimum, greedy_cover
    from repro.setsystem import load

    system = load(args.input)
    density = (
        system.total_size() / (system.n * system.m) if system.n and system.m else 0.0
    )
    print(f"elements (n): {system.n}")
    print(f"sets (m)    : {system.m}")
    print(f"input size  : {system.total_size()} words")
    print(f"density     : {density:.4f}")
    print(f"sparsity (s): {system.sparsity()}")
    print(f"feasible    : {system.is_feasible()}")
    if args.bounds and system.is_feasible():
        upper = len(greedy_cover(system))
        lower, _ = fractional_optimum(system)
        print(f"optimum     : in [{lower:.2f}, {upper}] (LP lower, greedy upper)")
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments import available_suites, run_suite

    if args.list:
        for name, description in available_suites().items():
            print(f"{name:<14}{description}")
        return 0
    if args.suite is None:
        print("error: --suite is required (or use --list)", file=sys.stderr)
        return 2
    try:
        payload = run_suite(
            args.suite,
            seed=args.seed,
            output_dir=args.output_dir,
            docs_path=None if args.no_update_docs else args.docs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for title, table in payload["tables"].items():
        print(f"\n{title}\n{table}")
    report = Path(args.output_dir) / f"EXPERIMENTS_{args.suite}.json"
    print(f"\n[report saved to {report}]")
    if not args.no_update_docs:
        print(f"[tables refreshed in {args.docs}]")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "shard":
        if args.shard_command == "apply-delta":
            return _cmd_shard_apply_delta(args)
        if args.shard_command == "compact":
            return _cmd_shard_compact(args, parser)
        if args.shard_command == "churn-script":
            return _cmd_shard_churn_script(args)
        if args.shard_command == "fsck":
            return _cmd_shard_fsck(args)
        if args.shard_command == "maintain":
            return _cmd_shard_maintain(args)
        return _cmd_shard_create(args)
    if args.command == "worker":
        if args.worker_command == "ping":
            return _cmd_worker_ping(args)
        return _cmd_worker_serve(args)
    if args.command == "solve":
        return _cmd_solve(args, parser)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "experiments":
        return _cmd_experiments(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
