"""Tests for the command-line interface."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.setsystem import load

from bounds import dual_bound_oracle


class TestGenerate:
    @pytest.mark.parametrize("workload", ["uniform", "planted", "zipf", "blog"])
    def test_generates_loadable_instances(self, tmp_path, workload, capsys):
        path = tmp_path / f"{workload}.json"
        code = main(
            ["generate", workload, str(path), "--n", "40", "--m", "30", "--seed", "1"]
        )
        assert code == 0
        system = load(path)
        assert system.n == 40
        out = capsys.readouterr().out
        assert workload in out

    def test_text_format(self, tmp_path):
        path = tmp_path / "inst.txt"
        assert main(["generate", "uniform", str(path), "--n", "10", "--m", "8"]) == 0
        assert load(path).n == 10


class TestSolve:
    @pytest.fixture
    def instance_path(self, tmp_path):
        path = tmp_path / "inst.json"
        main(["generate", "planted", str(path), "--n", "60", "--m", "40",
              "--opt", "4", "--seed", "3"])
        return str(path)

    @pytest.mark.parametrize(
        "algorithm", ["iter", "store-all", "multi-pass", "threshold", "er14",
                      "cw16", "sg09"]
    )
    def test_every_algorithm_solves(self, instance_path, algorithm, capsys):
        code = main(["solve", instance_path, "--algorithm", algorithm,
                     "--no-polylog"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cover with" in out
        assert "passes" in out

    def test_show_cover(self, instance_path, capsys):
        main(["solve", instance_path, "--algorithm", "store-all", "--show-cover"])
        assert "sets      :" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm", ["iter", "store-all", "multi-pass", "threshold", "er14",
                      "cw16", "sg09"]
    )
    def test_every_algorithm_prints_the_certified_lower_bound(
        self, instance_path, tmp_path, algorithm, capsys
    ):
        """``lower bnd`` is the dual bound from metadata, the same in memory
        and out of core, at or above ceil(n/Δ) and at or below the cover it
        is printed with."""
        system = load(instance_path)
        floor = -(-system.n // system.max_set_size())
        lb = dual_bound_oracle(system.n, system.sets)
        assert floor <= lb
        shards = tmp_path / "inst.shards"
        assert main(["shard", "create", instance_path, str(shards),
                     "--chunk-rows", "7"]) == 0
        for source in (instance_path, str(shards)):
            capsys.readouterr()
            assert main(["solve", source, "--algorithm", algorithm,
                         "--no-polylog"]) == 0
            lines = capsys.readouterr().out.splitlines()
            size = int(next(l for l in lines if l.startswith("result")).split()[4])
            (bound,) = [l for l in lines if l.startswith("lower bnd :")]
            assert bound == (f"lower bnd : {lb} = dual bound (ceil(n/max|S|) "
                             f"= {floor}), cover/LB = {size / lb:.3f}"), source
            assert lb <= size

    def test_delta_flag(self, instance_path, capsys):
        code = main(["solve", instance_path, "--delta", "1.0", "--no-polylog"])
        assert code == 0


class TestInfo:
    def test_basic_stats(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(["generate", "uniform", str(path), "--n", "30", "--m", "20"])
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "elements (n): 30" in out
        assert "feasible    : True" in out

    def test_bounds(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(["generate", "planted", str(path), "--n", "30", "--m", "20",
              "--opt", "3"])
        assert main(["info", str(path), "--bounds"]) == 0
        assert "optimum     : in [" in capsys.readouterr().out


class TestShard:
    def test_shard_then_solve_out_of_core(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        main(["generate", "planted", str(instance), "--n", "60", "--m", "40",
              "--opt", "4", "--seed", "3"])
        shards = tmp_path / "inst.shards"
        assert main(["shard", "create", str(instance), str(shards),
                     "--chunk-rows", "7"]) == 0
        out = capsys.readouterr().out
        assert "shard(s)" in out and "m=40" in out

        # A directory input routes through ShardedSetStream; results match
        # the in-memory run of the same file.
        assert main(["solve", str(shards), "--algorithm", "iter",
                     "--no-polylog"]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["solve", str(instance), "--algorithm", "iter",
                     "--no-polylog"]) == 0
        memory_out = capsys.readouterr().out
        pick = lambda out, key: [l for l in out.splitlines() if l.startswith(key)]
        assert pick(sharded_out, "result") == pick(memory_out, "result")
        assert pick(sharded_out, "passes") == pick(memory_out, "passes")

    def test_sparse_uniform_generator(self, tmp_path):
        path = tmp_path / "sparse.json"
        assert main(["generate", "sparse-uniform", str(path), "--n", "50",
                     "--m", "30", "--expected-size", "4"]) == 0
        assert load(path).m == 30

    @pytest.mark.parametrize("argv", [
        ["shard", "inst.json", "out"],            # the pre-subcommand alias
        ["shard", "backfill-stats", "repo"],      # v1/v2 -> v3 upgrade
    ])
    def test_removed_shard_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_solve_refuses_an_older_manifest_schema(self, tmp_path, capsys):
        import json

        instance = tmp_path / "inst.json"
        main(["generate", "uniform", str(instance), "--n", "20", "--m", "15"])
        repo = tmp_path / "repo"
        main(["shard", "create", str(instance), str(repo)])
        manifest = json.loads((repo / "manifest.json").read_text())
        manifest["schema"] = "repro.shards/v2"
        (repo / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["solve", str(repo)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "repro.shards/v2" in err

    def test_shard_create_subcommand(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        main(["generate", "uniform", str(instance), "--n", "20", "--m", "15"])
        assert main(["shard", "create", str(instance),
                     str(tmp_path / "repo")]) == 0
        assert "shard(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("suffix, document", [
        # Unsorted rows, duplicates, an empty set and a full one.
        (".json", '{"n": 9, "sets": [[8, 0, 3, 3], [4, 4], [], '
                  '[8, 7, 6, 5, 4, 3, 2, 1, 0], [7, 1, 7]]}'),
        (".txt", "9 5\n8 0 3 3\n4 4\n\n8 7 6 5 4 3 2 1 0\n7 1 7\n"),
    ], ids=["json", "text"])
    def test_shard_create_builds_no_set_system(self, tmp_path, monkeypatch,
                                               capsys, suffix, document):
        """`shard create` feeds the parsed rows straight to the writer's
        chunk kernel: with SetSystem unusable it still writes the very
        repository `write_shards(load(instance))` writes."""
        from repro.setsystem import SetSystem, write_shards

        instance = tmp_path / f"inst{suffix}"
        instance.write_text(document)
        expected = write_shards(tmp_path / "expected", load(instance), chunk_rows=2)

        def no_set_system(*args, **kwargs):
            raise AssertionError("shard create built a SetSystem")

        monkeypatch.setattr(SetSystem, "__init__", no_set_system)
        out = tmp_path / "out"
        assert main(["shard", "create", str(instance), str(out),
                     "--chunk-rows", "2"]) == 0
        assert "wrote 3 shard(s)" in capsys.readouterr().out
        monkeypatch.undo()
        files = lambda path: {p.name: p.read_bytes() for p in path.iterdir()}
        assert files(out) == files(expected)

    @pytest.mark.parametrize("document, message", [
        ('{"n": 2.7, "sets": [[0]]}', "'n' must be an integer, got 2.7"),
        ('{"n": "3", "sets": [[0]]}', "'n' must be an integer, got '3'"),
        ('{"n": true, "sets": [[0]]}', "'n' must be an integer, got True"),
        ('{"n": 3, "sets": 5}', "'sets' must be an array of sets, got int"),
        ('{"n": 3, "sets": [5]}', "set 0 is not a collection of elements"),
        ('{"n": 3, "sets": [[0], null]}', "set 1 is not a collection of elements"),
        ('{"n": 3, "sets": [[0], [2, 3]]}', "set 1 contains element 3 outside"),
    ], ids=["n-float", "n-string", "n-bool", "sets-int", "set-int", "set-null",
            "set-out-of-range"])
    def test_shard_create_refuses_a_malformed_document(self, tmp_path, capsys,
                                                       document, message):
        """A bad `n` is never coerced and a bad `sets` never escapes as a
        traceback: `error: ...`, exit 1, and no repository is left."""
        instance = tmp_path / "bad.json"
        instance.write_text(document)
        assert main(["shard", "create", str(instance), str(tmp_path / "repo")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "repo").exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            load(instance)


class TestExperiments:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for suite in ("smoke", "parity", "tradeoff", "large"):
            assert suite in out

    def test_suite_required(self, capsys):
        assert main(["experiments"]) == 2

    def test_smoke_suite_writes_report(self, tmp_path, capsys):
        assert main(["experiments", "--suite", "smoke",
                     "--output-dir", str(tmp_path), "--no-update-docs"]) == 0
        assert (tmp_path / "EXPERIMENTS_smoke.json").exists()
        out = capsys.readouterr().out
        assert "parity" in out.lower()
        assert "report saved" in out


class TestJobs:
    """Solve's engine flags (``--workers``), its refusals, and ``worker``."""

    @pytest.fixture
    def instance_path(self, tmp_path):
        path = tmp_path / "inst.json"
        main(["generate", "planted", str(path), "--n", "40", "--m", "30",
              "--opt", "4", "--seed", "3"])
        return str(path)

    @pytest.mark.parametrize("workers", [
        "", ":80", "host:", "host", "host:0", "host:-4", "host:65536",
        "host:http", "a:1,,b:2",
    ])
    def test_invalid_workers_rejected(self, workers, capsys):
        """Usage errors naming the flag (bad port, empty host, missing
        colon), never tracebacks."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["solve", "x", "--workers", workers])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "host:port" in err

    def test_transport_worker_flag_combinations(self, tmp_path, capsys):
        shards = tmp_path / "repo"
        instance = tmp_path / "inst.json"
        main(["generate", "uniform", str(instance), "--n", "12", "--m", "8"])
        main(["shard", "create", str(instance), str(shards)])
        capsys.readouterr()
        # Workers on a non-directory input, or retry flags without
        # workers: argparse usage errors naming --workers, exit code 2.
        cases = [
            ["solve", str(instance), "--workers", "h:1"],
            ["solve", str(shards), "--retry-attempts", "3"],
        ]
        for argv in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert "--workers" in capsys.readouterr().err, argv
        assert build_parser().parse_args(["solve", "x"]).workers is None

    def test_worker_serve_requires_root(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["worker", "serve"])
        assert excinfo.value.code == 2
        assert "--root" in capsys.readouterr().err

    def test_solve_exits_1_when_the_referee_rejects_the_cover(
        self, instance_path, capsys, monkeypatch
    ):
        from repro import cli
        from repro.core.result import StreamingCoverResult

        class ClaimsFeasible:
            def solve(self, stream):
                return StreamingCoverResult(
                    selection=[0], passes=0, peak_memory_words=0,
                    algorithm="claims-feasible", feasible=True,
                )

        monkeypatch.setitem(
            cli._ALGORITHMS, "threshold", lambda args: ClaimsFeasible()
        )
        code = main(["solve", instance_path, "--algorithm", "threshold"])
        assert code == 1
        assert "result    : PARTIAL with 1 sets" in capsys.readouterr().out

    def test_solve_rejects_a_non_integer_element(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text('{"n": 3, "sets": [[0, 1.5], [2]]}')
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code != 0
        assert "result" not in captured.out
        assert "set 0 contains a non-integer element" in captured.err
        # `shard create` refuses the same file with the same message.
        assert main(["shard", "create", str(path), str(tmp_path / "repo")]) != 0
        assert "set 0 contains a non-integer element" in capsys.readouterr().err
        assert not (tmp_path / "repo").exists()

    def test_solve_rejects_planner_flag(self, instance_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", instance_path, "--planner", "off"])
        assert excinfo.value.code == 2
        assert "--planner" in capsys.readouterr().err

    def test_solve_rejects_backend_flag(self, instance_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", instance_path, "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestWorkerPing:
    def test_ping_running_worker(self, tmp_path, capsys):
        from repro.engine import WorkerServer
        from repro.engine.transport.remote import PROTOCOL_VERSION

        with WorkerServer(tmp_path) as server:
            server.start()
            host, port = server.address
            code = main(["worker", "ping", f"{host}:{port}", "--count", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"worker    : {host}:{port}" in out
        assert f"protocol  : v{PROTOCOL_VERSION}" in out
        assert "pid       :" in out
        assert "rtt (ms)  :" in out and "over 2 ping(s)" in out

    def test_ping_unreachable_worker_fails_cleanly(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["worker", "ping", f"127.0.0.1:{port}",
                     "--connect-timeout", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot reach remote worker" in err

    def test_ping_rejects_multiple_workers(self, capsys):
        code = main(["worker", "ping", "a:1,b:2"])
        assert code == 1
        assert "exactly one worker" in capsys.readouterr().err


class TestRetryFlags:
    @pytest.fixture
    def shards(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        main(["generate", "planted", str(instance), "--n", "24", "--m",
              "16", "--opt", "3", "--seed", "5"])
        shards = tmp_path / "repo"
        main(["shard", "create", str(instance), str(shards)])
        capsys.readouterr()
        return str(shards)

    @pytest.mark.parametrize("flags", [
        ["--retry-attempts", "3"],
        ["--deadline", "5"],
        ["--idle-timeout", "9"],
        ["--no-local-fallback"],
    ])
    def test_retry_flags_require_remote_transport(self, shards, flags,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", shards] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "only apply with --workers" in err

    @pytest.mark.parametrize("flag, value, named", [
        ("--retry-attempts", "0", "--retry-attempts"),
        ("--retry-jitter", "2", "--retry-jitter"),
        ("--retry-backoff", "-1", "--retry-backoff"),
        ("--deadline", "0", "--deadline"),
        ("--idle-timeout", "-2", "--idle-timeout"),
        ("--retry-eject-after", "0", "--retry-eject-after"),
    ])
    def test_invalid_retry_values_name_the_flag(self, shards, flag, value,
                                                named, capsys):
        """Validation lives in RetryPolicy; the CLI surfaces it as a
        usage error naming the flag — never a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", shards, "--workers", "h:1", flag, value])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_remote_solve_with_retry_flags(self, shards, capsys):
        """The full path: retry flags reach the executor and the solve
        matches the local run line for line."""
        from repro.engine import WorkerServer

        assert main(["solve", shards, "--algorithm", "threshold"]) == 0
        local_out = capsys.readouterr().out
        with WorkerServer(Path(shards).parent) as server:
            server.start()
            host, port = server.address
            code = main([
                "solve", shards, "--algorithm", "threshold",
                "--workers", f"{host}:{port}",
                "--retry-attempts", "3", "--retry-backoff", "0.05",
                "--deadline", "60", "--seed", "0",
            ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == local_out
        # No faults happened, so no fault report lands on stderr.
        assert "faults" not in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "x", "--algorithm", "bogus"])

    def test_experiments_suite_typo_is_a_clean_error(self, capsys):
        assert main(["experiments", "--suite", "parityy",
                     "--no-update-docs"]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestShardDurability:
    """`shard fsck`, `--force`, `--output` validation, `--checkpoint`."""

    @pytest.fixture
    def chain(self, tmp_path, capsys):
        import json

        from repro.setsystem import SetSystem, save
        from repro.setsystem.deltas import apply_delta

        save(
            SetSystem(8, [[0, 1], [2, 3], [4, 5], [6, 7], [1, 2], [5, 6]]),
            tmp_path / "base.json",
        )
        root = tmp_path / "repo"
        main(["shard", "create", str(tmp_path / "base.json"), str(root),
              "--chunk-rows", "2"])
        apply_delta(root, [{"op": "insert", "elements": [0, 3, 6]},
                           {"op": "delete", "id": 4}])
        capsys.readouterr()
        return root

    def test_fsck_clean_repository(self, chain, capsys):
        assert main(["shard", "fsck", str(chain)]) == 0
        assert "clean (deep sweep)" in capsys.readouterr().out

    def test_fsck_reports_typed_findings(self, chain, capsys):
        shard = sorted(chain.glob("shard-*.bin"))[0]
        shard.write_bytes(b"\xff" + shard.read_bytes()[1:])
        assert main(["shard", "fsck", str(chain)]) == 1
        captured = capsys.readouterr()
        assert "shard-checksum" in captured.out
        assert "finding(s)" in captured.err

    def test_fsck_shallow_skips_checksums(self, chain, capsys):
        shard = sorted(chain.glob("shard-*.bin"))[0]
        shard.write_bytes(b"\xff" + shard.read_bytes()[1:])
        assert main(["shard", "fsck", str(chain), "--shallow"]) == 0
        assert "clean (shallow sweep)" in capsys.readouterr().out

    def test_fsck_json_report(self, chain, capsys):
        import json

        assert main(["shard", "fsck", str(chain), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.fsck/v1"
        assert payload["findings"] == []

    def test_fsck_repair_discards_stale_staging(self, chain, capsys):
        from repro.setsystem.durability import staging_dir_for

        staging_dir_for(chain).mkdir()
        assert main(["shard", "fsck", str(chain)]) == 1
        assert "stale-staging" in capsys.readouterr().out
        assert main(["shard", "fsck", str(chain), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired:" in out and "after repair" in out
        assert not staging_dir_for(chain).exists()

    def test_compact_and_apply_delta_refuse_stale_staging_until_forced(
        self, chain, capsys
    ):
        import json

        from repro.setsystem.durability import staging_dir_for

        staging_dir_for(chain).mkdir()
        ops = chain.parent / "ops.json"
        ops.write_text(json.dumps([{"op": "insert", "elements": [0, 7]}]))
        assert main(["shard", "apply-delta", str(chain), str(ops)]) == 1
        assert "stale staging" in capsys.readouterr().err
        assert main(["shard", "compact", str(chain)]) == 1
        assert "stale staging" in capsys.readouterr().err
        assert main(["shard", "compact", str(chain), "--force"]) == 0
        assert "compacted" in capsys.readouterr().out
        assert not staging_dir_for(chain).exists()

    @pytest.mark.parametrize("dest", ["inside", ".", "sub/deep"])
    def test_compact_output_inside_source_is_a_usage_error(
        self, chain, dest, capsys
    ):
        target = chain if dest == "." else chain / dest
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "compact", str(chain), "--output", str(target)])
        assert excinfo.value.code == 2
        assert "inside the source repository" in capsys.readouterr().err

    def test_compact_output_nonempty_dir_is_a_usage_error(
        self, chain, tmp_path, capsys
    ):
        full = tmp_path / "full"
        full.mkdir()
        (full / "x").touch()
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "compact", str(chain), "--output", str(full)])
        assert excinfo.value.code == 2
        assert "not an empty directory" in capsys.readouterr().err

    def test_apply_delta_checkpoint_survives_restart(
        self, chain, tmp_path, capsys
    ):
        import json

        from repro.dynamic import DynamicCover

        ckpt = tmp_path / "cover.ckpt"
        batch1 = tmp_path / "b1.json"
        batch1.write_text(json.dumps([{"op": "insert", "elements": [0, 7]}]))
        assert main(["shard", "apply-delta", str(chain), str(batch1),
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr()
        assert "checkpoint" in out.out and "full solve(s)" in out.out
        assert "note:" not in out.err
        # Second invocation restores (chain token still matches) and
        # keeps maintaining incrementally — no stale note, no rebuild.
        batch2 = tmp_path / "b2.json"
        batch2.write_text(json.dumps([{"op": "delete", "id": 3}]))
        assert main(["shard", "apply-delta", str(chain), str(batch2),
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr()
        assert "note:" not in out.err
        restored = DynamicCover.restore(ckpt, root=chain)
        restored.verify()
        assert restored.stats()["updates"] == 2
        assert restored.stats()["full_solves"] == 0

    def test_apply_delta_checkpoint_stale_rebuilds_loudly(
        self, chain, tmp_path, capsys
    ):
        import json

        from repro.setsystem.deltas import apply_delta

        ckpt = tmp_path / "cover.ckpt"
        batch = tmp_path / "b.json"
        batch.write_text(json.dumps([{"op": "insert", "elements": [3, 7]}]))
        assert main(["shard", "apply-delta", str(chain), str(batch),
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        # The chain moves without the checkpoint being told.
        apply_delta(chain, [{"op": "insert", "elements": [1, 4]}])
        assert main(["shard", "apply-delta", str(chain), str(batch),
                     "--checkpoint", str(ckpt)]) == 0
        assert "note:" in capsys.readouterr().err

    def test_apply_delta_corrupt_checkpoint_is_an_error(
        self, chain, tmp_path, capsys
    ):
        import json

        ckpt = tmp_path / "cover.ckpt"
        batch = tmp_path / "b.json"
        batch.write_text(json.dumps([{"op": "insert", "elements": [3, 7]}]))
        assert main(["shard", "apply-delta", str(chain), str(batch),
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        ckpt.write_text("{corrupt")
        assert main(["shard", "apply-delta", str(chain), str(batch),
                     "--checkpoint", str(ckpt)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fsck_legacy_alias_is_not_hijacked(self, chain, capsys):
        # `repro shard fsck X` must reach the fsck verb, not the
        # `shard create fsck X` compatibility alias.
        assert main(["shard", "fsck", str(chain)]) == 0
        assert "clean" in capsys.readouterr().out


class TestShardMaintain:
    """`shard maintain`: the operator surface of the self-healing
    maintenance loop."""

    @pytest.fixture
    def chain(self, tmp_path, capsys):
        from repro.setsystem import SetSystem, save
        from repro.setsystem.deltas import apply_delta

        save(
            SetSystem(8, [[0, 1], [2, 3], [4, 5], [6, 7], [1, 2], [5, 6]]),
            tmp_path / "base.json",
        )
        root = tmp_path / "repo"
        main(["shard", "create", str(tmp_path / "base.json"), str(root),
              "--chunk-rows", "2"])
        apply_delta(root, [{"op": "insert", "elements": [0, 3, 6]},
                           {"op": "delete", "id": 4}])
        capsys.readouterr()
        return root

    def test_maintain_folds_then_skips(self, chain, capsys):
        from repro.setsystem.maintenance import read_maintenance_log

        assert main(["shard", "maintain", str(chain),
                     "--max-generations", "1"]) == 0
        assert "compacted (attempt 1)" in capsys.readouterr().out
        assert read_maintenance_log(chain)[-1]["action"] == "compact"
        # Pressure is gone: the next cycle journals a skip.
        assert main(["shard", "maintain", str(chain),
                     "--max-generations", "1"]) == 0
        assert "skip: generations=0" in capsys.readouterr().out

    def test_maintain_watch_runs_bounded_cycles(self, chain, capsys):
        assert main(["shard", "maintain", str(chain), "--watch",
                     "--cycles", "2", "--interval", "0",
                     "--max-generations", "1"]) == 0
        out = capsys.readouterr().out
        assert "compacted (attempt 1)" in out
        assert "skip:" in out

    def test_maintain_gives_up_loudly_under_contention(self, chain, capsys):
        from repro.setsystem.durability import StagingLock

        with StagingLock(chain):  # a live compactor holds the marker
            code = main(["shard", "maintain", str(chain),
                         "--max-generations", "1",
                         "--retry-attempts", "2",
                         "--retry-backoff", "0.01"])
        assert code == 1
        out = capsys.readouterr().out
        assert "gave up after 2 attempt(s)" in out
        # The per-attempt trail lives in the journal, not on stdout.
        from repro.setsystem.maintenance import read_maintenance_log

        actions = [r["action"] for r in read_maintenance_log(chain)]
        assert actions == ["busy", "busy", "give-up"]

    def test_maintain_validates_knobs(self, chain, capsys):
        assert main(["shard", "maintain", str(chain),
                     "--max-generations", "0"]) == 2
        assert "max_generations" in capsys.readouterr().err

    def test_maintain_missing_repository_is_an_error(self, tmp_path, capsys):
        assert main(["shard", "maintain", str(tmp_path / "nowhere")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fsck_surfaces_the_maintenance_tail(self, chain, capsys):
        assert main(["shard", "maintain", str(chain),
                     "--max-generations", "1"]) == 0
        capsys.readouterr()
        assert main(["shard", "fsck", str(chain)]) == 0
        out = capsys.readouterr().out
        assert "maintenance log (last 1):" in out
        assert "compacted (attempt 1)" in out

    def test_compact_online_flag(self, chain, capsys):
        # In-place compaction always stages lock-free: no such flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "compact", str(chain), "--online"])
        assert excinfo.value.code == 2
        assert "--online" in capsys.readouterr().err
        assert main(["shard", "compact", str(chain)]) == 0
        assert "compacted 1 pending generation(s)" in capsys.readouterr().out

    def test_compact_online_with_output_is_a_usage_error(self, chain,
                                                         tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "compact", str(chain), "--online",
                  "--output", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--online" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_maintain_legacy_alias_is_not_hijacked(self, chain, capsys):
        # `repro shard maintain X` must reach the maintain verb, not the
        # `shard create maintain X` compatibility alias.
        assert main(["shard", "maintain", str(chain),
                     "--max-generations", "99"]) == 0
        assert "skip:" in capsys.readouterr().out
