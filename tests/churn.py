"""Reusable churn-parity property framework (ISSUE 7 test archetype).

Drives random insert/delete/compact interleavings through the delta-shard
chain (:mod:`repro.setsystem.deltas`) and the incremental
:class:`repro.dynamic.DynamicCover` maintainer in lockstep against a
trivially-correct reference model, asserting after every step that

* the merged read view equals the reference merge (rows, in stable-id
  order),
* the maintained cover is valid and within the documented factor of the
  greedy cover of the live system, and
* compaction is byte-for-byte identical to writing the merged system
  from scratch;

and at scenario end that shard statistics, cost estimates, and a full
``iter_set_cover`` solve agree exactly between the merged chain and a
from-scratch rebuild.  ``tests/test_dynamic.py`` runs hundreds of these
scenarios across every encoding; the
module lives outside that file so future suites (and the experiments
orchestrator's tests) can reuse the generator and referee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core import iter_set_cover
from repro.dynamic import DynamicCover
from repro.offline import greedy_cover
from repro.setsystem import SetSystem
from repro.setsystem.deltas import MergedShardView, apply_delta, compact
from repro.setsystem.shards import ShardedRepository, write_shards
from repro.streaming.sharded import ShardedSetStream
from repro.utils.rng import as_generator

__all__ = [
    "ReferenceModel",
    "Scenario",
    "drive_scenario",
    "random_scenario",
]


class ReferenceModel:
    """The obviously-correct twin: a dict of live rows by stable id."""

    def __init__(self, n: int, base: "list[list[int]]"):
        self.n = n
        self.rows: "dict[int, list[int]]" = {
            i: sorted(row) for i, row in enumerate(base)
        }
        self.next_id = len(base)

    def apply(self, ops: "list[dict]") -> None:
        for op in ops:
            if op["op"] == "insert":
                self.rows[self.next_id] = sorted(op["elements"])
                self.next_id += 1
            else:
                del self.rows[op["id"]]

    def live(self) -> "list[list[int]]":
        """Live rows in stable-id order — the merged view's row order."""
        return [self.rows[key] for key in sorted(self.rows)]

    def compact(self) -> "dict[int, int]":
        """Renumber to the dense post-compaction id space.

        In-place compaction rewrites the repository as a plain family,
        so later delta generations address rows ``0..m_live-1`` in
        merged order.  Returns ``old id -> new id`` for callers that
        track ids across the compaction (e.g. a live maintainer).
        """
        old_ids = sorted(self.rows)
        self.rows = {new: self.rows[old] for new, old in enumerate(old_ids)}
        self.next_id = len(self.rows)
        return {old: new for new, old in enumerate(old_ids)}

    def system(self) -> SetSystem:
        return SetSystem(self.n, self.live())

    def deletable(self, batch_start_ids: "set[int]") -> "list[int]":
        """Ids whose deletion keeps every element covered.

        Restricted to ``batch_start_ids`` because a delta generation may
        only tombstone rows that were live in its *parent* view.
        """
        freq = [0] * self.n
        for row in self.rows.values():
            for element in row:
                freq[element] += 1
        return sorted(
            set_id
            for set_id in self.rows
            if set_id in batch_start_ids
            and all(freq[element] >= 2 for element in self.rows[set_id])
        )


@dataclass(frozen=True)
class Scenario:
    """One random interleaving: a base family plus delta/compact steps."""

    seed: int
    n: int
    base: "list[list[int]]"
    #: ``("delta", ops)`` or ``("compact", None)``, applied in order.
    steps: "list[tuple]" = field(default_factory=list)

    @property
    def updates(self) -> int:
        return sum(len(ops) for kind, ops in self.steps if kind == "delta")


def _feasible_base(rng, n: int, m: int) -> "list[list[int]]":
    """A random base family that is guaranteed to cover the universe."""
    rows = []
    # A covering backbone: consecutive blocks that partition [0, n).
    block = max(2, n // max(1, m // 4))
    for start in range(0, n, block):
        rows.append(list(range(start, min(n, start + block))))
    while len(rows) < m:
        size = 1 + int(rng.integers(max(2, n // 3)))
        rows.append(sorted(
            int(e) for e in rng.choice(n, size=min(size, n), replace=False)
        ))
    rng.shuffle(rows)
    return [sorted(row) for row in rows]


def random_scenario(
    seed: int,
    n: "int | None" = None,
    base_m: "int | None" = None,
    steps: "int | None" = None,
) -> Scenario:
    """A seeded random insert/delete/compact interleaving.

    Every delete respects the frequency rule (each element of the victim
    stays covered elsewhere), so the live system is feasible at every
    prefix and solve referees never hit an uncoverable universe.
    """
    rng = as_generator(seed)
    n = n if n is not None else 12 + int(rng.integers(20))
    base_m = base_m if base_m is not None else 16 + int(rng.integers(24))
    steps = steps if steps is not None else 3 + int(rng.integers(4))
    base = _feasible_base(rng, n, base_m)
    model = ReferenceModel(n, base)
    out: "list[tuple]" = []
    for _ in range(steps):
        if rng.random() < 0.25 and out:
            out.append(("compact", None))
            model.compact()
            continue
        ops: "list[dict]" = []
        batch_start = set(model.rows)
        for _ in range(1 + int(rng.integers(6))):
            victims = model.deletable(batch_start)
            if victims and rng.random() < 0.45:
                victim = victims[int(rng.integers(len(victims)))]
                ops.append({"op": "delete", "id": victim})
                batch_start.discard(victim)
            else:
                size = 1 + int(rng.integers(max(2, n // 2)))
                row = sorted(
                    int(e)
                    for e in rng.choice(n, size=min(size, n), replace=False)
                )
                ops.append({"op": "insert", "elements": row})
            model.apply(ops[-1:])
        out.append(("delta", ops))
    return Scenario(seed=seed, n=n, base=base, steps=out)


def _assert_bit_identical(actual: Path, expected: Path, context: str) -> None:
    actual_names = sorted(p.name for p in Path(actual).iterdir())
    expected_names = sorted(p.name for p in Path(expected).iterdir())
    assert actual_names == expected_names, (
        f"{context}: file sets differ: {actual_names} != {expected_names}"
    )
    for name in actual_names:
        assert (Path(actual) / name).read_bytes() == (
            Path(expected) / name
        ).read_bytes(), f"{context}: {name} is not byte-identical"


def _assert_stats_parity(root: Path, reference: SetSystem,
                         tmp: Path, chunk_rows: int, encoding: str,
                         context: str) -> None:
    """Merged-view stats + cost estimates == a from-scratch rebuild's."""
    rebuilt = write_shards(
        tmp / f"stats-ref-{context}", reference,
        chunk_rows=chunk_rows, encoding=encoding,
    )
    try:
        with MergedShardView(root) as view, ShardedRepository(rebuilt) as ref:
            assert [
                view.compute_shard_stats(shard)
                for shard in range(view.shard_count)
            ] == [
                meta["stats"] for meta in ref._shard_meta
            ], f"{context}: merged shard stats diverge from rebuild"
            assert view.shard_cost_estimates() == ref.shard_cost_estimates(), (
                f"{context}: merged cost estimates diverge from rebuild"
            )
    finally:
        import shutil

        shutil.rmtree(rebuilt, ignore_errors=True)


def drive_scenario(
    scenario: Scenario,
    tmp_path: Path,
    chunk_rows: int = 7,
    encoding: str = "auto",
    solve: bool = True,
    theta: float = 2.0,
    restart_every: "int | None" = None,
) -> dict:
    """Replay one scenario, asserting every churn-parity property.

    With ``restart_every=k`` the maintainer is checkpointed to disk and
    rebuilt via :meth:`DynamicCover.restore` after every ``k``-th step —
    simulating a process restart mid-churn.  The restored maintainer
    must carry every property (validity, factor bound, counters) across
    the restart, so the same aggregate assertions apply unchanged.

    Returns the collected endgame facts (cover sizes, update counters)
    so callers can make aggregate assertions across many scenarios.
    """
    tmp_path = Path(tmp_path)
    root = write_shards(
        tmp_path / "root", SetSystem(scenario.n, scenario.base),
        chunk_rows=chunk_rows, encoding=encoding,
    )
    model = ReferenceModel(scenario.n, scenario.base)
    dyn = DynamicCover(scenario.n, enumerate(scenario.base), theta=theta)
    # Disk ids renumber at every in-place compaction; the in-RAM
    # maintainer is untouched by disk compaction, so translate.
    dyn_ids = {i: i for i in range(len(scenario.base))}
    next_dyn = len(scenario.base)
    compactions = 0
    restarts = 0
    for index, (kind, ops) in enumerate(scenario.steps):
        context = f"seed={scenario.seed} step={index}"
        if kind == "delta":
            apply_delta(root, ops)
            for op in ops:
                if op["op"] == "insert":
                    dyn.insert(next_dyn, op["elements"])
                    dyn_ids[model.next_id] = next_dyn
                    next_dyn += 1
                else:
                    dyn.delete(dyn_ids.pop(op["id"]))
                model.apply([op])
        else:
            compact(root)
            compactions += 1
            remap = model.compact()
            dyn_ids = {new: dyn_ids[old] for old, new in remap.items()}
            # A compacted repository must be a plain (delta-free) repo,
            # byte-identical to writing the merged system from scratch.
            rebuilt = write_shards(
                tmp_path / f"compact-ref-{index}", model.system(),
                chunk_rows=chunk_rows, encoding=encoding,
            )
            _assert_bit_identical(root, rebuilt, context)
        if restart_every and (index + 1) % restart_every == 0:
            # Simulated process restart: persist, drop, restore.  The
            # checkpoint is bound to the chain's current content token,
            # so a stale file could never restore silently.
            ckpt = dyn.checkpoint(tmp_path / "cover.ckpt", root=root)
            dyn = DynamicCover.restore(ckpt, root=root)
            restarts += 1
        with MergedShardView(root) as view:
            merged = [sorted(row) for row in view.iter_rows()]
        assert merged == model.live(), (
            f"{context}: merged view diverged from the reference model"
        )
        dyn.verify()
        greedy = len(greedy_cover(model.system()))
        assert dyn.cover_size <= dyn.approx_factor * max(1, greedy), (
            f"{context}: cover {dyn.cover_size} exceeds "
            f"{dyn.approx_factor} x greedy({greedy})"
        )
    final = model.system()
    _assert_stats_parity(
        root, final, tmp_path, chunk_rows, encoding,
        f"seed={scenario.seed} endgame",
    )
    outcome = {
        "seed": scenario.seed,
        "updates": scenario.updates,
        "compactions": compactions,
        "restarts": restarts,
        "live_rows": final.m,
        "cover_size": dyn.cover_size,
        "stats": dyn.stats(),
    }
    if solve:
        rebuilt = write_shards(
            tmp_path / "solve-ref", final,
            chunk_rows=chunk_rows, encoding=encoding,
        )
        results = []
        for path in (root, rebuilt):
            stream = ShardedSetStream(path)
            try:
                results.append(iter_set_cover(
                    stream, delta=0.5, seed=scenario.seed,
                    use_polylog_factors=False, include_rho=False,
                ))
            finally:
                stream.close()
        merged_res, rebuilt_res = results
        assert merged_res.selection == rebuilt_res.selection, (
            f"seed={scenario.seed}: merged vs rebuilt covers diverge"
        )
        assert merged_res.passes == rebuilt_res.passes
        assert merged_res.peak_memory_words == rebuilt_res.peak_memory_words
        outcome["solution_size"] = merged_res.solution_size
    return outcome
