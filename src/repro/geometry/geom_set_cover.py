"""``algGeomSC`` — the geometric streaming algorithm (Figure 4.1, Thm 4.6).

For points in the plane and ranges that are all discs, all axis-parallel
rectangles, or all fat triangles, a slightly modified ``iterSetCover``
achieves O~(n) space — *independent of m* — in O(1) passes (for
delta = 1/4):

per iteration (three passes):

1. **heavy pass** — pick on the fly every shape covering at least ``n/k``
   still-uncovered points (the test is exact here: the points are in
   memory, no sample needed);
2. **canonical pass** — draw a sample ``S`` of the uncovered points of size
   ``c rho k (n/k)^delta log m log n`` and build the canonical
   representation of the light shapes projected onto ``S``
   (``compCanonicalRep``); the pool is near-linear even when m is
   quadratic, because distinct shallow shapes share canonical pieces;
   then ``algOfflineSC`` covers ``S`` from the pool;
3. **replacement pass** — replace each chosen canonical piece by a streamed
   superset shape, updating the uncovered set.

After ceil(1/delta) iterations at most ~k points remain and one final pass
covers them by arbitrary containing shapes (adding <= k sets).

All guesses k = 2^i run in lockstep (a shape stream records no lower
bound to pick one by); total passes are 3 * ceil(1/delta) + 1.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import GuessStats, StreamingCoverResult
from repro.geometry.canonical import CanonicalRepresentation
from repro.geometry.primitives import AxisRect, Disc, FatTriangle
from repro.geometry.stream import ShapeStream
from repro.offline.base import OfflineSolver
from repro.offline.greedy import GreedySolver
from repro.sampling.relative_approximation import draw_sample
from repro.streaming.memory import MemoryMeter
from repro.utils.mathutil import ceil_inverse, powers_of_two_up_to
from repro.utils.rng import as_generator

__all__ = ["GeometricSetCover", "geometric_set_cover"]


def _default_mode(shape) -> str:
    """Paper-faithful canonicalization mode per family (DESIGN.md §3.3)."""
    if isinstance(shape, Disc):
        return "dedupe"
    if isinstance(shape, (AxisRect, FatTriangle)):
        return "split"
    raise TypeError(f"unsupported shape type {type(shape).__name__}")


class _GeomGuessState:
    """Lockstep execution state for one guess k of the optimal cover size."""

    def __init__(self, k: int, n: int, meter: MemoryMeter):
        self.k = k
        self.meter = meter
        self.uncovered: set[int] = set(range(n))
        self.meter.charge(n)  # uncovered ids (points themselves are shared)
        self.solution: list[int] = []
        self.solution_set: set[int] = set()
        self.stats = GuessStats(
            k=k,
            solution_size=None,
            covered_after_iterations=False,
            peak_memory_words=0,
        )
        # per-iteration scratch
        self.sample_ids: frozenset[int] = frozenset()
        self.canonical: "CanonicalRepresentation | None" = None
        self.chosen_pieces: list = []
        self.heavy_threshold: float = 0.0
        self._scratch_words = 0

    def pick(self, shape_id: int) -> None:
        if shape_id not in self.solution_set:
            self.solution.append(shape_id)
            self.solution_set.add(shape_id)
            self.meter.charge(1)


class GeometricSetCover:
    """The Points-Shapes streaming algorithm as a reusable object.

    Parameters
    ----------
    delta:
        Trade-off parameter; the paper's headline O(1)-pass O~(n)-space
        result sets delta = 1/4 (analysis needs delta <= 1/4).
    solver:
        Offline black box used on the canonical projected instance.
    sample_constant / use_polylog_factors:
        Sampling constants, as in :class:`~repro.core.IterSetCoverConfig`.
    mode:
        ``None`` (per-family default: discs dedupe, rectangles/triangles
        split), or force ``"split"`` / ``"dedupe"`` for ablations.
    """

    name = "algGeomSC"

    def __init__(
        self,
        delta: float = 0.25,
        solver: "OfflineSolver | None" = None,
        seed: "int | np.random.Generator | None" = None,
        sample_constant: float = 1.0,
        use_polylog_factors: bool = True,
        mode: "str | None" = None,
    ):
        if not 0 < delta <= 0.25:
            raise ValueError(
                f"the Theorem 4.6 analysis needs delta in (0, 1/4], got {delta}"
            )
        self.delta = delta
        self.solver = solver or GreedySolver()
        self.sample_constant = sample_constant
        self.use_polylog_factors = use_polylog_factors
        self.mode = mode
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------
    def _sample_size(self, n: int, m: int, k: int, rho: float) -> int:
        """|S| = c rho k (n/k)^delta log m log n (Figure 4.1)."""
        size = self.sample_constant * max(rho, 1.0) * k * (n / k) ** self.delta
        if self.use_polylog_factors:
            size *= max(1.0, math.log2(max(m, 2))) * max(1.0, math.log2(max(n, 2)))
        return max(1, math.ceil(size))

    def solve(self, stream: ShapeStream) -> StreamingCoverResult:
        n, m = stream.n, stream.m
        if n == 0:
            return StreamingCoverResult(
                selection=[], passes=0, peak_memory_words=0, algorithm=self.name
            )
        points = stream.points
        shared_meter = MemoryMeter(label="points")
        shared_meter.charge(2 * n)  # the in-memory point universe (x, y)

        rho = self.solver.rho(n)
        mode = self.mode or _default_mode(stream.instance.shapes[0])
        guesses = [
            _GeomGuessState(k, n, MemoryMeter(label=f"k={k}"))
            for k in powers_of_two_up_to(n)
        ]
        passes_before = stream.passes
        iterations = ceil_inverse(self.delta)

        for _ in range(iterations):
            if all(not g.uncovered for g in guesses):
                break

            # ---- Pass 1: exact heavy-shape picking -----------------------
            for g in guesses:
                g.heavy_threshold = n / g.k
            for shape_id, shape in stream.iterate():
                for g in guesses:
                    if not g.uncovered or shape_id in g.solution_set:
                        continue
                    hit = {
                        eid for eid in g.uncovered if shape.contains(points[eid])
                    }
                    if len(hit) >= g.heavy_threshold:
                        g.pick(shape_id)
                        g.uncovered -= hit
                        g.stats.heavy_picks += 1

            # ---- Sample + Pass 2: canonical representation ---------------
            for g in guesses:
                if not g.uncovered:
                    g.sample_ids = frozenset()
                    g.canonical = None
                    continue
                target = self._sample_size(n, m, g.k, rho)
                g.sample_ids = draw_sample(g.uncovered, target, seed=self._rng)
                g.stats.sample_sizes.append(len(g.sample_ids))
                g._scratch_words = len(g.sample_ids)
                g.meter.charge(g._scratch_words)
                g.canonical = CanonicalRepresentation(
                    {eid: points[eid] for eid in g.sample_ids}, mode=mode
                )
            for shape_id, shape in stream.iterate():
                for g in guesses:
                    if g.canonical is None or shape_id in g.solution_set:
                        continue
                    _, new_words = g.canonical.add_shape(shape)
                    if new_words:
                        g._scratch_words += new_words
                        g.meter.charge(new_words)

            # ---- Offline solve on the canonical projected instance -------
            for g in guesses:
                if g.canonical is None:
                    g.chosen_pieces = []
                    continue
                pieces = g.canonical.all_pieces()
                picked = self.solver.solve_partial(
                    n, [p.content for p in pieces], frozenset(g.sample_ids)
                )
                g.chosen_pieces = [pieces[i] for i in picked]
                g.stats.offline_picks += len(picked)

            # ---- Pass 3: replace pieces by superset shapes ---------------
            for shape_id, shape in stream.iterate():
                for g in guesses:
                    if not g.chosen_pieces:
                        continue
                    hit_sample = {
                        eid
                        for eid in g.sample_ids
                        if shape.contains(points[eid])
                    }
                    matched = [
                        p for p in g.chosen_pieces if p.content <= hit_sample
                    ]
                    if matched:
                        g.pick(shape_id)
                        for p in matched:
                            g.chosen_pieces.remove(p)
                        g.uncovered -= {
                            eid
                            for eid in g.uncovered
                            if shape.contains(points[eid])
                        }

            # ---- End of iteration: drop scratch --------------------------
            for g in guesses:
                g.canonical = None
                g.chosen_pieces = []
                g.sample_ids = frozenset()
                g.meter.release(g._scratch_words)
                g._scratch_words = 0

        # ---- Final pass: cover leftovers by arbitrary containing shapes --
        cleanup_passes = 0
        if any(g.uncovered for g in guesses):
            cleanup_passes = 1
            for shape_id, shape in stream.iterate():
                for g in guesses:
                    if not g.uncovered:
                        continue
                    hit = {
                        eid for eid in g.uncovered if shape.contains(points[eid])
                    }
                    if hit and shape_id not in g.solution_set:
                        g.pick(shape_id)
                        g.uncovered -= hit
                        g.stats.cleanup_picks += 1

        for g in guesses:
            g.stats.solution_size = (
                len(g.solution) if not g.uncovered else None
            )
            g.stats.covered_after_iterations = not g.uncovered
            g.stats.peak_memory_words = g.meter.peak
        stats = {g.k: g.stats for g in guesses}
        complete = [g for g in guesses if not g.uncovered]
        total_peak = shared_meter.peak + sum(g.meter.peak for g in guesses)
        passes = stream.passes - passes_before

        if not complete:
            best = min(guesses, key=lambda g: len(g.uncovered))
            return StreamingCoverResult(
                selection=list(best.solution),
                passes=passes,
                peak_memory_words=total_peak,
                algorithm=self.name,
                feasible=False,
                best_k=best.k,
                cleanup_passes=cleanup_passes,
                guess_stats=stats,
            )
        best = min(complete, key=lambda g: len(g.solution))
        return StreamingCoverResult(
            selection=list(best.solution),
            passes=passes,
            peak_memory_words=total_peak,
            algorithm=self.name,
            best_k=best.k,
            cleanup_passes=cleanup_passes,
            guess_stats=stats,
            extra={"rho": rho, "delta": self.delta, "mode": mode},
        )


def geometric_set_cover(
    stream: ShapeStream,
    delta: float = 0.25,
    solver: "OfflineSolver | None" = None,
    seed: "int | np.random.Generator | None" = None,
    **kwargs,
) -> StreamingCoverResult:
    """One-shot functional entry point for :class:`GeometricSetCover`."""
    return GeometricSetCover(delta=delta, solver=solver, seed=seed, **kwargs).solve(
        stream
    )
