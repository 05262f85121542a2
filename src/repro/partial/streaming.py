"""Streaming eps-Partial Set Cover.

[ER14] and [CW16] both state their semi-streaming results for the partial
problem; the paper's algorithm adapts just as naturally: run
``iterSetCover`` but stop (and skip the cleanup pass) once at most
``eps * n`` elements remain uncovered.  Because each iteration shrinks the
uncovered set by ~n^delta, partial coverage typically saves iterations —
the quantitative effect bench E11 measures.

``PartialThreshold`` is the one-pass partial variant of the [ER14]-style
algorithm: pointers are only materialized for the cheapest leftover
elements needed to reach the requirement.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import IterSetCoverConfig
from repro.core.iter_set_cover import IterSetCover, _GuessState
from repro.core.result import StreamingCoverResult
from repro.offline.base import OfflineSolver
from repro.partial.offline import coverage_requirement
from repro.setsystem.set_system import lower_bound_floor
from repro.streaming.memory import MemoryMeter
from repro.streaming.stream import SetStream, stream_resident_words

__all__ = ["PartialIterSetCover", "PartialThreshold"]


class PartialIterSetCover(IterSetCover):
    """``iterSetCover`` with a (1 - eps)-coverage goal.

    :class:`~repro.core.IterSetCover`'s schedule and passes, with another
    goal: a guess retires as soon as its uncovered set is within the
    allowance, and the cleanup pass only runs for guesses still above it.
    The first rung comes from the partial-cover bound
    ``max(⌈(1-eps)n/Δ⌉, LB - eps·n)``: a cover of all but ``eps·n``
    elements loses at most ``y_e <= 1`` of the dual per element it skips.

    Parameters
    ----------
    eps:
        Coverage slack: the run may leave up to ``eps * n`` elements
        uncovered (``eps = 0`` is full set cover).
    config:
        Trade-off and sampling parameters, as for
        :class:`~repro.core.IterSetCover`.
    solver:
        The offline black box used on the stored projections.
    seed:
        Seed or generator for the sampling randomness.

    Examples
    --------
    >>> from repro.setsystem import SetSystem
    >>> from repro.streaming import SetStream
    >>> system = SetSystem(4, [[0, 1], [2, 3], [0, 2], [1, 3]])
    >>> result = PartialIterSetCover(eps=0.5, seed=0).solve(SetStream(system))
    >>> result.feasible
    True
    >>> result.extra["uncovered_left"] <= 2
    True
    """

    name = "iterSetCover (partial)"

    def __init__(
        self,
        eps: float,
        config: "IterSetCoverConfig | None" = None,
        solver: "OfflineSolver | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ):
        if not 0 <= eps < 1:
            raise ValueError(f"eps must be in [0, 1), got {eps}")
        super().__init__(config=config, solver=solver, seed=seed)
        self.eps = eps

    def _allowance(self, n: int) -> int:
        """How many elements may stay uncovered."""
        return n - coverage_requirement(n, self.eps)

    def _lower_bound(self, stream: SetStream) -> int:
        n = stream.n
        allowance = self._allowance(n)
        return max(
            lower_bound_floor(n - allowance, stream.max_set_size),
            stream.lower_bound - allowance,
        )

    def _satisfied(self, guess: _GuessState) -> bool:
        return guess.uncovered_count() <= self._allowance(guess.n)

    def _solve_offline(self, guess: _GuessState, coverable: int) -> None:
        if not self._satisfied(guess):
            self._solve_offline_partial(guess, self._allowance(guess.n), coverable)

    def _extra(self, best: _GuessState, feasible: bool) -> dict:
        return {"eps": self.eps, "uncovered_left": best.uncovered_count()}

    def _solve_offline_partial(
        self, guess: _GuessState, allowance: int, coverable: int
    ) -> None:
        """Cover the sampled leftovers only up to the scaled allowance.

        The coverage slack ``allowance`` applies to the whole uncovered set;
        the sample sees a proportional share of it, so the offline step only
        needs ``|targets| - allowance * |sample| / |uncovered|`` sampled
        elements covered.  Uses greedy for the partial objective (the
        injected solver interface has no coverage-target notion).
        ``coverable`` is the union of the pass's captured rows
        (:func:`~repro.core.iter_set_cover._sample_pass`).
        """
        if not guess.leftover:
            return
        # The light rows are the shared captured rows (by reference), so
        # gains are taken against the targets, never the rows alone.
        targets = guess.leftover & coverable
        projections = list(guess.projections)
        target_count = targets.bit_count()
        uncovered_size = max(guess.uncovered_count(), 1)
        sample_share = guess.sample_size / uncovered_size
        sample_allowance = int(allowance * min(1.0, sample_share))
        required = max(0, target_count - sample_allowance)

        covered = 0
        remaining = targets
        while covered < required:
            best_index, best_gain = -1, 0
            for index, projection in enumerate(projections):
                gain = (projection & remaining).bit_count()
                if gain > best_gain:
                    best_index, best_gain = index, gain
            if best_index < 0:
                break
            guess.take(guess.projection_ids[best_index], projections[best_index])
            remaining &= ~projections[best_index]
            covered = target_count - remaining.bit_count()
        guess.leftover = 0


class PartialThreshold:
    """One-pass (1 - eps)-coverage via threshold picks + cheapest pointers.

    The [ER14]-style partial algorithm: heavy sets (residual coverage at
    least ``threshold``) are taken on the fly; pointers are recorded for
    every element, and after the pass only enough pointer-sets to reach the
    requirement are added, largest pointer-groups first.

    Parameters
    ----------
    eps:
        Coverage slack (at most ``eps * n`` elements may stay uncovered).
    threshold:
        Residual-coverage pick threshold; defaults to ``sqrt(n)``.

    Examples
    --------
    >>> from repro.setsystem import SetSystem
    >>> from repro.streaming import SetStream
    >>> system = SetSystem(4, [[0, 1, 2], [3], [1]])
    >>> result = PartialThreshold(eps=0.25).solve(SetStream(system))
    >>> result.passes, result.feasible
    (1, True)
    """

    name = "threshold (partial, 1-pass)"

    def __init__(self, eps: float, threshold: "float | None" = None):
        if not 0 <= eps < 1:
            raise ValueError(f"eps must be in [0, 1), got {eps}")
        self.eps = eps
        self.threshold = threshold

    def solve(self, stream: SetStream) -> StreamingCoverResult:
        import math

        meter = MemoryMeter(label=self.name)
        passes_before = stream.passes
        n = stream.n
        required = coverage_requirement(n, self.eps)
        uncovered: set[int] = set(range(n))
        meter.charge(n)
        threshold = self.threshold if self.threshold is not None else math.sqrt(n)

        selection: list[int] = []
        pointer: dict[int, int] = {}
        for set_id, r in stream.iterate():
            hit = r & uncovered
            if not hit:
                continue
            if len(hit) >= threshold:
                selection.append(set_id)
                meter.charge(1)
                uncovered -= hit
            else:
                for element in hit:
                    if element not in pointer:
                        pointer[element] = set_id
                        meter.charge(1)

        covered = n - len(uncovered)
        if covered < required:
            # Group leftover elements by pointer set, take biggest groups
            # until the requirement is met.
            groups: dict[int, int] = {}
            for element in uncovered:
                if element in pointer:
                    groups[pointer[element]] = groups.get(pointer[element], 0) + 1
            for set_id, gain in sorted(groups.items(), key=lambda kv: -kv[1]):
                selection.append(set_id)
                meter.charge(1)
                covered += gain
                if covered >= required:
                    break

        return StreamingCoverResult(
            selection=selection,
            passes=stream.passes - passes_before,
            peak_memory_words=meter.peak + stream_resident_words(stream),
            algorithm=self.name,
            feasible=covered >= required,
            extra={"eps": self.eps, "covered": covered, "required": required},
        )
