"""Result types shared by the streaming algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.streaming.stream import ResourceReport

__all__ = ["GuessStats", "StreamingCoverResult"]


@dataclass
class GuessStats:
    """Per-guess diagnostics of a parallel execution (one value of k)."""

    k: int
    solution_size: "int | None"
    covered_after_iterations: bool
    peak_memory_words: int
    sample_sizes: list[int] = field(default_factory=list)
    heavy_picks: int = 0
    offline_picks: int = 0
    cleanup_picks: int = 0


@dataclass
class StreamingCoverResult:
    """Outcome of a streaming set-cover run.

    Attributes
    ----------
    selection:
        Indices of the chosen sets (a verified cover unless ``feasible``
        is False).
    passes:
        Total sequential passes over the repository, shared across all
        parallel guesses.
    peak_memory_words:
        Sum of per-guess peak memories (parallel executions hold their
        memory simultaneously).
    best_k:
        The guess that produced ``selection`` (None for algorithms without
        guessing).
    cleanup_passes:
        How many of ``passes`` were cleanup passes (DESIGN.md §3.2).
    lower_bound:
        The pass-free certified bound ``OPT >= LB``, the dual bound
        ``max(ceil(n/Δ), ceil(Σ_e 1/max_{S∋e}|S|))``
        (:attr:`~repro.streaming.stream.SetStreamBase.lower_bound`), which
        ``repro solve`` fills from the stream; None otherwise.
    """

    selection: list[int]
    passes: int
    peak_memory_words: int
    algorithm: str
    feasible: bool = True
    best_k: "int | None" = None
    cleanup_passes: int = 0
    lower_bound: "int | None" = None
    guess_stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def solution_size(self) -> int:
        return len(set(self.selection))

    def report(self) -> ResourceReport:
        """Condense into the two-resource report used by benchmark tables."""
        return ResourceReport(
            passes=self.passes,
            peak_memory_words=self.peak_memory_words,
            solution_size=self.solution_size,
            extra={"algorithm": self.algorithm, **self.extra},
        )
