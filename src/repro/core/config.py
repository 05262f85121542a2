"""Configuration for the streaming algorithms of the paper.

The paper's sample size (Lemma 2.6) is

    |S| = c * rho * k * n^delta * log m * log n

with ``c`` an unspecified w.h.p. constant.  At experimental scale the
literal constants exceed the ground set (DESIGN.md §3.2), so the constant
``c`` and the polylog factors are exposed here; samples are always capped at
the current uncovered set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.mathutil import ceil_inverse

__all__ = ["IterSetCoverConfig"]


@dataclass(frozen=True)
class IterSetCoverConfig:
    """Tunable parameters of ``iterSetCover`` (Figure 1.3).

    Attributes
    ----------
    delta:
        The trade-off parameter in (0, 1]: ceil(1/delta) iterations, two
        passes each, and samples of size ~ k n^delta polylog.
    sample_constant:
        The constant ``c`` in the sample size.
    use_polylog_factors:
        Include the ``log m * log n`` factor of Lemma 2.6.  Disabling it
        (benchmarks at small n) keeps samples proper subsets so the space
        trade-off shape stays visible.
    include_rho:
        Include the offline solver's approximation factor ``rho`` in the
        sample size, as in the paper's formula.
    cleanup_pass:
        Run one final pass that covers any leftover elements by picking an
        arbitrary containing set, mirroring the final pass of ``algGeomSC``
        (Figure 4.1).  The run's only fallback: it triggers when the w.h.p.
        guarantee of Lemma 2.6 did not materialize at the configured
        constants, or the lower bound was well below OPT.
    """

    delta: float = 0.5
    sample_constant: float = 1.0
    use_polylog_factors: bool = True
    include_rho: bool = True
    cleanup_pass: bool = True

    def __post_init__(self):
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.sample_constant <= 0:
            raise ValueError(
                f"sample_constant must be positive, got {self.sample_constant}"
            )

    @property
    def iterations(self) -> int:
        """Number of two-pass iterations: ceil(1/delta)."""
        return ceil_inverse(self.delta)

    def sample_size(self, n: int, m: int, k: int, rho: float) -> int:
        """Sample size for guess ``k`` on an instance with parameters n, m.

        ``n`` is the *initial* ground-set size (the paper samples
        ``c rho k n^delta log m log n`` elements of the current uncovered
        set, with n fixed to the original universe size).
        """
        if n <= 0:
            return 0
        size = self.sample_constant * k * (n ** self.delta)
        if self.include_rho:
            size *= max(rho, 1.0)
        if self.use_polylog_factors:
            size *= max(1.0, math.log2(max(m, 2))) * max(1.0, math.log2(max(n, 2)))
        return max(1, math.ceil(size))
