"""Element sampling in the style of Demaine et al. [DIMV14].

The predecessor technique to relative (p, eps)-approximation: sample a set
``S`` of elements, solve set cover on the projection onto ``S``, and argue
that a cover of the sample leaves few elements of the ground set uncovered.
The paper (Section 2.1) credits its pass improvement precisely to replacing
this with relative-approximation sampling, so the baseline implementation
of [DIMV14] uses this module.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Sequence

import numpy as np

from repro.sampling.relative_approximation import draw_sample
from repro.setsystem.packed import pack
from repro.utils.bitset import mask_of

__all__ = ["element_sample_size", "element_sample", "project_onto_sample"]


def element_sample_size(
    universe_size: int, cover_bound: int, reduction: float, c: float = 1.0
) -> int:
    """Sample size for one element-sampling round.

    A cover of a sample of size ``c * cover_bound * reduction * log m``
    leaves at most ``universe_size / reduction`` elements uncovered with
    constant probability (cf. [DIMV14], Lemma 5).  ``cover_bound`` is the
    guessed optimal cover size; ``reduction`` is the per-round shrink factor.
    """
    if universe_size <= 0:
        return 0
    if cover_bound < 1:
        raise ValueError(f"cover_bound must be >= 1, got {cover_bound}")
    if reduction <= 1:
        raise ValueError(f"reduction must exceed 1, got {reduction}")
    size = c * cover_bound * reduction * max(1.0, math.log2(universe_size))
    return min(universe_size, max(1, math.ceil(size)))


def element_sample(
    uncovered: Collection[int],
    cover_bound: int,
    reduction: float,
    seed: "int | np.random.Generator | None" = None,
    c: float = 1.0,
) -> frozenset[int]:
    """Draw one element-sampling round's sample from ``uncovered``."""
    size = element_sample_size(len(uncovered), cover_bound, reduction, c=c)
    return draw_sample(uncovered, size, seed=seed)


def project_onto_sample(
    n: int,
    sets: Sequence[Iterable[int]],
    sample: Collection[int],
) -> list[frozenset[int]]:
    """Project a family onto a sample: the ``r ∩ S`` step of [DIMV14].

    The projection is the per-round workhorse of element sampling — a cover
    of the projected family is what the offline solve operates on.  Runs
    over the big-int family (:mod:`repro.setsystem.packed`), one ``&`` per
    set; empty projections are kept so indices stay aligned with the input
    family.
    """
    return pack(sets, n).project(mask_of(sample)).to_frozensets()
