"""Functional operations over set systems and covers.

These helpers are deliberately free functions (rather than methods on
:class:`~repro.setsystem.set_system.SetSystem`) because several of them
operate on raw family projections produced mid-stream, before a full
``SetSystem`` exists.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.setsystem.set_system import SetSystem
from repro.utils.bitset import bits_of, universe_mask

__all__ = [
    "cover_size",
    "coverage_histogram",
    "project_family",
    "verify_cover",
    "greedy_completion",
    "merge_systems",
]


def project_family(
    sets: Iterable[frozenset[int]], onto: frozenset[int]
) -> list[frozenset[int]]:
    """Intersect every set with ``onto`` (the ``r ∩ L`` of Figure 1.3)."""
    return [r & onto for r in sets]


def cover_size(selection: Iterable[int]) -> int:
    """Number of distinct sets in a selection of set indices."""
    return len(set(selection))


def verify_cover(system: SetSystem, selection: Iterable[int]) -> None:
    """Raise ``ValueError`` with the witnesses if ``selection`` is not a cover."""
    missing = system.uncovered_by(selection)
    if missing:
        sample = sorted(missing)[:10]
        raise ValueError(
            f"selection of {cover_size(selection)} sets misses "
            f"{len(missing)} elements (e.g. {sample})"
        )


def coverage_histogram(system: SetSystem, selection: Sequence[int]) -> Mapping[int, int]:
    """Map each element to how many selected sets contain it.

    Useful to inspect redundancy of a cover: elements with count 0 witness
    infeasibility, counts much larger than 1 witness slack.
    """
    counts = {e: 0 for e in range(system.n)}
    for set_id in set(selection):
        for element in system[set_id]:
            counts[element] += 1
    return counts


def greedy_completion(
    system: SetSystem, selection: Iterable[int]
) -> list[int]:
    """Extend a partial selection into a full cover greedily.

    Repeatedly adds the set covering the most still-uncovered elements
    (best-gain kernel over the memoized packed family).  Raises
    ``ValueError`` if the family itself is not a cover.
    """
    chosen = list(dict.fromkeys(selection))
    family = system.packed()
    residual = universe_mask(system.n) & ~family.union(chosen)
    while residual:
        gain, best_id = family.best_gain(residual)
        if gain == 0:
            raise ValueError(
                f"family cannot cover remaining elements "
                f"{bits_of(residual)[:10]}"
            )
        chosen.append(best_id)
        residual &= ~family.rows[best_id]
    return chosen


def merge_systems(first: SetSystem, second: SetSystem) -> SetSystem:
    """Concatenate two families over the same ground set.

    The two-party communication instances of Section 3 are exactly
    ``merge_systems(alice, bob)`` with the convention that Alice's sets come
    first in the stream.
    """
    if first.n != second.n:
        raise ValueError(
            f"cannot merge systems over different ground sets "
            f"({first.n} vs {second.n})"
        )
    return SetSystem(first.n, list(first.sets) + list(second.sets))
