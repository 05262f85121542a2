"""The classic greedy set-cover algorithm (rho = H_n <= ln n + 1).

One strategy serves every caller (DESIGN.md §4.1): lazy-heap greedy over
big-int bitmaps.  Residual coverage of a set only shrinks over time, so a
stale heap entry whose recomputed gain still tops the heap is genuinely the
best set, and ties go to the lower set index.
:func:`_greedy_cover_frozenset` runs the same heap over the seed's
frozensets and is kept as the executable reference; both return
*identical* covers, which ``tests/test_packed.py`` pins down.

``algOfflineSC`` inside ``iterSetCover`` reaches the heap through the
packed :meth:`GreedySolver.solve_packed` entry: the light projections
arrive as the sample pass's captured rows, read as big ints on access,
plus a target mask, and are never unpacked into index lists, frozensets
or a ``SetSystem``; their Size-Test hit counts, upper bounds on their
gains, seed the heap, so only popped rows are ever read.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.offline.base import InfeasibleInstanceError, OfflineSolver
from repro.setsystem.set_system import SetSystem
from repro.utils.bitset import bits_of, universe_mask
from repro.utils.mathutil import harmonic

__all__ = ["GreedySolver", "greedy_cover"]


def greedy_cover(system: SetSystem) -> list[int]:
    """Return the greedy cover of ``system`` (indices in pick order).

    Ties are broken toward the lower set index so results are
    deterministic.  Raises :class:`InfeasibleInstanceError` if the family
    is not a cover.
    """
    return _lazy_greedy(system.packed().rows, universe_mask(system.n))


def _lazy_greedy(
    rows: Sequence[int], residual: int, gains: "Sequence[int] | None" = None
) -> list[int]:
    """Lazy-heap greedy cover of the bits of ``residual`` by big-int ``rows``.

    Rows may carry bits outside ``residual``; they never count.  The gain
    test is a two-opcode ``&``/``bit_count`` on arbitrary-precision ints,
    inlined because it runs once per heap pop.  ``gains``, if given, are
    upper bounds on each row's gain and seed the heap in place of a first
    count: a popped bound is refreshed like any stale entry, so the picks
    are the same.
    """
    if gains is None:
        gains = [(row & residual).bit_count() for row in rows]
    # Max-heap of (-gain, row index); gains are lazily refreshed.
    heap = [(-gain, index) for index, gain in enumerate(gains) if gain]
    heapq.heapify(heap)
    chosen: list[int] = []

    while residual:
        while heap:
            neg_gain, index = heapq.heappop(heap)
            gain = (rows[index] & residual).bit_count()
            if gain == 0:
                continue
            if gain == -neg_gain:
                # Entry was fresh: this really is the best set.
                chosen.append(index)
                residual &= ~rows[index]
                break
            heapq.heappush(heap, (-gain, index))
        else:
            raise InfeasibleInstanceError(
                f"{residual.bit_count()} elements cannot be covered "
                f"(e.g. {bits_of(residual)[:10]})"
            )
    return chosen


def _greedy_cover_frozenset(system: SetSystem) -> list[int]:
    """The seed's frozenset implementation — the reference and bench baseline."""
    uncovered: set[int] = set(range(system.n))
    if not uncovered:
        return []

    heap: list[tuple[int, int]] = [
        (-len(r), set_id) for set_id, r in enumerate(system.sets) if r
    ]
    heapq.heapify(heap)
    chosen: list[int] = []

    while uncovered:
        while heap:
            neg_gain, set_id = heapq.heappop(heap)
            gain = len(system[set_id] & uncovered)
            if gain == 0:
                continue
            if gain == -neg_gain:
                chosen.append(set_id)
                uncovered -= system[set_id]
                break
            heapq.heappush(heap, (-gain, set_id))
        else:
            raise InfeasibleInstanceError(
                f"{len(uncovered)} elements cannot be covered "
                f"(e.g. {sorted(uncovered)[:10]})"
            )
    return chosen


class GreedySolver(OfflineSolver):
    """Offline solver wrapper around :func:`greedy_cover` (rho = H_n)."""

    name = "greedy"

    def solve(self, system: SetSystem) -> list[int]:
        return greedy_cover(system)

    def solve_packed(self, rows: Sequence[int], targets: int) -> list[int]:
        """Packed ``algOfflineSC``: the lazy heap straight on big-int rows.

        Returns exactly the picks :meth:`solve` makes on the renumbered
        projection of ``rows`` onto ``targets`` (the frozenset path of
        :meth:`OfflineSolver.solve_partial`).  Rows that carry ``gains``,
        upper bounds on each row's coverage of ``targets`` (iterSetCover's
        light rows do), seed the heap with them.
        """
        return _lazy_greedy(rows, targets, getattr(rows, "gains", None))

    def rho(self, n: int) -> float:
        return harmonic(max(n, 1))
