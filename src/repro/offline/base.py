"""The offline-solver interface used by ``algOfflineSC`` call sites.

Figure 1.3 treats the offline solver as a black box with approximation
factor rho: rho = 1 for the (exponential-time) exact solver, rho = H_n for
greedy.  Streaming algorithms receive a solver instance and report which rho
they ran with.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.setsystem.set_system import SetSystem
from repro.utils.bitset import bits_of

__all__ = ["OfflineSolver", "InfeasibleInstanceError"]


class InfeasibleInstanceError(ValueError):
    """Raised when the family cannot cover the ground set."""


class OfflineSolver(abc.ABC):
    """A solver for offline (in-memory) SetCover instances."""

    #: Human-readable name used in benchmark tables.
    name: str = "offline"

    @abc.abstractmethod
    def solve(self, system: SetSystem) -> list[int]:
        """Return indices of a cover of ``system``.

        Implementations must raise :class:`InfeasibleInstanceError` when no
        cover exists.
        """

    @abc.abstractmethod
    def rho(self, n: int) -> float:
        """The approximation factor guaranteed on instances with ``n`` elements."""

    # ------------------------------------------------------------------
    def solve_partial(self, n: int, sets: Sequence, targets) -> list[int]:
        """Cover only ``targets`` using the given (projected) family.

        This is the call shape of ``algOfflineSC(L, F_S, k)`` in Figure 1.3:
        the family is a list of projections and only the still-uncovered
        sampled elements ``L`` need covering.  Elements outside ``targets``
        are ignored.  Returns indices *into the given family*.

        Two input forms are accepted: frozensets with a frozenset of
        targets, or the *packed* form — big-int rows with an ``int``
        target mask, which is how ``iterSetCover`` hands over its light
        projections.  Solvers with a packed kernel define
        ``solve_packed(rows, targets)`` and receive the packed form as is
        (greedy, DESIGN.md §4.1); every other solver gets it unpacked to
        frozensets, renumbered like the frozenset form.
        """
        if isinstance(targets, int):
            solve_packed = getattr(self, "solve_packed", None)
            if solve_packed is not None:
                return solve_packed(sets, targets)
            sets = [frozenset(bits_of(row & targets)) for row in sets]
            targets = frozenset(bits_of(targets))
        if not targets:
            return []
        ordered = sorted(targets)
        renumber = {old: new for new, old in enumerate(ordered)}
        projected = [
            [renumber[e] for e in r if e in renumber] for r in sets
        ]
        sub = SetSystem(len(ordered), projected)
        return self.solve(sub)
