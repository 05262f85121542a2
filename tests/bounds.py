"""The certified lower bound, computed the slow way: a test oracle."""

from __future__ import annotations

import math
from fractions import Fraction


def dual_bound_oracle(n: int, sets) -> int:
    """``max(⌈n/Δ⌉, ⌈Σ_e 1/max_{S∋e}|S|⌉)`` by a dict walk and
    :class:`~fractions.Fraction` sums, one element at a time."""
    if n == 0:
        return 0
    widest: "dict[int, int]" = {}
    for row in sets:
        row = set(row)
        for element in row:
            widest[element] = max(widest.get(element, 0), len(row))
    total = sum((Fraction(1, size) for size in widest.values()), Fraction(0))
    delta = max(widest.values(), default=0)
    return max(math.ceil(total), -(-n // max(delta, 1)))
