"""Weighted Set Cover solvers.

The paper treats the unweighted problem (Figure 1.3's caption is explicit);
weighted instances are the natural deployment generalization, so the
library ships offline weighted solvers and a store-all streaming wrapper:

* ``weighted_greedy_cover`` — the classic cost-effectiveness greedy
  (pick the set minimizing weight / new-elements), H_n-approximate;
* ``exact_weighted_cover`` — branch-and-bound minimizing total weight;
* ``weighted_fractional_optimum`` — the covering LP with weights.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.offline.base import InfeasibleInstanceError
from repro.setsystem.set_system import SetSystem

__all__ = [
    "validate_weights",
    "weighted_greedy_cover",
    "exact_weighted_cover",
    "weighted_fractional_optimum",
]


def validate_weights(system: SetSystem, weights: Sequence[float]) -> list[float]:
    """Check one positive weight per set; return them as floats."""
    if len(weights) != system.m:
        raise ValueError(
            f"expected {system.m} weights, got {len(weights)}"
        )
    values = [float(w) for w in weights]
    if any(w <= 0 for w in values):
        raise ValueError("weights must be strictly positive")
    return values


def weighted_greedy_cover(
    system: SetSystem, weights: Sequence[float]
) -> list[int]:
    """Cost-effectiveness greedy: repeatedly minimize weight / residual gain."""
    weights = validate_weights(system, weights)
    uncovered: set[int] = set(range(system.n))
    chosen: list[int] = []
    while uncovered:
        best_id, best_ratio = -1, float("inf")
        for set_id, r in enumerate(system.sets):
            gain = len(r & uncovered)
            if gain == 0:
                continue
            ratio = weights[set_id] / gain
            if ratio < best_ratio:
                best_id, best_ratio = set_id, ratio
        if best_id < 0:
            raise InfeasibleInstanceError(
                f"{len(uncovered)} elements cannot be covered"
            )
        chosen.append(best_id)
        uncovered -= system[best_id]
    return chosen


def exact_weighted_cover(
    system: SetSystem,
    weights: Sequence[float],
    max_nodes: int = 2_000_000,
) -> list[int]:
    """Minimum-total-weight cover via branch-and-bound.

    Branches on the uncovered element with the fewest candidate sets (as in
    the unweighted solver); the bound is the weighted counting bound
    ``needed * min-weight-per-element`` plus the incumbent weight.
    """
    weights = validate_weights(system, weights)
    n = system.n
    if n == 0:
        return []
    masks = system.masks()
    full = (1 << n) - 1
    reachable = 0
    for mask in masks:
        reachable |= mask
    if reachable != full:
        raise InfeasibleInstanceError(
            f"{(full & ~reachable).bit_count()} elements cannot be covered"
        )

    candidates: list[list[int]] = [[] for _ in range(n)]
    for set_id, mask in enumerate(masks):
        remaining = mask
        while remaining:
            low = remaining & -remaining
            candidates[low.bit_length() - 1].append(set_id)
            remaining ^= low

    # Cheapest possible per-element price: min over sets of weight/|set|.
    min_price = min(
        weights[i] / masks[i].bit_count() for i in range(len(masks)) if masks[i]
    )

    best = weighted_greedy_cover(system, weights)
    best_weight = sum(weights[i] for i in best)
    nodes = 0

    def search(uncovered: int, chosen: list[int], weight: float) -> None:
        nonlocal best, best_weight, nodes
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(f"exceeded {max_nodes} nodes")
        if not uncovered:
            if weight < best_weight - 1e-12:
                best = list(chosen)
                best_weight = weight
            return
        if weight + uncovered.bit_count() * min_price >= best_weight - 1e-12:
            return

        pick_element, pick_count = -1, 1 << 60
        remaining = uncovered
        while remaining:
            low = remaining & -remaining
            element = low.bit_length() - 1
            count = sum(
                1 for set_id in candidates[element] if masks[set_id] & uncovered
            )
            if count < pick_count:
                pick_element, pick_count = element, count
                if count <= 1:
                    break
            remaining ^= low

        options = [
            set_id
            for set_id in candidates[pick_element]
            if masks[set_id] & uncovered
        ]
        options.sort(
            key=lambda s: weights[s] / (masks[s] & uncovered).bit_count()
        )
        for set_id in options:
            chosen.append(set_id)
            search(uncovered & ~masks[set_id], chosen, weight + weights[set_id])
            chosen.pop()

    search(full, [], 0.0)
    return best


def weighted_fractional_optimum(
    system: SetSystem, weights: Sequence[float]
) -> tuple[float, np.ndarray]:
    """The weighted covering LP: min w.x s.t. coverage constraints."""
    weights = validate_weights(system, weights)
    if system.n == 0:
        return 0.0, np.zeros(system.m)
    if not system.is_feasible():
        raise InfeasibleInstanceError("family does not cover the ground set")
    from scipy.optimize import linprog  # lazy, as in repro.offline.lp

    matrix = np.zeros((system.n, system.m))
    for set_id, r in enumerate(system.sets):
        for element in r:
            matrix[element, set_id] = 1.0
    result = linprog(
        c=np.asarray(weights),
        A_ub=-matrix,
        b_ub=-np.ones(system.n),
        bounds=[(0.0, 1.0)] * system.m,
        method="highs",
    )
    if not result.success:  # pragma: no cover
        raise RuntimeError(f"LP solver failed: {result.message}")
    return float(result.fun), np.asarray(result.x)
