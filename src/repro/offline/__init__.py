"""Offline set-cover solvers (the ``algOfflineSC`` black box of Figure 1.3)."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".base": ["InfeasibleInstanceError", "OfflineSolver"],
    ".exact": ["ExactSolver", "SearchBudgetExceeded", "exact_cover"],
    ".greedy": ["GreedySolver", "greedy_cover"],
    ".lp": ["LPRoundingSolver", "fractional_optimum"],
    ".primal_dual": ["PrimalDualSolver", "max_frequency", "primal_dual_cover"],
})
