"""Tests for the offline solvers: greedy, exact branch-and-bound, LP."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.offline import (
    ExactSolver,
    GreedySolver,
    InfeasibleInstanceError,
    LPRoundingSolver,
    SearchBudgetExceeded,
    exact_cover,
    fractional_optimum,
    greedy_cover,
)
from repro.offline.greedy import _lazy_greedy
from repro.setsystem import SetSystem
from repro.utils.bitset import bits_of, mask_of
from repro.utils.mathutil import harmonic
from repro.workloads import nested_chain_instance, planted_instance


def feasible_systems(max_n=8, max_m=8):
    """Hypothesis strategy for small *feasible* systems."""

    def build(n, raw_sets):
        sets = [set(s) for s in raw_sets] or [set()]
        # Patch feasibility deterministically.
        covered = set().union(*sets)
        for e in range(n):
            if e not in covered:
                sets[e % len(sets)].add(e)
        return SetSystem(n, sets)

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1)),
            min_size=1,
            max_size=max_m,
        ).map(lambda raw: build(n, raw))
    )


def brute_force_optimum(system: SetSystem) -> int:
    for k in range(0, system.m + 1):
        for combo in itertools.combinations(range(system.m), k):
            if system.is_cover(combo):
                return k
    raise AssertionError("infeasible instance reached brute force")


class TestGreedy:
    def test_tiny(self, tiny_system):
        cover = greedy_cover(tiny_system)
        assert tiny_system.is_cover(cover)
        assert len(cover) == 2

    def test_singletons(self, singleton_system):
        assert len(greedy_cover(singleton_system)) == 5

    def test_empty_universe(self):
        assert greedy_cover(SetSystem(0, [])) == []

    def test_infeasible_raises(self, infeasible_system):
        with pytest.raises(InfeasibleInstanceError):
            greedy_cover(infeasible_system)

    def test_deterministic_tie_break(self):
        system = SetSystem(2, [[0, 1], [0, 1]])
        assert greedy_cover(system) == [0]

    def test_worst_case_family_is_log_factor(self):
        system = nested_chain_instance(64)
        greedy_size = len(greedy_cover(system))
        assert greedy_size >= 4  # optimum is 2; greedy chases the chain
        assert system.is_cover(greedy_cover(system))

    def test_solver_interface(self, tiny_system):
        solver = GreedySolver()
        assert tiny_system.is_cover(solver.solve(tiny_system))
        assert solver.rho(100) == pytest.approx(harmonic(100))

    @settings(max_examples=80, deadline=None)
    @given(feasible_systems(max_n=10, max_m=10), st.data())
    def test_packed_heap_seeded_with_upper_bounds_picks_the_same(self, system, data):
        """Seeding the heap with any upper bounds on the rows' gains (as
        iterSetCover's Size-Test hit counts are) changes no pick: the
        picks are the frozenset reference's."""
        rows = list(system.packed().rows)
        targets = data.draw(st.integers(0, (1 << system.n) - 1)) & mask_of(
            [e for row in system.sets for e in row])
        slack = data.draw(st.lists(st.integers(0, 3), min_size=len(rows),
                                   max_size=len(rows)))
        bounds = [(row & targets).bit_count() + extra
                  for row, extra in zip(rows, slack)]
        unpacked = GreedySolver().solve_partial(
            system.n, [frozenset(row) for row in system.sets],
            frozenset(bits_of(targets)))
        assert _lazy_greedy(rows, targets, bounds) == unpacked
        assert _lazy_greedy(rows, targets) == unpacked


class TestExact:
    def test_tiny_optimum(self, tiny_system):
        assert len(exact_cover(tiny_system)) == 2

    def test_singletons(self, singleton_system):
        assert len(exact_cover(singleton_system)) == 5

    def test_empty(self):
        assert exact_cover(SetSystem(0, [])) == []

    def test_infeasible(self, infeasible_system):
        with pytest.raises(InfeasibleInstanceError):
            exact_cover(infeasible_system)

    def test_beats_greedy_on_chain(self):
        system = nested_chain_instance(32)
        assert len(exact_cover(system)) == 2

    def test_planted_optimum_found(self):
        planted = planted_instance(n=40, m=25, opt=4, seed=3)
        assert len(exact_cover(planted.system)) == 4

    def test_node_budget(self):
        # Greedy seeds a suboptimal incumbent on the chain family, so the
        # search genuinely explores and must trip a 2-node budget.
        system = nested_chain_instance(64)
        with pytest.raises(SearchBudgetExceeded):
            exact_cover(system, max_nodes=2)

    def test_returns_original_indices(self):
        # Set 0 dominated by set 1; answer must reference surviving index.
        system = SetSystem(3, [[0], [0, 1], [2]])
        cover = exact_cover(system)
        assert system.is_cover(cover)
        assert all(0 <= i < system.m for i in cover)

    def test_solver_interface(self, tiny_system):
        solver = ExactSolver()
        assert len(solver.solve(tiny_system)) == 2
        assert solver.rho(10) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(feasible_systems())
    def test_matches_brute_force(self, system):
        assert len(exact_cover(system)) == brute_force_optimum(system)

    @settings(max_examples=60, deadline=None)
    @given(feasible_systems())
    def test_exact_never_exceeds_greedy(self, system):
        assert len(exact_cover(system)) <= len(greedy_cover(system))


class TestLP:
    def test_fractional_lower_bounds_integral(self, tiny_system):
        value, x = fractional_optimum(tiny_system)
        assert value <= len(exact_cover(tiny_system)) + 1e-6
        assert np.all(x >= -1e-9)

    def test_fractional_covers_constraints(self, tiny_system):
        _, x = fractional_optimum(tiny_system)
        for element in range(tiny_system.n):
            mass = sum(
                x[i] for i, r in enumerate(tiny_system.sets) if element in r
            )
            assert mass >= 1 - 1e-6

    def test_infeasible(self, infeasible_system):
        with pytest.raises(InfeasibleInstanceError):
            fractional_optimum(infeasible_system)

    def test_empty(self):
        value, x = fractional_optimum(SetSystem(0, []))
        assert value == 0.0

    def test_rounding_produces_cover(self, uniform_small):
        solver = LPRoundingSolver(seed=0)
        cover = solver.solve(uniform_small)
        assert uniform_small.is_cover(cover)

    def test_rounding_near_optimal_on_planted(self):
        planted = planted_instance(n=50, m=30, opt=5, seed=9)
        solver = LPRoundingSolver(seed=1)
        cover = solver.solve(planted.system)
        assert planted.system.is_cover(cover)
        assert len(cover) <= 5 * (np.log(50) + 2)

    @settings(max_examples=40, deadline=None)
    @given(feasible_systems(max_n=7, max_m=7))
    def test_lp_sandwich(self, system):
        """LP optimum <= integral optimum <= greedy size."""
        value, _ = fractional_optimum(system)
        integral = brute_force_optimum(system)
        assert value <= integral + 1e-6
        assert integral <= len(greedy_cover(system))
