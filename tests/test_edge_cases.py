"""Edge cases and failure injection across module boundaries."""

from __future__ import annotations

import pytest

from repro.core import IterSetCover, IterSetCoverConfig, iter_set_cover
from repro.geometry import GeometricInstance, GeometricSetCover, Point, ShapeStream
from repro.setsystem import SetSystem
from repro.streaming import SetStream, StreamAccessError


class TestStreamMisuse:
    def test_algorithm_on_busy_stream_raises(self, tiny_system):
        stream = SetStream(tiny_system)
        iterator = stream.iterate()
        next(iterator)
        with pytest.raises(StreamAccessError):
            iter_set_cover(stream, delta=1.0, seed=0)
        iterator.close()

    def test_stream_usable_after_algorithm_failure(self, tiny_system):
        stream = SetStream(tiny_system)
        iterator = stream.iterate()
        next(iterator)
        iterator.close()
        # The abandoned pass counted; the stream is free again.
        result = iter_set_cover(stream, delta=1.0, seed=0)
        assert stream.verify_solution(result.selection)


class TestDegenerateInstances:
    def test_all_sets_identical(self):
        system = SetSystem(4, [[0, 1, 2, 3]] * 7)
        result = iter_set_cover(SetStream(system), delta=0.5, seed=0)
        assert result.solution_size == 1

    def test_one_element_per_set_reverse_order(self):
        system = SetSystem(6, [[5 - i] for i in range(6)])
        result = iter_set_cover(SetStream(system), delta=0.5, seed=0)
        assert result.solution_size == 6

    def test_family_larger_than_universe(self):
        system = SetSystem(3, [[i % 3] for i in range(30)])
        result = iter_set_cover(SetStream(system), delta=1.0, seed=0)
        assert result.solution_size == 3

    def test_single_set_instance(self):
        system = SetSystem(5, [list(range(5))])
        result = iter_set_cover(SetStream(system), delta=0.25, seed=0)
        assert result.solution_size == 1
        assert result.passes == 1  # a whole sample covered in one pass

    def test_empty_family_nonempty_universe(self):
        system = SetSystem(3, [])
        result = iter_set_cover(SetStream(system), delta=1.0, seed=0)
        assert not result.feasible


class TestConfigBoundaries:
    def test_delta_exactly_one(self):
        assert IterSetCoverConfig(delta=1.0).iterations == 1

    def test_delta_tiny_many_iterations(self):
        assert IterSetCoverConfig(delta=0.01).iterations == 100

    def test_sample_size_at_n_one(self):
        config = IterSetCoverConfig(delta=0.5)
        assert config.sample_size(1, 1, 1, 1.0) >= 1

    def test_sample_size_zero_universe(self):
        assert IterSetCoverConfig(delta=0.5).sample_size(0, 5, 1, 1.0) == 0


class TestGeometryEdges:
    def test_unsupported_shape_type_rejected(self):
        class Blob:
            description_words = 1

            def contains(self, p):
                return True

            x_min = 0.0
            x_max = 1.0

        instance = GeometricInstance([Point(0.5, 0.5)], [Blob()])
        with pytest.raises(TypeError):
            GeometricSetCover(seed=0).solve(ShapeStream(instance))

    def test_coincident_points(self):
        from repro.geometry import AxisRect

        points = [Point(0.5, 0.5)] * 4 + [Point(0.2, 0.2)]
        shapes = [AxisRect(0.4, 0.4, 0.6, 0.6), AxisRect(0.1, 0.1, 0.3, 0.3)]
        instance = GeometricInstance(points, shapes)
        stream = ShapeStream(instance)
        result = GeometricSetCover(seed=1).solve(stream)
        assert stream.verify_solution(result.selection)

    def test_empty_point_set(self):
        from repro.geometry import Disc

        instance = GeometricInstance([], [Disc(0, 0, 1)])
        result = GeometricSetCover(seed=0).solve(ShapeStream(instance))
        assert result.selection == []
        assert result.passes == 0

    def test_collinear_points_canonical(self):
        from repro.geometry import AxisRect, CanonicalRepresentation

        sample = {i: Point(float(i), 0.0) for i in range(10)}
        rep = CanonicalRepresentation(sample, mode="split")
        pieces, _ = rep.add_shape(AxisRect(2.5, -1, 6.5, 1))
        union = frozenset().union(*[p.content for p in pieces])
        assert union == frozenset({3, 4, 5, 6})


class TestResultInvariants:
    def test_selection_never_contains_duplicates(self, uniform_small):
        for delta in (1.0, 0.5, 0.25):
            result = iter_set_cover(SetStream(uniform_small), delta=delta, seed=3)
            assert len(result.selection) == len(set(result.selection))

    def test_guess_stats_peak_sums_to_total(self, uniform_small):
        result = iter_set_cover(SetStream(uniform_small), delta=0.5, seed=3)
        total = sum(s.peak_memory_words for s in result.guess_stats.values())
        assert total == result.peak_memory_words

    def test_report_round_trip(self, uniform_small):
        result = iter_set_cover(SetStream(uniform_small), delta=0.5, seed=3)
        row = result.report().as_row()
        assert row["passes"] == result.passes
        assert row["|sol|"] == result.solution_size
        assert row["algorithm"] == "iterSetCover"


class TestSolverInjection:
    def test_custom_solver_is_used(self, uniform_small):
        calls = []

        class CountingSolver:
            name = "counting"

            def solve(self, system):
                from repro.offline import greedy_cover

                calls.append(system.n)
                return greedy_cover(system)

            def rho(self, n):
                return 1.0

            def solve_partial(self, n, sets, targets):
                from repro.offline.base import OfflineSolver

                return OfflineSolver.solve_partial(self, n, sets, targets)

        algo = IterSetCover(
            config=IterSetCoverConfig(delta=1.0), solver=CountingSolver(), seed=0
        )
        result = algo.solve(SetStream(uniform_small))
        assert result.feasible
        assert calls  # the injected solver ran
