"""Tests for the Observation 5.9 protocol simulation."""

from __future__ import annotations

import pytest

from repro.baselines import MultiPassGreedy, StoreAllGreedy, ThresholdGreedy
from repro.communication import HandoffStream, ProtocolSimulation, simulate_players
from repro.communication.protocol import WORD_BITS
from repro.setsystem import SetSystem
from repro.workloads import planted_instance, uniform_random_instance


class TestHandoffStream:
    def test_fires_at_boundaries(self, tiny_system):
        events = []
        stream = HandoffStream(tiny_system, [2, 4], lambda p, s: events.append((p, s)))
        list(stream.iterate())
        assert events == [(0, 2), (0, 4)]

    def test_fires_once_per_pass(self, tiny_system):
        events = []
        stream = HandoffStream(tiny_system, [2], lambda p, s: events.append(p))
        list(stream.iterate())
        list(stream.iterate())
        assert events == [0, 1]

    def test_boundary_validation(self, tiny_system):
        with pytest.raises(ValueError):
            HandoffStream(tiny_system, [0], lambda p, s: None)
        with pytest.raises(ValueError):
            HandoffStream(tiny_system, [tiny_system.m], lambda p, s: None)

    def test_behaves_as_set_stream(self, tiny_system):
        stream = HandoffStream(tiny_system, [2], lambda p, s: None)
        items = [r for _, r in stream.iterate()]
        assert items == list(tiny_system.sets)
        assert stream.passes == 1


class TestProtocolSimulation:
    def test_handoffs_scale_with_passes_and_players(self):
        planted = planted_instance(n=60, m=40, opt=4, seed=1)
        report = simulate_players(planted.system, players=4, algorithm=MultiPassGreedy())
        # players - 1 handoffs per pass.
        assert report["handoffs"] == 3 * report["rounds"]
        assert report["result"].feasible

    @pytest.mark.parametrize("players", [2, 3, 5])
    def test_threshold_accept_pass_hands_off_once_per_boundary(self, players):
        # The accept pass is one gains scan: a missed or doubled handoff
        # would break handoffs == (players - 1) * rounds.  A random family
        # (largest set 13 of 80) keeps five accept passes after the
        # thresholds above Δ are skipped; the planted one is covered in one.
        system = uniform_random_instance(80, 60, density=0.1, seed=6)
        report = simulate_players(system, players, ThresholdGreedy())
        assert report["rounds"] == report["result"].passes > 1
        assert report["handoffs"] == (players - 1) * report["rounds"]
        assert report["result"].feasible

    def test_bits_formula(self):
        planted = planted_instance(n=40, m=30, opt=3, seed=2)
        report = simulate_players(planted.system, players=2, algorithm=StoreAllGreedy())
        expected = report["handoffs"] * report["result"].peak_memory_words * WORD_BITS
        assert report["total_bits"] == expected

    def test_low_memory_algorithm_communicates_less(self):
        planted = planted_instance(n=80, m=60, opt=4, seed=3)
        cheap = simulate_players(planted.system, 4, ThresholdGreedy())
        expensive = simulate_players(planted.system, 4, StoreAllGreedy())
        bits_per_handoff_cheap = cheap["total_bits"] / cheap["handoffs"]
        bits_per_handoff_expensive = expensive["total_bits"] / expensive["handoffs"]
        assert bits_per_handoff_cheap < bits_per_handoff_expensive

    def test_custom_memory_probe(self):
        planted = planted_instance(n=30, m=20, opt=3, seed=4)
        sim = ProtocolSimulation(planted.system, players=2, memory_probe=lambda: 7)
        report = sim.run(MultiPassGreedy())
        assert report["total_bits"] == report["handoffs"] * 7 * WORD_BITS

    def test_player_count_validated(self):
        planted = planted_instance(n=20, m=10, opt=2, seed=5)
        with pytest.raises(ValueError):
            simulate_players(planted.system, 1, MultiPassGreedy())
        with pytest.raises(ValueError):
            simulate_players(SetSystem(3, [[0, 1, 2]]), 2, MultiPassGreedy())
