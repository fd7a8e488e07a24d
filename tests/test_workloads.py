"""Tests for workload generators: placement and swarm populations."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.library import abilene
from repro.workloads.placement import place_peers
from repro.workloads.swarms import SwarmPopulationModel, fraction_above


class TestPlacement:
    def test_count(self):
        peers = place_peers(abilene(), 25, random.Random(0))
        assert len(peers) == 25

    def test_ids_consecutive(self):
        peers = place_peers(abilene(), 5, random.Random(0), first_id=10)
        assert [p.peer_id for p in peers] == [10, 11, 12, 13, 14]

    def test_as_numbers_from_topology(self):
        topo = abilene(as_number=777)
        peers = place_peers(topo, 5, random.Random(0))
        assert all(p.as_number == 777 for p in peers)

    def test_restricted_pids(self):
        peers = place_peers(abilene(), 20, random.Random(0), pids=["SEAT", "NYCM"])
        assert {p.pid for p in peers} <= {"SEAT", "NYCM"}

    def test_weights_bias_placement(self):
        topo = abilene()
        weights = {pid: 0.0 for pid in topo.aggregation_pids}
        weights["NYCM"] = 1.0
        peers = place_peers(topo, 30, random.Random(0), weights=weights)
        assert all(p.pid == "NYCM" for p in peers)

    def test_zero_weights_rejected(self):
        topo = abilene()
        weights = {pid: 0.0 for pid in topo.aggregation_pids}
        with pytest.raises(ValueError):
            place_peers(topo, 5, random.Random(0), weights=weights)

    def test_unknown_pid_rejected(self):
        with pytest.raises(KeyError):
            place_peers(abilene(), 5, random.Random(0), pids=["NOPE"])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            place_peers(abilene(), -1, random.Random(0))

    def test_histogram(self):
        peers = place_peers(abilene(), 40, random.Random(1))
        histogram = Counter(peer.pid for peer in peers)
        assert sum(histogram.values()) == 40


class TestSwarmPopulation:
    def test_sample_count_and_bounds(self):
        model = SwarmPopulationModel(max_size=1000)
        sizes = model.sample(200, random.Random(0))
        assert len(sizes) == 200
        assert all(1 <= size <= 1000 for size in sizes)

    def test_deterministic(self):
        model = SwarmPopulationModel(max_size=500)
        assert model.sample(50, random.Random(3)) == model.sample(50, random.Random(3))

    def test_tail_fraction_monotone(self):
        model = SwarmPopulationModel(max_size=10_000)
        assert model.tail_fraction(10) > model.tail_fraction(100)

    def test_default_calibration_near_paper(self):
        """The default alpha reproduces the piratebay tail (~0.72%)."""
        model = SwarmPopulationModel()
        tail = model.tail_fraction(100)
        assert 0.005 < tail < 0.010

    def test_small_swarms_dominate(self):
        model = SwarmPopulationModel(max_size=10_000)
        sizes = model.sample(2000, random.Random(5))
        assert fraction_above(sizes, 10) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            SwarmPopulationModel(alpha=1.0)
        with pytest.raises(ValueError):
            SwarmPopulationModel(max_size=0)
        with pytest.raises(ValueError):
            SwarmPopulationModel().sample(-1, random.Random(0))
        with pytest.raises(ValueError):
            fraction_above([], 10)
        with pytest.raises(ValueError):
            SwarmPopulationModel().tail_fraction(-1)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.2, max_value=3.0))
    def test_heavier_tails_for_smaller_alpha(self, alpha):
        lighter = SwarmPopulationModel(alpha=alpha + 0.3, max_size=5000)
        heavier = SwarmPopulationModel(alpha=alpha, max_size=5000)
        assert heavier.tail_fraction(50) >= lighter.tail_fraction(50)
