"""Tests for the future-work extensions: coordinate embedding, Nash
bargaining for inter-AS conflicts, and capability-driven caches."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apptracker.caches import deploy_caches
from repro.apptracker.interas import (
    bargaining_from_views,
    client_view_weights,
    nash_bargaining_weights,
)
from repro.apptracker.selection import PeerInfo, RandomSelection
from repro.core.capability import AccessDeniedError, Capability, CapabilityKind
from repro.core.embedding import (
    embed_pdistances,
    embed_with_target_stress,
    embedding_quality,
)
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import PDistanceMap, external_view
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from tests.conftest import view_of


def abilene_mileage_view() -> PDistanceMap:
    """A p-distance view from link miles (embeddable: near-metric)."""
    topo = abilene()
    routing = RoutingTable.build(topo)
    prices = {key: link.distance for key, link in topo.links.items()}
    return external_view(topo, routing, prices)


class TestEmbedding:
    def test_dimensions_and_pids(self):
        view = abilene_mileage_view()
        embedding = embed_pdistances(view, dimensions=3)
        assert embedding.dimensions == 3
        assert embedding.pids == view.pids

    def test_low_stress_on_metric_data(self):
        view = abilene_mileage_view()
        embedding = embed_pdistances(view, dimensions=4)
        quality = embedding_quality(view, embedding)
        assert quality.stress < 0.15

    def test_compression_ratio(self):
        view = abilene_mileage_view()
        embedding = embed_pdistances(view, dimensions=2)
        quality = embedding_quality(view, embedding)
        # 11 PIDs: full mesh 121 floats vs 22 coordinates.
        assert quality.compression_ratio == pytest.approx(121 / 22)

    def test_perfect_embedding_of_euclidean_points(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 10, size=(6, 2))
        pids = tuple(f"P{i}" for i in range(6))
        distances = {}
        for i, a in enumerate(pids):
            for j, b in enumerate(pids):
                distances[(a, b)] = float(np.linalg.norm(points[i] - points[j]))
        view = view_of(pids, distances)
        embedding = embed_pdistances(view, dimensions=2)
        quality = embedding_quality(view, embedding)
        assert quality.stress < 1e-6

    def test_self_distance_zero(self):
        embedding = embed_pdistances(abilene_mileage_view(), dimensions=3)
        assert embedding.distance("SEAT", "SEAT") == 0.0

    def test_target_stress_search(self):
        view = abilene_mileage_view()
        embedding, quality = embed_with_target_stress(view, target_stress=0.2)
        assert quality.stress <= 0.2
        assert embedding.dimensions <= 16

    def test_validation(self):
        view = abilene_mileage_view()
        with pytest.raises(ValueError):
            embed_pdistances(view, dimensions=0)
        single = view_of(("A",), {})
        with pytest.raises(ValueError):
            embed_pdistances(single, dimensions=2)
        with pytest.raises(ValueError):
            embed_with_target_stress(view, target_stress=0.0)

    def test_dimensions_clamped(self):
        view = abilene_mileage_view()
        embedding = embed_pdistances(view, dimensions=50)
        assert embedding.dimensions == len(view.pids) - 1


class TestNashBargaining:
    def test_mutual_gain_found(self):
        # Pair p1 is terrible for A, p2 terrible for B, p3 decent for both:
        # the NBS should concentrate on p3.
        pairs = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        cost_a = {pairs[0]: 10.0, pairs[1]: 2.0, pairs[2]: 1.0}
        cost_b = {pairs[0]: 2.0, pairs[1]: 10.0, pairs[2]: 1.0}
        outcome = nash_bargaining_weights(pairs, cost_a, cost_b)
        assert outcome.weights[pairs[2]] > 0.9
        assert outcome.utility_a > 0
        assert outcome.utility_b > 0

    def test_weights_are_distribution(self):
        pairs = [("x", "y"), ("u", "v")]
        outcome = nash_bargaining_weights(
            pairs, {pairs[0]: 3.0, pairs[1]: 1.0}, {pairs[0]: 1.0, pairs[1]: 3.0}
        )
        assert sum(outcome.weights.values()) == pytest.approx(1.0)
        assert all(w >= -1e-9 for w in outcome.weights.values())

    def test_no_deal_returns_uniform(self):
        # Identical costs: no allocation beats uniform for both strictly.
        pairs = [("x", "y"), ("u", "v")]
        costs = {pairs[0]: 2.0, pairs[1]: 2.0}
        outcome = nash_bargaining_weights(pairs, costs, costs)
        assert outcome.weights[pairs[0]] == pytest.approx(0.5)
        assert outcome.nash_product == 0.0

    def test_symmetric_conflict_splits_surplus(self):
        # A prefers pair 0, B prefers pair 1, both hate pair 2; symmetric.
        pairs = [("p", "q"), ("r", "s"), ("t", "u")]
        cost_a = {pairs[0]: 1.0, pairs[1]: 5.0, pairs[2]: 9.0}
        cost_b = {pairs[0]: 5.0, pairs[1]: 1.0, pairs[2]: 9.0}
        outcome = nash_bargaining_weights(pairs, cost_a, cost_b)
        assert outcome.utility_a == pytest.approx(outcome.utility_b, rel=0.05)
        assert outcome.weights[pairs[2]] < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            nash_bargaining_weights([], {}, {})
        pairs = [("x", "y")]
        with pytest.raises(ValueError):
            nash_bargaining_weights(pairs, {pairs[0]: -1.0}, {pairs[0]: 1.0})

    def test_from_views(self):
        pids = ("A1", "B1")
        view_a = view_of(pids, {("A1", "B1"): 1.0, ("B1", "A1"): 1.0})
        view_b = view_of(pids, {("A1", "B1"): 2.0, ("B1", "A1"): 2.0})
        outcome = bargaining_from_views(view_a, view_b, [("A1", "B1")])
        assert outcome.weights[("A1", "B1")] == pytest.approx(1.0)

    def test_client_view_weights_delegates(self):
        view = abilene_mileage_view()
        weights = client_view_weights(view, "SEAT", ["NYCM", "SNVA"], gamma=1.0)
        assert weights["SNVA"] > weights["NYCM"]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=20.0),
                st.floats(min_value=0.1, max_value=20.0),
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_nbs_never_worse_than_disagreement(self, costs):
        pairs = [(f"s{i}", f"d{i}") for i in range(len(costs))]
        cost_a = {pair: a for pair, (a, _) in zip(pairs, costs)}
        cost_b = {pair: b for pair, (_, b) in zip(pairs, costs)}
        outcome = nash_bargaining_weights(pairs, cost_a, cost_b)
        assert outcome.utility_a >= -1e-9
        assert outcome.utility_b >= -1e-9


class TestCacheDeployment:
    def make_itracker(self):
        itracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        itracker.capabilities.add(
            Capability(CapabilityKind.CACHE, pid="NYCM", capacity_mbps=500.0)
        )
        itracker.capabilities.add(
            Capability(CapabilityKind.ON_DEMAND_SERVER, pid="CHIN", capacity_mbps=200.0)
        )
        return itracker

    def test_deploys_advertised_caches(self):
        deployment = deploy_caches(self.make_itracker(), "apptracker", first_peer_id=100)
        assert len(deployment.seeds) == 2
        assert deployment.total_capacity_mbps == pytest.approx(700.0)
        assert {seed.pid for seed in deployment.seeds} == {"NYCM", "CHIN"}
        assert set(deployment.access_overrides) == {100, 101}

    def test_access_control_enforced(self):
        itracker = self.make_itracker()
        itracker.capabilities.trust("friendly")
        with pytest.raises(AccessDeniedError):
            deploy_caches(itracker, "stranger", first_peer_id=100)
        assert deploy_caches(itracker, "friendly", first_peer_id=100).seeds

    def test_default_capacity_applied(self):
        itracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        itracker.capabilities.add(Capability(CapabilityKind.CACHE, pid="SEAT"))
        deployment = deploy_caches(itracker, "x", first_peer_id=5, default_capacity_mbps=77.0)
        assert deployment.access_overrides[5][0] == 77.0

    def test_cache_accelerates_swarm(self):
        """A capability cache at a popular PoP cuts completion time."""
        from repro.simulator.swarm import SwarmConfig, SwarmSimulation
        from repro.workloads.placement import place_peers

        topo = abilene()
        routing = RoutingTable.build(topo)
        rng = random.Random(4)
        peers = place_peers(topo, 20, rng, first_id=1)
        origin = PeerInfo(peer_id=0, pid="CHIN", as_number=topo.node("CHIN").as_number)
        config = SwarmConfig(
            file_mbit=32.0, block_mbit=2.0, neighbors=8, join_window=5.0,
            access_up_mbps=2.0, access_down_mbps=10.0, seed_up_mbps=4.0,
            completion_quantum=0.05, rng_seed=6,
        )

        plain = SwarmSimulation(
            topo, routing, config, RandomSelection(), peers, [origin]
        ).run(until=50000)

        itracker = self.make_itracker()
        deployment = deploy_caches(itracker, "apptracker", first_peer_id=100)
        cached = SwarmSimulation(
            topo,
            routing,
            config,
            RandomSelection(),
            peers,
            [origin] + deployment.seeds,
            access_overrides=deployment.access_overrides,
        ).run(until=50000)

        assert cached.mean_completion() < plain.mean_completion()
