"""Tests for the iTracker portal."""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.capability import Capability, CapabilityKind
from repro.core.charging import ChargingVolumePredictor
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import BandwidthDistanceProduct
from repro.core.pdistance import uniform_pid_map
from repro.network.library import abilene
from repro.optimization.projection import project_weighted_simplex
from tests.conftest import view_pairs


def make_itracker(**config_kwargs):
    return ITracker(
        topology=abilene(), config=ITrackerConfig(**config_kwargs)
    )


class TestStaticModes:
    def test_ospf_mode_uses_weights(self):
        topo = abilene()
        for link in topo.links.values():
            link.ospf_weight = link.distance
        tracker = ITracker(
            topology=topo, config=ITrackerConfig(mode=PriceMode.OSPF_WEIGHTS)
        )
        prices = tracker.link_prices
        key = ("WASH", "NYCM")
        assert prices[key] == pytest.approx(topo.link(*key).distance)

    def test_hop_count_mode(self):
        tracker = make_itracker(mode=PriceMode.HOP_COUNT)
        view = tracker.get_pdistances()
        routing = tracker.routing
        assert view.distance("SEAT", "NYCM") == routing.hop_count("SEAT", "NYCM")

    def test_explicit_mode(self):
        topo = abilene()
        prices = {key: 2.0 for key in topo.links}
        tracker = ITracker(
            topology=topo,
            config=ITrackerConfig(mode=PriceMode.EXPLICIT),
            explicit_prices=prices,
        )
        assert all(value == 2.0 for value in tracker.link_prices.values())

    def test_explicit_mode_requires_prices(self):
        with pytest.raises(ValueError):
            ITracker(topology=abilene(), config=ITrackerConfig(mode=PriceMode.EXPLICIT))

    def test_explicit_mode_requires_all_links(self):
        topo = abilene()
        with pytest.raises(ValueError):
            ITracker(
                topology=topo,
                config=ITrackerConfig(mode=PriceMode.EXPLICIT),
                explicit_prices={("WASH", "NYCM"): 1.0},
            )

    def test_static_mode_ignores_loads(self):
        tracker = make_itracker(mode=PriceMode.HOP_COUNT)
        before = tracker.link_prices
        assert not tracker.observe_loads({("WASH", "NYCM"): 100.0})
        assert tracker.link_prices == before


class TestDynamicMode:
    def test_loads_raise_hot_link_price(self):
        tracker = make_itracker(mode=PriceMode.DYNAMIC, step_size=0.001)
        hot = ("WASH", "NYCM")
        before = tracker.link_prices
        assert tracker.observe_loads({hot: 5000.0})
        after = tracker.link_prices
        assert after[hot] > before[hot]
        assert tracker.version == 1

    def test_update_period_rate_limits(self):
        tracker = make_itracker(mode=PriceMode.DYNAMIC, update_period=30.0)
        assert tracker.observe_loads({("WASH", "NYCM"): 100.0}, now=0.0)
        assert not tracker.observe_loads({("WASH", "NYCM"): 100.0}, now=10.0)
        assert tracker.observe_loads({("WASH", "NYCM"): 100.0}, now=40.0)

    def test_pdistance_reflects_price_updates(self):
        tracker = make_itracker(mode=PriceMode.DYNAMIC, step_size=0.001)
        before = tracker.get_pdistances().distance("WASH", "NYCM")
        for _ in range(5):
            tracker.observe_loads({("WASH", "NYCM"): 8000.0})
        after = tracker.get_pdistances().distance("WASH", "NYCM")
        assert after > before


    def test_step_decay_shrinks_the_tau_th_step(self):
        """The ``tau``-th step (warm start included) is ``step_size / (1 +
        step_decay * tau)``, projected back onto the simplex."""
        tracker = make_itracker(step_size=0.01, step_decay=0.5)
        tracker.warm_start(iterations=1)
        before = np.array(list(tracker.link_prices.values()))
        loads = {("WASH", "NYCM"): 5000.0}
        links = list(tracker.topology.links)
        xi = tracker.objective.supergradient(tracker.topology, links, loads)
        capacity = np.array([tracker.topology.links[key].capacity for key in links])
        tracker.observe_loads(loads)
        expected = project_weighted_simplex(before + 0.01 / (1.0 + 0.5 * 2) * xi, capacity)
        assert list(tracker.link_prices.values()) == expected.tolist()

    def test_price_and_view_trajectory_is_pinned(self):
        """Default config on a loaded Abilene: the warm start and 50 seeded
        load observations give these prices and views, bit for bit."""
        from repro.network.routing import RoutingTable
        from repro.network.traffic import (
            TrafficMatrix,
            apply_background,
            scale_background_to_utilization,
        )

        topo = abilene()
        apply_background(topo, TrafficMatrix.gravity(topo, 10_000.0, seed=4), RoutingTable.build(topo))
        scale_background_to_utilization(topo, 0.8)
        tracker = ITracker(topology=topo)
        tracker.warm_start()
        rng = random.Random(0)
        trajectory = []
        for _ in range(50):
            loads = {
                key: rng.uniform(0.0, link.capacity)
                for key, link in topo.links.items()
                if rng.random() < 0.5
            }
            assert tracker.observe_loads(loads)
            trajectory.append(
                [list(tracker.link_prices.values()), tracker.view_vector()[1].tolist()]
            )
        digest = hashlib.sha256(json.dumps(trajectory).encode()).hexdigest()
        assert digest == (
            "f6308c7c096012e63797124dfa835279ca381f98f72793d26b4ad91bf2216dcb"
        )


class TestViews:
    def test_restricted_view(self):
        tracker = make_itracker()
        view = tracker.get_pdistances(pids=["SEAT", "NYCM"])
        assert set(view.pids) == {"SEAT", "NYCM"}

    def test_rank_view(self):
        tracker = make_itracker(serve_ranks=True)
        view = tracker.get_pdistances()
        values = sorted(set(view.row("SEAT").values()))
        assert values[0] == 1.0
        assert all(float(value).is_integer() for value in values)

    def test_perturbed_view_differs(self):
        plain = make_itracker().get_pdistances()
        noisy = make_itracker(perturbation=0.2).get_pdistances()
        diffs = [
            abs(plain.distance(a, b) - noisy.distance(a, b))
            for a in plain.pids
            for b in plain.pids
            if a != b
        ]
        assert max(diffs) > 0

    def test_intra_pid_distance_served(self):
        tracker = make_itracker(intra_pid_distance=0.5)
        assert tracker.get_pdistances().distance("SEAT", "SEAT") == pytest.approx(0.5)

    def test_bdp_objective_adds_distance_offsets(self):
        topo = abilene()
        tracker = ITracker(topology=topo, objective=BandwidthDistanceProduct())
        view = tracker.get_pdistances()
        routing = tracker.routing
        assert view.distance("SEAT", "NYCM") >= routing.distance("SEAT", "NYCM")


class TestConfigRejectsUnservableViews:
    """Values that would construct and then break every later view read."""

    @pytest.mark.parametrize(
        "value", [-0.5, -1e-300, float("nan"), float("inf"), float("-inf")]
    )
    def test_intra_pid_distance_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="intra_pid_distance"):
            ITrackerConfig(intra_pid_distance=value)

    @pytest.mark.parametrize("value", [1.0, 1, 1.5, float("nan"), float("inf")])
    def test_perturbation_must_be_below_one(self, value):
        with pytest.raises(ValueError, match="perturbation"):
            ITrackerConfig(perturbation=value)

    @pytest.mark.parametrize(
        "config",
        [
            {"intra_pid_distance": 0.0},
            {"intra_pid_distance": 1},
            {"intra_pid_distance": 2.5},
            {"perturbation": 0.0},
            {"perturbation": 0.999},
        ],
    )
    def test_boundary_values_serve_views(self, config):
        view = make_itracker(**config).get_pdistances()
        assert len(view_pairs(view)) == len(view.pids) ** 2
        if "intra_pid_distance" in config:
            assert view.distance("SEAT", "SEAT") == config["intra_pid_distance"]


class TestPortalServices:
    def test_pid_lookup(self):
        topo = abilene()
        tracker = ITracker(topology=topo, pid_map=uniform_pid_map(topo))
        pid, as_number = tracker.lookup_pid("10.0.0.5")
        assert pid == topo.aggregation_pids[0]

    def test_pid_lookup_without_map(self):
        with pytest.raises(RuntimeError):
            make_itracker().lookup_pid("10.0.0.5")

    def test_capabilities_served(self):
        tracker = make_itracker()
        tracker.capabilities.add(Capability(CapabilityKind.CACHE, pid="NYCM"))
        assert len(tracker.get_capabilities("anyone")) == 1

    def test_policy_served(self):
        assert make_itracker().get_policy() is not None


class TestVirtualCapacityUpdates:
    def test_records_and_estimates(self):
        from repro.network.interdomain import partition_virtual_isps

        topo = abilene()
        partition = partition_virtual_isps(topo)
        tracker = ITracker(topology=topo)
        key = partition.cut_links[0]
        for _ in range(50):
            tracker.record_interval_volumes({key: 30000.0}, {key: 9000.0})
        estimates = tracker.update_virtual_capacities(
            charging_predictor=ChargingVolumePredictor(
                period_intervals=40, warmup_intervals=5
            )
        )
        # (30000 - 9000) Mbit / 300 s = 70 Mbps.
        assert estimates[key] == pytest.approx(70.0)
        assert topo.links[key].virtual_capacity == pytest.approx(70.0)

    def test_unknown_link_rejected(self):
        tracker = make_itracker()
        with pytest.raises(KeyError):
            tracker.record_interval_volumes({("X", "Y"): 1.0}, {})

    def test_no_history_no_estimates(self):
        from repro.network.interdomain import partition_virtual_isps

        topo = abilene()
        partition_virtual_isps(topo)
        tracker = ITracker(topology=topo)
        assert tracker.update_virtual_capacities() == {}


class TestWarmStart:
    def test_warm_start_targets_background_hot_links(self):
        from repro.network.routing import RoutingTable
        from repro.network.traffic import (
            TrafficMatrix,
            apply_background,
            scale_background_to_utilization,
        )

        topo = abilene()
        routing = RoutingTable.build(topo)
        apply_background(topo, TrafficMatrix.gravity(topo, 10_000.0, seed=4), routing)
        scale_background_to_utilization(topo, 0.8)
        hottest = max(
            topo.links, key=lambda key: topo.links[key].background / topo.links[key].capacity
        )
        tracker = ITracker(
            topology=topo, config=ITrackerConfig(mode=PriceMode.DYNAMIC, step_size=0.002)
        )
        tracker.warm_start()
        prices = tracker.link_prices
        assert prices[hottest] == max(prices.values())
        assert prices[hottest] > 0

    def test_warm_start_noop_for_static_modes(self):
        tracker = make_itracker(mode=PriceMode.HOP_COUNT)
        before = tracker.link_prices
        tracker.warm_start()
        assert tracker.link_prices == before

    def test_warm_start_bumps_version(self):
        tracker = make_itracker(mode=PriceMode.DYNAMIC)
        version = tracker.version
        tracker.warm_start()
        assert tracker.version == version + 1

    def test_negative_iterations_rejected(self):
        tracker = make_itracker(mode=PriceMode.DYNAMIC)
        with pytest.raises(ValueError):
            tracker.warm_start(iterations=-1)
