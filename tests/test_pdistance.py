"""Tests for the p4p-distance interface (views, PID mapping, coarsening)."""

import random

import pytest

from repro.core.itracker import ITracker, ITrackerConfig
from repro.core.objectives import BandwidthDistanceProduct, MinMaxUtilization
from repro.core.pdistance import PidMap, uniform_pid_map
from repro.network.generators import US_METROS, synthetic_isp
from repro.network.library import abilene
from repro.network.routing import NoRouteError, RoutingTable
from repro.network.topology import NodeKind, Topology
from repro.portal.protocol import encode_json
from tests.conftest import mesh_view, view_of, view_pairs


def square_topology():
    topo = Topology()
    for pid in "ABCD":
        topo.add_pid(pid)
    topo.add_edge("A", "B", capacity=10.0)
    topo.add_edge("B", "C", capacity=10.0)
    topo.add_edge("C", "D", capacity=10.0)
    topo.add_edge("D", "A", capacity=10.0)
    return topo


class TestPDistanceMap:
    def make_map(self):
        return view_of(
            ("A", "B", "C"),
            {
                ("A", "B"): 1.0,
                ("A", "C"): 3.0,
                ("B", "A"): 1.0,
                ("B", "C"): 2.0,
                ("C", "A"): 3.0,
                ("C", "B"): 2.0,
            },
        )

    def test_distance_lookup(self):
        assert self.make_map().distance("A", "C") == 3.0

    def test_intra_pid_defaults_to_zero(self):
        assert self.make_map().distance("A", "A") == 0.0

    def test_explicit_intra_pid(self):
        pmap = view_of(("A",), {("A", "A"): 5.0})
        assert pmap.distance("A", "A") == 5.0

    def test_row(self):
        assert self.make_map().row("A") == {"B": 1.0, "C": 3.0}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            view_of(("A", "B"), {("A", "B"): -1.0})

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            view_of(("A",), {("A", "Z"): 1.0})

    def test_to_ranks(self):
        ranks = self.make_map().to_ranks()
        assert ranks.distance("A", "B") == 1.0
        assert ranks.distance("A", "C") == 2.0

    def test_to_ranks_ties_share_rank(self):
        pmap = view_of(
            ("A", "B", "C"),
            {
                ("A", "B"): 2.0,
                ("A", "C"): 2.0,
                ("B", "A"): 1.0,
                ("B", "C"): 1.0,
                ("C", "A"): 1.0,
                ("C", "B"): 1.0,
            },
        )
        ranks = pmap.to_ranks()
        assert ranks.distance("A", "B") == 1.0
        assert ranks.distance("A", "C") == 1.0

    def test_ranked_rows_list_most_preferred_first(self):
        pmap = view_of(("A", "B", "C"), {("A", "B"): 3.0, ("A", "C"): 1.0, ("C", "A"): 1.0})
        assert list(pmap.entries()) == [("A", "B", 3.0), ("A", "C", 1.0), ("C", "A", 1.0)]
        assert list(pmap.to_ranks().entries()) == [
            ("A", "C", 1.0), ("A", "B", 2.0), ("C", "A", 1.0)
        ]

    def test_perturbed_bounded(self):
        pmap = self.make_map()
        noisy = pmap.perturbed(0.1, seed=3)
        for pair, value in view_pairs(pmap).items():
            assert abs(view_pairs(noisy)[pair] - value) <= 0.1 * value + 1e-12

    def test_perturbed_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            self.make_map().perturbed(1.5)

    def test_restricted_to(self):
        sub = self.make_map().restricted_to(["A", "B"])
        assert sub.pids == ("A", "B")
        assert ("A", "C") not in view_pairs(sub)


class TestExternalView:
    def test_aggregates_link_prices(self):
        topo = square_topology()
        routing = RoutingTable.build(topo)
        prices = {key: 1.0 for key in topo.links}
        view = mesh_view(topo, routing, prices)
        # A -> C is two hops either way.
        assert view.distance("A", "C") == pytest.approx(2.0)
        assert view.distance("A", "B") == pytest.approx(1.0)

    def test_cost_offsets_added(self):
        topo = square_topology()
        routing = RoutingTable.build(topo)
        prices = {key: 0.0 for key in topo.links}
        offsets = {key: 5.0 for key in topo.links}
        view = mesh_view(topo, routing, prices, offsets)
        assert view.distance("A", "B") == pytest.approx(5.0)

    def test_missing_prices_default_zero(self):
        topo = square_topology()
        routing = RoutingTable.build(topo)
        view = mesh_view(topo, routing, {})
        assert view.distance("A", "C") == 0.0

    def test_core_pids_hidden(self):
        topo = square_topology()
        topo.add_pid("core1", kind=NodeKind.CORE)
        topo.add_edge("core1", "A", capacity=10.0)
        routing = RoutingTable.build(topo)
        view = mesh_view(topo, routing, {})
        assert "core1" not in view.pids

    def test_full_mesh_on_abilene(self):
        topo = abilene()
        routing = RoutingTable.build(topo)
        view = mesh_view(topo, routing, {key: 1.0 for key in topo.links})
        n = len(topo.aggregation_pids)
        assert len(view_pairs(view)) == n * n  # includes p_ii entries
        # p-distance equals hop count when every link is priced 1.
        assert view.distance("SEAT", "NYCM") == routing.hop_count("SEAT", "NYCM")


def loop_external_view(
    topology, routing, link_prices, cost_offsets=None, intra_pid_distance=0.0
):
    """The per-pair loop the vectorised view replaced, kept as the reference:
    every route summed hop by hop from 0.0."""
    offsets = cost_offsets or {}
    pids = tuple(topology.aggregation_pids)
    distances = {}
    for src in pids:
        distances[(src, src)] = intra_pid_distance
        for dst in pids:
            if src == dst:
                continue
            total = 0.0
            for key in routing.route(src, dst):
                total += link_prices.get(key, 0.0) + offsets.get(key, 0.0)
            distances[(src, dst)] = total
    return distances


TOPOLOGIES = {
    "abilene": abilene,
    "isp30": lambda: synthetic_isp(
        name="ISP30", n_pops=30, metros=US_METROS, n_hubs=6, as_number=1, seed=3
    ),
    # The portal benchmark's provider.
    "bench80": lambda: synthetic_isp(
        name="BENCH", n_pops=80, metros=US_METROS, n_hubs=12, as_number=65000, seed=9
    ),
}


def tracker_prices(topology):
    """An iTracker's prices after one load update (numpy float values)."""
    tracker = ITracker(topology=topology, config=ITrackerConfig(step_size=0.001))
    links = sorted(topology.links)
    tracker.observe_loads({key: 37.0 * (n % 11) for n, key in enumerate(links)})
    return tracker.link_prices


def holed_prices(topology):
    """Varied prices with about a quarter of the links missing."""
    rng = random.Random(7)
    return {
        key: rng.uniform(0.0, 1e-3) for key in topology.links if rng.random() < 0.75
    }


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def topology(request):
    return TOPOLOGIES[request.param]()


class TestExternalViewBitIdentity:
    """The gather-and-add view is the per-pair loop, bit for bit."""

    @pytest.mark.parametrize("objective", [MinMaxUtilization, BandwidthDistanceProduct])
    @pytest.mark.parametrize("prices", [tracker_prices, holed_prices])
    @pytest.mark.parametrize("intra", [0.0, 0.5, 1])
    def test_same_keys_same_bits(self, topology, objective, prices, intra):
        routing = RoutingTable.build(topology)
        link_prices = prices(topology)
        offsets = objective().cost_offsets(topology)
        view = mesh_view(topology, routing, link_prices, offsets, intra)
        reference = loop_external_view(topology, routing, link_prices, offsets, intra)
        assert list(view_pairs(view)) == list(reference)
        assert [float(value).hex() for value in view_pairs(view).values()] == [
            float(value).hex() for value in reference.values()
        ]
        # The wire form too: an int diagonal stays an int.
        assert encode_json(list(view_pairs(view).values())) == encode_json(
            list(reference.values())
        )
        if objective is BandwidthDistanceProduct:
            assert len(set(reference.values())) > len(topology.aggregation_pids)

    def test_the_index_is_built_once_per_routing_table(self):
        topology = abilene()
        routing = RoutingTable.build(topology)
        pids = topology.aggregation_pids
        index = routing.hop_index(pids)
        mesh_view(topology, routing, {})
        assert routing.hop_index(pids) is index
        assert len(index.pairs) == len(pids) ** 2
        assert index.hops.shape[1] == len(index.pairs)
        assert index.hops.shape[0] == max(
            routing.hop_count(src, dst) for src in pids for dst in pids
        )

    def test_a_disconnected_pair_raises_no_route_every_time(self):
        topology = Topology()
        for pid in "ABCD":
            topology.add_pid(pid)
        topology.add_edge("A", "B", capacity=10.0)
        topology.add_edge("B", "C", capacity=10.0)
        routing = RoutingTable.build(topology)
        for _ in range(2):
            with pytest.raises(NoRouteError):
                mesh_view(topology, routing, {})


class TestPidMap:
    def test_longest_prefix_match(self):
        mapping = PidMap()
        mapping.add_prefix("10.0.0.0/8", "coarse", 1)
        mapping.add_prefix("10.1.0.0/16", "fine", 1)
        assert mapping.lookup("10.1.2.3")[0] == "fine"
        assert mapping.lookup("10.2.2.3")[0] == "coarse"

    def test_unmapped_raises(self):
        mapping = PidMap()
        mapping.add_prefix("10.0.0.0/8", "x")
        with pytest.raises(KeyError):
            mapping.lookup("192.168.1.1")

    def test_as_number_returned(self):
        mapping = PidMap()
        mapping.add_prefix("10.0.0.0/8", "x", as_number=65000)
        assert mapping.lookup("10.0.0.1") == ("x", 65000)

    def test_uniform_pid_map_covers_all_pids(self):
        topo = abilene()
        mapping = uniform_pid_map(topo)
        assert len(mapping) == len(topo.aggregation_pids)
        pid, as_number = mapping.lookup("10.0.0.1")
        assert pid == topo.aggregation_pids[0]
        assert as_number == topo.node(pid).as_number
