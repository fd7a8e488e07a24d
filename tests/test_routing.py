"""Unit tests for shortest-path routing and route indicators."""

import pytest

from repro.network.library import abilene
from repro.network.routing import NoRouteError, RoutingTable
from repro.network.topology import Topology


def line_topology(n: int = 4) -> Topology:
    topo = Topology(name="line")
    pids = [f"N{i}" for i in range(n)]
    for pid in pids:
        topo.add_pid(pid)
    for a, b in zip(pids, pids[1:]):
        topo.add_edge(a, b, capacity=10.0)
    return topo


class TestRoutingTable:
    def test_route_on_line(self):
        table = RoutingTable.build(line_topology(4))
        assert table.route("N0", "N3") == (("N0", "N1"), ("N1", "N2"), ("N2", "N3"))

    def test_self_route_is_empty(self):
        table = RoutingTable.build(line_topology(3))
        assert table.route("N1", "N1") == ()
        assert table.distance("N1", "N1") == 0.0

    def test_hop_count(self):
        table = RoutingTable.build(line_topology(5))
        assert table.hop_count("N0", "N4") == 4

    def test_path_pids(self):
        table = RoutingTable.build(line_topology(3))
        assert table.path_pids("N0", "N2") == ["N0", "N1", "N2"]

    def test_distance_sums_link_distances(self):
        topo = line_topology(3)
        topo.link("N0", "N1").distance = 5.0
        topo.link("N1", "N2").distance = 7.0
        table = RoutingTable.build(topo)
        assert table.distance("N0", "N2") == pytest.approx(12.0)

    def test_weights_steer_routing(self):
        # Square A-B-C-D; heavy weight on A->B pushes A->C traffic via D.
        topo = Topology()
        for pid in "ABCD":
            topo.add_pid(pid)
        topo.add_edge("A", "B", capacity=10.0)
        topo.add_edge("B", "C", capacity=10.0)
        topo.add_edge("A", "D", capacity=10.0)
        topo.add_edge("D", "C", capacity=10.0)
        topo.link("A", "B").ospf_weight = 10.0
        table = RoutingTable.build(topo)
        assert table.route("A", "C") == (("A", "D"), ("D", "C"))

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_pid("X")
        topo.add_pid("Y")
        table = RoutingTable.build(topo)
        assert not table.has_route("X", "Y")
        with pytest.raises(NoRouteError):
            table.route("X", "Y")
        with pytest.raises(NoRouteError):
            table.distance("X", "Y")

    def test_deterministic_tie_breaking(self):
        # Two equal-cost 2-hop paths A->C: via B and via D.  The route must
        # be identical across rebuilds.
        topo = Topology()
        for pid in "ABCD":
            topo.add_pid(pid)
        topo.add_edge("A", "B", capacity=10.0)
        topo.add_edge("B", "C", capacity=10.0)
        topo.add_edge("A", "D", capacity=10.0)
        topo.add_edge("D", "C", capacity=10.0)
        routes = {RoutingTable.build(topo).route("A", "C") for _ in range(5)}
        assert len(routes) == 1

    def test_on_route_indicator(self):
        # The indicator I_e(i, j) is membership of e in the route i -> j.
        route = RoutingTable.build(line_topology(4)).route("N0", "N3")
        assert ("N1", "N2") in route
        assert ("N2", "N1") not in route

    def test_pairs_using(self):
        table = RoutingTable.build(line_topology(3))
        pids = ("N0", "N1", "N2")
        pairs = [
            (src, dst)
            for src in pids
            for dst in pids
            if src != dst and ("N0", "N1") in table.route(src, dst)
        ]
        assert pairs == [("N0", "N1"), ("N0", "N2")]


class TestAbileneRouting:
    def test_all_pairs_connected(self):
        topo = abilene()
        table = RoutingTable.build(topo)
        for src in topo.pids:
            for dst in topo.pids:
                assert table.has_route(src, dst)

    def test_routes_are_simple_paths(self):
        topo = abilene()
        table = RoutingTable.build(topo)
        for src in topo.pids:
            for dst in topo.pids:
                pids = table.path_pids(src, dst)
                assert len(pids) == len(set(pids))

    def test_subpath_optimality(self):
        # Any prefix of a shortest path is itself a shortest path.
        topo = abilene()
        table = RoutingTable.build(topo)
        for src in topo.pids:
            for dst in topo.pids:
                if src == dst:
                    continue
                pids = table.path_pids(src, dst)
                mid = pids[len(pids) // 2]
                assert table.hop_count(src, mid) + table.hop_count(mid, dst) == (
                    table.hop_count(src, dst)
                )
