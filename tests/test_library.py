"""Tests for the Abilene topology (Table 1 row: 11 nodes, 28 links)."""

from repro.network.library import (
    ABILENE_CAPACITY_MBPS,
    PROTECTED_LINK,
    abilene,
)
from repro.network.routing import RoutingTable


class TestAbilene:
    def test_table1_node_and_link_counts(self):
        topo = abilene()
        assert len(topo.nodes) == 11
        assert len(topo.links) == 28

    def test_links_are_symmetric(self):
        topo = abilene()
        for (src, dst) in topo.links:
            assert topo.has_link(dst, src)

    def test_capacities(self):
        topo = abilene()
        assert all(
            link.capacity == ABILENE_CAPACITY_MBPS for link in topo.links.values()
        )

    def test_protected_link_exists(self):
        topo = abilene()
        assert topo.has_link(*PROTECTED_LINK)

    def test_distances_are_realistic_miles(self):
        topo = abilene()
        for link in topo.links.values():
            assert 100 < link.distance < 1600

    def test_connected(self):
        topo = abilene()
        table = RoutingTable.build(topo)
        assert all(
            table.has_route(a, b) for a in topo.pids for b in topo.pids
        )

    def test_coast_to_coast_is_multi_hop(self):
        table = RoutingTable.build(abilene())
        assert table.hop_count("SEAT", "NYCM") >= 3

    def test_all_aggregation_pids(self):
        topo = abilene()
        assert set(topo.aggregation_pids) == set(topo.pids)

    def test_as_number_applied(self):
        topo = abilene(as_number=42)
        assert all(node.as_number == 42 for node in topo.nodes.values())
