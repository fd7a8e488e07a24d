"""Tests for virtual-ISP partitioning and interdomain link bookkeeping."""

import pytest

from repro.network.interdomain import ABILENE_CUT, partition_virtual_isps
from repro.network.library import abilene


class TestPartition:
    def test_default_cut_splits_abilene(self):
        partition = partition_virtual_isps(abilene())
        sizes = sorted(len(side) for side in partition.components)
        assert sum(sizes) == 11
        assert sizes == [5, 6]

    def test_cut_links_marked_interdomain(self):
        partition = partition_virtual_isps(abilene())
        topo = partition.topology
        assert len(topo.interdomain_links) == 4  # 2 edges x 2 directions
        for key in partition.cut_links:
            assert topo.links[key].interdomain

    def test_as_numbers_assigned(self):
        partition = partition_virtual_isps(abilene(), as_numbers=(100, 200))
        west, east = partition.components
        topo = partition.topology
        assert all(topo.node(pid).as_number == 100 for pid in west)
        assert all(topo.node(pid).as_number == 200 for pid in east)

    def test_same_side(self):
        partition = partition_virtual_isps(abilene())
        west, east = partition.components
        assert {"SEAT", "LOSA"} <= west
        assert "NYCM" in east

    def test_non_cut_rejected(self):
        # A single Abilene edge is not a 2-way cut.
        with pytest.raises(ValueError):
            partition_virtual_isps(abilene(), cut_edges=(("SEAT", "SNVA"),))

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError):
            partition_virtual_isps(abilene(), cut_edges=(("SEAT", "NYCM"),))

    def test_first_component_holds_first_cut_src(self):
        partition = partition_virtual_isps(abilene())
        assert ABILENE_CUT[0][0] in partition.components[0]
