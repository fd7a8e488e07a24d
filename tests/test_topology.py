"""Unit tests for the PID-level topology model."""

import math

import pytest

from repro.network.topology import (
    Link,
    Node,
    NodeKind,
    Topology,
    great_circle_miles,
)


def make_triangle() -> Topology:
    topo = Topology(name="triangle")
    for pid in ("A", "B", "C"):
        topo.add_pid(pid)
    topo.add_edge("A", "B", capacity=100.0)
    topo.add_edge("B", "C", capacity=100.0)
    topo.add_edge("C", "A", capacity=100.0)
    return topo


class TestNode:
    def test_defaults(self):
        node = Node(pid="X")
        assert node.kind is NodeKind.AGGREGATION
        assert node.externally_visible
        assert node.metro == "X"

    def test_core_not_visible(self):
        assert not Node(pid="r1", kind=NodeKind.CORE).externally_visible

    def test_external_not_visible(self):
        assert not Node(pid="ext", kind=NodeKind.EXTERNAL).externally_visible

    def test_empty_pid_rejected(self):
        with pytest.raises(ValueError):
            Node(pid="")

    def test_explicit_metro_kept(self):
        assert Node(pid="X", metro="NYC").metro == "NYC"


class TestLink:
    def test_key(self):
        link = Link(src="A", dst="B", capacity=10.0)
        assert link.key == ("A", "B")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(src="A", dst="A", capacity=10.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link(src="A", dst="B", capacity=0.0)

    def test_negative_background_rejected(self):
        with pytest.raises(ValueError):
            Link(src="A", dst="B", capacity=10.0, background=-1.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Link(src="A", dst="B", capacity=10.0, ospf_weight=0.0)

    def test_headroom(self):
        link = Link(src="A", dst="B", capacity=10.0, background=4.0)
        assert link.headroom == pytest.approx(6.0)

    def test_headroom_never_negative(self):
        link = Link(src="A", dst="B", capacity=10.0, background=15.0)
        assert link.headroom == 0.0

    def test_utilization(self):
        link = Link(src="A", dst="B", capacity=10.0, background=2.0)
        assert link.utilization() == pytest.approx(0.2)
        assert link.utilization(3.0) == pytest.approx(0.5)


class TestTopology:
    def test_add_and_query(self):
        topo = make_triangle()
        assert len(topo) == 3
        assert topo.has_link("A", "B")
        assert topo.has_link("B", "A")
        assert set(topo.neighbors("A")) == {"B", "C"}

    def test_duplicate_pid_rejected(self):
        topo = make_triangle()
        with pytest.raises(ValueError):
            topo.add_pid("A")

    def test_duplicate_link_rejected(self):
        topo = make_triangle()
        with pytest.raises(ValueError):
            topo.add_link(Link(src="A", dst="B", capacity=1.0))

    def test_link_to_unknown_pid_rejected(self):
        topo = make_triangle()
        with pytest.raises(KeyError):
            topo.add_link(Link(src="A", dst="Z", capacity=1.0))

    def test_aggregation_pids_excludes_core(self):
        topo = make_triangle()
        topo.add_pid("r1", kind=NodeKind.CORE)
        assert "r1" not in topo.aggregation_pids
        assert set(topo.aggregation_pids) == {"A", "B", "C"}

    def test_interdomain_partition_of_links(self):
        topo = make_triangle()
        topo.links[("A", "B")].interdomain = True
        assert [link.key for link in topo.interdomain_links] == [("A", "B")]

    def test_validate_ok(self):
        make_triangle().validate()

    def test_validate_empty_fails(self):
        with pytest.raises(ValueError):
            Topology().validate()

    def test_copy_is_deep(self):
        topo = make_triangle()
        dup = topo.copy()
        dup.links[("A", "B")].background = 42.0
        assert topo.links[("A", "B")].background == 0.0
        dup.nodes["A"].metro = "changed"
        assert topo.nodes["A"].metro == "A"

    def test_pids_in_as(self):
        topo = make_triangle()
        topo.nodes["A"].as_number = 7
        assert topo.pids_in_as(7) == ["A"]

    def test_assign_distances_from_locations(self):
        topo = Topology()
        topo.add_pid("NY", location=(40.71, -74.01))
        topo.add_pid("DC", location=(38.91, -77.04))
        topo.add_edge("NY", "DC", capacity=10.0)
        topo.assign_distances_from_locations()
        distance = topo.link("NY", "DC").distance
        # NYC <-> Washington D.C. is roughly 200 miles.
        assert 180 < distance < 230
        assert topo.link("DC", "NY").distance == pytest.approx(distance)

    def test_total_capacity(self):
        topo = make_triangle()
        assert sum(link.capacity for link in topo.links.values()) == pytest.approx(600.0)


class TestGreatCircle:
    def test_zero_distance(self):
        assert great_circle_miles((10.0, 20.0), (10.0, 20.0)) == pytest.approx(0.0)

    def test_symmetry(self):
        a, b = (47.6, -122.3), (25.8, -80.2)
        assert great_circle_miles(a, b) == pytest.approx(great_circle_miles(b, a))

    def test_quarter_circumference(self):
        # Pole to equator is a quarter of Earth's circumference (~6218 mi).
        distance = great_circle_miles((90.0, 0.0), (0.0, 0.0))
        assert distance == pytest.approx(math.pi / 2 * 3958.8, rel=1e-6)
