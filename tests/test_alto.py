"""Tests for the ALTO-compatible export (RFC 7285 document shapes)."""

import json

import pytest

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import PDistanceMap, uniform_pid_map
from repro.network.library import abilene
from repro.portal.alto import (
    NUMERICAL,
    ORDINAL,
    cost_map_document,
    endpoint_cost_document,
    network_map_document,
    network_map_from_pidmap,
)


def sample_view():
    return PDistanceMap.from_entries(
        ("PID-A", "PID-B", "PID-C"),
        [
            ("PID-A", "PID-A", 0.0),
            ("PID-B", "PID-B", 0.0),
            ("PID-C", "PID-C", 0.0),
            ("PID-A", "PID-B", 2.0),
            ("PID-A", "PID-C", 7.5),
            ("PID-B", "PID-A", 2.0),
            ("PID-B", "PID-C", 4.0),
            ("PID-C", "PID-A", 7.5),
            ("PID-C", "PID-B", 4.0),
        ],
    )


class TestNetworkMap:
    def test_document_shape(self):
        document = network_map_document({"PID-A": ["10.0.0.0/16"]})
        assert document["meta"]["vtag"]["tag"] == "p4p-1"
        assert document["network-map"]["PID-A"]["ipv4"] == ["10.0.0.0/16"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            network_map_document({})

    def test_from_pidmap_covers_all_pids(self):
        topo = abilene()
        document = network_map_from_pidmap(uniform_pid_map(topo))
        assert set(document["network-map"]) == set(topo.aggregation_pids)
        for entry in document["network-map"].values():
            assert entry["ipv4"]

    def test_json_serializable(self):
        json.dumps(network_map_from_pidmap(uniform_pid_map(abilene())))


class TestCostMap:
    def test_numerical_round_trip(self):
        view = sample_view()
        document = cost_map_document(view, mode=NUMERICAL)
        for src in view.pids:
            for dst in view.pids:
                assert document["cost-map"][src][dst] == pytest.approx(
                    view.distance(src, dst)
                )

    def test_ordinal_mode_exports_ranks(self):
        document = cost_map_document(sample_view(), mode=ORDINAL)
        row = document["cost-map"]["PID-A"]
        assert row["PID-B"] == 1
        assert row["PID-C"] == 2
        assert document["meta"]["cost-type"]["cost-mode"] == "ordinal"

    def test_meta_references_network_map(self):
        document = cost_map_document(sample_view())
        assert document["meta"]["dependent-vtags"][0]["resource-id"] == "p4p-network-map"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            cost_map_document(sample_view(), mode="hopcount")

    def test_live_itracker_export(self):
        itracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        view = itracker.get_pdistances()
        document = cost_map_document(view)
        assert document["cost-map"]["SEAT"]["NYCM"] == pytest.approx(
            view.distance("SEAT", "NYCM")
        )
        json.dumps(document)


class TestEndpointCost:
    def test_costs_via_pid_mapping(self):
        view = sample_view()
        pid_of = {"10.0.0.1": "PID-A", "10.1.0.1": "PID-B", "10.2.0.1": "PID-C"}
        document = endpoint_cost_document(
            view, pid_of, "10.0.0.1", ["10.1.0.1", "10.2.0.1"]
        )
        row = document["endpoint-cost-map"]["ipv4:10.0.0.1"]
        assert row["ipv4:10.1.0.1"] == pytest.approx(2.0)
        assert row["ipv4:10.2.0.1"] == pytest.approx(7.5)

    def test_unmappable_destinations_omitted(self):
        view = sample_view()
        pid_of = {"10.0.0.1": "PID-A"}
        document = endpoint_cost_document(view, pid_of, "10.0.0.1", ["8.8.8.8"])
        assert document["endpoint-cost-map"]["ipv4:10.0.0.1"] == {}

    def test_unknown_source_rejected(self):
        with pytest.raises(KeyError):
            endpoint_cost_document(sample_view(), {}, "1.2.3.4", [])


class TestAltoOverTheWire:
    def test_costmap_and_networkmap_served(self):
        from repro.portal.aserver import AsyncPortalServer
        from repro.portal.client import PortalClient

        itracker = ITracker(
            topology=abilene(),
            config=ITrackerConfig(mode=PriceMode.HOP_COUNT),
            pid_map=uniform_pid_map(abilene()),
        )
        with AsyncPortalServer(itracker) as server:
            with PortalClient(*server.address) as client:
                cost_doc = client.get_alto_costmap()
                net_doc = client.get_alto_networkmap()
        assert cost_doc["cost-map"]["SEAT"]["NYCM"] > 0
        assert set(net_doc["network-map"]) == set(abilene().aggregation_pids)
        assert cost_doc["meta"]["cost-type"]["cost-mode"] == "numerical"

    def test_ordinal_mode_over_the_wire(self):
        from repro.portal.aserver import AsyncPortalServer
        from repro.portal.client import PortalClient

        itracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        with AsyncPortalServer(itracker) as server:
            with PortalClient(*server.address) as client:
                document = client.get_alto_costmap(mode="ordinal")
        assert document["meta"]["cost-type"]["cost-mode"] == "ordinal"

    def test_networkmap_requires_pid_map(self):
        from repro.portal.aserver import AsyncPortalServer
        from repro.portal.client import PortalClient, PortalClientError

        itracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        with AsyncPortalServer(itracker) as server:
            with PortalClient(*server.address) as client:
                with pytest.raises(PortalClientError):
                    client.get_alto_networkmap()
