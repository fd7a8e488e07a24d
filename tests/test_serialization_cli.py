"""Tests for topology serialization and the CLI experiment runner."""

import io
import json

import pytest

from repro.network.generators import isp_a
from repro.network.interdomain import partition_virtual_isps
from repro.network.library import abilene
from repro.network.serialization import (
    TopologyFormatError,
    load_topology,
    save_topology,
    topology_from_document,
    topology_to_document,
)
from repro.tools.cli import build_parser, main


class TestTopologySerialization:
    def test_round_trip_abilene(self, tmp_path):
        original = abilene()
        path = tmp_path / "abilene.json"
        save_topology(original, path)
        restored = load_topology(path)
        assert restored.name == original.name
        assert set(restored.nodes) == set(original.nodes)
        assert set(restored.links) == set(original.links)
        for key in original.links:
            assert restored.links[key].capacity == original.links[key].capacity
            assert restored.links[key].distance == pytest.approx(
                original.links[key].distance
            )

    def test_round_trip_preserves_interdomain_state(self, tmp_path):
        topo = abilene()
        partition = partition_virtual_isps(topo)
        key = partition.cut_links[0]
        topo.links[key].virtual_capacity = 42.0
        path = tmp_path / "split.json"
        save_topology(topo, path)
        restored = load_topology(path)
        assert restored.links[key].interdomain
        assert restored.links[key].virtual_capacity == 42.0
        for pid in topo.nodes:
            assert restored.node(pid).as_number == topo.node(pid).as_number

    def test_round_trip_synthetic(self, tmp_path):
        topo = isp_a()
        path = tmp_path / "ispa.json"
        save_topology(topo, path)
        restored = load_topology(path)
        assert len(restored.links) == len(topo.links)
        assert restored.node(topo.pids[0]).metro == topo.node(topo.pids[0]).metro

    def test_unsupported_version_rejected(self):
        document = topology_to_document(abilene())
        document["format_version"] = 99
        with pytest.raises(TopologyFormatError):
            topology_from_document(document)

    def test_malformed_document_rejected(self):
        with pytest.raises(TopologyFormatError):
            topology_from_document({"format_version": 1, "nodes": [{}], "links": []})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(TopologyFormatError):
            load_topology(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(TopologyFormatError):
            load_topology(path)

    def test_document_is_json_serializable(self):
        json.dumps(topology_to_document(abilene()))


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_list(self):
        code, text = self.run_cli(["list"])
        assert code == 0
        assert "fig6" in text and "fieldtest" in text

    def test_table1(self):
        code, text = self.run_cli(["table1"])
        assert code == 0
        assert "Abilene" in text and "ISP-C" in text

    def test_sec8(self):
        code, text = self.run_cli(["sec8", "--swarms", "5000"])
        assert code == 0
        assert "%" in text

    def test_fig6_small(self):
        code, text = self.run_cli(["fig6", "--peers", "12", "--runs", "1"])
        assert code == 0
        assert "native" in text and "p4p" in text

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliTelemetry:
    @pytest.fixture
    def live_portal(self):
        from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
        from repro.portal.aserver import AsyncPortalServer
        from repro.portal.client import PortalClient

        tracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        with AsyncPortalServer(tracker) as server:
            host, port = server.address
            with PortalClient(host, port) as client:
                client.get_version()
                client.get_pdistances()
            yield f"{host}:{port}"

    def test_dashboard(self, live_portal):
        out = io.StringIO()
        code = main(["telemetry", "--portal", live_portal], out=out)
        assert code == 0
        text = out.getvalue()
        assert f"telemetry: {live_portal}" in text
        assert "get_version" in text and "qps" in text

    def test_prometheus_format(self, live_portal):
        out = io.StringIO()
        code = main(
            ["telemetry", "--portal", live_portal, "--format", "prometheus"],
            out=out,
        )
        assert code == 0
        assert "# TYPE p4p_portal_requests_total counter" in out.getvalue()

    def test_json_format(self, live_portal):
        out = io.StringIO()
        code = main(
            ["telemetry", "--portal", live_portal, "--format", "json"], out=out
        )
        assert code == 0
        document = json.loads(out.getvalue())
        assert live_portal in document
        names = {m["name"] for m in document[live_portal]["metrics"]}
        assert "p4p_portal_requests_total" in names

    def test_bad_portal_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["telemetry", "--portal", "no-port-here"], out=io.StringIO())


class TestCliAblations:
    def test_ablations_command(self):
        out = io.StringIO()
        code = main(["ablations", "--iterations", "10"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "decomposition" in text
        assert "charging predictor" in text
        assert "rank coarsening" in text
