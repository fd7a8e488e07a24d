"""Tests for the CLI experiment runner."""

import io
import json

import pytest

from repro.network.library import abilene
from repro.tools.cli import build_parser, main


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
