"""Tests for the appTracker integrations: BitTorrent, Pando, Liveswarms."""

import random

import pytest

from repro.apptracker.bittorrent import (
    P4PBitTorrentTracker,
    localized_tracker,
    native_tracker,
)
from repro.apptracker.pando import (
    ClientBandwidth,
    OptimizationService,
    PandoTracker,
    pattern_to_weights,
    session_from_estimates,
)
from repro.apptracker.selection import PeerInfo, PerAsSelector, RandomSelection
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.session import TrafficPattern
from repro.network.library import abilene
from repro.network.routing import RoutingTable


def abilene_itracker(**config_kwargs):
    return ITracker(
        topology=abilene(), config=ITrackerConfig(**config_kwargs)
    )


class TestP4PBitTorrentTracker:
    def make_tracker(self):
        itracker = abilene_itracker(mode=PriceMode.DYNAMIC, step_size=0.002)
        as_number = abilene().node("SEAT").as_number
        return P4PBitTorrentTracker(itrackers={as_number: itracker}), itracker

    def test_selector_uses_itracker_views(self):
        tracker, itracker = self.make_tracker()
        as_number = itracker.topology.node("SEAT").as_number
        assert as_number in tracker.selector.pdistances

    def test_select_peers(self):
        tracker, itracker = self.make_tracker()
        as_number = itracker.topology.node("SEAT").as_number
        client = PeerInfo(peer_id=0, pid="SEAT", as_number=as_number)
        candidates = [
            PeerInfo(peer_id=i, pid=pid, as_number=as_number)
            for i, pid in enumerate(["SEAT", "SEAT", "NYCM", "CHIN", "LOSA"], start=1)
        ]
        chosen = tracker.selector.select(client, candidates, 4, random.Random(0))
        assert len(chosen) == 4

    def test_hook_updates_views(self):
        tracker, itracker = self.make_tracker()
        as_number = itracker.topology.node("SEAT").as_number
        before = tracker.selector.pdistances[as_number]
        tracker.tracker_hook(100.0, {}, {("WASH", "NYCM"): 5000.0})
        after = tracker.selector.pdistances[as_number]
        assert after is not before
        assert after.distance("WASH", "NYCM") > before.distance("WASH", "NYCM")

    def test_hook_ignores_foreign_links(self):
        tracker, itracker = self.make_tracker()
        version = itracker.version
        tracker.tracker_hook(100.0, {}, {("X", "Y"): 100.0})
        assert itracker.version == version + 1  # update ran with empty loads

    def test_invalid_bounds_rejected(self):
        itracker = abilene_itracker()
        with pytest.raises(ValueError):
            P4PBitTorrentTracker(itrackers={1: itracker}, upper_intra=0.9, upper_inter=0.5)


class TestFactories:
    def test_native(self):
        assert native_tracker().name == "native"

    def test_localized_prefers_short_routes(self):
        routing = RoutingTable.build(abilene())
        selector = localized_tracker(routing, jitter=0.0)
        client = PeerInfo(peer_id=0, pid="NYCM", as_number=1)
        near = PeerInfo(peer_id=1, pid="WASH", as_number=1)
        far = PeerInfo(peer_id=2, pid="SEAT", as_number=1)
        chosen = selector.select(client, [far, near], 1, random.Random(0))
        assert chosen[0].pid == "WASH"


class TestPandoService:
    def estimates(self):
        return [
            ClientBandwidth(peer_id=1, pid="SEAT", upload_mbps=10.0, download_mbps=20.0),
            ClientBandwidth(peer_id=2, pid="SEAT", upload_mbps=10.0, download_mbps=20.0),
            ClientBandwidth(peer_id=3, pid="NYCM", upload_mbps=5.0, download_mbps=20.0),
            ClientBandwidth(peer_id=4, pid="WASH", upload_mbps=5.0, download_mbps=20.0),
        ]

    def test_session_aggregation(self):
        session = session_from_estimates(self.estimates())
        assert session.uploads["SEAT"] == 20.0
        assert session.downloads["NYCM"] == 20.0

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            ClientBandwidth(peer_id=1, pid="X", upload_mbps=-1.0, download_mbps=1.0)

    def test_weights_rows_normalized(self):
        service = OptimizationService(itracker=abilene_itracker(mode=PriceMode.HOP_COUNT))
        weights = service.compute_weights(self.estimates())
        assert weights
        by_src = {}
        for (src, dst), value in weights.items():
            assert value >= 0
            by_src.setdefault(src, 0.0)
            by_src[src] += value
        for src, total in by_src.items():
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_single_pid_yields_no_weights(self):
        service = OptimizationService(itracker=abilene_itracker(mode=PriceMode.HOP_COUNT))
        estimates = [
            ClientBandwidth(peer_id=1, pid="SEAT", upload_mbps=1.0, download_mbps=1.0)
        ]
        assert service.compute_weights(estimates) == {}

    def test_pattern_to_weights_symmetric(self):
        pattern = TrafficPattern(flows={("A", "B"): 10.0})
        weights = pattern_to_weights(pattern, gamma=1.0, symmetric=True)
        # Both directions get weight because connections carry both ways.
        assert weights[("A", "B")] == pytest.approx(1.0)
        assert weights[("B", "A")] == pytest.approx(1.0)

    def test_pattern_to_weights_directional(self):
        pattern = TrafficPattern(flows={("A", "B"): 10.0})
        weights = pattern_to_weights(pattern, gamma=1.0, symmetric=False)
        assert ("B", "A") not in weights


class TestPandoTracker:
    def test_refresh_installs_weights(self):
        service = OptimizationService(itracker=abilene_itracker(mode=PriceMode.HOP_COUNT))
        tracker = PandoTracker(service=service)
        estimates = [
            ClientBandwidth(peer_id=1, pid="SEAT", upload_mbps=10.0, download_mbps=10.0),
            ClientBandwidth(peer_id=2, pid="SNVA", upload_mbps=10.0, download_mbps=10.0),
        ]
        weights = tracker.refresh(estimates)
        assert weights
        # Intra-PID diagonal present.
        assert any(src == dst for src, dst in weights)

    def test_selection_follows_refreshed_weights(self):
        service = OptimizationService(itracker=abilene_itracker(mode=PriceMode.HOP_COUNT))
        tracker = PandoTracker(service=service)
        estimates = [
            ClientBandwidth(peer_id=1, pid="SEAT", upload_mbps=10.0, download_mbps=10.0),
            ClientBandwidth(peer_id=2, pid="SNVA", upload_mbps=10.0, download_mbps=10.0),
        ]
        tracker.refresh(estimates)
        client = PeerInfo(peer_id=9, pid="SEAT", as_number=1)
        candidates = [
            PeerInfo(peer_id=1, pid="SNVA", as_number=1),
            PeerInfo(peer_id=2, pid="NYCM", as_number=1),
        ]
        chosen = tracker.selector.select(client, candidates, 1, random.Random(1))
        assert len(chosen) == 1


class TestPerAsSelector:
    def test_dispatch(self):
        calls = []

        class Recorder(RandomSelection):
            def __init__(self, label):
                self.label = label

            def select(self, client, candidates, m, rng):
                calls.append(self.label)
                return super().select(client, candidates, m, rng)

        selector = PerAsSelector(
            by_as={1: Recorder("one")}, default=Recorder("default")
        )
        client_one = PeerInfo(peer_id=0, pid="A", as_number=1)
        client_other = PeerInfo(peer_id=1, pid="A", as_number=2)
        selector.select(client_one, [], 1, random.Random(0))
        selector.select(client_other, [], 1, random.Random(0))
        assert calls == ["one", "default"]
