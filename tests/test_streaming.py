"""Tests for the Liveswarms streaming simulation."""

import hashlib
import json
import random

import pytest

from repro.apptracker.selection import PeerInfo, RandomSelection
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.simulator.streaming import (
    StreamingConfig,
    StreamingSimulation,
)
from repro.workloads.placement import place_peers


def build_streaming(n_clients=10, config=None, selector=None):
    topo = abilene()
    routing = RoutingTable.build(topo)
    rng = random.Random(5)
    clients = place_peers(topo, n_clients, rng, first_id=1)
    source = PeerInfo(peer_id=0, pid="CHIN", as_number=topo.node("CHIN").as_number)
    config = config or StreamingConfig(
        stream_mbps=1.0,
        block_mbit=1.0,
        duration=120.0,
        window_blocks=15,
        neighbors=6,
        access_up_mbps=5.0,
        access_down_mbps=10.0,
        source_up_mbps=10.0,
        rng_seed=3,
    )
    return StreamingSimulation(
        topo, routing, config, selector or RandomSelection(), clients, source
    )


class TestStreamingConfig:
    def test_block_interval(self):
        config = StreamingConfig(stream_mbps=2.0, block_mbit=1.0)
        assert config.block_interval == pytest.approx(0.5)

    def test_total_blocks(self):
        config = StreamingConfig(stream_mbps=1.0, block_mbit=2.0, duration=100.0)
        assert config.total_blocks == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingConfig(stream_mbps=0.0)
        with pytest.raises(ValueError):
            StreamingConfig(duration=-1.0)
        with pytest.raises(ValueError):
            StreamingConfig(window_blocks=0)


class TestStreamingSimulation:
    def test_clients_receive_most_of_the_stream(self):
        sim = build_streaming(n_clients=8)
        result = sim.run()
        assert result.total_blocks > 0
        assert result.mean_continuity() > 0.7

    def test_backbone_traffic_recorded(self):
        result = build_streaming(n_clients=8).run()
        assert sum(result.link_traffic_mbit.values()) > 0
        assert result.mean_backbone_volume_mbit() > 0

    def test_deterministic(self):
        a = build_streaming(n_clients=6).run()
        b = build_streaming(n_clients=6).run()
        assert a.received_blocks == b.received_blocks

    def test_seeded_run_is_pinned(self):
        """Received blocks and link traffic repeat bit for bit, so any
        change to the RNG draw order or the transfer schedule shows here."""
        result = build_streaming(n_clients=10).run()
        doc = [
            sorted(result.received_blocks.items()),
            sorted(
                (list(key), value) for key, value in result.link_traffic_mbit.items()
            ),
            result.total_blocks,
            result.duration,
        ]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "16be5b5e8cd0b6db3477b760c2d8eb31d9529ede8bf511c7de325b59ab9b193b"
        )

    def test_duration_respected(self):
        result = build_streaming(n_clients=4).run()
        assert result.duration <= 120.0 + 1e-6

    def test_continuity_bounded(self):
        result = build_streaming(n_clients=6).run()
        for peer_id in result.received_blocks:
            assert 0.0 <= result.continuity(peer_id) <= 1.0

    def test_needs_clients(self):
        topo = abilene()
        routing = RoutingTable.build(topo)
        source = PeerInfo(peer_id=0, pid="CHIN", as_number=0)
        with pytest.raises(ValueError):
            StreamingSimulation(
                topo, routing, StreamingConfig(), RandomSelection(), [], source
            )

    def test_localized_swarm_reduces_backbone_volume(self):
        """A same-PoP swarm should use far less backbone than a spread one."""
        topo = abilene()
        routing = RoutingTable.build(topo)
        config = StreamingConfig(
            stream_mbps=1.0, block_mbit=1.0, duration=60.0, neighbors=5,
            access_up_mbps=5.0, access_down_mbps=10.0, rng_seed=4,
        )
        source = PeerInfo(peer_id=0, pid="CHIN", as_number=0)
        local_clients = [PeerInfo(peer_id=i, pid="CHIN", as_number=0) for i in range(1, 9)]
        spread_pids = ["SEAT", "LOSA", "NYCM", "ATLA", "DNVR", "HSTN", "WASH", "KSCY"]
        spread_clients = [
            PeerInfo(peer_id=i, pid=pid, as_number=0)
            for i, pid in enumerate(spread_pids, start=1)
        ]
        local = StreamingSimulation(
            topo, routing, config, RandomSelection(), local_clients, source
        ).run()
        spread = StreamingSimulation(
            topo, routing, config, RandomSelection(), spread_clients, source
        ).run()
        assert sum(local.link_traffic_mbit.values()) < sum(
            spread.link_traffic_mbit.values()
        )


class TestStreamingRateCaps:
    def test_window_cap_reduces_cross_country_rate(self):
        topo = abilene()
        routing = RoutingTable.build(topo)
        config = StreamingConfig(
            stream_mbps=2.0, block_mbit=2.0, duration=60.0, neighbors=4,
            access_up_mbps=50.0, access_down_mbps=50.0, source_up_mbps=50.0,
            tcp_window_mbit=0.05, rng_seed=9,
        )
        source = PeerInfo(peer_id=0, pid="SEAT", as_number=0)
        far_clients = [PeerInfo(peer_id=i, pid="NYCM", as_number=0) for i in (1, 2)]
        capped = StreamingSimulation(
            topo, routing, config, RandomSelection(), far_clients, source
        ).run()
        uncapped_config = StreamingConfig(
            stream_mbps=2.0, block_mbit=2.0, duration=60.0, neighbors=4,
            access_up_mbps=50.0, access_down_mbps=50.0, source_up_mbps=50.0,
            tcp_window_mbit=None, rng_seed=9,
        )
        uncapped = StreamingSimulation(
            topo, routing, uncapped_config, RandomSelection(), far_clients, source
        ).run()
        # Cross-country cap ~0.05/0.06s < 1 Mbps < stream rate: continuity
        # suffers; without the cap the stream keeps up.
        assert capped.mean_continuity() < uncapped.mean_continuity()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StreamingConfig(tcp_window_mbit=0.0)
