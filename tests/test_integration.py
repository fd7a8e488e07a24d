"""End-to-end integration tests across subsystem boundaries.

These are the "whole pipeline" checks: portal wire protocol feeding a
P4P appTracker feeding a swarm simulation over a provider topology, and
the decomposition loop driving an iTracker whose views the appTracker
serves.
"""

import random

import pytest

from repro.apptracker.selection import P4PSelection, PeerInfo
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import MinMaxUtilization
from repro.experiments.fig6_internet import abilene_internet_topology
from repro.network.library import PROTECTED_LINK, abilene
from repro.network.routing import RoutingTable
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import PortalClient
from repro.simulator.swarm import SwarmConfig, SwarmSimulation
from repro.workloads.placement import place_peers


class TestPortalDrivenSwarm:
    """A swarm whose selector consumes views fetched over the wire."""

    def test_swarm_with_remote_views(self):
        topo = abilene_internet_topology()
        routing = RoutingTable.build(topo)
        itracker = ITracker(
            topology=topo,
            config=ITrackerConfig(mode=PriceMode.DYNAMIC, step_size=0.002),
            objective=MinMaxUtilization(),
        )
        itracker.warm_start()
        as_number = topo.node("SEAT").as_number

        with AsyncPortalServer(itracker) as server:
            host, port = server.address
            with PortalClient(host, port) as client:
                view = client.get_pdistances()
        selector = P4PSelection(pdistances={as_number: view})

        rng = random.Random(2)
        peers = place_peers(topo, 24, rng, first_id=1)
        seed = PeerInfo(peer_id=0, pid="CHIN", as_number=as_number)
        config = SwarmConfig(
            file_mbit=16.0, block_mbit=2.0, neighbors=8, join_window=10.0,
            access_up_mbps=10.0, access_down_mbps=20.0, seed_up_mbps=50.0,
            completion_quantum=0.05, rng_seed=4,
        )
        sim = SwarmSimulation(topo, routing, config, selector, peers, [seed])
        result = sim.run(until=5000.0)
        assert len(result.completion_times) == 24

    def test_remote_view_matches_local(self):
        itracker = ITracker(
            topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        local = itracker.get_pdistances()
        with AsyncPortalServer(itracker) as server:
            with PortalClient(*server.address) as client:
                remote = client.get_pdistances()
        for src in local.pids:
            for dst in local.pids:
                assert remote.distance(src, dst) == pytest.approx(
                    local.distance(src, dst)
                )


class TestControlLoopProtectsLink:
    """Dynamic prices steer a live swarm away from the protected trunk."""

    def test_dynamic_beats_frozen_prices(self):
        from repro.apptracker.bittorrent import P4PBitTorrentTracker
        from repro.experiments.comparison import ComparisonConfig, make_population

        topo = abilene_internet_topology(background_mlu=0.9)
        routing = RoutingTable.build(topo)
        config = ComparisonConfig(
            n_peers=60, neighbors=12, join_window=120.0, rng_seed=9,
            completion_quantum=0.1,
        )
        peers, seeds = make_population(topo, config)

        def run(with_hook: bool) -> float:
            itracker = ITracker(
                topology=topo,
                config=ITrackerConfig(mode=PriceMode.DYNAMIC, step_size=0.002),
                objective=MinMaxUtilization(),
            )
            # No warm start: prices begin uniform, so only the feedback
            # loop can learn to avoid the hot link.
            tracker = P4PBitTorrentTracker(
                itrackers={topo.node("SEAT").as_number: itracker}
            )
            sim = SwarmSimulation(
                topo,
                routing,
                config.swarm_config(rng_seed=11),
                tracker.selector,
                peers,
                seeds,
                tracker_hook=tracker.tracker_hook if with_hook else None,
            )
            result = sim.run(until=1_000_000.0)
            return result.link_traffic_mbit.get(PROTECTED_LINK, 0.0)

        frozen = run(with_hook=False)
        adaptive = run(with_hook=True)
        # The feedback loop reduces protected-link usage relative to
        # frozen uniform prices (allow slack for stochastic swarms).
        assert adaptive <= frozen * 1.1

    def test_observe_loads_concentrates_price_on_hot_link(self):
        topo = abilene()
        itracker = ITracker(
            topology=topo,
            config=ITrackerConfig(mode=PriceMode.DYNAMIC, step_size=0.001),
        )
        hot = PROTECTED_LINK
        initial = dict(itracker.link_prices)
        for _ in range(3):
            itracker.observe_loads({hot: 9000.0})
        final = itracker.link_prices
        # All price mass migrates to the only loaded link; the simplex
        # constraint caps it at 1 / c_hot.
        assert final[hot] > initial[hot]
        assert final[hot] == pytest.approx(1.0 / topo.links[hot].capacity)
        cold = ("SEAT", "SNVA")
        assert final[cold] < initial[cold]
        assert final[cold] == pytest.approx(0.0, abs=1e-12)
