"""Shared three-way BitTorrent comparison: native vs localized vs P4P.

This is the harness behind Figs. 6, 7, 8 and 10: the same swarm (placement,
file, arrival pattern) is run once per peer-selection scheme, with the P4P
run wired to one dynamic iTracker per AS (MLU objective, projected
super-gradient updates fed by measured link loads -- exactly the Internet
experiment setup where the iTracker "increases the p-distance of the
protected link if clients use this link").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apptracker.bittorrent import (
    P4PBitTorrentTracker,
    localized_tracker,
    native_tracker,
)
from repro.apptracker.selection import PeerInfo, PeerSelector
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import MinMaxUtilization
from repro.metrics.bottleneck import bottleneck_traffic, most_utilized_link
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simulator.swarm import SwarmConfig, SwarmResult, SwarmSimulation
from repro.workloads.placement import place_peers

LinkKey = Tuple[str, str]

SCHEMES = ("native", "localized", "p4p")


@dataclass
class ComparisonConfig:
    """One comparison scenario.

    Attributes mirror the paper's experiment parameters; the defaults are
    the Internet-experiment flavour (12 MB file, batch-ish arrivals, the
    D.C. -> NYC link protected on Abilene).
    """

    n_peers: int = 160
    file_mbit: float = 96.0
    block_mbit: float = 2.0
    neighbors: int = 15
    access_up_mbps: float = 10.0
    access_down_mbps: float = 10.0
    seed_up_mbps: float = 0.8
    join_window: float = 300.0
    placement_weights: Optional[Dict[str, float]] = None
    seed_pid: Optional[str] = None
    itracker_step: float = 0.002
    tracker_update_interval: float = 30.0
    completion_quantum: float = 0.1
    sample_interval: float = 5.0
    tcp_window_mbit: Optional[float] = 0.25
    rng_seed: int = 17

    def swarm_config(self, rng_seed: int) -> SwarmConfig:
        return SwarmConfig(
            file_mbit=self.file_mbit,
            block_mbit=self.block_mbit,
            neighbors=self.neighbors,
            access_up_mbps=self.access_up_mbps,
            access_down_mbps=self.access_down_mbps,
            seed_up_mbps=self.seed_up_mbps,
            join_window=self.join_window,
            sample_interval=self.sample_interval,
            tracker_update_interval=self.tracker_update_interval,
            completion_quantum=self.completion_quantum,
            tcp_window_mbit=self.tcp_window_mbit,
            rng_seed=rng_seed,
        )


@dataclass
class SchemeOutcome:
    """One scheme's swarm outcome plus the derived paper metrics."""

    scheme: str
    result: SwarmResult
    bottleneck_link: LinkKey
    bottleneck_traffic_mbit: float

    @property
    def mean_completion(self) -> float:
        return self.result.mean_completion()


def make_population(
    topology: Topology, config: ComparisonConfig
) -> Tuple[List[PeerInfo], List[PeerInfo]]:
    """Deterministic peer placement plus the single initial seed."""
    rng = random.Random(config.rng_seed)
    peers = place_peers(
        topology,
        config.n_peers,
        rng,
        weights=config.placement_weights,
        first_id=1,
    )
    seed_pid = config.seed_pid or topology.aggregation_pids[0]
    seed = PeerInfo(
        peer_id=0, pid=seed_pid, as_number=topology.node(seed_pid).as_number
    )
    return peers, [seed]


def build_p4p_tracker(
    topology: Topology, config: ComparisonConfig
) -> P4PBitTorrentTracker:
    """One dynamic MLU iTracker per AS present in the topology."""
    itrackers: Dict[int, ITracker] = {}
    as_numbers = {node.as_number for node in topology.nodes.values()}
    for as_number in as_numbers:
        itracker = ITracker(
            topology=topology,
            config=ITrackerConfig(
                mode=PriceMode.DYNAMIC,
                step_size=config.itracker_step,
                update_period=config.tracker_update_interval,
            ),
            objective=MinMaxUtilization(),
        )
        # Pre-arrival prices reflect the background MLU (paper Sec. 7.2).
        itracker.warm_start()
        itrackers[as_number] = itracker
    return P4PBitTorrentTracker(itrackers=itrackers)


def run_scheme(
    topology: Topology,
    routing: RoutingTable,
    config: ComparisonConfig,
    scheme: str,
    bottleneck: Optional[LinkKey] = None,
) -> SchemeOutcome:
    """Run one scheme over a fresh copy of the scenario."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    peers, seeds = make_population(topology, config)
    tracker_hook = None
    if scheme == "native":
        selector: PeerSelector = native_tracker()
    elif scheme == "localized":
        selector = localized_tracker(routing)
    else:
        tracker = build_p4p_tracker(topology, config)
        selector = tracker.selector
        tracker_hook = tracker.tracker_hook
    sim = SwarmSimulation(
        topology,
        routing,
        config.swarm_config(rng_seed=config.rng_seed + SCHEMES.index(scheme)),
        selector,
        peers,
        seeds,
        tracker_hook=tracker_hook,
    )
    result = sim.run(until=1_000_000.0)
    link = bottleneck or most_utilized_link(topology, result.link_traffic_mbit)
    return SchemeOutcome(
        scheme=scheme,
        result=result,
        bottleneck_link=link,
        bottleneck_traffic_mbit=bottleneck_traffic(
            topology, result.link_traffic_mbit, link
        ),
    )


def run_comparison(
    topology: Topology,
    config: ComparisonConfig,
    schemes: Sequence[str] = SCHEMES,
    bottleneck: Optional[LinkKey] = None,
) -> Dict[str, SchemeOutcome]:
    """Run all requested schemes on identical populations.

    When ``bottleneck`` is None, the bottleneck link is fixed to the one
    the *native* run loads most, so all schemes are compared on the same
    link (the paper's "P2P traffic on top of the most utilized link").
    """
    routing = RoutingTable.build(topology)
    outcomes: Dict[str, SchemeOutcome] = {}
    ordered = list(schemes)
    if bottleneck is None and "native" in ordered:
        ordered.remove("native")
        native = run_scheme(topology, routing, config, "native")
        outcomes["native"] = native
        bottleneck = native.bottleneck_link
    for scheme in ordered:
        outcomes[scheme] = run_scheme(
            topology, routing, config, scheme, bottleneck=bottleneck
        )
        if bottleneck is not None:
            outcomes[scheme] = replace(
                outcomes[scheme],
                bottleneck_traffic_mbit=outcomes[scheme].result.link_traffic_mbit.get(
                    bottleneck, 0.0
                ),
                bottleneck_link=bottleneck,
            )
    return outcomes
