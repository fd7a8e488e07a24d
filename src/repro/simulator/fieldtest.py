"""Pando field-test simulation (Sec. 7.4: Fig. 11/12, Tables 2/3).

The paper's field test ran two parallel swarms sharing a popular ~20 MB
video clip from Feb 21 to Mar 2, 2008: clients were randomly assigned to
either the native Pando swarm or the P4P-integrated swarm.  We reproduce
that design at laptop scale:

* **Population**: a mix of ISP-B clients (placed on the 52-PoP synthetic
  ISP-B topology, split into FTTP and DSL access classes per PoP) and
  external-Internet clients attached to an ``EXTERNAL`` aggregation node
  reachable over interdomain links.
* **Churn**: arrivals follow a flash-crowd profile (high rate the first
  days, lower afterwards, as in Fig. 11); a client downloads the clip,
  seeds briefly, then departs.
* **Comparison**: the arrival trace is split randomly into two halves; one
  drives a native-Pando swarm (random selection), the other a P4P swarm
  whose weights come from the appTracker Optimization Service
  (bandwidth-matching LP over the ISP-B iTracker's p-distances).

A compressed timeline (one "day" is ``day_seconds`` of simulated time) and
a few hundred clients stand in for 10 real days and ~30k clients; the
statistics of Tables 2/3 and Fig. 12 are ratios and shapes, which survive
the scaling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apptracker.selection import (
    PeerInfo,
    PeerSelector,
    PerAsSelector,
    RandomSelection,
)
from repro.apptracker.pando import (
    ClientBandwidth,
    OptimizationService,
    PandoTracker,
)
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import BandwidthDistanceProduct
from repro.metrics.localization import TrafficLedger
from repro.network.generators import access_classes, isp_b, isp_c
from repro.network.routing import RoutingTable
from repro.network.topology import Link, Node, NodeKind, Topology
from repro.simulator.engine import EventEngine
from repro.simulator.multiswarm import MultiSwarmSimulation, shared_substrate
from repro.simulator.swarm import SwarmConfig, SwarmResult, SwarmSimulation
from repro.simulator.tcp import FlowNetwork
from repro.workloads.placement import place_peers


@dataclass
class _LedgerState:
    """Per-swarm accounting handles captured by the transfer listener."""

    ledger: TrafficLedger
    bdp: Dict[str, float]
    peers: List[PeerInfo]

LinkKey = Tuple[str, str]

#: AS number of the aggregate external Internet.
EXTERNAL_AS = 65000
EXTERNAL_PID = "EXTERNAL"


@dataclass
class FieldTestConfig:
    """Scaled-down field-test parameters."""

    n_clients: int = 1000
    isp_fraction: float = 0.5
    fttp_fraction: float = 0.3
    days: int = 10
    day_seconds: float = 400.0
    flash_days: int = 3
    flash_multiplier: float = 4.0
    file_mbit: float = 160.0
    block_mbit: float = 4.0
    neighbors: int = 8
    linger_seconds: float = 120.0
    fttp_mbps: Tuple[float, float] = (25.0, 25.0)
    dsl_mbps: Tuple[float, float] = (1.0, 8.0)
    external_mbps: Tuple[float, float] = (3.0, 10.0)
    isp_c_mbps: Tuple[float, float] = (2.0, 8.0)
    interdomain_capacity_mbps: float = 12.0
    completion_quantum: float = 0.25
    beta: float = 0.9
    include_isp_c: bool = False
    isp_c_fraction: float = 0.15
    rng_seed: int = 11

    def __post_init__(self) -> None:
        if not 0 <= self.isp_fraction <= 1:
            raise ValueError("isp_fraction must be in [0, 1]")
        if not 0 <= self.isp_c_fraction <= 1 - self.isp_fraction:
            raise ValueError(
                "isp_c_fraction must fit beside isp_fraction within [0, 1]"
            )
        if self.n_clients < 2:
            raise ValueError("need at least two clients")
        if self.days < 1 or self.day_seconds <= 0:
            raise ValueError("invalid timeline")

    @property
    def horizon(self) -> float:
        return self.days * self.day_seconds


def build_field_topology(
    config: FieldTestConfig, seed: int = 2
) -> Tuple[Topology, Dict[str, str]]:
    """ISP-B (optionally plus ISP-C) plus an aggregate external-Internet PID.

    Returns the combined topology and the PID -> access-class map for
    ISP-B's PoPs.  The EXTERNAL node attaches to three ISP-B hub PoPs over
    interdomain links (multihoming), so external peering traffic crosses
    charged links.  With ``include_isp_c`` the international ISP-C topology
    is merged in (PIDs prefixed ``C:``), peered with both ISP-B and the
    external cloud -- the paper ran iTrackers for both providers, though it
    reports ISP-B numbers only.
    """
    topo = isp_b(seed=seed)
    classes = access_classes(topo, fttp_fraction=config.fttp_fraction, seed=seed)
    topo.add_node(
        Node(
            pid=EXTERNAL_PID,
            kind=NodeKind.AGGREGATION,
            as_number=EXTERNAL_AS,
            metro="external",
        )
    )
    hubs = topo.aggregation_pids[:3]
    # The charged links' headroom is what a provider provisions for its
    # population; scale it with the simulated client count so full-scale
    # runs see the same per-client contention as the default scale.
    capacity = config.interdomain_capacity_mbps * max(1.0, config.n_clients / 1000.0)
    for hub in hubs:
        forward, reverse = topo.add_edge(
            hub, EXTERNAL_PID, capacity=capacity
        )
        forward.interdomain = True
        reverse.interdomain = True
        forward.distance = 500.0
        reverse.distance = 500.0
    if config.include_isp_c:
        _merge_isp_c(topo, config, seed)
    topo.validate()
    return topo, classes


def _merge_isp_c(topo: Topology, config: FieldTestConfig, seed: int) -> None:
    """Graft a prefixed copy of ISP-C onto the field topology."""
    isp_c_topo = isp_c(seed=seed + 1)

    def prefixed(pid: str) -> str:
        return f"C:{pid}"

    for node in isp_c_topo.nodes.values():
        topo.add_node(
            Node(
                pid=prefixed(node.pid),
                kind=node.kind,
                as_number=node.as_number,
                metro=f"C:{node.metro}",
                location=node.location,
            )
        )
    for link in isp_c_topo.links.values():
        topo.add_link(
            Link(
                src=prefixed(link.src),
                dst=prefixed(link.dst),
                capacity=link.capacity,
                background=link.background,
                distance=link.distance,
                ospf_weight=link.ospf_weight,
            )
        )
    # Peer ISP-C with ISP-B (two trunks) and with the external cloud (one).
    isp_b_hubs = [pid for pid in topo.aggregation_pids if not pid.startswith("C:")][:2]
    isp_c_hubs = [prefixed(pid) for pid in isp_c_topo.aggregation_pids[:2]]
    capacity = config.interdomain_capacity_mbps * max(1.0, config.n_clients / 1000.0)
    for b_hub, c_hub in zip(isp_b_hubs, isp_c_hubs):
        forward, reverse = topo.add_edge(
            b_hub, c_hub, capacity=capacity
        )
        forward.interdomain = True
        reverse.interdomain = True
        forward.distance = 2000.0
        reverse.distance = 2000.0
    forward, reverse = topo.add_edge(
        isp_c_hubs[0], EXTERNAL_PID, capacity=capacity
    )
    forward.interdomain = True
    reverse.interdomain = True
    forward.distance = 1000.0
    reverse.distance = 1000.0


def flash_crowd_arrivals(
    config: FieldTestConfig, count: int, rng: random.Random
) -> List[float]:
    """Arrival times over the test: flash-crowd first days, then a tail."""
    day_weights = [
        config.flash_multiplier if day < config.flash_days else 1.0
        for day in range(config.days)
    ]
    total_weight = sum(day_weights)
    times: List[float] = []
    for _ in range(count):
        pick = rng.random() * total_weight
        acc = 0.0
        day = config.days - 1
        for index, weight in enumerate(day_weights):
            acc += weight
            if pick <= acc:
                day = index
                break
        times.append((day + rng.random()) * config.day_seconds)
    times.sort()
    return times


@dataclass
class SwarmOutcome:
    """Per-swarm field-test results."""

    result: SwarmResult
    ledger: TrafficLedger
    intra_isp_backbone_mbit: float
    intra_isp_payload_mbit: float
    completion_by_class: Dict[str, Dict[int, float]]
    swarm_size_timeline: List[Tuple[float, int]]

    @property
    def unit_bdp(self) -> float:
        """Backbone hops per Mbit delivered between ISP-B clients."""
        if self.intra_isp_payload_mbit <= 0:
            return 0.0
        return self.intra_isp_backbone_mbit / self.intra_isp_payload_mbit


@dataclass
class FieldTestReport:
    """The two parallel swarms, ready for Tables 2/3 and Fig. 11/12."""

    native: SwarmOutcome
    p4p: SwarmOutcome
    topology: Topology
    classes: Dict[str, str]


class FieldTest:
    """Build population, split into two swarms, run both, compare."""

    def __init__(self, config: Optional[FieldTestConfig] = None) -> None:
        self.config = config or FieldTestConfig()
        self.rng = random.Random(self.config.rng_seed)
        self.topology, self.classes = build_field_topology(self.config)
        self.routing = RoutingTable.build(self.topology)

    # -- population -----------------------------------------------------------

    def _make_population(self) -> Tuple[List[PeerInfo], Dict[int, Tuple[float, float]]]:
        config = self.config
        n_isp = round(config.n_clients * config.isp_fraction)
        n_isp_c = (
            round(config.n_clients * config.isp_c_fraction)
            if config.include_isp_c
            else 0
        )
        n_ext = config.n_clients - n_isp - n_isp_c
        isp_pids = [
            pid
            for pid in self.topology.aggregation_pids
            if pid != EXTERNAL_PID and not pid.startswith("C:")
        ]
        # Metro populations are heavily skewed (a few metros hold most
        # clients); a Zipf-like weight per metro keeps intra-metro peering
        # statistically possible at laptop-scale populations.
        metro_rank: Dict[str, int] = {}
        for pid in isp_pids:
            metro = self.topology.metro_of(pid)
            if metro not in metro_rank:
                metro_rank[metro] = len(metro_rank) + 1
        weights = {
            pid: 1.0 / metro_rank[self.topology.metro_of(pid)] for pid in isp_pids
        }
        peers = place_peers(
            self.topology, n_isp, self.rng, pids=isp_pids, weights=weights, first_id=1
        )
        next_id = 1 + n_isp
        if n_isp_c:
            isp_c_pids = [
                pid for pid in self.topology.aggregation_pids if pid.startswith("C:")
            ]
            peers += place_peers(
                self.topology, n_isp_c, self.rng, pids=isp_c_pids, first_id=next_id
            )
            next_id += n_isp_c
        peers += [
            PeerInfo(peer_id=next_id + k, pid=EXTERNAL_PID, as_number=EXTERNAL_AS)
            for k in range(n_ext)
        ]
        access: Dict[int, Tuple[float, float]] = {}
        for peer in peers:
            if peer.pid == EXTERNAL_PID:
                up, down = config.external_mbps
            elif peer.pid.startswith("C:"):
                up, down = config.isp_c_mbps
            elif self.classes.get(peer.pid) == "fttp":
                up, down = config.fttp_mbps
            else:
                up, down = config.dsl_mbps
            access[peer.peer_id] = (up, down)
        return peers, access

    def class_of(self, peer: PeerInfo) -> str:
        if peer.pid == EXTERNAL_PID:
            return "external"
        if peer.pid.startswith("C:"):
            return "isp-c"
        return self.classes.get(peer.pid, "dsl")

    # -- P4P weights -----------------------------------------------------------

    def _p4p_selector(
        self, peers: Sequence[PeerInfo], access: Mapping[int, Tuple[float, float]]
    ) -> PeerSelector:
        by_as: Dict[int, PeerSelector] = {}
        groups: List[Tuple[int, Callable[[PeerInfo], bool]]] = [
            (
                self._isp_as(),
                lambda peer: peer.pid != EXTERNAL_PID
                and not peer.pid.startswith("C:"),
            )
        ]
        if self.config.include_isp_c:
            groups.append(
                (self._isp_c_as(), lambda peer: peer.pid.startswith("C:"))
            )
        for as_number, member in groups:
            itracker = ITracker(
                topology=self.topology,
                config=ITrackerConfig(mode=PriceMode.HOP_COUNT),
                objective=BandwidthDistanceProduct(),
            )
            service = OptimizationService(itracker=itracker, beta=self.config.beta)
            tracker = PandoTracker(service=service)
            estimates = [
                ClientBandwidth(
                    peer_id=peer.peer_id,
                    pid=peer.pid,
                    upload_mbps=access[peer.peer_id][0],
                    download_mbps=access[peer.peer_id][1],
                )
                for peer in peers
                if member(peer)
            ]
            if estimates:
                tracker.refresh(estimates)
            by_as[as_number] = tracker.selector
        return PerAsSelector(by_as=by_as, default=RandomSelection())

    def _isp_as(self) -> int:
        return next(
            node.as_number
            for node in self.topology.nodes.values()
            if node.pid != EXTERNAL_PID and not node.pid.startswith("C:")
        )

    def _isp_c_as(self) -> int:
        return next(
            node.as_number
            for node in self.topology.nodes.values()
            if node.pid.startswith("C:")
        )

    # -- running -----------------------------------------------------------------

    def _build_swarm(
        self,
        peers: List[PeerInfo],
        access: Mapping[int, Tuple[float, float]],
        arrivals: Mapping[int, float],
        selector: PeerSelector,
        seed_pid: str,
        rng_seed: int,
        swarm_id: str,
        shared: Tuple[FlowNetwork, EventEngine],
    ) -> Tuple[SwarmSimulation, "_LedgerState"]:
        config = self.config
        ledger = TrafficLedger(
            isp_as=self._isp_as(),
            metro_of={
                pid: self.topology.metro_of(pid)
                for pid in self.topology.aggregation_pids
            },
        )
        bdp_state = {"mbit": 0.0, "payload": 0.0}
        isp_as = self._isp_as()

        def listener(uploader: PeerInfo, downloader: PeerInfo, mbit: float) -> None:
            ledger.record(
                uploader.pid, uploader.as_number, downloader.pid, downloader.as_number, mbit
            )
            if uploader.as_number == isp_as and downloader.as_number == isp_as:
                bdp_state["payload"] += mbit
                bdp_state["mbit"] += mbit * self.routing.hop_count(
                    uploader.pid, downloader.pid
                )

        swarm_config = SwarmConfig(
            file_mbit=config.file_mbit,
            block_mbit=config.block_mbit,
            neighbors=config.neighbors,
            seed_up_mbps=50.0,
            access_up_mbps=config.dsl_mbps[0],
            access_down_mbps=config.dsl_mbps[1],
            join_window=config.horizon,
            sample_interval=config.day_seconds / 8.0,
            completion_quantum=config.completion_quantum,
            reannounce_interval=config.day_seconds / 8.0,
            rng_seed=rng_seed,
        )
        # The two parallel swarms seed from distinct nodes (the paper's
        # seed servers were co-located in one PoP but on different hosts).
        seed_peer = PeerInfo(
            peer_id=-1 if swarm_id == "native" else -2,
            pid=seed_pid,
            as_number=self.topology.node(seed_pid).as_number,
        )
        sim = SwarmSimulation(
            self.topology,
            self.routing,
            swarm_config,
            selector,
            peers,
            [seed_peer],
            join_times=dict(arrivals),
            linger_time=config.linger_seconds,
            access_overrides=dict(access),
            transfer_listener=listener,
            shared_net=shared[0],
            shared_engine=shared[1],
            swarm_id=swarm_id,
        )
        return sim, _LedgerState(ledger=ledger, bdp=bdp_state, peers=list(peers))

    def _outcome(self, result, state: "_LedgerState") -> SwarmOutcome:
        completion_by_class: Dict[str, Dict[int, float]] = {}
        by_id = {peer.peer_id: peer for peer in state.peers}
        for peer_id, duration in result.completion_times.items():
            label = self.class_of(by_id[peer_id])
            completion_by_class.setdefault(label, {})[peer_id] = duration
        timeline = [(sample.time, sample.swarm_size) for sample in result.samples]
        return SwarmOutcome(
            result=result,
            ledger=state.ledger,
            intra_isp_backbone_mbit=state.bdp["mbit"],
            intra_isp_payload_mbit=state.bdp["payload"],
            completion_by_class=completion_by_class,
            swarm_size_timeline=timeline,
        )

    def run(self) -> FieldTestReport:
        """Run the two parallel swarms and assemble the report."""
        config = self.config
        peers, access = self._make_population()
        times = flash_crowd_arrivals(config, len(peers), self.rng)
        # The trace is sorted; pair times with peers randomly so arrival
        # order is independent of the ISP/external population layout.
        self.rng.shuffle(times)
        arrival_of = {
            peer.peer_id: time for peer, time in zip(peers, times)
        }
        # Random 50/50 assignment to the two parallel swarms (Fig. 11 shows
        # the two populations tracking each other).
        shuffled = list(peers)
        self.rng.shuffle(shuffled)
        half = len(shuffled) // 2
        native_peers = shuffled[:half]
        p4p_peers = shuffled[half:]

        seed_pid = self.topology.aggregation_pids[0]
        shared = shared_substrate()
        native_sim, native_state = self._build_swarm(
            native_peers,
            access,
            {p.peer_id: arrival_of[p.peer_id] for p in native_peers},
            RandomSelection(),
            seed_pid,
            rng_seed=config.rng_seed + 1,
            swarm_id="native",
            shared=shared,
        )
        p4p_sim, p4p_state = self._build_swarm(
            p4p_peers,
            access,
            {p.peer_id: arrival_of[p.peer_id] for p in p4p_peers},
            self._p4p_selector(p4p_peers, access),
            seed_pid,
            rng_seed=config.rng_seed + 2,
            swarm_id="p4p",
            shared=shared,
        )
        results = MultiSwarmSimulation([native_sim, p4p_sim]).run(
            until=config.horizon * 2.0
        )
        return FieldTestReport(
            native=self._outcome(results["native"], native_state),
            p4p=self._outcome(results["p4p"], p4p_state),
            topology=self.topology,
            classes=self.classes,
        )
