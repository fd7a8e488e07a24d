"""Session-level BitTorrent swarm simulation (Sec. 7.1 methodology).

The simulator follows the paper's described methodology: the native
BitTorrent protocol (rarest-first piece selection, tit-for-tat unchoking
with an optimistic slot) simulated at the TCP *session* level -- each block
transfer is a fluid flow whose throughput is its max-min fair share of the
access and backbone links it crosses, recomputed on flow arrivals and
departures.

Peers are placed at PoP (PID) nodes and attach through dedicated access
links; the appTracker assigns neighbors at join time using a pluggable
:class:`~repro.apptracker.selection.PeerSelector` (native random,
delay-localized, or P4P).  An optional *tracker hook* fires periodically so
a dynamic iTracker can observe link loads and adjust p-distances mid-swarm,
as in the paper's PlanetLab experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.apptracker.selection import PeerInfo, PeerSelector
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simulator.engine import EventEngine
from repro.simulator.tcp import Flow, FlowNetwork, make_flow_network

LinkKey = Tuple[str, str]


@dataclass
class SwarmConfig:
    """Workload and protocol parameters of one swarm simulation.

    Defaults follow the paper: 12 MB file in 256 KB blocks, 100 Mbps access
    links, 4 upload slots with a 25% optimistic-unchoke chance, 10 s rechoke
    accounting interval, peers joining within a 5-minute window.
    """

    file_mbit: float = 96.0
    block_mbit: float = 2.0
    neighbors: int = 20
    upload_slots: int = 4
    optimistic_probability: float = 0.25
    rechoke_interval: float = 10.0
    access_up_mbps: float = 100.0
    access_down_mbps: float = 100.0
    seed_up_mbps: float = 1000.0
    join_window: float = 300.0
    sample_interval: float = 10.0
    tracker_update_interval: float = 30.0
    completion_quantum: float = 0.0
    reannounce_interval: Optional[float] = None
    tcp_window_mbit: Optional[float] = None
    rtt_base_ms: float = 4.0
    rtt_per_mile_ms: float = 0.02
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.file_mbit <= 0 or self.block_mbit <= 0:
            raise ValueError("file and block sizes must be positive")
        if self.block_mbit > self.file_mbit:
            raise ValueError("block larger than file")
        if self.neighbors < 1:
            raise ValueError("need at least one neighbor")
        if self.upload_slots < 1:
            raise ValueError("need at least one upload slot")
        if not 0 <= self.optimistic_probability <= 1:
            raise ValueError("optimistic_probability must be in [0, 1]")
        if self.completion_quantum < 0:
            raise ValueError("completion_quantum must be >= 0")
        if self.tcp_window_mbit is not None and self.tcp_window_mbit <= 0:
            raise ValueError("tcp_window_mbit must be positive")

    @property
    def n_blocks(self) -> int:
        return max(1, round(self.file_mbit / self.block_mbit))


@dataclass
class _SimPeer:
    """Internal per-peer protocol state."""

    info: PeerInfo
    is_seed: bool
    up_link: int
    down_link: int
    blocks: Set[int] = field(default_factory=set)
    neighbors: Set[int] = field(default_factory=set)
    in_progress: Set[int] = field(default_factory=set)
    active_uploads: Set[int] = field(default_factory=set)  # peer ids served
    received_from: Dict[int, float] = field(default_factory=dict)
    joined_at: float = 0.0
    completed_at: Optional[float] = None
    departed: bool = False

    @property
    def peer_id(self) -> int:
        return self.info.peer_id

    def has_all(self, n_blocks: int) -> bool:
        return len(self.blocks) >= n_blocks


@dataclass
class UtilizationSample:
    """One periodic snapshot of backbone link usage and swarm membership."""

    time: float
    max_utilization: float
    link_utilization: Dict[LinkKey, float]
    swarm_size: int = 0
    link_cumulative_mbit: Dict[LinkKey, float] = field(default_factory=dict)


@dataclass
class SwarmResult:
    """Outcome of one swarm run."""

    completion_times: Dict[int, float]  # join -> finish duration per peer
    finish_at: Dict[int, float]  # absolute completion timestamps
    link_traffic_mbit: Dict[LinkKey, float]
    samples: List[UtilizationSample]
    total_payload_mbit: float
    duration: float
    peer_pids: Dict[int, str]
    tracker_hook_failures: int = 0

    def mean_completion(self) -> float:
        if not self.completion_times:
            return 0.0
        return sum(self.completion_times.values()) / len(self.completion_times)

    def completion_cdf(self) -> List[Tuple[float, float]]:
        """Sorted (completion time, cumulative fraction) points."""
        times = sorted(self.completion_times.values())
        n = len(times)
        return [(t, (i + 1) / n) for i, t in enumerate(times)]


#: Hook type: (now, per-backbone-link cumulative Mbit, per-link rate Mbps).
TrackerHook = Callable[[float, Dict[LinkKey, float], Dict[LinkKey, float]], None]


class SwarmSimulation:
    """One BitTorrent swarm over one provider topology."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingTable,
        config: SwarmConfig,
        selector: PeerSelector,
        peers: Sequence[PeerInfo],
        seeds: Sequence[PeerInfo],
        tracker_hook: Optional[TrackerHook] = None,
        join_times: Optional[Dict[int, float]] = None,
        linger_time: Optional[float] = None,
        access_overrides: Optional[Dict[int, Tuple[float, float]]] = None,
        transfer_listener: Optional[Callable[[PeerInfo, PeerInfo, float], None]] = None,
        shared_net: Optional[FlowNetwork] = None,
        shared_engine: Optional[EventEngine] = None,
        swarm_id: str = "swarm",
        telemetry: Optional[object] = None,
    ) -> None:
        if not peers:
            raise ValueError("swarm needs at least one downloading peer")
        if not seeds:
            raise ValueError("swarm needs at least one seed")
        if (shared_net is None) != (shared_engine is None):
            raise ValueError("shared_net and shared_engine come together")
        self.topology = topology
        self.routing = routing
        self.config = config
        self.selector = selector
        self.tracker_hook = tracker_hook
        self.join_times = dict(join_times) if join_times else None
        self.linger_time = linger_time
        self.access_overrides = dict(access_overrides) if access_overrides else {}
        self.transfer_listener = transfer_listener
        self.swarm_id = swarm_id
        #: Optional :class:`repro.observability.Telemetry`.  Give it the sim
        #: clock (``Telemetry(clock=lambda: engine.now)``) so every periodic
        #: sample lands in the ``p4p_sim_*`` gauges as simulated time-series.
        self.telemetry = telemetry
        self.rng = random.Random(config.rng_seed)
        self.engine = shared_engine or EventEngine()
        self.net = shared_net or make_flow_network(telemetry=telemetry)
        self._shared = shared_net is not None
        self._attributed_mbit: Dict[LinkKey, float] = {}
        self._backbone_index: Dict[LinkKey, int] = {}
        for key, link in topology.links.items():
            headroom = link.headroom
            if headroom <= 0:
                continue  # fully consumed by background traffic
            try:
                # Parallel swarms over one network share the backbone links.
                self._backbone_index[key] = self.net.link_id(("bb", key))
            except KeyError:
                self._backbone_index[key] = self.net.add_link(("bb", key), headroom)
        self._route_cache: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._cap_cache: Dict[Tuple[str, str], float] = {}

        self.peers: Dict[int, _SimPeer] = {}
        self._pending: List[_SimPeer] = []
        self._members: List[PeerInfo] = []
        self._n_blocks = config.n_blocks
        self._active_downloaders = 0
        self.samples: List[UtilizationSample] = []
        self._last_sample_mbit: Dict[LinkKey, float] = {
            key: 0.0 for key in self._backbone_index
        }
        self._last_hook_mbit: Dict[LinkKey, float] = dict(self._last_sample_mbit)
        self._hook_failures = 0

        for info in seeds:
            self._register(info, is_seed=True)
        for info in peers:
            self._register(info, is_seed=False)

    # -- setup ------------------------------------------------------------

    def _register(self, info: PeerInfo, is_seed: bool) -> None:
        if info.peer_id in self.peers:
            raise ValueError(f"duplicate peer id {info.peer_id}")
        if info.pid not in self.topology.nodes:
            raise KeyError(f"peer {info.peer_id} placed at unknown PID {info.pid!r}")
        override = self.access_overrides.get(info.peer_id)
        if override is not None:
            up_mbps, down_mbps = override
        else:
            up_mbps = (
                self.config.seed_up_mbps if is_seed else self.config.access_up_mbps
            )
            down_mbps = self.config.access_down_mbps
        up = self.net.add_link(("up", self.swarm_id, info.peer_id), up_mbps)
        down = self.net.add_link(("down", self.swarm_id, info.peer_id), down_mbps)
        peer = _SimPeer(info=info, is_seed=is_seed, up_link=up, down_link=down)
        if is_seed:
            peer.blocks = set(range(self._n_blocks))
            peer.completed_at = 0.0
        self.peers[info.peer_id] = peer
        self._pending.append(peer)

    def _rate_cap(self, src_pid: str, dst_pid: str) -> Optional[float]:
        """TCP window/RTT throughput ceiling for one transfer.

        This is the mechanism that makes low-latency (local) peerings more
        efficient at the transport layer (Sec. 4's observation) -- without
        it, session-level max-min sharing is distance-blind.
        """
        window = self.config.tcp_window_mbit
        if window is None:
            return None
        pair = (src_pid, dst_pid)
        cached = self._cap_cache.get(pair)
        if cached is None:
            miles = self.routing.distance(src_pid, dst_pid)
            rtt_seconds = (
                self.config.rtt_base_ms + self.config.rtt_per_mile_ms * miles
            ) / 1000.0
            cached = window / rtt_seconds
            self._cap_cache[pair] = cached
        return cached

    def _route_links(self, src_pid: str, dst_pid: str) -> Tuple[int, ...]:
        pair = (src_pid, dst_pid)
        cached = self._route_cache.get(pair)
        if cached is None:
            cached = tuple(
                self._backbone_index[key]
                for key in self.routing.route(src_pid, dst_pid)
                if key in self._backbone_index
            )
            self._route_cache[pair] = cached
        return cached

    # -- membership ---------------------------------------------------------

    def _join(self, peer: _SimPeer) -> None:
        peer.joined_at = self.engine.now
        candidates = [info for info in self._members if info.peer_id != peer.peer_id]
        chosen = self.selector.select(
            peer.info, candidates, self.config.neighbors, self.rng
        )
        for other_info in chosen:
            other = self.peers[other_info.peer_id]
            peer.neighbors.add(other.peer_id)
            other.neighbors.add(peer.peer_id)
        self._members.append(peer.info)
        if not peer.is_seed:
            self._active_downloaders += 1
        # The newcomer can immediately serve or be served.
        refill = {peer.peer_id} | peer.neighbors
        for peer_id in refill:
            self._fill_slots(self.peers[peer_id])

    # -- protocol -------------------------------------------------------------

    def _interested_neighbors(self, uploader: _SimPeer) -> List[_SimPeer]:
        """Neighbors that want a block the uploader has and aren't served."""
        interested = []
        for peer_id in uploader.neighbors:
            if peer_id in uploader.active_uploads:
                continue
            other = self.peers[peer_id]
            if other.departed or other.is_seed or other.completed_at is not None:
                continue
            if other.joined_at > self.engine.now:
                continue
            wanted = uploader.blocks - other.blocks - other.in_progress
            if wanted:
                interested.append(other)
        return interested

    def _choose_recipient(
        self, uploader: _SimPeer, interested: List[_SimPeer]
    ) -> _SimPeer:
        """Tit-for-tat with optimistic unchoke; seeds pick randomly."""
        if uploader.is_seed or self.rng.random() < self.config.optimistic_probability:
            return self.rng.choice(interested)
        return max(
            interested,
            key=lambda peer: (
                uploader.received_from.get(peer.peer_id, 0.0),
                self.rng.random(),
            ),
        )

    def _choose_block(self, uploader: _SimPeer, downloader: _SimPeer) -> Optional[int]:
        """Rarest-first among the blocks the uploader can offer."""
        wanted = uploader.blocks - downloader.blocks - downloader.in_progress
        if not wanted:
            return None
        counts: Dict[int, int] = {}
        for block in wanted:
            counts[block] = 0
        for peer_id in downloader.neighbors:
            other_blocks = self.peers[peer_id].blocks
            for block in wanted:
                if block in other_blocks:
                    counts[block] += 1
        rarest = min(counts.values())
        pool = [block for block, count in counts.items() if count == rarest]
        return self.rng.choice(pool)

    def _fill_slots(self, uploader: _SimPeer) -> None:
        if uploader.departed or uploader.joined_at > self.engine.now:
            return
        while len(uploader.active_uploads) < self.config.upload_slots:
            interested = self._interested_neighbors(uploader)
            if not interested:
                return
            downloader = self._choose_recipient(uploader, interested)
            block = self._choose_block(uploader, downloader)
            if block is None:
                return
            links = (
                (uploader.up_link,)
                + self._route_links(uploader.info.pid, downloader.info.pid)
                + (downloader.down_link,)
            )
            self.net.start_flow(
                links,
                self.config.block_mbit,
                meta=(self, uploader.peer_id, downloader.peer_id, block),
                rate_cap=self._rate_cap(uploader.info.pid, downloader.info.pid),
            )
            uploader.active_uploads.add(downloader.peer_id)
            downloader.in_progress.add(block)

    def _on_transfer_done(self, flow: Flow) -> None:
        owner, uploader_id, downloader_id, block = flow.meta
        assert owner is self
        uploader = self.peers[uploader_id]
        downloader = self.peers[downloader_id]
        uploader.active_uploads.discard(downloader_id)
        downloader.in_progress.discard(block)
        for key in self.routing.route(uploader.info.pid, downloader.info.pid):
            if key in self._backbone_index:
                self._attributed_mbit[key] = (
                    self._attributed_mbit.get(key, 0.0) + self.config.block_mbit
                )
        if not downloader.departed:
            downloader.blocks.add(block)
            downloader.received_from[uploader_id] = (
                downloader.received_from.get(uploader_id, 0.0) + self.config.block_mbit
            )
            if self.transfer_listener is not None:
                self.transfer_listener(
                    uploader.info, downloader.info, self.config.block_mbit
                )
            if downloader.completed_at is None and downloader.has_all(self._n_blocks):
                downloader.completed_at = self.engine.now
                self._active_downloaders -= 1
                if self.linger_time is not None:
                    peer_id = downloader.peer_id
                    self.engine.schedule(
                        self.linger_time, lambda p=peer_id: self.depart(p)
                    )
        self._fill_slots(uploader)
        self._fill_slots(downloader)

    def depart(self, peer_id: int) -> None:
        """Remove a peer mid-download (field-test churn)."""
        peer = self.peers[peer_id]
        if peer.departed:
            return
        peer.departed = True
        if peer.completed_at is None and not peer.is_seed:
            self._active_downloaders -= 1
        for flow in list(self.net.flows()):
            owner, src, dst, block = flow.meta
            if owner is not self:
                continue
            if src == peer_id or dst == peer_id:
                self.net.abort_flow(flow.flow_id)
                self.peers[src].active_uploads.discard(dst)
                self.peers[dst].in_progress.discard(block)
        for other_id in peer.neighbors:
            self.peers[other_id].neighbors.discard(peer_id)
        self._members = [info for info in self._members if info.peer_id != peer_id]

    # -- periodic bookkeeping --------------------------------------------------

    def _take_sample(self) -> None:
        link_util = {}
        link_cum = {}
        max_util = 0.0
        for key, index in self._backbone_index.items():
            util = self.net.utilization(index)
            link_util[key] = util
            link_cum[key] = float(self.net.link_mbit[index])
            max_util = max(max_util, util)
        self.samples.append(
            UtilizationSample(
                time=self.engine.now,
                max_utilization=max_util,
                link_utilization=link_util,
                swarm_size=sum(
                    1
                    for info in self._members
                    if not self.peers[info.peer_id].is_seed
                ),
                link_cumulative_mbit=link_cum,
            )
        )
        if self.telemetry is not None:
            self._export_sample(self.samples[-1])

    def _export_sample(self, sample: UtilizationSample) -> None:
        """Mirror the latest periodic sample into the ``p4p_sim_*`` gauges."""
        registry = self.telemetry.registry
        labels = {"swarm": self.swarm_id}
        registry.gauge(
            "p4p_sim_max_link_utilization",
            "Max backbone utilization at the last sample, per swarm.",
            ("swarm",),
        ).labels(**labels).set(sample.max_utilization)
        registry.gauge(
            "p4p_sim_swarm_size",
            "Downloading peers currently joined, per swarm.",
            ("swarm",),
        ).labels(**labels).set(sample.swarm_size)
        completed = sum(
            1
            for peer in self.peers.values()
            if not peer.is_seed and peer.completed_at is not None
        )
        registry.gauge(
            "p4p_sim_completed_peers",
            "Peers that finished the download, per swarm.",
            ("swarm",),
        ).labels(**labels).set(completed)
        downloaders = sum(1 for peer in self.peers.values() if not peer.is_seed)
        registry.gauge(
            "p4p_sim_completion_fraction",
            "Completed share of all downloaders, per swarm.",
            ("swarm",),
        ).labels(**labels).set(completed / downloaders if downloaders else 0.0)

    def _run_tracker_hook(self) -> None:
        if self.tracker_hook is None:
            return
        traffic = {
            key: float(self.net.link_mbit[index])
            for key, index in self._backbone_index.items()
        }
        dt = self.config.tracker_update_interval
        rates = {
            key: max(0.0, (traffic[key] - self._last_hook_mbit[key]) / dt)
            for key in traffic
        }
        self._last_hook_mbit = traffic
        try:
            self.tracker_hook(self.engine.now, traffic, rates)
        except Exception:
            # iTrackers are not on the critical path (Sec. 8): a failing
            # portal update must never take the swarm down; peers continue
            # on the last known p-distances.
            self._hook_failures += 1

    def _reannounce(self) -> None:
        """Periodic tracker re-announce: under-connected downloaders ask for
        more neighbors (how late-arriving local peers become reachable)."""
        member_ids = {info.peer_id for info in self._members}
        for info in list(self._members):
            peer = self.peers[info.peer_id]
            if peer.departed or peer.is_seed or peer.completed_at is not None:
                continue
            deficit = self.config.neighbors - len(peer.neighbors)
            if deficit <= 0:
                continue
            candidates = [
                other
                for other in self._members
                if other.peer_id != peer.peer_id
                and other.peer_id not in peer.neighbors
            ]
            if not candidates:
                continue
            for chosen in self.selector.select(info, candidates, deficit, self.rng):
                if chosen.peer_id not in member_ids:
                    continue
                peer.neighbors.add(chosen.peer_id)
                self.peers[chosen.peer_id].neighbors.add(peer.peer_id)
            self._fill_slots(peer)

    def _reset_tit_for_tat(self) -> None:
        for peer in self.peers.values():
            peer.received_from.clear()
        # Periodic retry also covers any refill opportunity the event-driven
        # triggers missed (e.g. after optimistic choices starved a slot).
        for peer in self.peers.values():
            if not peer.departed:
                self._fill_slots(peer)

    # -- main loop ----------------------------------------------------------------

    def prepare(self) -> None:
        """Schedule joins and initialize periodic-tick state.

        Called once before the first step; :meth:`run` does it implicitly,
        the multi-swarm coordinator calls it for every swarm up front.
        """
        for peer in self._pending:
            if peer.is_seed:
                delay = 0.0
            elif self.join_times is not None:
                delay = self.join_times.get(peer.peer_id, 0.0)
            else:
                delay = self.rng.uniform(0.0, self.config.join_window)
            self.engine.schedule(delay, lambda p=peer: self._join(p))
        self._pending = []
        reannounce = self.config.reannounce_interval
        self._next_ticks = {
            "sample": self.config.sample_interval,
            "rechoke": self.config.rechoke_interval,
            "hook": self.config.tracker_update_interval,
            "reannounce": reannounce if reannounce else float("inf"),
        }

    def next_periodic_time(self) -> float:
        """Earliest pending periodic tick (sample/rechoke/hook/reannounce)."""
        return min(self._next_ticks.values())

    def next_completion_time(self) -> Optional[float]:
        """Next flow completion, rounded up to the batching quantum."""
        completion = self.net.next_completion()
        quantum = self.config.completion_quantum
        if completion is not None and quantum > 0:
            completion = quantum * math.ceil(completion / quantum - 1e-9)
        return completion

    def handle_ticks(self, step_to: float) -> None:
        """Fire every periodic tick due at ``step_to``."""
        ticks = self._next_ticks
        if step_to >= ticks["sample"] - 1e-9:
            self._take_sample()
            ticks["sample"] += self.config.sample_interval
        if step_to >= ticks["rechoke"] - 1e-9:
            self._reset_tit_for_tat()
            ticks["rechoke"] += self.config.rechoke_interval
        if step_to >= ticks["hook"] - 1e-9:
            self._run_tracker_hook()
            ticks["hook"] += self.config.tracker_update_interval
        if step_to >= ticks["reannounce"] - 1e-9:
            self._reannounce()
            ticks["reannounce"] += self.config.reannounce_interval

    def work_left(self) -> bool:
        return not self._no_work_left()

    def run(self, until: Optional[float] = None) -> SwarmResult:
        """Run to completion (all downloaders finished) or ``until``.

        Returns the swarm outcome; peers still downloading at the horizon
        are simply absent from ``completion_times``.
        """
        if self._shared:
            raise RuntimeError(
                "shared-network swarms are driven by MultiSwarmSimulation"
            )
        engine = self.engine
        self.prepare()
        stall_ticks = 0

        while True:
            if self._no_work_left():
                break
            if until is not None and engine.now >= until:
                break
            # Stall guard: downloaders remain but nothing can progress (e.g.
            # a disconnected neighborhood); avoid spinning on periodic ticks.
            if self.net.n_flows == 0 and engine.pending == 0:
                stall_ticks += 1
                if stall_ticks > 500:
                    break
            else:
                stall_ticks = 0
            timer_time = engine.peek_time()
            completion = self.next_completion_time()
            periodic = self.next_periodic_time()
            step_candidates = [
                t for t in (timer_time, completion, periodic) if t is not None
            ]
            if not step_candidates:
                break
            step_to = min(step_candidates)
            if until is not None:
                step_to = min(step_to, until)
            self.net.advance(step_to)
            engine.run_timers_until(step_to)
            for flow in self.net.pop_finished():
                self._on_transfer_done(flow)
            self.handle_ticks(step_to)
        return self._result()

    def result(self) -> SwarmResult:
        """The outcome so far (the coordinator calls this after driving)."""
        return self._result()

    def _no_work_left(self) -> bool:
        return (
            self._active_downloaders <= 0
            and self.engine.pending == 0
            and self.net.n_flows == 0
        )

    def _result(self) -> SwarmResult:
        completion = {}
        finish_at = {}
        for peer in self.peers.values():
            if peer.is_seed or peer.completed_at is None:
                continue
            completion[peer.peer_id] = peer.completed_at - peer.joined_at
            finish_at[peer.peer_id] = peer.completed_at
        if self._shared:
            # Shared-network mode: the net's counters mix all swarms; use
            # the per-transfer attribution instead (completed blocks only).
            link_traffic = {
                key: self._attributed_mbit.get(key, 0.0)
                for key in self._backbone_index
            }
        else:
            link_traffic = {
                key: float(self.net.link_mbit[index])
                for key, index in self._backbone_index.items()
            }
        total_payload = self.config.file_mbit * len(completion)
        return SwarmResult(
            tracker_hook_failures=self._hook_failures,
            completion_times=completion,
            finish_at=finish_at,
            link_traffic_mbit=link_traffic,
            samples=self.samples,
            total_payload_mbit=total_payload,
            duration=self.engine.now,
            peer_pids={
                peer_id: peer.info.pid for peer_id, peer in self.peers.items()
            },
        )
