"""Liveswarms-style streaming swarm simulation (Fig. 9).

A source emits one block every ``block_mbit / stream_mbps`` seconds; clients
exchange blocks swarm-style within a sliding playback window.  Uploaders
push the *freshest* block each chosen neighbor still needs (live-edge
first, the scheduling that keeps a live swarm from collectively falling
behind); blocks older than the window are abandoned and count as playback
loss.

Metrics: per-client received fraction (continuity / achieved throughput)
and per-backbone-link traffic volume, the quantity Fig. 9 compares between
native and P4P Liveswarms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.apptracker.selection import PeerInfo, PeerSelector
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simulator.engine import EventEngine
from repro.simulator.tcp import Flow, make_flow_network

LinkKey = Tuple[str, str]


@dataclass
class StreamingConfig:
    """Streaming workload parameters.

    Defaults approximate the paper's Liveswarms experiments: a ~1 Mbps
    stream watched by a few dozen clients for a 20-minute run.
    """

    stream_mbps: float = 1.0
    block_mbit: float = 2.0
    duration: float = 1200.0
    window_blocks: int = 20
    neighbors: int = 10
    upload_slots: int = 4
    access_up_mbps: float = 10.0
    access_down_mbps: float = 20.0
    source_up_mbps: float = 20.0
    sample_interval: float = 10.0
    completion_quantum: float = 0.05
    tcp_window_mbit: Optional[float] = None
    rtt_base_ms: float = 4.0
    rtt_per_mile_ms: float = 0.02
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.stream_mbps <= 0 or self.block_mbit <= 0:
            raise ValueError("stream rate and block size must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.window_blocks < 1:
            raise ValueError("window must hold at least one block")
        if self.tcp_window_mbit is not None and self.tcp_window_mbit <= 0:
            raise ValueError("tcp_window_mbit must be positive")

    @property
    def block_interval(self) -> float:
        """Seconds between consecutive source blocks."""
        return self.block_mbit / self.stream_mbps

    @property
    def total_blocks(self) -> int:
        return int(self.duration / self.block_interval)


@dataclass(eq=False)
class _StreamPeer:
    info: PeerInfo
    is_source: bool
    up_link: int
    down_link: int
    blocks: Set[int] = field(default_factory=set)
    neighbors: Set[int] = field(default_factory=set)
    in_progress: Set[int] = field(default_factory=set)
    active_uploads: Set[int] = field(default_factory=set)

    @property
    def peer_id(self) -> int:
        return self.info.peer_id


@dataclass
class StreamingResult:
    """Outcome of one streaming run."""

    received_blocks: Dict[int, int]
    total_blocks: int
    link_traffic_mbit: Dict[LinkKey, float]
    duration: float

    def continuity(self, peer_id: int) -> float:
        """Fraction of the stream a client received in time."""
        if self.total_blocks == 0:
            return 0.0
        return self.received_blocks.get(peer_id, 0) / self.total_blocks

    def mean_continuity(self) -> float:
        if not self.received_blocks:
            return 0.0
        return sum(
            self.continuity(peer_id) for peer_id in self.received_blocks
        ) / len(self.received_blocks)

    def mean_backbone_volume_mbit(self) -> float:
        """Average per-backbone-link traffic volume (Fig. 9's y-axis)."""
        if not self.link_traffic_mbit:
            return 0.0
        return sum(self.link_traffic_mbit.values()) / len(self.link_traffic_mbit)


class StreamingSimulation:
    """One streaming swarm over one provider topology."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingTable,
        config: StreamingConfig,
        selector: PeerSelector,
        clients: Sequence[PeerInfo],
        source: PeerInfo,
    ) -> None:
        if not clients:
            raise ValueError("streaming swarm needs clients")
        self.topology = topology
        self.routing = routing
        self.config = config
        self.selector = selector
        self.rng = random.Random(config.rng_seed)
        self.engine = EventEngine()
        self.net = make_flow_network()
        self._backbone_index: Dict[LinkKey, int] = {}
        for key, link in topology.links.items():
            if link.headroom > 0:
                self._backbone_index[key] = self.net.add_link(("bb", key), link.headroom)
        self._route_cache: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._cap_cache: Dict[Tuple[str, str], float] = {}

        self.peers: Dict[int, _StreamPeer] = {}
        self._register(source, is_source=True)
        for info in clients:
            self._register(info, is_source=False)
        self._latest_block = -1
        self._received_counter: Dict[int, int] = {
            info.peer_id: 0 for info in clients
        }

        # Static neighborhood, selected up front (clients join together).
        members = [source] + list(clients)
        for info in clients:
            peer = self.peers[info.peer_id]
            candidates = [other for other in members if other.peer_id != info.peer_id]
            for chosen in self.selector.select(
                info, candidates, config.neighbors, self.rng
            ):
                peer.neighbors.add(chosen.peer_id)
                self.peers[chosen.peer_id].neighbors.add(info.peer_id)

    def _register(self, info: PeerInfo, is_source: bool) -> None:
        if info.pid not in self.topology.nodes:
            raise KeyError(f"unknown PID {info.pid!r}")
        up = self.net.add_link(
            ("up", info.peer_id),
            self.config.source_up_mbps if is_source else self.config.access_up_mbps,
        )
        down = self.net.add_link(("down", info.peer_id), self.config.access_down_mbps)
        self.peers[info.peer_id] = _StreamPeer(
            info=info, is_source=is_source, up_link=up, down_link=down
        )

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

    def _rate_cap(self, src_pid: str, dst_pid: str) -> Optional[float]:
        """TCP window/RTT throughput ceiling (same model as the swarm)."""
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

    # -- streaming protocol ----------------------------------------------------

    def _window_start(self) -> int:
        return max(0, self._latest_block - self.config.window_blocks + 1)

    def _emit_block(self) -> None:
        self._latest_block += 1
        source = next(p for p in self.peers.values() if p.is_source)
        source.blocks.add(self._latest_block)
        expired = self._window_start()
        for peer in self.peers.values():
            # Abandon expired blocks (playback moved past them).
            peer.in_progress = {b for b in peer.in_progress if b >= expired}
        self._fill_slots(source)

    def _wanted(self, uploader: _StreamPeer, downloader: _StreamPeer) -> Set[int]:
        window_start = self._window_start()
        candidate = uploader.blocks - downloader.blocks - downloader.in_progress
        return {block for block in candidate if block >= window_start}

    def _fill_slots(self, uploader: _StreamPeer) -> None:
        """Push blocks from ``uploader`` until its slots are full or no
        neighbour wants one.

        One scan serves every slot: a push changes only the chosen peer's
        wants, so the list minus that peer is, in the same order, what a
        rescan would build, and ``rng`` draws the same.
        """
        slots = self.config.upload_slots
        if len(uploader.active_uploads) >= slots:
            return
        candidates: List[Tuple[int, _StreamPeer]] = []
        for peer_id in uploader.neighbors:
            if peer_id in uploader.active_uploads:
                continue
            other = self.peers[peer_id]
            if other.is_source:
                continue
            wanted = self._wanted(uploader, other)
            if not wanted:
                continue
            # Push the *freshest* useful block: live streaming must keep
            # the swarm at the live edge -- chasing the oldest deadline
            # first lets the edge expire for everyone downstream.
            candidates.append((max(wanted), other))
        while candidates:
            chosen = self.rng.choice(candidates)
            block, downloader = chosen
            links = (
                (uploader.up_link,)
                + self._route_links(uploader.info.pid, downloader.info.pid)
                + (downloader.down_link,)
            )
            self.net.start_flow(
                links,
                self.config.block_mbit,
                meta=(uploader.peer_id, downloader.peer_id, block),
                rate_cap=self._rate_cap(uploader.info.pid, downloader.info.pid),
            )
            uploader.active_uploads.add(downloader.peer_id)
            downloader.in_progress.add(block)
            if len(uploader.active_uploads) >= slots:
                return
            candidates.remove(chosen)

    def _on_transfer_done(self, flow: Flow) -> None:
        uploader_id, downloader_id, block = flow.meta
        uploader = self.peers[uploader_id]
        downloader = self.peers[downloader_id]
        uploader.active_uploads.discard(downloader_id)
        downloader.in_progress.discard(block)
        if block >= self._window_start():
            downloader.blocks.add(block)
            self._received_counter[downloader_id] = (
                self._received_counter.get(downloader_id, 0) + 1
            )
        self._fill_slots(uploader)
        self._fill_slots(downloader)

    # -- main loop ------------------------------------------------------------

    def run(self) -> StreamingResult:
        import math

        engine = self.engine
        interval = self.config.block_interval
        for index in range(self.config.total_blocks):
            engine.schedule(index * interval, self._emit_block)

        quantum = self.config.completion_quantum
        while True:
            timer_time = engine.peek_time()
            completion = self.net.next_completion()
            if completion is not None and quantum > 0:
                completion = quantum * math.ceil(completion / quantum - 1e-9)
            candidates = [t for t in (timer_time, completion) if t is not None]
            if not candidates:
                break
            step_to = min(min(candidates), self.config.duration)
            self.net.advance(step_to)
            engine.run_timers_until(step_to)
            for flow in self.net.pop_finished():
                self._on_transfer_done(flow)
            if step_to >= self.config.duration:
                break
        link_traffic = {
            key: float(self.net.link_mbit[index])
            for key, index in self._backbone_index.items()
        }
        return StreamingResult(
            received_blocks=dict(self._received_counter),
            total_blocks=self.config.total_blocks,
            link_traffic_mbit=link_traffic,
            duration=self.engine.now,
        )
