"""White-box tests of the BitTorrent protocol mechanics inside the swarm
simulator: interest detection, rarest-first piece choice, tit-for-tat
recipient choice, slot management, TCP rate caps, and the per-peer state
(rarity counts, block masks) the protocol reads."""

import hashlib
import json
import random

import pytest

from repro.apptracker.selection import PeerInfo, RandomSelection
from repro.experiments.comparison import ComparisonConfig, run_comparison
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simulator.swarm import SwarmConfig, SwarmSimulation
from repro.workloads.placement import place_peers


def pair_topology():
    topo = Topology(name="pair")
    topo.add_pid("L")
    topo.add_pid("R")
    topo.add_edge("L", "R", capacity=1000.0)
    return topo


def make_sim(n_peers=4, n_blocks=4, **config_kwargs):
    topo = pair_topology()
    routing = RoutingTable.build(topo)
    defaults = dict(
        file_mbit=2.0 * n_blocks,
        block_mbit=2.0,
        neighbors=8,
        join_window=0.0,
        access_up_mbps=10.0,
        access_down_mbps=10.0,
        seed_up_mbps=10.0,
        completion_quantum=0.0,
        optimistic_probability=0.0,
        rng_seed=1,
    )
    defaults.update(config_kwargs)
    config = SwarmConfig(**defaults)
    peers = [
        PeerInfo(peer_id=i, pid="L" if i % 2 else "R", as_number=0)
        for i in range(1, n_peers + 1)
    ]
    seeds = [PeerInfo(peer_id=0, pid="L", as_number=0)]
    sim = SwarmSimulation(topo, routing, config, RandomSelection(), peers, seeds)
    # Join everyone immediately -- with slot filling suppressed, so tests
    # can inspect protocol decisions from a quiescent state.
    original_fill = sim._fill_slots
    sim._fill_slots = lambda peer: None
    for peer in list(sim._pending):
        sim._join(peer)
    sim._pending = []
    sim._fill_slots = original_fill
    return sim


def give_blocks(sim, peer_id, blocks):
    """Hand ``peer_id`` blocks through the simulation's receive step."""
    for block in blocks:
        sim._receive(sim.peers[peer_id], block)


class TestInterest:
    def test_seed_interested_in_empty_peers(self):
        sim = make_sim()
        seed = sim.peers[0]
        interested = sim._interested_neighbors(seed)
        assert {p.peer_id for p in interested} <= {1, 2, 3, 4}
        assert interested  # fresh peers lack everything

    def test_no_interest_when_peer_has_all(self):
        sim = make_sim()
        seed = sim.peers[0]
        give_blocks(sim, 1, range(sim._n_blocks))
        interested = sim._interested_neighbors(seed)
        assert all(p.peer_id != 1 for p in interested)

    def test_in_progress_blocks_suppress_interest(self):
        sim = make_sim(n_blocks=1)
        seed = sim.peers[0]
        sim.peers[1].reserve(0)
        interested = sim._interested_neighbors(seed)
        assert all(p.peer_id != 1 for p in interested)

    def test_departed_peers_not_interesting(self):
        sim = make_sim()
        sim.depart(1)
        seed = sim.peers[0]
        assert all(p.peer_id != 1 for p in sim._interested_neighbors(seed))

    def test_active_upload_excludes_peer(self):
        sim = make_sim()
        seed = sim.peers[0]
        seed.active_uploads.add(1)
        assert all(p.peer_id != 1 for p in sim._interested_neighbors(seed))


class TestRarestFirst:
    def test_rarest_block_chosen(self):
        sim = make_sim(n_peers=4, n_blocks=3)
        uploader = sim.peers[0]  # seed with blocks {0,1,2}
        downloader = sim.peers[1]
        # Blocks 0 and 1 are widely replicated; block 2 is rare.
        for peer_id in (2, 3, 4):
            give_blocks(sim, peer_id, {0, 1})
        chosen = sim._choose_block(uploader, downloader)
        assert chosen == 2

    def test_no_offerable_block_returns_none(self):
        sim = make_sim(n_blocks=2)
        uploader = sim.peers[0]
        downloader = sim.peers[1]
        give_blocks(sim, 1, {0})
        downloader.reserve(1)
        assert sim._choose_block(uploader, downloader) is None

    def test_ties_broken_among_rarest(self):
        sim = make_sim(n_peers=2, n_blocks=4)
        uploader = sim.peers[0]
        downloader = sim.peers[1]
        chosen = {sim._choose_block(uploader, downloader) for _ in range(25)}
        # All blocks equally rare: random tie-break explores several.
        assert chosen <= {0, 1, 2, 3}
        assert len(chosen) >= 2


class TestTitForTat:
    def test_best_reciprocator_preferred(self):
        sim = make_sim(n_peers=3, optimistic_probability=0.0)
        uploader = sim.peers[1]
        give_blocks(sim, 1, {0, 1})
        uploader.received_from = {2: 100.0, 3: 1.0}
        interested = [sim.peers[2], sim.peers[3]]
        choice = sim._choose_recipient(uploader, interested)
        assert choice.peer_id == 2

    def test_seed_chooses_randomly(self):
        sim = make_sim(n_peers=3)
        seed = sim.peers[0]
        interested = [sim.peers[1], sim.peers[2], sim.peers[3]]
        chosen = {sim._choose_recipient(seed, interested).peer_id for _ in range(30)}
        assert len(chosen) >= 2

    def test_optimistic_unchoke_explores(self):
        sim = make_sim(n_peers=3, optimistic_probability=1.0)
        uploader = sim.peers[1]
        uploader.received_from = {2: 100.0}
        interested = [sim.peers[2], sim.peers[3]]
        chosen = {sim._choose_recipient(uploader, interested).peer_id for _ in range(30)}
        assert 3 in chosen  # pure tit-for-tat would never pick 3


class TestSlots:
    def test_upload_slots_bounded(self):
        sim = make_sim(n_peers=8, upload_slots=2)
        seed = sim.peers[0]
        sim._fill_slots(seed)
        assert len(seed.active_uploads) <= 2

    def test_slots_refill_after_completion(self):
        sim = make_sim(n_peers=4, upload_slots=1)
        result = sim.run(until=2000.0)
        assert len(result.completion_times) == 4

    def test_one_transfer_per_pair(self):
        sim = make_sim(n_peers=2, upload_slots=4)
        seed = sim.peers[0]
        sim._fill_slots(seed)
        # Only 2 downloaders exist: at most one concurrent transfer each.
        assert len(seed.active_uploads) <= 2


class TestRateCaps:
    def test_window_caps_long_transfers(self):
        # Two PoPs 1000 distance units apart; tiny window throttles the
        # cross-PoP flow while same-PoP flows run at access speed.
        topo = Topology()
        topo.add_pid("A", location=(0.0, 0.0))
        topo.add_pid("B", location=(10.0, 0.0))  # ~691 miles
        topo.add_edge("A", "B", capacity=1000.0)
        topo.assign_distances_from_locations()
        routing = RoutingTable.build(topo)
        config = SwarmConfig(
            file_mbit=8.0, block_mbit=8.0, neighbors=2, join_window=0.0,
            access_up_mbps=100.0, access_down_mbps=100.0, seed_up_mbps=100.0,
            tcp_window_mbit=0.1, rtt_base_ms=2.0, rtt_per_mile_ms=0.02,
            rng_seed=3,
        )
        peers = [PeerInfo(peer_id=1, pid="B", as_number=0)]
        seeds = [PeerInfo(peer_id=0, pid="A", as_number=0)]
        sim = SwarmSimulation(topo, routing, config, RandomSelection(), peers, seeds)
        result = sim.run(until=100.0)
        # RTT ~ (2 + 0.02 * 691)ms = ~15.8ms; cap = 0.1/0.0158 ~ 6.3 Mbps.
        # 8 Mbit at ~6.3 Mbps takes ~1.27s, far above the 0.08s access floor.
        duration = result.completion_times[1]
        assert duration > 1.0

    def test_no_window_means_access_limited(self):
        topo = pair_topology()
        routing = RoutingTable.build(topo)
        config = SwarmConfig(
            file_mbit=8.0, block_mbit=8.0, neighbors=2, join_window=0.0,
            access_up_mbps=100.0, access_down_mbps=100.0, seed_up_mbps=100.0,
            tcp_window_mbit=None, rng_seed=3,
        )
        peers = [PeerInfo(peer_id=1, pid="R", as_number=0)]
        seeds = [PeerInfo(peer_id=0, pid="L", as_number=0)]
        sim = SwarmSimulation(topo, routing, config, RandomSelection(), peers, seeds)
        result = sim.run(until=100.0)
        assert result.completion_times[1] == pytest.approx(0.08, rel=0.05)


def _mask(blocks):
    return sum(1 << block for block in blocks)


def _check_peer_state(sim):
    """Every live peer's counts and masks equal a recount from the sets,
    and an idle peer's interest scan finds nobody."""
    for peer in sim.peers.values():
        if peer.departed:
            continue
        recount = [0] * sim._n_blocks
        for other_id in peer.neighbors:
            for block in sim.peers[other_id].blocks:
                recount[block] += 1
        assert peer.rarity == recount, peer.peer_id
        assert peer.have == _mask(peer.blocks), peer.peer_id
        assert peer.pending == _mask(peer.in_progress), peer.peer_id
        if peer.idle:
            assert sim._interested_neighbors(peer) == [], peer.peer_id


def _churn_swarm():
    topo = abilene()
    routing = RoutingTable.build(topo)
    config = SwarmConfig(
        file_mbit=16.0, block_mbit=2.0, neighbors=6, join_window=120.0,
        access_up_mbps=0.5, access_down_mbps=8.0, seed_up_mbps=8.0,
        reannounce_interval=10.0, rng_seed=5,
    )
    peers = place_peers(topo, 60, random.Random(5), first_id=1)
    seed_pid = topo.aggregation_pids[0]
    seeds = [PeerInfo(0, seed_pid, topo.node(seed_pid).as_number)]
    return SwarmSimulation(
        topo, routing, config, RandomSelection(), peers, seeds,
        linger_time=10.0,
    )


def _check_after_every_transfer(sim):
    """Wrap the transfer handler so the state check runs after each one;
    returns the list the finished transfers are appended to."""
    on_done = sim._on_transfer_done
    transfers = []

    def checked(flow):
        on_done(flow)
        transfers.append(flow.meta)
        _check_peer_state(sim)

    sim._on_transfer_done = checked
    return transfers


class TestMaintainedState:
    def test_counts_and_masks_stay_exact_under_churn(self):
        sim = _churn_swarm()
        transfers = _check_after_every_transfer(sim)
        result = sim.run(until=5000.0)
        assert len(result.completion_times) == 60
        assert sum(peer.departed for peer in sim.peers.values()) == 60
        assert len(transfers) >= 60 * sim.config.n_blocks

    def test_state_stays_exact_when_downloaders_depart(self):
        """Peers that leave mid-download abort the blocks they were
        serving, so live downloaders lose reservations without a receive."""
        sim = _churn_swarm()
        transfers = _check_after_every_transfer(sim)
        aborted = []

        def leave(peer_id):
            aborted.extend(
                flow.meta[2]
                for flow in sim.net.flows()
                if flow.meta[1] == peer_id and not sim.peers[flow.meta[2]].departed
            )
            sim.depart(peer_id)
            _check_peer_state(sim)

        leavers = range(1, 61, 4)
        join = sim._join

        def join_then_leave(peer):
            join(peer)
            if peer.peer_id in leavers:
                delay = 6.0 + peer.peer_id % 5
                sim.engine.schedule(delay, lambda p=peer.peer_id: leave(p))

        sim._join = join_then_leave
        result = sim.run(until=5000.0)
        assert aborted  # live downloaders did lose reservations
        left_early = [p for p in leavers if p not in result.completion_times]
        assert left_early
        assert len(result.completion_times) == 60 - len(left_early)
        assert len(transfers) >= len(result.completion_times) * sim.config.n_blocks


def test_comparison_digest_is_pinned():
    """Three-way comparison at 30 peers: completion times and link traffic
    repeat bit for bit, so any change to the RNG draw order shows here."""
    outcomes = run_comparison(abilene(), ComparisonConfig(n_peers=30))
    doc = {
        scheme: [
            sorted(outcome.result.completion_times.items()),
            sorted(
                (list(key), value)
                for key, value in outcome.result.link_traffic_mbit.items()
            ),
        ]
        for scheme, outcome in outcomes.items()
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "b4c5a0b909ebb62173246c9fd50e4311cd305898cc013068f212a95a3af10d99"
    )
