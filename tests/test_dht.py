"""Tests for the Kademlia DHT and trackerless P4P discovery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apptracker.selection import PeerInfo
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.dht.kademlia import (
    Contact,
    DhtNetwork,
    DhtNode,
    KBucket,
    bucket_index,
    build_network,
    infohash,
    node_id_from,
    xor_distance,
)
from repro.dht.trackerless import (
    TrackerlessSelector,
    TrackerlessSwarm,
    itracker_view_fetcher,
)
from repro.network.library import abilene


class TestIdsAndMetric:
    def test_id_is_deterministic_160_bit(self):
        a = node_id_from("node-1")
        assert a == node_id_from("node-1")
        assert 0 <= a < (1 << 160)

    def test_xor_metric_axioms(self):
        a, b = node_id_from("a"), node_id_from("b")
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)

    @settings(max_examples=50)
    @given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
    def test_xor_triangle_inequality_weak_form(self, x, y, z):
        # XOR metric satisfies d(a,c) <= d(a,b) XOR-relaxed triangle:
        # d(a,c) <= d(a,b) + d(b,c).
        a, b, c = node_id_from(x), node_id_from(y), node_id_from(z)
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)

    def test_bucket_index_range(self):
        a, b = node_id_from("p"), node_id_from("q")
        assert 0 <= bucket_index(a, b) < 160

    def test_self_bucket_rejected(self):
        a = node_id_from("p")
        with pytest.raises(ValueError):
            bucket_index(a, a)


class TestKBucket:
    def test_insert_until_full(self):
        bucket = KBucket(k=3)
        for i in range(3):
            bucket.update(Contact(node_id=i, name=f"n{i}"))
        assert len(bucket) == 3

    def test_resighting_moves_to_tail(self):
        bucket = KBucket(k=3)
        for i in range(3):
            bucket.update(Contact(node_id=i, name=f"n{i}"))
        bucket.update(Contact(node_id=0, name="n0"))
        assert bucket.contacts()[-1].node_id == 0

    def test_full_bucket_keeps_live_head(self):
        bucket = KBucket(k=2)
        bucket.update(Contact(node_id=1, name="old"))
        bucket.update(Contact(node_id=2, name="older"))
        bucket.update(Contact(node_id=3, name="new"), alive_check=lambda c: True)
        ids = [c.node_id for c in bucket.contacts()]
        assert 3 not in ids  # newcomer dropped, long-lived kept

    def test_full_bucket_evicts_dead_head(self):
        bucket = KBucket(k=2)
        bucket.update(Contact(node_id=1, name="dead"))
        bucket.update(Contact(node_id=2, name="live"))
        bucket.update(Contact(node_id=3, name="new"), alive_check=lambda c: c.node_id != 1)
        ids = [c.node_id for c in bucket.contacts()]
        assert 1 not in ids and 3 in ids


class TestDhtNetwork:
    def test_build_connects_everyone(self):
        network, nodes = build_network([f"n{i}" for i in range(25)])
        assert len(network) == 25
        # Every node can locate the k closest to an arbitrary target.
        target = node_id_from("some-content")
        for node in nodes[:5]:
            found = node.iterative_find_node(target)
            assert found

    def test_lookup_finds_globally_closest(self):
        network, nodes = build_network([f"n{i}" for i in range(40)], k=8)
        target = node_id_from("target-key")
        truth = sorted(nodes, key=lambda n: xor_distance(n.node_id, target))
        truth_ids = {n.node_id for n in truth[:4]}
        found = {c.node_id for c in nodes[0].iterative_find_node(target)}
        # The iterative lookup recovers (at least most of) the true top-k.
        assert len(truth_ids & found) >= 3

    def test_announce_and_get_peers(self):
        _, nodes = build_network([f"n{i}" for i in range(20)])
        key = infohash("file")
        nodes[2].announce(key, 2, "record-2")
        nodes[9].announce(key, 9, "record-9")
        values = set(nodes[15].get_peers(key))
        assert values == {"record-2", "record-9"}

    def test_records_survive_some_churn(self):
        network, nodes = build_network([f"n{i}" for i in range(30)], k=8)
        key = infohash("resilient")
        nodes[1].announce(key, 1, "the-record")
        # Kill a third of the network (not the announcer).
        for node in nodes[10:20]:
            del network._nodes[node.node_id]
        assert "the-record" in nodes[25].get_peers(key)

    def test_forget_withdraws_record(self):
        _, nodes = build_network([f"n{i}" for i in range(20)])
        key = infohash("gone")
        nodes[3].announce(key, 3, "temp")
        nodes[3].forget(key, 3)
        assert "temp" not in nodes[11].get_peers(key)

    def test_duplicate_node_id_rejected(self):
        network = DhtNetwork()
        DhtNode(network, "same")
        with pytest.raises(ValueError):
            DhtNode(network, "same")

    def test_validation(self):
        with pytest.raises(ValueError):
            DhtNetwork(k=0)
        with pytest.raises(ValueError):
            build_network([])


class TestTrackerlessSwarm:
    def make_swarm(self, n=20):
        network, nodes = build_network([f"dht-{i}" for i in range(n)])
        swarm = TrackerlessSwarm(network=network, content="movie.mkv")
        return swarm, nodes

    def test_join_and_discover(self):
        swarm, nodes = self.make_swarm()
        peer = PeerInfo(peer_id=7, pid="SEAT", as_number=1)
        swarm.join(peer, nodes[7])
        found = swarm.discover(nodes[3])
        assert peer in found

    def test_leave_withdraws(self):
        swarm, nodes = self.make_swarm()
        peer = PeerInfo(peer_id=7, pid="SEAT", as_number=1)
        swarm.join(peer, nodes[7])
        swarm.leave(7)
        assert peer not in swarm.discover(nodes[3])


class TestTrackerlessSelector:
    def build(self):
        topo = abilene()
        as_number = topo.node("SEAT").as_number
        itracker = ITracker(
            topology=topo, config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        )
        network, nodes = build_network([f"dht-{i}" for i in range(25)])
        swarm = TrackerlessSwarm(network=network, content="content")
        members = []
        home = {}
        pids = ["SEAT", "SEAT", "SEAT", "NYCM", "CHIN", "LOSA", "WASH", "ATLA"]
        for index, pid in enumerate(pids):
            info = PeerInfo(peer_id=index, pid=pid, as_number=as_number)
            members.append(info)
            home[index] = nodes[index]
            swarm.join(info, nodes[index])
        selector = TrackerlessSelector(
            swarm=swarm,
            home_nodes=home,
            fetch_view=itracker_view_fetcher({as_number: itracker}),
        )
        return selector, members, as_number

    def test_selects_via_dht_and_itracker(self):
        selector, members, as_number = self.build()
        client = members[0]
        candidates = members[1:]
        chosen = selector.select(client, candidates, 4, random.Random(0))
        assert len(chosen) == 4
        # Staged selection: same-PID peers favored first.
        same_pid = sum(1 for peer in chosen if peer.pid == client.pid)
        assert same_pid >= 2

    def test_departed_records_filtered_by_candidates(self):
        selector, members, _ = self.build()
        client = members[0]
        # Peer 5 departed: tracker-side candidates exclude it even though
        # its DHT record may linger.
        candidates = [peer for peer in members[1:] if peer.peer_id != 5]
        chosen = selector.select(client, candidates, 6, random.Random(1))
        assert all(peer.peer_id != 5 for peer in chosen)

    def test_portal_failure_falls_back_to_random(self):
        selector, members, _ = self.build()

        def broken_fetch(as_number, pids):
            raise ConnectionError("portal down")

        selector.fetch_view = broken_fetch
        chosen = selector.select(members[0], members[1:], 3, random.Random(2))
        assert len(chosen) == 3

    def test_client_without_dht_node_uses_candidates(self):
        selector, members, _ = self.build()
        stranger = PeerInfo(peer_id=999, pid="SEAT", as_number=members[0].as_number)
        chosen = selector.select(stranger, members, 3, random.Random(3))
        assert len(chosen) == 3
