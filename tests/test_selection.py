"""Tests for peer-selection engines (Sec. 6.2)."""

import random
from collections import Counter

import pytest

from repro.apptracker.selection import (
    DelayLocalizedSelection,
    P4PSelection,
    PeerInfo,
    RandomSelection,
    WeightedSelection,
    concave_transform,
    pdistance_weights,
)
from tests.conftest import view_of


def make_peers(spec):
    """spec: list of (count, pid, as_number)."""
    peers = []
    next_id = 0
    for count, pid, as_number in spec:
        for _ in range(count):
            peers.append(PeerInfo(peer_id=next_id, pid=pid, as_number=as_number))
            next_id += 1
    return peers


def flat_pdistance(pids, intra=0.0, inter=1.0, overrides=None):
    distances = {}
    for a in pids:
        for b in pids:
            distances[(a, b)] = intra if a == b else inter
    for pair, value in (overrides or {}).items():
        distances[pair] = value
    return view_of(tuple(pids), distances)


class TestRandomSelection:
    def test_returns_m_peers(self):
        peers = make_peers([(30, "A", 1)])
        chosen = RandomSelection().select(peers[0], peers[1:], 10, random.Random(0))
        assert len(chosen) == 10
        assert len({p.peer_id for p in chosen}) == 10

    def test_small_pool_returns_all(self):
        peers = make_peers([(5, "A", 1)])
        chosen = RandomSelection().select(peers[0], peers[1:], 10, random.Random(0))
        assert len(chosen) == 4

    def test_uniform_over_pids(self):
        peers = make_peers([(100, "A", 1), (100, "B", 1)])
        client = PeerInfo(peer_id=999, pid="A", as_number=1)
        counts = Counter()
        rng = random.Random(7)
        for _ in range(200):
            for peer in RandomSelection().select(client, peers, 10, rng):
                counts[peer.pid] += 1
        ratio = counts["A"] / counts["B"]
        assert 0.8 < ratio < 1.25


class TestDelayLocalized:
    def test_prefers_low_delay(self):
        peers = make_peers([(10, "NEAR", 1), (10, "FAR", 1)])
        client = PeerInfo(peer_id=999, pid="NEAR", as_number=1)
        delay = lambda a, b: 1.0 if a == b else 100.0
        selector = DelayLocalizedSelection(delay=delay, jitter=0.0)
        chosen = selector.select(client, peers, 10, random.Random(0))
        assert all(peer.pid == "NEAR" for peer in chosen)

    def test_fills_from_far_when_near_exhausted(self):
        peers = make_peers([(3, "NEAR", 1), (10, "FAR", 1)])
        client = PeerInfo(peer_id=999, pid="NEAR", as_number=1)
        delay = lambda a, b: 1.0 if a == b else 100.0
        chosen = DelayLocalizedSelection(delay=delay).select(
            client, peers, 8, random.Random(0)
        )
        assert sum(1 for peer in chosen if peer.pid == "NEAR") == 3
        assert len(chosen) == 8


class TestConcaveTransform:
    def test_normalizes(self):
        result = concave_transform({"a": 1.0, "b": 3.0})
        assert sum(result.values()) == pytest.approx(1.0)

    def test_boosts_small_weights(self):
        flat = {"a": 1.0, "b": 9.0}
        plain_ratio = 1.0 / 10.0
        transformed = concave_transform(flat, gamma=0.5)
        assert transformed["a"] > plain_ratio

    def test_gamma_one_is_identity_normalization(self):
        result = concave_transform({"a": 1.0, "b": 3.0}, gamma=1.0)
        assert result["a"] == pytest.approx(0.25)

    def test_zero_total_uniform(self):
        result = concave_transform({"a": 0.0, "b": 0.0})
        assert result["a"] == pytest.approx(0.5)

    def test_empty(self):
        assert concave_transform({}) == {}

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            concave_transform({"a": 1.0}, gamma=0.0)


class TestPdistanceWeights:
    def test_inverse_distance(self):
        pmap = flat_pdistance(["A", "B", "C"], overrides={("A", "B"): 1.0, ("A", "C"): 4.0})
        weights = pdistance_weights(pmap, "A", ["B", "C"], gamma=1.0)
        assert weights["B"] == pytest.approx(0.8)
        assert weights["C"] == pytest.approx(0.2)

    def test_zero_distance_dominates(self):
        pmap = flat_pdistance(["A", "B", "C"], overrides={("A", "B"): 0.0, ("A", "C"): 1.0})
        weights = pdistance_weights(pmap, "A", ["B", "C"], gamma=1.0)
        assert weights["B"] > 0.99


class TestP4PSelection:
    def make_selector(self, pids=("P1", "P2", "P3"), **kwargs):
        pmap = flat_pdistance(
            list(pids),
            intra=0.0,
            inter=1.0,
            overrides=kwargs.pop("overrides", None),
        )
        return P4PSelection(pdistances={1: pmap}, **kwargs)

    def test_intra_pid_bounded_at_70_percent(self):
        peers = make_peers([(100, "P1", 1), (100, "P2", 1)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        selector = self.make_selector()
        chosen = selector.select(client, peers, 20, random.Random(0))
        intra = sum(1 for peer in chosen if peer.pid == "P1")
        assert intra == 14  # floor(0.7 * 20)
        assert len(chosen) == 20

    def test_small_pid_uses_what_exists(self):
        peers = make_peers([(3, "P1", 1), (100, "P2", 1)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        chosen = self.make_selector().select(client, peers, 20, random.Random(0))
        intra = sum(1 for peer in chosen if peer.pid == "P1")
        assert intra == 3
        assert len(chosen) == 20

    def test_inter_pid_follows_pdistance_weights(self):
        peers = make_peers([(200, "P2", 1), (200, "P3", 1)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        selector = self.make_selector(
            overrides={("P1", "P2"): 1.0, ("P1", "P3"): 10.0}, gamma=1.0
        )
        counts = Counter()
        rng = random.Random(3)
        for _ in range(50):
            for peer in selector.select(client, peers, 16, rng):
                counts[peer.pid] += 1
        assert counts["P2"] > counts["P3"] * 2

    def test_inter_as_stage_used_for_foreign_peers(self):
        pmap = flat_pdistance(["P1", "P2", "X1", "X2"], overrides={
            ("P1", "X1"): 2.0, ("P1", "X2"): 20.0,
        })
        selector = P4PSelection(pdistances={1: pmap}, gamma=1.0)
        peers = make_peers([(50, "X1", 2), (50, "X2", 3)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        counts = Counter()
        rng = random.Random(4)
        for _ in range(50):
            for peer in selector.select(client, peers, 10, rng):
                counts[peer.as_number] += 1
        assert counts[2] > counts[3]

    def test_unknown_as_falls_back_to_random(self):
        selector = self.make_selector()
        peers = make_peers([(30, "P1", 99)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=99)
        chosen = selector.select(client, peers, 10, random.Random(0))
        assert len(chosen) == 10

    def test_never_exceeds_m(self):
        peers = make_peers([(50, "P1", 1), (50, "P2", 1), (50, "X1", 2)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        pmap = flat_pdistance(["P1", "P2", "X1"])
        selector = P4PSelection(pdistances={1: pmap})
        for m in (1, 5, 17, 40):
            chosen = selector.select(client, peers, m, random.Random(m))
            assert len(chosen) == m
            assert len({peer.peer_id for peer in chosen}) == m

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            P4PSelection(pdistances={}, upper_intra=0.9, upper_inter=0.8)


class TestWeightedSelection:
    def test_follows_weights(self):
        selector = WeightedSelection(
            weights={("P1", "P2"): 0.9, ("P1", "P3"): 0.1}
        )
        peers = make_peers([(200, "P2", 1), (200, "P3", 1)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        counts = Counter()
        rng = random.Random(5)
        for _ in range(100):
            for peer in selector.select(client, peers, 10, rng):
                counts[peer.pid] += 1
        assert counts["P2"] > counts["P3"] * 4

    def test_exhausts_pid_then_moves_on(self):
        selector = WeightedSelection(weights={("P1", "P2"): 1.0})
        peers = make_peers([(3, "P2", 1), (10, "P3", 1)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        chosen = selector.select(client, peers, 8, random.Random(0))
        assert len(chosen) == 8

    def test_zero_weights_fall_back_to_random(self):
        selector = WeightedSelection(weights={})
        peers = make_peers([(20, "P2", 1)])
        client = PeerInfo(peer_id=999, pid="P1", as_number=1)
        chosen = selector.select(client, peers, 5, random.Random(0))
        assert len(chosen) == 5
