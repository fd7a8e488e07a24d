"""A Kademlia-style DHT, simulated in process.

Implements the parts trackerless BitTorrent actually uses:

* 160-bit node ids under the XOR metric;
* per-node routing tables of k-buckets with least-recently-seen eviction;
* iterative ``find_node`` lookups with lookup parallelism ``alpha``;
* provider records: ``announce(infohash, peer)`` stores the peer on the
  ``k`` nodes closest to the infohash; ``get_peers`` collects them.

The "network" is a registry of in-process nodes -- RPCs are direct method
calls -- which keeps the protocol logic (the part P4P interacts with)
fully testable without sockets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

ID_BITS = 160
_MAX_ID = (1 << ID_BITS) - 1


def node_id_from(seed: str) -> int:
    """Deterministic 160-bit id from a string (SHA-1, as BitTorrent does)."""
    return int.from_bytes(hashlib.sha1(seed.encode("utf-8")).digest(), "big")


def xor_distance(a: int, b: int) -> int:
    return a ^ b


def bucket_index(own_id: int, other_id: int) -> int:
    """Index of the k-bucket ``other_id`` falls into (0..ID_BITS-1)."""
    if own_id == other_id:
        raise ValueError("a node has no bucket for itself")
    return xor_distance(own_id, other_id).bit_length() - 1


@dataclass(frozen=True)
class Contact:
    """Another node's identity as seen in a routing table."""

    node_id: int
    name: str


class KBucket:
    """Least-recently-seen ordered contact list of bounded size."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._contacts: List[Contact] = []  # oldest first

    def __len__(self) -> int:
        return len(self._contacts)

    def contacts(self) -> List[Contact]:
        return list(self._contacts)

    def update(self, contact: Contact, alive_check=None) -> None:
        """Move-to-tail on re-sighting; evict stale head when full.

        ``alive_check(contact) -> bool`` decides whether the
        least-recently-seen contact is still alive before eviction
        (Kademlia pings it; absent a check the head is kept, dropping the
        newcomer -- Kademlia's bias toward long-lived nodes).
        """
        for index, existing in enumerate(self._contacts):
            if existing.node_id == contact.node_id:
                del self._contacts[index]
                self._contacts.append(contact)
                return
        if len(self._contacts) < self.k:
            self._contacts.append(contact)
            return
        head = self._contacts[0]
        if alive_check is not None and not alive_check(head):
            self._contacts.pop(0)
            self._contacts.append(contact)
        # else: keep the long-lived head, drop the newcomer.

    def remove(self, node_id: int) -> None:
        self._contacts = [c for c in self._contacts if c.node_id != node_id]


class DhtNetwork:
    """Registry of in-process nodes; RPC = direct call through here."""

    def __init__(self, k: int = 8, alpha: int = 3) -> None:
        if k < 1 or alpha < 1:
            raise ValueError("k and alpha must be >= 1")
        self.k = k
        self.alpha = alpha
        self._nodes: Dict[int, "DhtNode"] = {}

    def register(self, node: "DhtNode") -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> Optional["DhtNode"]:
        return self._nodes.get(node_id)

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)


class DhtNode:
    """One DHT participant."""

    def __init__(self, network: DhtNetwork, name: str) -> None:
        self.network = network
        self.name = name
        self.node_id = node_id_from(name)
        self._buckets: List[KBucket] = [KBucket(network.k) for _ in range(ID_BITS)]
        self._store: Dict[int, Dict[int, object]] = {}  # key -> {peer_id: value}
        network.register(self)

    # -- routing table -----------------------------------------------------

    def _touch(self, contact: Contact) -> None:
        if contact.node_id == self.node_id:
            return
        index = bucket_index(self.node_id, contact.node_id)
        self._buckets[index].update(
            contact, alive_check=lambda c: self.network.is_alive(c.node_id)
        )

    def known_contacts(self) -> List[Contact]:
        found: List[Contact] = []
        for bucket in self._buckets:
            found.extend(bucket.contacts())
        return found

    def closest_contacts(self, target: int, count: Optional[int] = None) -> List[Contact]:
        count = count or self.network.k
        contacts = self.known_contacts()
        contacts.sort(key=lambda c: xor_distance(c.node_id, target))
        return contacts[:count]

    # -- RPC handlers (called by other nodes via the network) ----------------

    def rpc_find_node(self, sender: Contact, target: int) -> List[Contact]:
        self._touch(sender)
        return self.closest_contacts(target)

    def rpc_store(self, sender: Contact, key: int, peer_id: int, value: object) -> None:
        self._touch(sender)
        self._store.setdefault(key, {})[peer_id] = value

    def rpc_get(self, sender: Contact, key: int) -> List[Tuple[int, object]]:
        self._touch(sender)
        return list(self._store.get(key, {}).items())

    def rpc_forget(self, sender: Contact, key: int, peer_id: int) -> None:
        self._touch(sender)
        bucket = self._store.get(key)
        if bucket:
            bucket.pop(peer_id, None)

    # -- client operations -----------------------------------------------------

    def as_contact(self) -> Contact:
        return Contact(node_id=self.node_id, name=self.name)

    def bootstrap(self, via: "DhtNode") -> None:
        """Join the network through a known node, then self-lookup."""
        self._touch(via.as_contact())
        self.iterative_find_node(self.node_id)

    def iterative_find_node(self, target: int) -> List[Contact]:
        """Kademlia's iterative lookup: converge on the k closest nodes."""
        shortlist = self.closest_contacts(target, self.network.alpha)
        queried: Set[int] = set()
        best: Dict[int, Contact] = {c.node_id: c for c in shortlist}
        while True:
            candidates = sorted(
                (c for c in best.values() if c.node_id not in queried),
                key=lambda c: xor_distance(c.node_id, target),
            )[: self.network.alpha]
            if not candidates:
                break
            progressed = False
            for contact in candidates:
                queried.add(contact.node_id)
                remote = self.network.node(contact.node_id)
                if remote is None:
                    best.pop(contact.node_id, None)
                    index = bucket_index(self.node_id, contact.node_id)
                    self._buckets[index].remove(contact.node_id)
                    continue
                self._touch(contact)
                for learned in remote.rpc_find_node(self.as_contact(), target):
                    if learned.node_id == self.node_id:
                        continue
                    if learned.node_id not in best:
                        best[learned.node_id] = learned
                        progressed = True
                    self._touch(learned)
            if not progressed:
                break
        ranked = sorted(best.values(), key=lambda c: xor_distance(c.node_id, target))
        return ranked[: self.network.k]

    def announce(self, key: int, peer_id: int, value: object) -> int:
        """Store a provider record on the k closest nodes; returns copies."""
        stored = 0
        for contact in self.iterative_find_node(key):
            remote = self.network.node(contact.node_id)
            if remote is None:
                continue
            remote.rpc_store(self.as_contact(), key, peer_id, value)
            stored += 1
        # Also store locally if we are among the closest (common at small n).
        self._store.setdefault(key, {})[peer_id] = value
        return stored + 1

    def get_peers(self, key: int) -> List[object]:
        """Collect provider records from the nodes closest to the key."""
        found: Dict[int, object] = dict(self._store.get(key, {}))
        for contact in self.iterative_find_node(key):
            remote = self.network.node(contact.node_id)
            if remote is None:
                continue
            for peer_id, value in remote.rpc_get(self.as_contact(), key):
                found[peer_id] = value
        return list(found.values())

    def forget(self, key: int, peer_id: int) -> None:
        """Withdraw a provider record (graceful departure)."""
        self._store.get(key, {}).pop(peer_id, None)
        for contact in self.iterative_find_node(key):
            remote = self.network.node(contact.node_id)
            if remote is not None:
                remote.rpc_forget(self.as_contact(), key, peer_id)


def infohash(content_name: str) -> int:
    """Content key for announce/get_peers (SHA-1 of the name)."""
    return node_id_from("content:" + content_name)


def build_network(
    names: Sequence[str], k: int = 8, alpha: int = 3, rng: Optional[random.Random] = None
) -> Tuple[DhtNetwork, List[DhtNode]]:
    """Create nodes and bootstrap them into one connected DHT."""
    if not names:
        raise ValueError("need at least one node")
    network = DhtNetwork(k=k, alpha=alpha)
    nodes = [DhtNode(network, name) for name in names]
    rng = rng or random.Random(0)
    for index, node in enumerate(nodes[1:], start=1):
        node.bootstrap(nodes[rng.randrange(index)])
    # A round of self-lookups fills in routing tables.
    for node in nodes:
        node.iterative_find_node(node.node_id)
    return network, nodes
