"""Seeded input generators (stdlib only, no ``repro`` import).

``--seed`` reaches the program only through what these functions return:
request frames, price-update load vectors, peer placements and transfer
schedules.  The same seed gives byte-identical inputs (see ``digest``).
"""

import hashlib
import json
import random
import struct

#: ``portal-swarm-reads`` mix; each round holds exactly these shares so
#: every round is the same amount of work.
READ_MIX = (
    ("get_pdistances", 0.60),
    ("get_version", 0.25),
    ("get_policy", 0.10),
    ("get_alto_costmap", 0.05),
)
#: ``portal-fullmesh-updates`` mix (both unrestricted: full 80x80 mesh).
FULLMESH_MIX = (("get_pdistances", 0.80), ("get_alto_costmap", 0.20))
#: Methods whose response is a view of the price state.
VIEW_METHODS = ("get_pdistances", "get_alto_costmap")


def encode_request(method, params):
    """One request frame: 4-byte big-endian length, then compact JSON."""
    payload = json.dumps(
        {"method": method, "params": params}, separators=(",", ":")
    ).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def _mixed_round(rng, mix, per_round, params_for):
    requests = []
    for method, share in mix:
        for _ in range(round(share * per_round)):
            requests.append((method, params_for(method)))
    rng.shuffle(requests)
    return requests


def swarm_reads(seed, pids, rounds, per_round):
    """appTracker steady state: views restricted to a swarm's 1-6 PIDs."""
    rng = random.Random(f"swarm-reads-{seed}")

    def params_for(method):
        if method in VIEW_METHODS:
            return {"pids": rng.sample(pids, rng.randint(1, 6))}
        return {}

    return [
        _mixed_round(rng, READ_MIX, per_round, params_for) for _ in range(rounds)
    ]


def fullmesh_reads(seed, rounds, per_round):
    rng = random.Random(f"fullmesh-{seed}")
    return [
        _mixed_round(rng, FULLMESH_MIX, per_round, lambda method: {})
        for _ in range(rounds)
    ]


def load_updates(seed, links, count):
    """``count`` measured-load vectors for ``observe_loads``.

    ``links`` is ``[(src, dst, capacity_mbps), ...]``; each update loads
    a random half of the links to 0-90% so the super-gradient moves.
    """
    rng = random.Random(f"loads-{seed}")
    updates = []
    for _ in range(count):
        updates.append(
            [
                [src, dst, round(rng.uniform(0.0, 0.9) * capacity, 3)]
                for src, dst, capacity in links
                if rng.random() < 0.5
            ]
        )
    return updates


#: The one transfer instance both ``flows-*`` workloads replay.
FLOW_INSTANCE = 3


def flow_schedule(seed, n_pops, n_peers, n_transfers, locality):
    """Peer placement over PoP indices plus a transfer schedule.

    The generator of ``benchmarks/test_perf_engine.py``: a transfer goes
    to a peer in the source's PoP with probability ``locality``, else to
    any other peer; sizes are 1-4 Mbit.

    Who sends how much to whom is one fixed instance (``FLOW_INSTANCE``);
    ``seed`` only renames the peers inside each PoP.  The engine's work
    per completed flow is a property of the instance -- over twelve seeded
    instances its deterministic call count ranged 23 % (README, finding
    5) -- so a seeded instance would put ten points of spread between runs
    that no estimator can take out, while a renamed one costs the same on
    every seed and is still a different input.
    """
    rng = random.Random(f"flows-{FLOW_INSTANCE}")
    peers = [rng.randrange(n_pops) for _ in range(n_peers)]
    by_pop = {}
    for index, pop in enumerate(peers):
        by_pop.setdefault(pop, []).append(index)
    transfers = []
    for _ in range(n_transfers):
        src = rng.randrange(n_peers)
        dst = src
        local = by_pop[peers[src]]
        if rng.random() < locality and len(local) > 1:
            while dst == src:
                dst = rng.choice(local)
        else:
            while dst == src:
                dst = rng.randrange(n_peers)
        transfers.append([src, dst, round(rng.uniform(1.0, 4.0), 6)])
    renaming = random.Random(f"flows-renaming-{seed}")
    name = list(range(n_peers))
    for members in by_pop.values():
        shuffled = members[:]
        renaming.shuffle(shuffled)
        for old, new in zip(members, shuffled):
            name[old] = new
    return {
        "peers": peers,
        "transfers": [[name[src], name[dst], size] for src, dst, size in transfers],
    }


def digest(value):
    """sha256 of a schedule: bytes as they are, anything else as JSON."""
    sha = hashlib.sha256()
    if isinstance(value, (bytes, bytearray)):
        sha.update(value)
    else:
        sha.update(json.dumps(value, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()
