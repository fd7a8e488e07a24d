"""Peer-selection engines: native, delay-localized, and P4P (Sec. 6.2).

The appTracker answers a joining client's request for ``m`` peering
neighbors.  Three families are evaluated in the paper:

* **native** -- uniform random selection (stock BitTorrent tracker);
* **delay-localized** -- lowest round-trip delay first (the unilateral
  locality heuristic P4P is compared against);
* **P4P** -- the staged algorithm of Sec. 6.2: intra-PID first (bounded by
  ``Upper-Bound-IntraPID``, default 70%), then inter-PID within the same AS
  using weights ``w_ij = 1 / p_ij`` with a concave transform for robustness
  (bounded by ``Upper-Bound-InterPID``, default 80%), then inter-AS with
  per-AS weights inverse to the p-distance from the client's AS view.

A fourth engine, :class:`WeightedSelection`, implements the Pando
integration: PID-level weights computed by the appTracker Optimization
Service (``w_ij = t_ij / sum_j t_ij`` from the bandwidth-matching LP) drive
probabilistic neighbor choice.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.pdistance import PDistanceMap

#: A very large weight standing in for 1/0 when p_ij == 0.
_ZERO_DISTANCE_WEIGHT = 1e6


@dataclass(frozen=True)
class PeerInfo:
    """What a tracker knows about one client."""

    peer_id: int
    pid: str
    as_number: int = 0


#: Delay oracle: (pid_a, pid_b) -> latency proxy (e.g. route miles).
DelayFn = Callable[[str, str], float]


class PeerSelector(abc.ABC):
    """Strategy interface: choose up to ``m`` neighbors for a client."""

    name: str = "selector"

    @abc.abstractmethod
    def select(
        self,
        client: PeerInfo,
        candidates: Sequence[PeerInfo],
        m: int,
        rng: random.Random,
    ) -> List[PeerInfo]:
        """Pick up to ``m`` distinct peers from ``candidates``.

        ``candidates`` must not contain the client itself.
        """


class RandomSelection(PeerSelector):
    """Native BitTorrent: uniform random peers."""

    name = "native"

    def select(self, client, candidates, m, rng):
        pool = list(candidates)
        if len(pool) <= m:
            return pool
        return rng.sample(pool, m)


@dataclass
class DelayLocalizedSelection(PeerSelector):
    """Latency-based locality: the ``m`` lowest-delay candidates.

    ``jitter`` adds relative measurement noise so equal-delay peers (same
    PID) are not always picked in the same order, mimicking real RTT
    estimation.
    """

    delay: DelayFn
    jitter: float = 0.05
    name: str = "localized"

    def select(self, client, candidates, m, rng):
        def measured(peer: PeerInfo) -> float:
            base = self.delay(client.pid, peer.pid)
            return base * (1.0 + rng.uniform(-self.jitter, self.jitter)) + rng.random() * 1e-9

        ranked = sorted(candidates, key=measured)
        return ranked[:m]


def concave_transform(
    weights: Mapping[str, float], gamma: float = 0.5
) -> Dict[str, float]:
    """Raise normalized weights to ``gamma`` < 1 and renormalize.

    This boosts the relative weight of small entries -- the paper's "simple
    implementation of the robustness constraint in (7)": no PID's selection
    probability collapses to ~0 just because its p-distance is large.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    total = sum(weights.values())
    if total <= 0:
        return {key: 1.0 / len(weights) for key in weights} if weights else {}
    transformed = {key: (value / total) ** gamma for key, value in weights.items()}
    norm = sum(transformed.values())
    return {key: value / norm for key, value in transformed.items()}


def pdistance_weights(
    pdistance: PDistanceMap, src_pid: str, dst_pids: Sequence[str], gamma: float = 0.5
) -> Dict[str, float]:
    """P4P BitTorrent inter-PID weights: ``w_ij = 1/p_ij``, concave-adjusted."""
    raw: Dict[str, float] = {}
    for dst in dst_pids:
        distance = pdistance.distance(src_pid, dst)
        raw[dst] = _ZERO_DISTANCE_WEIGHT if distance <= 0 else 1.0 / distance
    return concave_transform(raw, gamma)


def _weighted_round(
    quotas: Mapping[str, float], total: int, rng: random.Random
) -> Dict[str, int]:
    """Turn fractional per-key quotas (summing to ~total) into integers.

    Largest-remainder method with random tie-breaking; never allocates more
    than ``total`` overall.
    """
    floors = {key: int(math.floor(value)) for key, value in quotas.items()}
    allocated = sum(floors.values())
    remainders = sorted(
        quotas,
        key=lambda key: (quotas[key] - floors[key], rng.random()),
        reverse=True,
    )
    for key in remainders:
        if allocated >= total:
            break
        floors[key] += 1
        allocated += 1
    return floors


@dataclass
class P4PSelection(PeerSelector):
    """The three-stage P4P peer selection of Sec. 6.2.

    Attributes:
        pdistances: Per-AS external views; a client from AS ``n`` is guided
            by AS ``n``'s own view (the paper's resolution of conflicting
            inter-AS preferences).
        upper_intra: ``Upper-Bound-IntraPID`` (default 0.7).
        upper_inter: ``Upper-Bound-InterPID`` (default 0.8; must be >=
            ``upper_intra``).
        gamma: Concave-transform exponent for robustness.
    """

    pdistances: Mapping[int, PDistanceMap]
    upper_intra: float = 0.7
    upper_inter: float = 0.8
    gamma: float = 0.5
    portal_health: Optional[Mapping[int, str]] = None
    name: str = "p4p"
    native_fallbacks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.upper_intra <= self.upper_inter <= 1:
            raise ValueError("need 0 <= upper_intra <= upper_inter <= 1")

    def _view(self, as_number: int) -> Optional[PDistanceMap]:
        """The AS's guidance view, or None when selection must go native.

        ``portal_health`` (the shape of ``Integrator.status_map()``) marks
        an AS ``"unavailable"`` when its portal is down *and* the stale
        fallback has expired; those sessions transparently use native
        selection even if an outdated view object is still present.
        """
        if (
            self.portal_health is not None
            and self.portal_health.get(as_number) == "unavailable"
        ):
            return None
        return self.pdistances.get(as_number)

    def select(self, client, candidates, m, rng):
        view = self._view(client.as_number)
        if view is None:
            # Unknown or portal-unavailable AS: fall back to random
            # (iTrackers are not on the critical path -- Sec. 8 robustness
            # answer).  Counted so the management plane can see the swarm
            # share running without guidance.
            self.native_fallbacks += 1
            return RandomSelection().select(client, candidates, m, rng)

        chosen: List[PeerInfo] = []
        remaining = [peer for peer in candidates]

        # Stage 1: intra-PID, up to upper_intra * m.
        same_pid = [peer for peer in remaining if peer.pid == client.pid]
        intra_quota = min(len(same_pid), int(math.floor(self.upper_intra * m)))
        picked = rng.sample(same_pid, intra_quota)
        chosen.extend(picked)
        remaining = [peer for peer in remaining if peer not in picked]

        # Stage 2: inter-PID within the client's AS, up to upper_inter * m
        # total, allocated across PIDs by 1/p_ij weights.
        inter_budget = int(math.floor(self.upper_inter * m)) - len(chosen)
        same_as = [
            peer
            for peer in remaining
            if peer.as_number == client.as_number and peer.pid != client.pid
        ]
        if inter_budget > 0 and same_as:
            by_pid: Dict[str, List[PeerInfo]] = {}
            for peer in same_as:
                by_pid.setdefault(peer.pid, []).append(peer)
            known_pids = [pid for pid in by_pid if pid in view.index and client.pid in view.index]
            weights = pdistance_weights(view, client.pid, known_pids, self.gamma)
            quotas = {pid: weights[pid] * inter_budget for pid in known_pids}
            allocation = _weighted_round(quotas, inter_budget, rng)
            for pid, count in allocation.items():
                bucket = by_pid[pid]
                take = min(count, len(bucket))
                picked = rng.sample(bucket, take)
                chosen.extend(picked)
            chosen_ids = {peer.peer_id for peer in chosen}
            remaining = [peer for peer in remaining if peer.peer_id not in chosen_ids]

        # Stage 3: inter-AS for the rest, weighted inversely by the
        # p-distance from the client's AS view to each foreign AS.
        budget = m - len(chosen)
        if budget > 0:
            foreign = [
                peer for peer in remaining if peer.as_number != client.as_number
            ]
            if foreign:
                by_as: Dict[int, List[PeerInfo]] = {}
                for peer in foreign:
                    by_as.setdefault(peer.as_number, []).append(peer)
                as_weights = self._inter_as_weights(client, by_as, view)
                quotas = {
                    as_number: as_weights[as_number] * budget for as_number in by_as
                }
                allocation = _weighted_round(quotas, budget, rng)
                for as_number, count in allocation.items():
                    bucket = by_as[as_number]
                    take = min(count, len(bucket))
                    chosen.extend(rng.sample(bucket, take))
                chosen_ids = {peer.peer_id for peer in chosen}
                remaining = [
                    peer for peer in remaining if peer.peer_id not in chosen_ids
                ]

        # Backfill: if quotas could not be met, take leftovers so the client
        # still gets connectivity (robustness over optimality).  Preference
        # order respects the stage bounds: other-AS peers first, then
        # same-AS/other-PID (still steered by the p-distance weights so the
        # spill does not undo the ISP's guidance), then same-PID.
        budget = m - len(chosen)
        if budget > 0 and remaining:
            foreign_tier = [
                p for p in remaining if p.as_number != client.as_number
            ]
            take = min(budget, len(foreign_tier))
            chosen.extend(rng.sample(foreign_tier, take))
            budget -= take
        if budget > 0:
            chosen_ids = {peer.peer_id for peer in chosen}
            same_as_tier = [
                p
                for p in remaining
                if p.as_number == client.as_number
                and p.pid != client.pid
                and p.peer_id not in chosen_ids
            ]
            if same_as_tier:
                chosen.extend(
                    self._weighted_pick(client, same_as_tier, budget, view, rng)
                )
                budget = m - len(chosen)
        if budget > 0:
            chosen_ids = {peer.peer_id for peer in chosen}
            same_pid_tier = [
                p
                for p in remaining
                if p.pid == client.pid and p.peer_id not in chosen_ids
            ]
            take = min(budget, len(same_pid_tier))
            chosen.extend(rng.sample(same_pid_tier, take))
        return chosen[:m]

    def _weighted_pick(
        self,
        client: PeerInfo,
        pool: List[PeerInfo],
        budget: int,
        view: PDistanceMap,
        rng: random.Random,
    ) -> List[PeerInfo]:
        """Draw up to ``budget`` peers from ``pool`` by inverse p-distance."""
        picked: List[PeerInfo] = []
        by_pid: Dict[str, List[PeerInfo]] = {}
        for peer in pool:
            by_pid.setdefault(peer.pid, []).append(peer)
        known = [
            pid for pid in by_pid if pid in view.index and client.pid in view.index
        ]
        if known:
            weights = pdistance_weights(view, client.pid, known, self.gamma)
            for _ in range(budget):
                live = [pid for pid in known if by_pid.get(pid)]
                if not live:
                    break
                total = sum(weights[pid] for pid in live)
                if total <= 0:
                    pid = rng.choice(live)
                else:
                    roll = rng.random() * total
                    acc = 0.0
                    pid = live[-1]
                    for candidate in live:
                        acc += weights[candidate]
                        if roll <= acc:
                            pid = candidate
                            break
                bucket = by_pid[pid]
                picked.append(bucket.pop(rng.randrange(len(bucket))))
        leftovers = [peer for bucket in by_pid.values() for peer in bucket]
        deficit = budget - len(picked)
        if deficit > 0 and leftovers:
            picked.extend(rng.sample(leftovers, min(deficit, len(leftovers))))
        return picked

    def _inter_as_weights(
        self,
        client: PeerInfo,
        by_as: Mapping[int, List[PeerInfo]],
        view: PDistanceMap,
    ) -> Dict[int, float]:
        """Per-AS weights: inverse mean p-distance to the AS's PIDs."""
        raw: Dict[int, float] = {}
        for as_number, peers in by_as.items():
            distances = [
                view.distance(client.pid, peer.pid)
                for peer in peers
                if peer.pid in view.index and client.pid in view.index
            ]
            if distances:
                mean = sum(distances) / len(distances)
                raw[as_number] = _ZERO_DISTANCE_WEIGHT if mean <= 0 else 1.0 / mean
            else:
                raw[as_number] = 1.0
        return concave_transform(raw, self.gamma)


@dataclass
class WeightedSelection(PeerSelector):
    """Pando-style selection from PID-level weights (Sec. 6.2).

    ``weights[(i, j)]`` is the probability that a PID-i client picks its
    next neighbor at PID-j (rows need not be normalized; they are
    renormalized over the PIDs that actually have candidates).
    """

    weights: Mapping[Tuple[str, str], float]
    name: str = "pando-weighted"

    def select(self, client, candidates, m, rng):
        by_pid: Dict[str, List[PeerInfo]] = {}
        for peer in candidates:
            by_pid.setdefault(peer.pid, []).append(peer)
        chosen: List[PeerInfo] = []
        pool_pids = list(by_pid)
        for _ in range(m):
            live = [pid for pid in pool_pids if by_pid.get(pid)]
            if not live:
                break
            row = {
                pid: max(0.0, self.weights.get((client.pid, pid), 0.0))
                for pid in live
            }
            total = sum(row.values())
            if total <= 0:
                pid = rng.choice(live)
            else:
                pick = rng.random() * total
                acc = 0.0
                pid = live[-1]
                for candidate_pid in live:
                    acc += row[candidate_pid]
                    if pick <= acc:
                        pid = candidate_pid
                        break
            bucket = by_pid[pid]
            index = rng.randrange(len(bucket))
            chosen.append(bucket.pop(index))
        return chosen


@dataclass
class PerAsSelector(PeerSelector):
    """Dispatch selection by the client's AS (field-test deployments).

    The Pando field test optimizes ISP-B clients through the appTracker
    Optimization Service while clients outside participating ISPs keep the
    native behaviour; this selector routes each request accordingly.
    """

    by_as: Mapping[int, PeerSelector]
    default: PeerSelector = field(default_factory=RandomSelection)
    name: str = "per-as"

    def select(self, client, candidates, m, rng):
        selector = self.by_as.get(client.as_number, self.default)
        return selector.select(client, candidates, m, rng)
