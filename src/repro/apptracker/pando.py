"""Pando integration: the appTracker Optimization Service (Sec. 6.2).

Pando's production appTracker is not modified to speak P4P directly;
instead a middleware service sits between it and the iTrackers.  The Pando
appTracker periodically sends the service its estimates of per-client
up/download bandwidth; the service aggregates them into a session demand,
queries the iTrackers for p-distances, solves the bandwidth-matching
optimization (eq. 5 under (2)-(4) and the beta floor), and returns
PID-level peering weights ``w_ij = t_ij / sum_j t_ij`` (concave-boosted for
robustness).  The appTracker then picks a PID-j neighbor for a PID-i client
with probability ``w_ij`` -- controlling connection counts probabilistically
rather than enforcing per-connection rate limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.apptracker.selection import WeightedSelection, concave_transform
from repro.core.itracker import ITracker
from repro.core.session import SessionDemand, TrafficPattern, min_cost_traffic

PidPair = Tuple[str, str]


@dataclass(frozen=True)
class ClientBandwidth:
    """Pando's estimate of one client's access bandwidth (Mbps)."""

    peer_id: int
    pid: str
    upload_mbps: float
    download_mbps: float

    def __post_init__(self) -> None:
        if self.upload_mbps < 0 or self.download_mbps < 0:
            raise ValueError("bandwidth estimates must be >= 0")


def session_from_estimates(
    estimates: Iterable[ClientBandwidth], name: str = "pando"
) -> SessionDemand:
    """Aggregate per-client estimates into per-PID session capacities."""
    uploads: Dict[str, float] = {}
    downloads: Dict[str, float] = {}
    for estimate in estimates:
        uploads[estimate.pid] = uploads.get(estimate.pid, 0.0) + estimate.upload_mbps
        downloads[estimate.pid] = (
            downloads.get(estimate.pid, 0.0) + estimate.download_mbps
        )
    return SessionDemand(name=name, uploads=uploads, downloads=downloads)


@dataclass
class OptimizationService:
    """The middleware between the Pando appTracker and the iTrackers.

    Attributes:
        itracker: The provider portal for the AS being optimized (the paper
            optimizes "for clients inside a given AS").
        beta: Efficiency floor of constraint (6).
        gamma: Concave-boost exponent applied to the returned weights.
    """

    itracker: ITracker
    beta: float = 0.8
    gamma: float = 0.5
    exploration: float = 0.2

    def compute_weights(
        self, estimates: Sequence[ClientBandwidth]
    ) -> Dict[PidPair, float]:
        """One optimization round: estimates in, peering weights out.

        The matching LP returns sparse vertex solutions; blending in a small
        ``exploration`` share of inverse-p-distance weight keeps every
        nearby PID reachable (the robustness spreading the paper applies to
        small ``w_ij``).
        """
        session = session_from_estimates(estimates)
        if len(session.pids) < 2:
            return {}
        pdistance = self.itracker.get_pdistances(pids=session.pids)
        pattern = min_cost_traffic(session, pdistance, beta=self.beta)
        lp_weights = pattern_to_weights(pattern, gamma=self.gamma)
        if self.exploration <= 0:
            return lp_weights
        blended: Dict[PidPair, float] = {}
        pids = list(session.pids)
        for src in pids:
            inverse = {}
            for dst in pids:
                if dst == src:
                    continue
                distance = pdistance.distance(src, dst)
                inverse[dst] = 1e6 if distance <= 0 else 1.0 / distance
            total = sum(inverse.values())
            for dst in pids:
                if dst == src:
                    continue
                lp_part = lp_weights.get((src, dst), 0.0)
                dist_part = inverse[dst] / total if total > 0 else 0.0
                weight = (1 - self.exploration) * lp_part + self.exploration * dist_part
                if weight > 0:
                    blended[(src, dst)] = weight
        return blended


def pattern_to_weights(
    pattern: TrafficPattern, gamma: float = 0.5, symmetric: bool = True
) -> Dict[PidPair, float]:
    """``w_ij = t_ij / sum_j t_ij`` per source PID, concave-boosted.

    With ``symmetric`` (the default) the row mass is ``t_ij + t_ji``:
    peering connections carry traffic both ways, so a PID whose clients
    mostly *download* from PID-j (``t_ji`` large) must still direct its
    connections there.  Rows with no traffic are omitted (the appTracker
    falls back to random choice for those sources).
    """
    by_src: Dict[str, Dict[str, float]] = {}
    for (src, dst), value in pattern.flows.items():
        if value > 0:
            by_src.setdefault(src, {})[dst] = by_src.get(src, {}).get(dst, 0.0) + value
            if symmetric:
                by_src.setdefault(dst, {})[src] = (
                    by_src.get(dst, {}).get(src, 0.0) + value
                )
    weights: Dict[PidPair, float] = {}
    for src, row in by_src.items():
        boosted = concave_transform(row, gamma)
        for dst, weight in boosted.items():
            weights[(src, dst)] = weight
    return weights


@dataclass
class PandoTracker:
    """The Pando appTracker: periodically re-optimized weighted selection.

    ``refresh`` mirrors the production flow: push current bandwidth
    estimates to the optimization service, install the returned weights.
    """

    service: OptimizationService
    intra_pid_weight: float = 1.0

    def __post_init__(self) -> None:
        self._weights: Dict[PidPair, float] = {}
        self.selector = WeightedSelection(weights=self._weights)

    def refresh(self, estimates: Sequence[ClientBandwidth]) -> Dict[PidPair, float]:
        new_weights = self.service.compute_weights(estimates)
        self._weights.clear()
        self._weights.update(new_weights)
        # Clients also exchange within their own PID; the matching LP only
        # assigns inter-PID traffic, so give the diagonal a base weight.
        for pid in {pid for pid, _ in new_weights} | {pid for _, pid in new_weights}:
            self._weights.setdefault((pid, pid), self.intra_pid_weight)
        return dict(self._weights)
