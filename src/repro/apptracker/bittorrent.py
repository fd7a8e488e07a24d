"""P4P BitTorrent appTracker integration (Sec. 6.2).

Based on the paper's BNBT-EasyTracker integration: the appTracker
periodically obtains p-distances from the iTracker(s), converts them to
inter-PID weights ``w_ij = 1/p_ij`` (normalized, concave-transformed for
robustness), and serves peer lists through the staged
:class:`~repro.apptracker.selection.P4PSelection`.

The tracker also closes the control loop: wired into a swarm simulation as
the ``tracker_hook``, it reports measured link loads back to each iTracker
(which may run the dynamic super-gradient price update) and refreshes its
cached views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.apptracker.selection import (
    DelayLocalizedSelection,
    P4PSelection,
    PeerSelector,
    RandomSelection,
)
from repro.core.itracker import ITracker
from repro.core.pdistance import PDistanceMap

LinkKey = Tuple[str, str]


@dataclass
class P4PBitTorrentTracker:
    """A BitTorrent appTracker speaking the p4p-distance interface.

    Attributes:
        itrackers: One iTracker per AS whose clients this tracker guides.
        upper_intra / upper_inter / gamma: Staged-selection parameters
            (Sec. 6.2 defaults).
    """

    itrackers: Mapping[int, ITracker]
    upper_intra: float = 0.7
    upper_inter: float = 0.8
    gamma: float = 0.5

    def __post_init__(self) -> None:
        self._views: Dict[int, PDistanceMap] = {}
        self.selector = P4PSelection(
            pdistances=self._views,
            upper_intra=self.upper_intra,
            upper_inter=self.upper_inter,
            gamma=self.gamma,
        )
        self.refresh()

    def refresh(self) -> None:
        """Re-query every iTracker's external view (cache refresh)."""
        for as_number, itracker in self.itrackers.items():
            self._views[as_number] = itracker.get_pdistances()

    def tracker_hook(
        self,
        now: float,
        traffic_mbit: Dict[LinkKey, float],
        rates_mbps: Dict[LinkKey, float],
    ) -> None:
        """Simulation hook: feed loads to iTrackers, refresh p-distances."""
        updated = False
        for itracker in self.itrackers.values():
            loads = {
                key: rate
                for key, rate in rates_mbps.items()
                if key in itracker.topology.links
            }
            if itracker.observe_loads(loads, now=now):
                updated = True
        if updated:
            self.refresh()


def native_tracker() -> PeerSelector:
    """The stock BitTorrent tracker: random peer selection."""
    return RandomSelection()


def localized_tracker(routing, jitter: float = 0.05) -> PeerSelector:
    """Delay-localized BitTorrent: RTT proxied by routed distance."""

    def delay(src_pid: str, dst_pid: str) -> float:
        if src_pid == dst_pid:
            return 1.0  # same-PoP RTT floor
        return 1.0 + routing.distance(src_pid, dst_pid)

    return DelayLocalizedSelection(delay=delay, jitter=jitter)
