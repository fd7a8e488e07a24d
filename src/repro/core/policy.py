"""The iTracker ``policy`` interface: static network usage policies.

Two example policies from the paper (Sec. 3):

* coarse-grained time-of-day link usage policy -- the desired usage pattern
  of specific links (e.g. avoid links that are congested during peak times);
* near-congestion and heavy-usage thresholds, as defined in the Comcast
  field test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class TimeOfDayPolicy:
    """Avoid a link during given local-hour windows.

    Attributes:
        link: The governed link.
        avoid_windows: Half-open hour windows ``[start, end)`` (0-24) during
            which applications should avoid the link; windows may wrap
            midnight (``start > end``).
    """

    link: LinkKey
    avoid_windows: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        for start, end in self.avoid_windows:
            if not (0 <= start <= 24 and 0 <= end <= 24):
                raise ValueError("window bounds must be within [0, 24]")

    def should_avoid(self, hour: float) -> bool:
        """Whether the link should be avoided at a local hour of day."""
        hour = hour % 24
        for start, end in self.avoid_windows:
            if start <= end:
                if start <= hour < end:
                    return True
            elif hour >= start or hour < end:
                return True
        return False


@dataclass(frozen=True)
class UsageThresholds:
    """Comcast-style congestion management thresholds.

    Attributes:
        near_congestion: Link utilization above which the link counts as
            near congestion (applications should deprioritize it).
        heavy_usage: Per-client share of capacity above which a client is a
            heavy user subject to management.
    """

    near_congestion: float = 0.7
    heavy_usage: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.near_congestion <= 1:
            raise ValueError("near_congestion must be in (0, 1]")
        if not 0 < self.heavy_usage <= 1:
            raise ValueError("heavy_usage must be in (0, 1]")


@dataclass
class NetworkPolicy:
    """The full policy document an iTracker serves.

    Aggregated and application-agnostic by design: it names links and
    thresholds, never clients or applications.
    """

    time_of_day: List[TimeOfDayPolicy] = field(default_factory=list)
    thresholds: UsageThresholds = field(default_factory=UsageThresholds)

    def add_time_of_day(self, policy: TimeOfDayPolicy) -> None:
        self.time_of_day.append(policy)

    def links_to_avoid(self, hour: float) -> List[LinkKey]:
        """All links whose time-of-day policy says 'avoid' at this hour."""
        return [
            policy.link for policy in self.time_of_day if policy.should_avoid(hour)
        ]

    def to_document(self) -> Dict:
        """Serializable form for the portal wire protocol."""
        return {
            "time_of_day": [
                {
                    "link": list(policy.link),
                    "avoid_windows": [list(window) for window in policy.avoid_windows],
                }
                for policy in self.time_of_day
            ],
            "thresholds": {
                "near_congestion": self.thresholds.near_congestion,
                "heavy_usage": self.thresholds.heavy_usage,
            },
        }

    @classmethod
    def from_document(cls, document: Dict) -> "NetworkPolicy":
        policies = [
            TimeOfDayPolicy(
                link=tuple(entry["link"]),
                avoid_windows=tuple(tuple(window) for window in entry["avoid_windows"]),
            )
            for entry in document.get("time_of_day", [])
        ]
        thresholds_doc = document.get("thresholds", {})
        thresholds = UsageThresholds(
            near_congestion=thresholds_doc.get("near_congestion", 0.7),
            heavy_usage=thresholds_doc.get("heavy_usage", 0.1),
        )
        return cls(time_of_day=policies, thresholds=thresholds)
