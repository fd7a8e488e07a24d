"""The iTracker ``capability`` interface: provider-side helpers.

A provider may advertise on-demand servers, in-network caches, or service
classes that can accelerate content distribution (Sec. 3).  The interface is
subject to access control: a provider may restrict who can see which
capabilities (e.g. only trusted appTrackers, or not for certain content).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


class CapabilityKind(enum.Enum):
    CACHE = "cache"
    ON_DEMAND_SERVER = "on-demand-server"
    SERVICE_CLASS = "service-class"


@dataclass(frozen=True)
class Capability:
    """One advertised capability.

    Attributes:
        kind: What is offered.
        pid: PID hosting the capability.
        capacity_mbps: Serving capacity; 0 means unspecified.
        name: Provider-chosen label (e.g. "gold", "cache-east-2").
    """

    kind: CapabilityKind
    pid: str
    capacity_mbps: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.capacity_mbps < 0:
            raise ValueError("capacity_mbps must be >= 0")


class AccessDeniedError(Exception):
    """Raised when a requester is not entitled to a capability listing."""


@dataclass
class CapabilityRegistry:
    """Capabilities plus the access-control policy guarding them.

    Access model: if ``trusted_requesters`` is empty, the registry is open;
    otherwise only listed requesters may query.  Individual content may be
    excluded via ``blocked_content`` so the provider avoids being involved
    in distributing it.
    """

    capabilities: List[Capability] = field(default_factory=list)
    trusted_requesters: Set[str] = field(default_factory=set)
    blocked_content: Set[str] = field(default_factory=set)

    def add(self, capability: Capability) -> None:
        self.capabilities.append(capability)

    def _check_access(self, requester: str, content_id: Optional[str]) -> None:
        if self.trusted_requesters and requester not in self.trusted_requesters:
            raise AccessDeniedError(f"requester {requester!r} is not trusted")
        if content_id is not None and content_id in self.blocked_content:
            raise AccessDeniedError(f"content {content_id!r} is not served")

    def query(
        self,
        requester: str,
        kind: Optional[CapabilityKind] = None,
        pid: Optional[str] = None,
        content_id: Optional[str] = None,
    ) -> List[Capability]:
        """List capabilities visible to ``requester``, optionally filtered.

        Raises :class:`AccessDeniedError` on policy violation.
        """
        self._check_access(requester, content_id)
        found = self.capabilities
        if kind is not None:
            found = [capability for capability in found if capability.kind is kind]
        if pid is not None:
            found = [capability for capability in found if capability.pid == pid]
        return list(found)

    def to_document(self) -> List[Dict]:
        return [
            {
                "kind": capability.kind.value,
                "pid": capability.pid,
                "capacity_mbps": capability.capacity_mbps,
                "name": capability.name,
            }
            for capability in self.capabilities
        ]
