"""ALTO-compatible export of P4P state (RFC 7285 document shapes).

P4P's standardization became the IETF ALTO protocol; its *network map*
(PID -> prefixes) and *cost map* (PID-pair costs) are the direct
descendants of the iTracker's PID mapping and p-distance view.  This
module renders the library's objects as ALTO-style JSON documents so P4P
state interoperates with ALTO tooling:

* :func:`network_map_document` -- ``application/alto-networkmap+json``;
* :func:`cost_map_document` -- ``application/alto-costmap+json`` with the
  ``routingcost`` metric carrying p-distances (numerical mode) or ranks
  (ordinal mode, the coarse interface of Sec. 4).

Only the media-type bodies are produced; HTTP transport is out of scope
(the JSON-frame portal carries them fine).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.core.pdistance import PDistanceMap, PidMap

#: Cost metric names defined by RFC 7285.
NUMERICAL = "numerical"
ORDINAL = "ordinal"


def network_map_document(
    pid_prefixes: Mapping[str, List[str]],
    map_vtag: str = "p4p-1",
    resource_id: str = "p4p-network-map",
) -> Dict[str, Any]:
    """Build an ALTO network map from PID -> CIDR prefix lists.

    Args:
        pid_prefixes: Prefixes owned by each PID (IPv4 assumed).
        map_vtag: Version tag clients use for cache validation (plays the
            same role as the iTracker's version counter).
        resource_id: The map's resource id.
    """
    if not pid_prefixes:
        raise ValueError("network map needs at least one PID")
    return {
        "meta": {"vtag": {"resource-id": resource_id, "tag": map_vtag}},
        "network-map": {
            pid: {"ipv4": list(prefixes)} for pid, prefixes in pid_prefixes.items()
        },
    }


def network_map_from_pidmap(
    pid_map: PidMap,
    map_vtag: str = "p4p-1",
    resource_id: str = "p4p-network-map",
) -> Dict[str, Any]:
    """Render a :class:`PidMap`'s prefixes as an ALTO network map."""
    by_pid: Dict[str, List[str]] = {}
    for network, pid, _ in pid_map._prefixes:  # noqa: SLF001 - own module family
        by_pid.setdefault(pid, []).append(str(network))
    return network_map_document(by_pid, map_vtag=map_vtag, resource_id=resource_id)


def cost_map_document(
    view: PDistanceMap,
    mode: str = NUMERICAL,
    map_vtag: str = "p4p-1",
    dependent_resource_id: str = "p4p-network-map",
) -> Dict[str, Any]:
    """Render a p-distance view as an ALTO cost map.

    ``mode=NUMERICAL`` exports raw p-distances; ``mode=ORDINAL`` exports
    the rank degradation (Sec. 4's coarse interface), which is exactly
    ALTO's ordinal cost mode.  Raises ``KeyError`` for a view that lacks
    an inter-PID pair.
    """
    if mode not in (NUMERICAL, ORDINAL):
        raise ValueError(f"unsupported cost mode {mode!r}")
    missing = view.first(np.isnan(view.matrix) & ~np.eye(len(view.pids), dtype=bool))
    if missing is not None:
        raise KeyError(missing)
    source = view.to_ranks() if mode == ORDINAL else view
    pids = source.pids
    cost_map: Dict[str, Dict[str, float]] = {}
    for i, (src, row) in enumerate(zip(pids, source.matrix.tolist())):
        if mode == ORDINAL:
            row = [value if j == i else int(value) for j, value in enumerate(row)]
        row[i] = source.distance(src, src) if source.intra is None else source.intra
        cost_map[src] = dict(zip(pids, row))
    return {
        "meta": cost_map_meta(mode, map_vtag, dependent_resource_id),
        "cost-map": cost_map,
    }


def cost_map_meta(
    mode: str, map_vtag: str, dependent_resource_id: str = "p4p-network-map"
) -> Dict[str, Any]:
    """The ``meta`` member of a cost map in ``mode`` over ``map_vtag``."""
    return {
        "dependent-vtags": [
            {"resource-id": dependent_resource_id, "tag": map_vtag}
        ],
        "cost-type": {"cost-mode": mode, "cost-metric": "routingcost"},
    }


def endpoint_cost_document(
    view: PDistanceMap,
    pid_of: Mapping[str, str],
    source_ip: str,
    destination_ips: List[str],
    mode: str = NUMERICAL,
) -> Dict[str, Any]:
    """The ALTO Endpoint Cost Service: per-IP costs via the PID mapping.

    This is the per-client query shape the paper warns has scalability and
    privacy costs (Sec. 4); it is provided for ALTO compatibility, built
    on the scalable PID-level map.
    """
    if source_ip not in pid_of:
        raise KeyError(f"no PID for source {source_ip}")
    source_pid = pid_of[source_ip]
    source = view.to_ranks() if mode == ORDINAL else view
    costs: Dict[str, float] = {}
    for ip in destination_ips:
        pid = pid_of.get(ip)
        if pid is None:
            continue  # unmappable endpoints are omitted, per RFC 7285
        costs[ip] = source.distance(source_pid, pid)
    return {
        "meta": {
            "cost-type": {"cost-mode": mode, "cost-metric": "routingcost"}
        },
        "endpoint-cost-map": {f"ipv4:{source_ip}": {
            f"ipv4:{ip}": value for ip, value in costs.items()
        }},
    }
