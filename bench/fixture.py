"""The portal under test and its oracle twin (imports ``repro``).

Both sides of the portal workloads build the same iTracker from the same
public constructors: the child serves it, the parent keeps a twin that
sees the same price updates and says what every checked response must
be, byte for byte.
"""

import json
import struct

import procs

procs.require_checkout_program()

from repro.core.itracker import ITracker
from repro.core.pdistance import uniform_pid_map
from repro.network.generators import US_METROS, synthetic_isp
from repro.portal import alto, protocol


def build_itracker():
    """The 80-PoP provider of ``benchmarks/test_perf_portal.py``,
    pre-converged against background traffic."""
    topology = synthetic_isp(
        name="BENCH",
        n_pops=80,
        metros=US_METROS,
        n_hubs=12,
        as_number=65000,
        seed=9,
    )
    itracker = ITracker(topology=topology, pid_map=uniform_pid_map(topology))
    itracker.warm_start(30)
    return itracker


def loads_from_wire(entries):
    return {(src, dst): mbps for src, dst, mbps in entries}


class Twin:
    """Oracle: an iTracker that never crosses a socket."""

    def __init__(self):
        self.itracker = build_itracker()
        self._raw = None
        self._raw_version = None

    @property
    def pids(self):
        return list(self.itracker.topology.aggregation_pids)

    @property
    def links(self):
        return [
            (src, dst, link.capacity)
            for (src, dst), link in self.itracker.topology.links.items()
        ]

    def update(self, entries):
        self.itracker.observe_loads(loads_from_wire(entries))

    def _view(self, pids):
        # ``get_pdistances(pids)`` spelled out so the full-mesh snapshot is
        # computed once per version instead of once per checked response.
        itracker = self.itracker
        if self._raw_version != itracker.version:
            self._raw = itracker.view_snapshot()
            self._raw_version = itracker.version
        view = self._raw if pids is None else self._raw.restricted_to(pids)
        return itracker.finish_view(view)

    def response(self, method, params):
        """The exact frame the portal must answer with."""
        itracker = self.itracker
        if method == "get_pdistances":
            result = protocol.pdistance_to_wire(self._view(params.get("pids")))
        elif method == "get_alto_costmap":
            result = alto.cost_map_document(
                self._view(params.get("pids")),
                mode=alto.NUMERICAL,
                map_vtag=f"p4p-{itracker.version}",
            )
        elif method == "get_version":
            result = {"version": itracker.version, "epoch": itracker.epoch}
        elif method == "get_policy":
            result = itracker.get_policy().to_document()
        else:
            raise ValueError(f"no oracle for {method}")
        payload = json.dumps({"result": result}, separators=(",", ":")).encode(
            "utf-8"
        )
        return struct.pack(">I", len(payload)) + payload
