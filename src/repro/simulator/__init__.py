"""Discrete-event P2P simulator following the paper's Sec. 7.1 methodology:
session-level TCP over max-min shared fluid flows, BitTorrent swarms,
Liveswarms streaming, parallel swarms over one shared network, and the
scaled Pando field test.

One flow engine implements the max-min substrate: the incremental
`VectorizedFlowNetwork`, built by `make_flow_network()`.  The scalar
`repro.simulator.tcp.FlowNetwork` is its reference oracle
(`repro.simulator.differential`), not something a simulation runs on."""

from repro.simulator.tcp import (
    Flow,
    VectorizedFlowNetwork,
    make_flow_network,
)

__all__ = [
    "Flow",
    "VectorizedFlowNetwork",
    "make_flow_network",
]
