"""Parallel swarms sharing one network (the field test's real setting).

The Pando field test ran its two comparison swarms simultaneously over the
same provider network: their transfers contended for the same backbone and
interdomain links.  :class:`MultiSwarmSimulation` drives any number of
:class:`~repro.simulator.swarm.SwarmSimulation` instances over one shared
:class:`~repro.simulator.tcp.FlowNetwork` and one event clock, so
cross-swarm contention is modelled rather than approximated away.

Usage::

    net, engine = shared_substrate()
    swarm_a = SwarmSimulation(..., shared_net=net, shared_engine=engine,
                              swarm_id="native")
    swarm_b = SwarmSimulation(..., shared_net=net, shared_engine=engine,
                              swarm_id="p4p")
    results = MultiSwarmSimulation([swarm_a, swarm_b]).run(until=...)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulator.engine import EventEngine
from repro.simulator.swarm import SwarmResult, SwarmSimulation
from repro.simulator.tcp import FlowNetwork, make_flow_network


def shared_substrate(
    telemetry: Optional[object] = None,
) -> Tuple[FlowNetwork, EventEngine]:
    """A fresh (flow network, event engine) pair for parallel swarms."""
    return make_flow_network(telemetry=telemetry), EventEngine()


class MultiSwarmSimulation:
    """Coordinator stepping several swarms over one network and clock."""

    def __init__(self, swarms: Sequence[SwarmSimulation]) -> None:
        if not swarms:
            raise ValueError("need at least one swarm")
        net = swarms[0].net
        engine = swarms[0].engine
        ids = set()
        for swarm in swarms:
            if swarm.net is not net or swarm.engine is not engine:
                raise ValueError("all swarms must share one net and engine")
            if not swarm._shared:
                raise ValueError(
                    "construct swarms with shared_net/shared_engine for "
                    "multi-swarm runs"
                )
            if swarm.swarm_id in ids:
                raise ValueError(f"duplicate swarm_id {swarm.swarm_id!r}")
            ids.add(swarm.swarm_id)
        self.swarms = list(swarms)
        self.net = net
        self.engine = engine

    def run(self, until: Optional[float] = None) -> Dict[str, SwarmResult]:
        """Drive all swarms until none has work (or the horizon)."""
        for swarm in self.swarms:
            swarm.prepare()
        stall_ticks = 0
        while True:
            if not any(swarm.work_left() for swarm in self.swarms):
                break
            if until is not None and self.engine.now >= until:
                break
            if self.net.n_flows == 0 and self.engine.pending == 0:
                stall_ticks += 1
                if stall_ticks > 500:
                    break
            else:
                stall_ticks = 0

            candidates: List[float] = []
            timer_time = self.engine.peek_time()
            if timer_time is not None:
                candidates.append(timer_time)
            completions = [
                t
                for t in (swarm.next_completion_time() for swarm in self.swarms)
                if t is not None
            ]
            # All swarms see the same flow set; the per-swarm call differs
            # only in quantum, so take the earliest quantized view.
            if completions:
                candidates.append(min(completions))
            candidates.append(min(swarm.next_periodic_time() for swarm in self.swarms))
            step_to = min(candidates)
            if until is not None:
                step_to = min(step_to, until)

            self.net.advance(step_to)
            self.engine.run_timers_until(step_to)
            for flow in self.net.pop_finished():
                owner = flow.meta[0]
                owner._on_transfer_done(flow)
            for swarm in self.swarms:
                swarm.handle_ticks(step_to)
        return {swarm.swarm_id: swarm.result() for swarm in self.swarms}
