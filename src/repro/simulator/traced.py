"""The scripted traced scenario: client -> faulty proxy -> portal, with traces.

One deterministic end-to-end walk of the distributed-tracing pipeline: a
:class:`~repro.portal.resilience.ResilientPortalClient` (with a
:class:`~repro.observability.tracing.Tracer`) fetches views through a
:class:`~repro.portal.faults.FaultyPortal` that injects two mid-frame
resets and then a full outage, so the exported trace trees contain -- in
one causal structure --

* the client-side ``resilient.get_view`` / ``resilient.fetch`` /
  ``client.call`` span chain with ``reconnect``, ``retry``, ``backoff``,
  ``breaker-open``, and ``stale-serve`` events;
* the server-side ``portal.dispatch`` -> ``itracker.handle`` spans,
  parented under the client's spans via the wire-level ``trace``
  envelope.

Everything runs on step clocks (no wall time), a seeded RNG, zero backoff
delays, and no-op sleeps; the request interleaving is strictly serial, so
two runs with the same seed export **bit-identical** JSON -- which is
exactly what the CI trace-determinism step and the golden-file test
assert.  This module is also what ``p4p-repro trace`` runs by default.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.network.library import abilene
from repro.observability import Telemetry, Tracer
from repro.observability.assembler import (
    assemble_traces,
    export_document,
    export_traces,
)
from repro.portal.aserver import AsyncPortalServer
from repro.portal.faults import Fault, FaultKind, FaultSchedule, FaultyPortal
from repro.portal.resilience import (
    CircuitBreaker,
    PortalUnavailable,
    ResilientPortalClient,
    RetryPolicy,
)


class _StepClock:
    """A deterministic clock: each reading advances time by ``step``.

    The tiny per-call step keeps every timestamp distinct (so span sort
    keys are total) while :meth:`advance` models the passage of real
    scenario time (breaker cooldowns, staleness ages).
    """

    def __init__(self, start: float = 0.0, step: float = 0.001) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now = round(self.now + self.step, 9)
        return value

    def advance(self, seconds: float) -> None:
        self.now = round(self.now + seconds, 9)


def run_traced_scenario(seed: int = 0) -> Dict[str, Any]:
    """Run the scripted faulted fetch sequence and export its traces.

    Returns the canonical trace-export document (``format``,
    ``traces``): a list of causal trees, one per ``get_view`` call,
    merging the client-side (``apptracker`` namespace) and server-side
    (``portal`` namespace) trace buffers.
    """
    server_clock = _StepClock(start=1000.0)
    client_clock = _StepClock(start=0.0)

    # Static prices (hop count): no dynamic price-update spans, so the
    # export contains exactly the request-path causality under test.
    tracker = ITracker(
        topology=abilene(),
        config=ITrackerConfig(mode=PriceMode.HOP_COUNT),
    )
    server_telemetry = Telemetry(clock=server_clock, trace_namespace="portal")
    client_telemetry = Telemetry(clock=client_clock, trace_namespace="apptracker")
    tracer = Tracer(client_telemetry.traces, sample_rate=1.0, seed=seed)

    # Requests 0 and 1 die mid-frame: request 0 exercises PortalClient's
    # one-shot reconnect-and-resend (a ``reconnect`` event), whose resend
    # (request 1) dies too, escalating to ResilientPortalClient's retry
    # loop (``retry`` + ``backoff`` events).  Everything after passes.
    schedule = FaultSchedule(
        script={
            0: Fault(FaultKind.RESET_MID_FRAME),
            1: Fault(FaultKind.RESET_MID_FRAME),
        }
    )

    server = AsyncPortalServer(tracker, telemetry=server_telemetry)
    proxy = FaultyPortal(server.address, schedule=schedule)
    client = ResilientPortalClient(
        *proxy.address,
        retry=RetryPolicy(
            max_attempts=3, base_delay=0.0, max_delay=0.0, attempt_timeout=5.0
        ),
        breaker=CircuitBreaker(
            failure_threshold=3, cooldown=10.0, clock=client_clock
        ),
        stale_ttl=300.0,
        clock=client_clock,
        sleep=lambda _delay: None,
        rng=random.Random(seed),
        tracer=tracer,
    )
    outcomes: List[str] = []
    try:
        # 1. Faulted fetch: two resets, then success -> fresh view with
        #    reconnect/retry events inside the trace.
        snapshot = client.get_view()
        outcomes.append("stale" if snapshot.stale else "fresh")

        # 2-3. Full outage: transport failures trip the breaker (trace 2),
        #    then the open breaker rejects outright (trace 3); both serve
        #    the cached view stale.
        proxy.down = True
        for _ in range(2):
            try:
                snapshot = client.get_view()
                outcomes.append("stale" if snapshot.stale else "fresh")
            except PortalUnavailable:
                outcomes.append("unavailable")

        # 4. Recovery: proxy back, breaker cooldown elapsed -> the
        #    HALF_OPEN probe succeeds and the view is fresh again.
        proxy.down = False
        client_clock.advance(30.0)
        snapshot = client.get_view()
        outcomes.append("stale" if snapshot.stale else "fresh")
    finally:
        client.close()
        proxy.close()
        server.close()

    trees = assemble_traces(
        {
            "apptracker": client_telemetry.traces.snapshot(),
            "portal": server_telemetry.traces.snapshot(),
        }
    )
    document = export_document(export_traces(trees))
    document["outcomes"] = outcomes
    return document
