"""Scripted portal-outage scenario: the Sec. 5.3 degradation story, end to end.

Runs one swarm three ways over the same topology and seeds:

* **healthy** -- P4P selection with a live portal throughout;
* **degraded** -- P4P selection fed by a :class:`~repro.portal.resilience.
  ResilientPortalClient` talking through a :class:`~repro.portal.faults.
  FaultyPortal` proxy that goes dark for a scripted window of *simulation*
  time.  While the portal is down the integrator serves the stale view up
  to its TTL, then marks the AS unavailable so
  :class:`~repro.apptracker.selection.P4PSelection` degrades those
  sessions to native selection; when the window ends the breaker's
  HALF_OPEN probe recovers fresh guidance;
* **native** -- uniform random selection (the floor the paper says the
  system degrades *toward* when iTrackers vanish).

Determinism: the resilient client's clock is the simulation clock, its
backoff sleeps are no-ops (retries resolve within one tracker tick), and
all RNGs are seeded -- reruns are bit-identical, wall-clock free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apptracker.selection import (
    P4PSelection,
    PeerInfo,
    PeerSelector,
    RandomSelection,
)
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import PDistanceMap
from repro.network.library import abilene
from repro.observability import ResilienceCounters, Telemetry
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import Integrator
from repro.portal.faults import FaultyPortal
from repro.portal.resilience import (
    CircuitBreaker,
    ResilientPortalClient,
    RetryPolicy,
)
from repro.simulator.swarm import SwarmConfig, SwarmResult, SwarmSimulation
from repro.workloads.placement import place_peers


@dataclass(frozen=True)
class OutageWindow:
    """Half-open interval of simulation time during which the portal is dark."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("need 0 <= start < end")

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass
class OutageScenarioResult:
    """The three runs plus the degraded run's health record."""

    healthy: SwarmResult
    degraded: SwarmResult
    native: SwarmResult
    health_timeline: List[Tuple[float, str]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    native_fallbacks: int = 0
    #: The degraded run's sim-clock telemetry bundle (resilience gauges,
    #: stale-age histogram, ``p4p_sim_*`` sampling gauges).
    telemetry: Optional[Telemetry] = None

    @staticmethod
    def backbone_mbit(result: SwarmResult) -> float:
        """Total backbone traffic -- the localization proxy P4P minimizes."""
        return sum(result.link_traffic_mbit.values())

    def statuses(self) -> List[str]:
        """Distinct health states in timeline order (dedup of repeats)."""
        seen: List[str] = []
        for _, status in self.health_timeline:
            if not seen or seen[-1] != status:
                seen.append(status)
        return seen


def _default_config(**overrides) -> SwarmConfig:
    defaults = dict(
        file_mbit=16.0,
        block_mbit=2.0,
        neighbors=6,
        join_window=100.0,
        access_up_mbps=2.0,
        access_down_mbps=4.0,
        seed_up_mbps=10.0,
        completion_quantum=0.05,
        tracker_update_interval=5.0,
        reannounce_interval=10.0,
        rng_seed=5,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


def _run_one(
    topology: Topology,
    routing: RoutingTable,
    config: SwarmConfig,
    selector: PeerSelector,
    n_peers: int,
    placement_seed: int,
    until: float,
    tracker_hook=None,
) -> SwarmSimulation:
    peers = place_peers(topology, n_peers, random.Random(placement_seed), first_id=1)
    seed_pid = topology.aggregation_pids[0]
    seed = PeerInfo(
        peer_id=0, pid=seed_pid, as_number=topology.node(seed_pid).as_number
    )
    sim = SwarmSimulation(topology, routing, config, selector, peers, [seed])
    sim.tracker_hook = tracker_hook
    return sim


def run_portal_outage(
    topology: Optional[Topology] = None,
    n_peers: int = 12,
    outage: OutageWindow = OutageWindow(20.0, 90.0),
    stale_ttl: float = 20.0,
    breaker_cooldown: float = 15.0,
    until: float = 5000.0,
    placement_seed: int = 3,
    **config_overrides,
) -> OutageScenarioResult:
    """Run the scripted-outage experiment and return all three runs.

    The degraded swarm starts with fresh guidance, loses the portal at
    ``outage.start``, rides the stale view until ``stale_ttl`` expires,
    runs native until ``outage.end`` plus the breaker cooldown, and
    recovers fresh guidance for the remainder.
    """
    topo = topology or abilene()
    routing = RoutingTable.build(topo)
    config = _default_config(**config_overrides)
    as_number = topo.node(topo.aggregation_pids[0]).as_number

    def live_view() -> PDistanceMap:
        return ITracker(
            topology=topo, config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
        ).get_pdistances()

    # Reference runs: always-healthy P4P and pure native.
    healthy_selector = P4PSelection(pdistances={as_number: live_view()})
    healthy = _run_one(
        topo, routing, config, healthy_selector, n_peers, placement_seed, until
    ).run(until=until)
    native = _run_one(
        topo, routing, config, RandomSelection(), n_peers, placement_seed, until
    ).run(until=until)

    # The degraded run: real server, fault proxy, resilient client whose
    # clock is the simulation clock.
    itracker = ITracker(
        topology=topo, config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
    )
    timeline: List[Tuple[float, str]] = []
    views: Dict[int, PDistanceMap] = {}
    health: Dict[int, str] = {}
    selector = P4PSelection(pdistances=views, portal_health=health)
    sim = _run_one(
        topo, routing, config, selector, n_peers, placement_seed, until
    )
    engine = sim.engine
    # Sim-clock telemetry: histograms and gauges measure *simulated*
    # seconds, so the stale-age distribution is deterministic across runs.
    telemetry = Telemetry(clock=lambda: engine.now)
    sim.telemetry = telemetry
    counters = ResilienceCounters(telemetry.registry)
    stale_age_hist = telemetry.registry.histogram(
        "p4p_sim_stale_age_seconds",
        "Age of stale views served during the outage (simulated seconds).",
        buckets=(1.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0),
    )
    health_gauge = telemetry.registry.gauge(
        "p4p_sim_portal_health",
        "Portal health at the last refresh (0 ok, 1 stale, 2 unavailable).",
    )
    _HEALTH_LEVELS = {"ok": 0, "stale": 1, "unavailable": 2}

    with AsyncPortalServer(itracker) as server, FaultyPortal(server.address) as proxy:
        client = ResilientPortalClient(
            *proxy.address,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.0, max_delay=0.0, attempt_timeout=2.0
            ),
            breaker=CircuitBreaker(
                failure_threshold=3,
                cooldown=breaker_cooldown,
                clock=lambda: engine.now,
            ),
            stale_ttl=stale_ttl,
            clock=lambda: engine.now,
            sleep=lambda _delay: None,
            rng=random.Random(config.rng_seed),
            counters=counters,
        )
        integrator = Integrator(telemetry=telemetry)
        integrator.add(as_number, client)

        def refresh(now: float) -> None:
            proxy.down = outage.covers(now)
            fetched = integrator.views()
            views.clear()
            views.update(fetched)
            health.clear()
            health.update(integrator.status_map())
            status = health.get(as_number, "unavailable")
            timeline.append((now, status))
            health_gauge.set(_HEALTH_LEVELS.get(status, 2))
            record = integrator.health.get(as_number)
            if status == "stale" and record is not None and record.stale_age:
                stale_age_hist.observe(record.stale_age)

        refresh(0.0)
        sim.tracker_hook = lambda now, traffic, rates: refresh(now)
        degraded = sim.run(until=until)
        # The appTracker keeps polling after the swarm drains; if the run
        # ended before the breaker's recovery probe fired, record the
        # post-outage recovery so the timeline shows the full ladder.
        if timeline and timeline[-1][1] != "ok" and engine.now >= outage.end:
            engine.advance_to(engine.now + breaker_cooldown + 1.0)
            refresh(engine.now)
        integrator.close()

    counters.native_fallbacks = selector.native_fallbacks
    return OutageScenarioResult(
        healthy=healthy,
        degraded=degraded,
        native=native,
        health_timeline=timeline,
        counters=counters.snapshot(),
        native_fallbacks=selector.native_fallbacks,
        telemetry=telemetry,
    )
