"""Deterministic chaos harness: crash, restart, partition, corrupt -- and prove recovery.

A *chaos schedule* is a seeded sequence of server-side events driven off
simulation time --

* ``CRASH`` -- the primary portal process dies (server closed, proxy
  refuses); its :class:`~repro.core.statestore.StateStore` survives;
* ``RESTART`` -- a new iTracker restores from snapshot + WAL and resumes
  the projected super-gradient from its last iterate, with a strictly
  higher ``(epoch, version)``;
* ``RESTART_CLEAN`` -- the disk is lost too (store cleared): the restart
  forgets everything, exactly the amnesia the state store exists to
  prevent -- run it to watch the invariants trip;
* ``PARTITION_START`` / ``PARTITION_END`` -- the client-facing network
  path to the primary drops (via the :class:`~repro.portal.faults.
  FaultyPortal` proxy) while the portal itself stays up;
* ``CORRUPT_WAL`` -- garbage appended to the WAL tail (a torn write),
  which recovery must truncate, not trip over.

Throughout, a :class:`~repro.portal.replication.StandbyReplica` tails the
primary's WAL and a :class:`~repro.portal.replication.
FailoverPortalClient` serves the swarm's guidance from whichever replica
answers, so the scenario exercises the full survivability story: WAL
durability, epoch-monotone versions, health-ranked failover, bounded
staleness, and MLU re-convergence after recovery.

**Invariants** are checked after every tracker tick and every event:

* *version monotonicity* -- the ``(epoch, version)`` pair observed by the
  selection plane never decreases (a clean restart violates this; a
  store-backed restart cannot);
* *bounded staleness* -- stale views are never older than the TTL, and a
  standby's advertised staleness never exceeds the sync interval plus the
  current outage length;
* *no price reset* -- the price vector after a ``RESTART`` equals the
  last persisted pre-crash iterate;
* *re-convergence* -- the faulted run's mean active MLU lands within
  ``epsilon`` of a fault-free twin run (same seeds, no events).

Determinism: every clock is the simulation clock, every RNG is seeded,
and backoff sleeps are no-ops -- two runs with the same seed produce
identical event timelines, observations, and violations.
"""

from __future__ import annotations

import contextlib
import enum
import math
import random
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apptracker.selection import P4PSelection, PeerInfo, PeerSelector
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import effective_capacity
from repro.core.pdistance import PDistanceMap
from repro.core.statestore import StateStore
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.observability import (
    ResilienceCounters,
    Telemetry,
    Tracer,
    assemble_traces,
    export_traces,
)
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import Integrator
from repro.portal.faults import FaultSchedule, FaultyPortal
from repro.portal.replication import FailoverPortalClient, StandbyReplica
from repro.portal.resilience import CircuitBreaker, RetryPolicy
from repro.simulator.swarm import SwarmConfig, SwarmResult, SwarmSimulation
from repro.workloads.placement import place_peers


class ChaosEventKind(enum.Enum):
    """What happens to the primary portal at one scheduled instant."""

    CRASH = "crash"
    RESTART = "restart"
    RESTART_CLEAN = "restart-clean"
    PARTITION_START = "partition-start"
    PARTITION_END = "partition-end"
    CORRUPT_WAL = "corrupt-wal"


@dataclass(frozen=True)
class ChaosEvent:
    time: float
    kind: ChaosEventKind

    def __post_init__(self) -> None:
        if not isinstance(self.time, (int, float)) or not math.isfinite(self.time):
            raise ValueError(f"event time must be a finite number, got {self.time!r}")
        if self.time < 0:
            raise ValueError("event time must be >= 0")

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe document; round-trips through :meth:`from_json`."""
        return {"time": float(self.time), "kind": self.kind.value}

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "ChaosEvent":
        """Parse and validate one event; raises ``ValueError`` on garbage.

        Minimized failing fuzz seeds are checked in as JSON fixtures, so
        a hand-edited or corrupted fixture must fail loudly here rather
        than as a mid-scenario surprise.
        """
        if not isinstance(document, dict):
            raise ValueError(f"chaos event must be an object, got {document!r}")
        unknown = set(document) - {"time", "kind"}
        if unknown:
            raise ValueError(f"chaos event has unknown keys {sorted(unknown)}")
        try:
            kind = ChaosEventKind(document["kind"])
        except KeyError:
            raise ValueError("chaos event missing 'kind'") from None
        except ValueError:
            valid = ", ".join(k.value for k in ChaosEventKind)
            raise ValueError(
                f"unknown chaos event kind {document.get('kind')!r}; one of: {valid}"
            ) from None
        if "time" not in document:
            raise ValueError("chaos event missing 'time'")
        time_value = document["time"]
        if isinstance(time_value, bool) or not isinstance(time_value, (int, float)):
            raise ValueError(f"chaos event time must be a number, got {time_value!r}")
        return cls(time=float(time_value), kind=kind)


class ChaosSchedule:
    """A time-ordered event list; :meth:`seeded` generates a plausible one."""

    def __init__(self, events: Sequence[ChaosEvent]) -> None:
        self.events: List[ChaosEvent] = sorted(events, key=lambda e: e.time)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChaosSchedule):
            return NotImplemented
        return self.events == other.events

    @property
    def amnesiac(self) -> bool:
        """True when the schedule restarts a primary without its state."""
        return any(e.kind is ChaosEventKind.RESTART_CLEAN for e in self.events)

    def to_json(self) -> List[Dict[str, Any]]:
        return [event.to_json() for event in self.events]

    @classmethod
    def from_json(cls, document: Any) -> "ChaosSchedule":
        if not isinstance(document, list):
            raise ValueError(f"chaos schedule must be a list, got {document!r}")
        if len(document) > 256:
            raise ValueError("chaos schedule too long (max 256 events)")
        return cls([ChaosEvent.from_json(entry) for entry in document])

    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon: float = 100.0,
        with_state: bool = True,
        corrupt_wal: bool = True,
    ) -> "ChaosSchedule":
        """One crash/restart cycle, one partition window, optionally one
        torn WAL write -- placed deterministically inside ``horizon``.

        The crash lands in the first third (mid-convergence), the restart
        one breaker-cooldown later, and the partition in the middle third,
        so every event hits while transfers are still active.
        """
        rng = random.Random(seed)
        crash_at = rng.uniform(0.15, 0.30) * horizon
        restart_at = crash_at + rng.uniform(0.10, 0.15) * horizon
        part_start = rng.uniform(0.55, 0.65) * horizon
        part_end = part_start + rng.uniform(0.08, 0.15) * horizon
        events = [
            ChaosEvent(crash_at, ChaosEventKind.CRASH),
            ChaosEvent(
                restart_at,
                ChaosEventKind.RESTART if with_state else ChaosEventKind.RESTART_CLEAN,
            ),
            ChaosEvent(part_start, ChaosEventKind.PARTITION_START),
            ChaosEvent(part_end, ChaosEventKind.PARTITION_END),
        ]
        if corrupt_wal:
            # Tear the WAL shortly before the crash: recovery must truncate it.
            events.append(
                ChaosEvent(crash_at * rng.uniform(0.5, 0.9), ChaosEventKind.CORRUPT_WAL)
            )
        return cls(events)


@dataclass(frozen=True)
class InvariantViolation:
    time: float
    invariant: str
    detail: str


@dataclass(frozen=True)
class ChaosObservation:
    """One tracker-tick's view of the guidance plane, as the swarm saw it."""

    time: float
    status: str  # ok | stale | unavailable
    epoch: Optional[int]
    version: Optional[int]
    stale: bool
    stale_age: float
    origin_staleness: Optional[float]
    mlu: float
    active_endpoint: Optional[int]
    #: The primary's own identity (None while crashed) -- distinct from the
    #: served identity above: a standby's regression guard can keep readers
    #: monotone even when the primary itself restarted amnesiac.
    primary_epoch: Optional[int] = None
    primary_version: Optional[int] = None


@dataclass
class ChaosResult:
    baseline: SwarmResult
    chaotic: SwarmResult
    events: List[ChaosEvent]
    observations: List[ChaosObservation]
    baseline_mlu: List[Tuple[float, float]]
    violations: List[InvariantViolation] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    selector_exceptions: int = 0
    native_fallbacks: int = 0
    #: max |restored - pre-crash| over link prices at the last RESTART
    #: (None when the schedule has no restart-with-state).
    restored_price_gap: Optional[float] = None
    telemetry: Optional[Telemetry] = None
    #: Causal trace trees of the first invariant-violating ticks (at most
    #: three): the ``chaos.tick`` root with the failover/replica/portal
    #: spans underneath -- what fuzz fixtures attach as the failure's
    #: self-contained causal explanation.  Empty when no invariant tripped
    #: (head sampling is off in the chaos harness; only error traces
    #: survive export).
    violation_traces: List[Dict[str, Any]] = field(default_factory=list)

    def statuses(self) -> List[str]:
        """Distinct health states in observation order (dedup of repeats)."""
        seen: List[str] = []
        for obs in self.observations:
            if not seen or seen[-1] != obs.status:
                seen.append(obs.status)
        return seen

    @staticmethod
    def _mean_active(trace: Sequence[Tuple[float, float]]) -> float:
        active = [value for _, value in trace if value > 0]
        return sum(active) / len(active) if active else 0.0

    def mean_active_mlu(self, which: str = "chaotic") -> float:
        """Mean MLU over ticks with live P4P traffic (the convergence
        figure of merit; both swarms drain to MLU 0 eventually, so the
        all-time mean would compare mostly idle air)."""
        if which == "baseline":
            return self._mean_active(self.baseline_mlu)
        return self._mean_active([(obs.time, obs.mlu) for obs in self.observations])

    def reconverged(self, epsilon: float = 0.15) -> bool:
        """Did the faulted run's mean active MLU land within ``epsilon``
        (relative) of the fault-free twin, with everyone finishing?"""
        base = self.mean_active_mlu("baseline")
        chaotic = self.mean_active_mlu("chaotic")
        if len(self.chaotic.completion_times) < len(self.baseline.completion_times):
            return False
        if base <= 0:
            return chaotic <= epsilon
        return abs(chaotic - base) <= epsilon * base


class _Cluster:
    """The server side of the scenario: primary + store + proxy + standby."""

    def __init__(
        self,
        topology: Topology,
        itracker_config: ITrackerConfig,
        store: StateStore,
        telemetry: Telemetry,
        fault_schedule: Optional[FaultSchedule] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.topology = topology
        self.itracker_config = itracker_config
        self.store = store
        self.telemetry = telemetry
        self.fault_schedule = fault_schedule
        self.tracer = tracer
        self.tracker: Optional[ITracker] = None
        self.server: Optional[AsyncPortalServer] = None
        self.proxy: Optional[FaultyPortal] = None
        self.standby: Optional[StandbyReplica] = None
        self.standby_server: Optional[AsyncPortalServer] = None
        self.last_primary_prices: Optional[Dict[Tuple[str, str], float]] = None

    def start(self, clock) -> None:
        self.tracker = ITracker(
            topology=self.topology,
            config=self.itracker_config,
            state_store=self.store,
        )
        self.server = AsyncPortalServer(self.tracker, telemetry=self.telemetry)
        self.proxy = FaultyPortal(self.server.address, schedule=self.fault_schedule)
        follower = ITracker(topology=self.topology, config=self.itracker_config)
        self.standby = StandbyReplica(
            follower, self.server.address, clock=clock, telemetry=self.telemetry,
            tracer=self.tracer,
        )
        self.standby_server = self.standby.serve(telemetry=self.telemetry)

    @property
    def alive(self) -> bool:
        return self.tracker is not None

    def crash(self) -> None:
        if self.server is not None:
            self.server.close()
        self.tracker = None
        self.server = None
        assert self.proxy is not None
        self.proxy.down = True

    def restart(self, keep_state: bool) -> Optional[float]:
        """Bring the primary back; returns the restored-price gap (max
        abs difference vs the last pre-crash vector) for a stateful
        restart, None for a clean one."""
        if not keep_state:
            self.store.clear()
        tracker = ITracker(
            topology=self.topology,
            config=self.itracker_config,
            state_store=self.store,
        )
        gap: Optional[float] = None
        if keep_state and tracker.restore() and self.last_primary_prices is not None:
            restored = tracker.link_prices
            gap = max(
                abs(restored.get(key, 0.0) - value)
                for key, value in self.last_primary_prices.items()
            )
        self.tracker = tracker
        self.server = AsyncPortalServer(tracker, telemetry=self.telemetry)
        assert self.proxy is not None and self.standby is not None
        self.proxy.upstream = self.server.address
        self.proxy.down = False
        self.standby.primary = self.server.address
        self.standby.close()  # drop the dead connection; next sync redials
        return gap

    def corrupt_wal(self) -> None:
        with open(self.store.wal_path, "ab") as handle:
            handle.write(b'{"record": {"version": 10')  # torn mid-write

    def close(self) -> None:
        for closable in (
            self.standby,
            self.standby_server,
            self.server,
            self.proxy,
        ):
            if closable is not None:
                closable.close()


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
) -> SwarmSimulation:
    peers = place_peers(topology, n_peers, random.Random(placement_seed), first_id=1)
    seed_pid = topology.aggregation_pids[0]
    seed = PeerInfo(
        peer_id=0, pid=seed_pid, as_number=topology.node(seed_pid).as_number
    )
    return SwarmSimulation(topology, routing, config, selector, peers, [seed])


def run_chaos(
    topology: Optional[Topology] = None,
    n_peers: int = 12,
    schedule: Optional[ChaosSchedule] = None,
    seed: int = 11,
    with_state: bool = True,
    stale_ttl: float = 30.0,
    breaker_cooldown: float = 10.0,
    tracker_interval: float = 5.0,
    until: float = 5000.0,
    placement_seed: int = 3,
    state_dir: Optional[str] = None,
    fault_schedule_factory: Optional[Callable[[], FaultSchedule]] = None,
    **config_overrides: Any,
) -> ChaosResult:
    """Run the chaos scenario plus its fault-free twin and report.

    The twin (baseline) run uses identical seeds, the same dynamic
    iTracker feedback loop, and the same portal machinery -- just an
    empty schedule -- so the MLU comparison isolates the *faults*, not
    the plumbing.  ``state_dir`` defaults to a temporary directory that
    is removed on return.

    ``fault_schedule_factory`` builds a per-request
    :class:`~repro.portal.faults.FaultSchedule` for the chaotic run's
    proxy (e.g. a byzantine default that mutates every served
    p-distance view); the baseline twin always runs fault-free.
    """
    topo = topology or abilene()
    routing = RoutingTable.build(topo)
    config = _default_config(
        tracker_update_interval=tracker_interval, **config_overrides
    )
    itracker_config = ITrackerConfig(
        mode=PriceMode.DYNAMIC, update_period=tracker_interval
    )
    plan = schedule if schedule is not None else ChaosSchedule.seeded(
        seed, with_state=with_state
    )
    as_number = topo.node(topo.aggregation_pids[0]).as_number
    capacities = {
        key: effective_capacity(link) for key, link in topo.links.items()
    }

    def mlu_of(rates: Dict[Tuple[str, str], float]) -> float:
        return max(
            (rates.get(key, 0.0) / cap for key, cap in capacities.items() if cap > 0),
            default=0.0,
        )

    def run_once(
        events: List[ChaosEvent],
        directory: str,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> Tuple[SwarmResult, List[ChaosObservation], List[InvariantViolation], Dict[str, Any]]:
        pending = sorted(events, key=lambda e: e.time)
        store = StateStore(directory)
        views: Dict[int, PDistanceMap] = {}
        health: Dict[int, str] = {}
        selector = P4PSelection(pdistances=views, portal_health=health)
        sim = _run_one(topo, routing, config, selector, n_peers, placement_seed)
        engine = sim.engine
        clock = lambda: engine.now
        # One big ring for the whole cluster (client + replicas + servers
        # share the bundle): a long chaotic run must not evict the early
        # ticks where the violations usually happen.
        telemetry = Telemetry(
            clock=clock, trace_capacity=16384, trace_namespace="chaos"
        )
        sim.telemetry = telemetry
        counters = ResilienceCounters(telemetry.registry)
        # Head sampling off: only ticks that trip an invariant (tagged
        # ``error`` below) survive the export policy, so the attached
        # failure traces stay small no matter how long the run is.
        tracer = Tracer(telemetry.traces, sample_rate=0.0)
        cluster = _Cluster(
            topo, itracker_config, store, telemetry, fault_schedule=fault_schedule,
            tracer=tracer,
        )
        cluster.start(clock)
        observations: List[ChaosObservation] = []
        violations: List[InvariantViolation] = []
        extras: Dict[str, Any] = {
            "selector_exceptions": 0,
            "restored_price_gap": None,
            "telemetry": telemetry,
            "counters": counters,
            "selector": selector,
        }
        last_identity: Optional[Tuple[int, int]] = None
        last_primary_identity: Optional[Tuple[int, int]] = None
        checkpoint_every = 4
        ticks = 0

        assert cluster.proxy is not None and cluster.standby_server is not None
        client = FailoverPortalClient(
            [cluster.proxy.address, cluster.standby_server.address],
            telemetry=telemetry,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.0, max_delay=0.0, attempt_timeout=2.0
            ),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=3, cooldown=breaker_cooldown, clock=clock
            ),
            stale_ttl=stale_ttl,
            clock=clock,
            sleep=lambda _delay: None,
            rng=random.Random(config.rng_seed),
            counters=counters,
            tracer=tracer,
        )
        integrator = Integrator(telemetry=telemetry)
        integrator.add(as_number, client)

        # The integrator keeps only view + status; the invariants also need
        # the served snapshot's (epoch, version, staleness) provenance, so
        # record what get_view actually returned each tick.
        served: List[Optional[Any]] = [None]
        inner_get_view = client.get_view

        def recording_get_view(pids=None):
            snapshot = inner_get_view(pids=pids)
            served[0] = snapshot
            return snapshot

        client.get_view = recording_get_view  # type: ignore[method-assign]

        def apply_events(now: float) -> None:
            while pending and pending[0].time <= now:
                event = pending.pop(0)
                if event.kind is ChaosEventKind.CRASH:
                    cluster.crash()
                elif event.kind is ChaosEventKind.RESTART:
                    gap = cluster.restart(keep_state=True)
                    extras["restored_price_gap"] = gap
                    if gap is not None and gap > 1e-9:
                        violations.append(
                            InvariantViolation(
                                now, "price-reset",
                                f"restored prices deviate by {gap:.3g} from the "
                                "last persisted iterate",
                            )
                        )
                elif event.kind is ChaosEventKind.RESTART_CLEAN:
                    cluster.restart(keep_state=False)
                elif event.kind is ChaosEventKind.PARTITION_START:
                    assert cluster.proxy is not None
                    cluster.proxy.down = True
                elif event.kind is ChaosEventKind.PARTITION_END:
                    assert cluster.proxy is not None
                    if cluster.alive:
                        cluster.proxy.down = False
                elif event.kind is ChaosEventKind.CORRUPT_WAL:
                    cluster.corrupt_wal()

        def refresh(now: float, rates: Dict[Tuple[str, str], float]) -> None:
            # Each tick roots one distributed trace: every replica sync,
            # failover fetch, retry, and portal dispatch underneath ends up
            # in the same causal tree.  A tick that trips an invariant is
            # error-tagged so the export policy keeps (only) those trees.
            before = len(violations)
            with tracer.trace("chaos.tick", tick_time=now) as span:
                _refresh_inner(now, rates)
            if len(violations) > before:
                kinds = sorted({v.invariant for v in violations[before:]})
                span.set(error="invariant-violation", invariants=",".join(kinds))

        def _refresh_inner(now: float, rates: Dict[Tuple[str, str], float]) -> None:
            nonlocal last_identity, last_primary_identity, ticks
            apply_events(now)
            primary_identity: Optional[Tuple[int, int]] = None
            if cluster.alive:
                assert cluster.tracker is not None
                cluster.tracker.observe_loads(rates, now=now)
                cluster.last_primary_prices = dict(cluster.tracker.link_prices)
                primary_identity = (cluster.tracker.epoch, cluster.tracker.version)
                ticks += 1
                if ticks % checkpoint_every == 0:
                    cluster.tracker.checkpoint()
            assert cluster.standby is not None
            cluster.standby.sync()
            served[0] = None
            try:
                fetched = integrator.views()
            except Exception as exc:  # the selection plane must never see this
                extras["selector_exceptions"] += 1
                violations.append(
                    InvariantViolation(now, "selector-exception", repr(exc))
                )
                fetched = {}
            views.clear()
            views.update(fetched)
            health.clear()
            health.update(integrator.status_map())
            status = health.get(as_number, "unavailable")
            snapshot = served[0]
            stale = bool(snapshot.stale) if snapshot is not None else False
            stale_age = snapshot.age if snapshot is not None and snapshot.stale else 0.0
            epoch = version = None
            origin_staleness = None
            if snapshot is not None:
                epoch, version = snapshot.epoch, snapshot.version
                origin_staleness = snapshot.origin_staleness
            observations.append(
                ChaosObservation(
                    time=now,
                    status=status,
                    epoch=epoch,
                    version=version,
                    stale=stale,
                    stale_age=stale_age,
                    origin_staleness=origin_staleness,
                    mlu=mlu_of(rates),
                    active_endpoint=(
                        None if status == "unavailable"
                        else list(client.endpoints).index(client.active_endpoint)
                    ),
                    primary_epoch=(
                        primary_identity[0] if primary_identity is not None else None
                    ),
                    primary_version=(
                        primary_identity[1] if primary_identity is not None else None
                    ),
                )
            )
            # Invariant: the primary's own (epoch, version) never regresses
            # across restarts.  A store-backed restart bumps both; a clean
            # one resets to (0, ...) -- the amnesia the state store exists
            # to prevent, recorded here even when the standby's regression
            # guard keeps *readers* monotone.
            if primary_identity is not None:
                if (
                    last_primary_identity is not None
                    and primary_identity < last_primary_identity
                ):
                    violations.append(
                        InvariantViolation(
                            now, "primary-version-regression",
                            f"primary restarted at {primary_identity} after "
                            f"{last_primary_identity} (amnesiac restart)",
                        )
                    )
                last_primary_identity = primary_identity
            # Invariant: stale views stay within the TTL.
            if stale and stale_age > stale_ttl + 1e-9:
                violations.append(
                    InvariantViolation(
                        now, "stale-age",
                        f"served a view {stale_age:.1f}s old (ttl {stale_ttl:g}s)",
                    )
                )
            # Invariant: (epoch, version) never regresses for fresh serves.
            if status == "ok" and epoch is not None and version is not None:
                identity = (epoch, version)
                if last_identity is not None and identity < last_identity:
                    violations.append(
                        InvariantViolation(
                            now, "version-regression",
                            f"observed {identity} after {last_identity} "
                            "(amnesiac restart)",
                        )
                    )
                last_identity = identity

        try:
            refresh(0.0, {})
            sim.tracker_hook = lambda now, traffic, rates: refresh(now, rates)
            result = sim.run(until=until)
        finally:
            integrator.close()
            client.close()
            cluster.close()
        extras["native_fallbacks"] = selector.native_fallbacks
        return result, observations, violations, extras

    directory = (
        contextlib.nullcontext(state_dir)
        if state_dir
        else tempfile.TemporaryDirectory(prefix="p4p-chaos-")
    )
    with directory as baseline_dir:
        base_result, base_obs, base_violations, _base_extras = run_once(
            [], baseline_dir + "/baseline"
        )
        chaos_result, chaos_obs, chaos_violations, extras = run_once(
            list(plan),
            baseline_dir + "/chaotic",
            fault_schedule=(
                fault_schedule_factory() if fault_schedule_factory is not None else None
            ),
        )
    counters: ResilienceCounters = extras["counters"]
    counters.native_fallbacks = extras["native_fallbacks"]
    chaos_telemetry: Telemetry = extras["telemetry"]
    # Transport errors during crash/partition windows are *expected* and
    # also survive the always-sample-on-error export; a violation trace is
    # specifically a tick whose root was tagged by the invariant checks.
    violation_traces = [
        tree
        for tree in export_traces(
            assemble_traces({"chaos": chaos_telemetry.traces.snapshot()})
        )
        if tree["attributes"].get("error") == "invariant-violation"
    ][:3]
    return ChaosResult(
        baseline=base_result,
        chaotic=chaos_result,
        events=list(plan),
        observations=chaos_obs,
        baseline_mlu=[(obs.time, obs.mlu) for obs in base_obs],
        violations=chaos_violations,
        counters=counters.snapshot(),
        selector_exceptions=extras["selector_exceptions"],
        native_fallbacks=extras["native_fallbacks"],
        restored_price_gap=extras["restored_price_gap"],
        telemetry=extras["telemetry"],
        violation_traces=violation_traces,
    )


def format_chaos(result: ChaosResult, epsilon: float = 0.15) -> str:
    """Human-readable scenario report for the ``p4p-repro chaos`` CLI."""
    lines: List[str] = []
    lines.append("chaos schedule:")
    for event in result.events:
        lines.append(f"  t={event.time:8.1f}s  {event.kind.value}")
    lines.append(
        f"completions: baseline {len(result.baseline.completion_times)}, "
        f"chaotic {len(result.chaotic.completion_times)}"
    )
    lines.append(
        f"mean active MLU: baseline {result.mean_active_mlu('baseline'):.4f}, "
        f"chaotic {result.mean_active_mlu('chaotic'):.4f} "
        f"(reconverged within eps={epsilon:g}: {result.reconverged(epsilon)})"
    )
    if result.restored_price_gap is not None:
        lines.append(
            f"restored price gap vs pre-crash iterate: {result.restored_price_gap:.3g}"
        )
    lines.append(f"health ladder: {' -> '.join(result.statuses())}")
    lines.append(
        "counters: "
        + ", ".join(f"{key}={value}" for key, value in sorted(result.counters.items()))
    )
    if result.violations:
        lines.append(f"INVARIANT VIOLATIONS ({len(result.violations)}):")
        for violation in result.violations:
            lines.append(
                f"  t={violation.time:8.1f}s  {violation.invariant}: {violation.detail}"
            )
    else:
        lines.append("invariants: all held (version monotone, staleness bounded, "
                     "no price reset)")
    return "\n".join(lines)
