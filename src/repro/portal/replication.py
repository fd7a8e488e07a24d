"""Primary/standby replication for iTracker portals.

The paper's guidance plane assumes an always-on iTracker per ISP; PR 1's
client-side resilience (retry, breakers, stale views) degrades gracefully
when the portal misbehaves, but has nothing durable to fail over *to*.
This module supplies the server side of that story:

* :class:`StandbyReplica` -- a follower :class:`~repro.core.itracker.
  ITracker` that tails the primary's WAL over the existing portal
  protocol (the ``get_state_delta`` method), applies each price-state
  record, and serves reads through its own
  :class:`~repro.portal.aserver.AsyncPortalServer` with an explicit
  ``staleness`` field (seconds since the last successful sync) in every
  ``get_version`` answer;
* :class:`FailoverPortalClient` -- the client half: one
  :class:`~repro.portal.resilience.ResilientPortalClient` per endpoint
  (each with its own breaker), tried in *health-ranked* order -- closed
  breakers before half-open before open, fewer consecutive failures
  first, declaration order (primary first) as the tiebreak.  A fresh
  fetch is attempted against every endpoint before anyone's stale view
  is served, so a partitioned primary fails over to a live standby
  instead of riding the primary's stale cache.

Telemetry (``p4p_replica_*``): standby sync counts and staleness gauge,
failover switches, the active endpoint index, and stale-vs-fresh serve
outcomes.

Everything runs on injectable clocks, so the chaos harness
(:mod:`repro.simulator.chaos`) drives replication on simulation time.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.itracker import ITracker
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import PortalClient, PortalClientError
from repro.portal.resilience import (
    BreakerState,
    Clock,
    PortalUnavailable,
    ResilientPortalClient,
    ViewSnapshot,
)

logger = logging.getLogger(__name__)

Endpoint = Tuple[str, int]

#: Breaker-state sort keys: a closed breaker is the healthiest endpoint,
#: an open one the least (it would reject the call outright).
_BREAKER_RANK = {
    BreakerState.CLOSED.value: 0,
    BreakerState.HALF_OPEN.value: 1,
    BreakerState.OPEN.value: 2,
}


class StandbyReplica:
    """A follower iTracker that tails one primary's price-state WAL.

    The follower must be built over the same topology as the primary
    (PID maps and link sets are provisioning data, not replicated
    state).  :meth:`sync` pulls ``get_state_delta(since=last_applied)``
    from the primary and applies it; :meth:`serve` fronts the follower
    with a portal server whose ``get_version`` answers carry the
    replica's current staleness, so readers know how far behind the
    guidance they are consuming might be.
    """

    def __init__(
        self,
        follower: ITracker,
        primary: Endpoint,
        *,
        clock: Clock = time.monotonic,
        timeout: float = 5.0,
        telemetry: Optional[Any] = None,
        client_factory: Callable[..., PortalClient] = PortalClient,
        tracer: Optional[Any] = None,
    ) -> None:
        self.follower = follower
        self.primary = primary
        self._clock = clock
        self._timeout = timeout
        self.tracer = tracer
        self._client_factory = client_factory
        self._client: Optional[PortalClient] = None
        self.last_applied_version = -1
        self.last_sync_at: Optional[float] = None
        self.sync_failures = 0
        self._telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._syncs = registry.counter(
                "p4p_replica_syncs_total",
                "Standby WAL-tail sync attempts, by outcome.",
                ("outcome",),
            )
            self._staleness_gauge = registry.gauge(
                "p4p_replica_staleness_seconds",
                "Seconds since the standby last synced with its primary.",
            )
            self._applied_version = registry.gauge(
                "p4p_replica_applied_version",
                "Last primary price-state version applied by the standby.",
            )

    # -- syncing ------------------------------------------------------------

    def _ensure_client(self) -> PortalClient:
        if self._client is None:
            self._client = self._client_factory(
                *self.primary, timeout=self._timeout
            )
            if self.tracer is not None:
                self._client.tracer = self.tracer
        return self._client

    def sync(self) -> bool:
        """Pull and apply one delta from the primary.

        Returns True when the follower advanced.  Failures (primary down,
        partitioned, mid-restart) are counted and swallowed -- a standby
        keeps serving its last state while it cannot sync; staleness is
        the reader-visible signal.
        """
        if self.tracer is None:
            return self._sync_inner()
        with self.tracer.trace("replica.sync", primary=f"{self.primary[0]}:{self.primary[1]}"):
            return self._sync_inner()

    def _sync_inner(self) -> bool:
        try:
            client = self._ensure_client()
            delta = client.get_state_delta(since=self.last_applied_version)
        except (PortalClientError, OSError) as exc:
            # OSError covers the raw connect refusal from PortalClient's
            # constructor (a dead primary), before any wrapping applies.
            self.sync_failures += 1
            self._count_sync("failure")
            self._drop_client()
            logger.debug("standby sync with %s failed: %s", self.primary, exc)
            return False
        advanced = self.follower.apply_state_delta(delta)
        self.last_applied_version = int(delta.get("version", self.last_applied_version))
        self.last_sync_at = self._clock()
        self._count_sync("applied" if advanced else "noop")
        if self._telemetry is not None:
            self._staleness_gauge.set(0.0)
            self._applied_version.set(self.last_applied_version)
        return advanced

    def _drop_client(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _count_sync(self, outcome: str) -> None:
        if self._telemetry is not None:
            self._syncs.labels(outcome=outcome).inc()

    def staleness(self) -> Optional[float]:
        """Seconds since the last successful sync (None before the first)."""
        if self.last_sync_at is None:
            return None
        age = max(0.0, self._clock() - self.last_sync_at)
        if self._telemetry is not None:
            self._staleness_gauge.set(age)
        return age

    # -- serving ------------------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0, **kwargs: Any) -> AsyncPortalServer:
        """Front the follower with a portal server that reports staleness."""
        return AsyncPortalServer(
            self.follower, host=host, port=port,
            staleness_provider=self.staleness, **kwargs,
        )

    def close(self) -> None:
        self._drop_client()


class FailoverPortalClient:
    """Health-ranked failover across a primary and its standby replicas.

    Drop-in for the ``get_view`` interface the
    :class:`~repro.portal.client.Integrator` consumes: feed it every
    endpoint serving one AS (primary first) and it behaves like a single
    very-hard-to-kill portal.  Each endpoint keeps its own
    :class:`~repro.portal.resilience.ResilientPortalClient` -- own
    breaker, own stale cache -- and every fetch walks the endpoints in
    health order attempting a *fresh* view before any stale view is
    considered, so one dead replica costs a connect attempt, not
    guidance freshness.
    """

    def __init__(
        self,
        endpoints: Sequence[Endpoint],
        *,
        telemetry: Optional[Any] = None,
        client_factory: Callable[..., ResilientPortalClient] = ResilientPortalClient,
        breaker_factory: Optional[Callable[[], Any]] = None,
        tracer: Optional[Any] = None,
        **client_kwargs: Any,
    ) -> None:
        """``client_kwargs`` are forwarded to every per-endpoint client.

        Health ranking needs an *independent* breaker per endpoint, so a
        shared ``breaker=`` instance in ``client_kwargs`` is rejected --
        pass ``breaker_factory`` (called once per endpoint) instead.
        """
        if not endpoints:
            raise ValueError("need at least one endpoint")
        if "breaker" in client_kwargs:
            raise ValueError(
                "a shared breaker would conflate endpoint health; "
                "pass breaker_factory instead"
            )
        self.endpoints: Tuple[Endpoint, ...] = tuple(endpoints)
        self.tracer = tracer
        if tracer is not None:
            # Per-endpoint clients share the failover's tracer, so their
            # retries/RPCs nest under the failover.get_view span.
            client_kwargs = {**client_kwargs, "tracer": tracer}
        self.clients: List[ResilientPortalClient] = [
            client_factory(
                host,
                port,
                **(
                    {**client_kwargs, "breaker": breaker_factory()}
                    if breaker_factory is not None
                    else client_kwargs
                ),
            )
            for host, port in self.endpoints
        ]
        self._active = 0
        self._telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._failovers = registry.counter(
                "p4p_replica_failovers_total",
                "Serving endpoint switches, by endpoint switched to.",
                ("endpoint",),
            )
            self._active_gauge = registry.gauge(
                "p4p_replica_active_endpoint",
                "Index of the endpoint that served the last view.",
            )
            self._serves = registry.counter(
                "p4p_replica_serves_total",
                "Views served across all replicas, by freshness outcome.",
                ("outcome",),
            )

    # -- health ranking -----------------------------------------------------

    def ranked(self) -> List[int]:
        """Endpoint indexes, healthiest first.

        Sort key: breaker state (closed < half-open < open), then
        consecutive failures, then declaration order -- so the primary is
        preferred whenever it is as healthy as any standby, and an open
        breaker (which would reject the call anyway) goes last rather
        than being skipped outright: if *everything* is open, the ladder
        still probes whoever cools down first.
        """
        def key(index: int) -> Tuple[int, int, int]:
            client = self.clients[index]
            return (
                _BREAKER_RANK.get(client.breaker_state, 2),
                client.breaker.consecutive_failures,
                index,
            )

        return sorted(range(len(self.clients)), key=key)

    @property
    def active_endpoint(self) -> Endpoint:
        """The endpoint that served (or will serve) the current view."""
        return self.endpoints[self._active]

    @property
    def breaker_state(self) -> str:
        """The active endpoint's breaker (what ``Integrator`` displays)."""
        return self.clients[self._active].breaker_state

    @property
    def last_good(self) -> Optional[ViewSnapshot]:
        return self.clients[self._active].last_good

    def _mark_active(self, index: int) -> None:
        if index != self._active:
            logger.info(
                "replica failover: endpoint %s -> %s",
                self.endpoints[self._active],
                self.endpoints[index],
            )
            if self.tracer is not None:
                self.tracer.event(
                    "failover",
                    endpoint=f"{self.endpoints[index][0]}:{self.endpoints[index][1]}",
                )
            if self._telemetry is not None:
                self._failovers.labels(
                    endpoint=f"{self.endpoints[index][0]}:{self.endpoints[index][1]}"
                ).inc()
        self._active = index
        if self._telemetry is not None:
            self._active_gauge.set(index)

    # -- the failover fetch --------------------------------------------------

    def get_view(self, pids: Optional[Sequence[str]] = None) -> ViewSnapshot:
        """The freshest view any replica can serve.

        Phase 1 walks every endpoint in health order attempting a fresh
        fetch; phase 2 (all fresh fetches failed) serves the *youngest*
        in-TTL stale view held by any endpoint; only when both phases
        come up empty does :class:`PortalUnavailable` propagate.
        """
        if self.tracer is None:
            return self._get_view_inner(pids)
        with self.tracer.trace("failover.get_view"):
            return self._get_view_inner(pids)

    def _get_view_inner(
        self, pids: Optional[Sequence[str]] = None
    ) -> ViewSnapshot:
        last_error: Optional[PortalClientError] = None
        for index in self.ranked():
            try:
                snapshot = self.clients[index].fetch_fresh()
            except PortalClientError as exc:
                last_error = exc
                continue
            self._mark_active(index)
            self._count_serve("fresh")
            return self._restrict(snapshot, pids)
        best: Optional[Tuple[float, int, ViewSnapshot]] = None
        for index, client in enumerate(self.clients):
            snapshot = client.stale_snapshot()
            if snapshot is not None and (best is None or snapshot.age < best[0]):
                best = (snapshot.age, index, snapshot)
        if best is not None:
            _, index, snapshot = best
            self._mark_active(index)
            self._count_serve("stale")
            return self._restrict(snapshot, pids)
        self._count_serve("unavailable")
        raise PortalUnavailable(
            f"all {len(self.clients)} replica endpoint(s) unavailable and no "
            f"stale view remains: {last_error}"
        ) from last_error

    def get_pdistances(self, pids: Optional[Sequence[str]] = None):
        """Drop-in ``get_pdistances``, replica failover included."""
        return self.get_view(pids=pids).view

    @staticmethod
    def _restrict(
        snapshot: ViewSnapshot, pids: Optional[Sequence[str]]
    ) -> ViewSnapshot:
        if pids is None:
            return snapshot
        from dataclasses import replace

        return replace(snapshot, view=snapshot.view.restricted_to(list(pids)))

    def _count_serve(self, outcome: str) -> None:
        if self._telemetry is not None:
            self._serves.labels(outcome=outcome).inc()

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def __enter__(self) -> "FailoverPortalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def graceful_handoff(
    primary_server: Any,
    replica: StandbyReplica,
    *,
    timeout: Optional[float] = None,
) -> bool:
    """Drain a primary into a standby takeover without dropping the storm.

    The planned-maintenance twin of crash failover: sync the standby one
    last time *while the primary still serves* (so the WAL tail is as
    fresh as it can be), then :meth:`drain` the primary -- new connects
    refused, requests still arriving on established connections shed
    with ``busy`` frames whose ``retry_after`` covers the drain bound,
    which is exactly the backoff a :class:`FailoverPortalClient` needs to
    walk its health ladder onto the standby -- and finally close it.
    Returns whether the drain emptied the backlog inside the bound.
    """
    replica.sync()
    drained = bool(primary_server.drain(timeout))
    if not drained:
        logger.warning(
            "primary drain did not empty its backlog inside the bound; "
            "closing anyway (remaining work is severed)"
        )
    primary_server.close()
    replica.close()
    return drained

