"""Portal client: how appTrackers and peers query iTrackers remotely.

:class:`PortalClient` speaks the JSON wire protocol to one portal server
and caches the p-distance view until the server's version changes (the
scalability requirement of Sec. 4: aggregated information, cacheable, no
per-client queries).

:class:`Integrator` aggregates several portals -- the paper's "integrator
that aggregates the information from multiple iTrackers to interact with
applications" -- exposing the per-AS view mapping that
:class:`~repro.apptracker.selection.P4PSelection` consumes.

:func:`discover_itracker` emulates the DNS SRV discovery convention
(``p4p`` symbolic name) with an in-process registry.
"""

from __future__ import annotations

import enum
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pdistance import PDistanceMap
from repro.core.policy import NetworkPolicy
from repro.portal import protocol


class PortalClientError(Exception):
    """Server returned an error or the connection failed."""


class PortalTransportError(PortalClientError):
    """The connection itself failed (refused, reset, framing error).

    Distinct from a well-formed error *response*: transport failures are
    transient by nature and are what retry policies and circuit breakers
    (:mod:`repro.portal.resilience`) act on.
    """


class PortalTimeoutError(PortalTransportError):
    """The RPC deadline elapsed (server alive but slow).

    Still a transport failure for retry/breaker purposes, but exempt from
    the client's reconnect-and-resend path: resending after a timeout just
    doubles the wait.
    """


class PortalBusyError(PortalClientError):
    """The server shed this request under overload (``busy`` frame).

    Deliberately *not* a transport error: the server is alive and
    explicitly asking for backoff, so retry policies honor
    :attr:`retry_after` instead of counting a fault against the breaker
    (see :mod:`repro.portal.resilience`).
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        #: Server's backoff hint in seconds (None when the frame carried
        #: none, or carried garbage -- the hint is advisory).
        self.retry_after = retry_after


class PortalDeadlineExceededError(PortalClientError):
    """The server abandoned the request because its deadline passed."""


class DiscoveryError(PortalClientError):
    """No iTracker is registered for the requested domain."""


class PortalClient:
    """A connection to one iTracker portal.

    ``telemetry`` (a :class:`repro.observability.Telemetry`) is optional;
    when given, every call records a per-method latency histogram and
    call/error counters, and full-view fetches record version-cache
    hits/misses -- the appTracker-side half of the paper's "aggregated,
    cacheable" scalability argument made measurable.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 5.0,
        telemetry: Optional[Any] = None,
        tracer: Optional[Any] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._sock = socket.create_connection(self._address, timeout=timeout)
        self._cached_view: Optional[PDistanceMap] = None
        #: ``(epoch, version)`` identity of ``_cached_view``.
        self._cached_version: Optional[Tuple[int, int]] = None
        self._telemetry = telemetry
        #: Per-request deadline budget (seconds) stamped on every frame's
        #: ``deadline`` envelope; the server abandons work it cannot
        #: answer inside the budget.  None: frames carry no deadline.
        self.deadline = deadline
        #: Optional :class:`repro.observability.Tracer`.  When set, every
        #: RPC becomes a ``client.call`` span (continuing the caller's
        #: active trace when one exists) and its context rides the
        #: request frame's ``trace`` envelope to the server.
        self.tracer = tracer
        if telemetry is not None:
            registry = telemetry.registry
            self._calls = registry.counter(
                "p4p_client_calls_total",
                "Portal RPCs issued, by method.",
                ("method",),
            )
            self._call_errors = registry.counter(
                "p4p_client_call_errors_total",
                "Portal RPCs that failed, by method and kind.",
                ("method", "kind"),
            )
            self._call_latency = registry.histogram(
                "p4p_client_call_latency_seconds",
                "Round-trip time per portal RPC, by method.",
                ("method",),
            )
            self._cache_events = registry.counter(
                "p4p_client_view_cache_total",
                "Full-view fetches resolved by the version cache, by outcome.",
                ("outcome",),
            )
            self._reconnects = registry.counter(
                "p4p_client_reconnects_total",
                "Sockets re-established after a server restart mid-session.",
            )

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PortalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, method: str, **params: Any) -> Any:
        if self._telemetry is None:
            return self._call_raw(method, **params)
        clock = self._telemetry.clock
        started = clock()
        self._calls.labels(method=method).inc()
        try:
            result = self._call_raw(method, **params)
        except PortalTransportError:
            self._call_errors.labels(method=method, kind="transport").inc()
            raise
        except PortalClientError:
            self._call_errors.labels(method=method, kind="response").inc()
            raise
        finally:
            self._call_latency.labels(method=method).observe(clock() - started)
        return result

    def _call_raw(self, method: str, **params: Any) -> Any:
        """One RPC round trip, surviving one server restart.

        A portal restart leaves this client holding a dead socket: the
        next send or read fails with EOF or a connection reset.  All
        portal methods are idempotent reads, so the frame is retried
        *exactly once* over a fresh connection before the failure
        propagates; timeouts are not retried (the server is alive but
        slow -- retrying doubles the wait for nothing).
        """
        message = protocol.request(method, **params)
        if self.deadline is not None:
            protocol.attach_deadline(message, self.deadline)
        tracer = self.tracer
        if tracer is None:
            return self._transact(protocol.encode_frame(message), None)
        span = tracer.start_trace("client.call", method=method)
        context = tracer.context_for(span)
        if context is not None:
            protocol.attach_trace(message, context.to_wire())
        frame = protocol.encode_frame(message)
        try:
            return self._transact(frame, span)
        except Exception as exc:
            span.set(error=type(exc).__name__)
            raise
        finally:
            tracer.buffer.finish(span)

    def _transact(self, frame: bytes, span: Optional[Any]) -> Any:
        try:
            return self._roundtrip(frame)
        except PortalTimeoutError:
            raise
        except PortalTransportError:
            self._reconnect()
            if span is not None:
                self.tracer.buffer.add_event(span, "reconnect")
            return self._roundtrip(frame)

    def _roundtrip(self, frame: bytes) -> Any:
        try:
            self._sock.sendall(frame)
            response = protocol.read_frame(self._sock)
        except socket.timeout as exc:
            raise PortalTimeoutError(f"portal timed out: {exc}") from exc
        except (OSError, protocol.ProtocolError) as exc:
            raise PortalTransportError(f"transport failure: {exc}") from exc
        if response is None:
            raise PortalTransportError("server closed the connection")
        if "error" in response:
            if response.get("busy"):
                hint = response.get("retry_after")
                if isinstance(hint, bool) or not isinstance(hint, (int, float)):
                    hint = None
                elif hint <= 0:
                    hint = None
                raise PortalBusyError(response["error"], retry_after=hint)
            if response.get("deadline_exceeded"):
                raise PortalDeadlineExceededError(response["error"])
            raise PortalClientError(response["error"])
        return response.get("result")

    def _reconnect(self) -> None:
        self.close()
        # The peer process may have been replaced by one whose counters
        # restart at the same identity: what it served is not cached.
        self._cached_view = None
        self._cached_version = None
        try:
            self._sock = socket.create_connection(self._address, timeout=self._timeout)
        except OSError as exc:
            raise PortalTransportError(f"reconnect failed: {exc}") from exc
        if self._telemetry is not None:
            self._reconnects.inc()

    # -- interface methods -----------------------------------------------------

    def get_version(self) -> int:
        return int(self._call("get_version")["version"])

    def get_version_info(self) -> Dict[str, Any]:
        """Full ``get_version`` document: ``version``, ``epoch``, and --
        when the server is a standby replica -- ``staleness`` seconds."""
        return self._call("get_version")

    def get_state_delta(self, since: int = -1) -> Dict[str, Any]:
        """Price-state records newer than version ``since`` (how a
        standby replica tails the primary's WAL over the wire)."""
        return self._call("get_state_delta", since=since)

    def get_pdistances(self, pids: Optional[List[str]] = None) -> PDistanceMap:
        """Fetch the external view; full views are cached by the price
        state's ``(epoch, version)`` identity, within one connection.

        Partial views (``pids`` given) **bypass the version cache entirely**:
        every call issues a fresh RPC and neither reads nor updates the
        cached full view.  Callers that need offline fallback (e.g. the
        stale-view logic of
        :class:`~repro.portal.resilience.ResilientPortalClient`) must
        therefore fetch the *full* view and restrict it locally with
        :meth:`~repro.core.pdistance.PDistanceMap.restricted_to`.
        """
        if pids is None:
            info = self.get_version_info()
            version = (int(info.get("epoch", 0)), int(info["version"]))
            if self._cached_view is not None and version == self._cached_version:
                self._count_cache("hit")
                return self._cached_view
            self._count_cache("miss")
            view = protocol.pdistance_from_wire(self._call("get_pdistances"))
            self._cached_view = view
            self._cached_version = version
            return view
        return protocol.pdistance_from_wire(self._call("get_pdistances", pids=list(pids)))

    def _count_cache(self, outcome: str) -> None:
        if self._telemetry is not None:
            self._cache_events.labels(outcome=outcome).inc()

    def get_policy(self) -> NetworkPolicy:
        return NetworkPolicy.from_document(self._call("get_policy"))

    def get_capabilities(self, requester: str, **filters: Any) -> List[Dict[str, Any]]:
        return self._call("get_capabilities", requester=requester, **filters)

    def lookup_pid(self, ip: str) -> Tuple[str, int]:
        result = self._call("lookup_pid", ip=ip)
        return result["pid"], int(result["as"])

    def get_alto_costmap(self, mode: str = "numerical") -> Dict[str, Any]:
        """The p-distance view as an ALTO cost-map document."""
        return self._call("get_alto_costmap", mode=mode)

    def get_alto_networkmap(self) -> Dict[str, Any]:
        """The PID map as an ALTO network-map document."""
        return self._call("get_alto_networkmap")

    def get_metrics(self, format: str = "json") -> Dict[str, Any]:
        """Scrape the portal's telemetry snapshot (``json`` or
        ``prometheus``; the latter returns ``{content_type, text}``)."""
        return self._call("get_metrics", format=format)


class PortalStatus(str, enum.Enum):
    """Health of one AS's portal as seen by the :class:`Integrator`."""

    OK = "ok"
    STALE = "stale"
    UNAVAILABLE = "unavailable"


@dataclass
class PortalHealth:
    """Per-AS degradation record exposed to the selection layer."""

    status: PortalStatus = PortalStatus.OK
    consecutive_failures: int = 0
    breaker_state: Optional[str] = None
    stale_age: Optional[float] = None
    last_error: Optional[str] = None


@dataclass
class Integrator:
    """Aggregates several portals into the per-AS view map P4P selection uses.

    Portal failures do not raise (iTrackers are not on the critical path);
    instead each AS's degradation state is recorded in :attr:`health` so
    :class:`~repro.apptracker.selection.P4PSelection` can fall back to
    native selection for the affected AS.  Clients exposing the
    :class:`~repro.portal.resilience.ResilientPortalClient` interface
    (``get_view``) additionally report stale-view serves and breaker state.
    """

    #: One client per AS: a plain :class:`PortalClient`, a
    #: :class:`~repro.portal.resilience.ResilientPortalClient`, or a
    #: :class:`~repro.portal.replication.FailoverPortalClient` spanning a
    #: primary and its standby replicas (multiple endpoints per AS).
    portals: Dict[int, Any] = field(default_factory=dict)
    health: Dict[int, PortalHealth] = field(default_factory=dict)
    #: Optional :class:`repro.observability.Telemetry`; when present each
    #: :meth:`views` pass records per-AS fetch latency and outcome counts.
    telemetry: Optional[Any] = None

    def add(self, as_number: int, client: Any) -> None:
        self.portals[as_number] = client
        self.health[as_number] = PortalHealth()

    def views(self) -> Dict[int, PDistanceMap]:
        """One external view per AS, freshest available (possibly stale).

        ASes whose portal is unavailable *and* past any stale fallback are
        omitted; their :attr:`health` entry flips to ``UNAVAILABLE`` so the
        selection layer degrades those sessions to native selection rather
        than silently losing the AS forever.
        """
        collected: Dict[int, PDistanceMap] = {}
        for as_number, client in self.portals.items():
            record = self.health.setdefault(as_number, PortalHealth())
            get_view = getattr(client, "get_view", None)
            started = self.telemetry.clock() if self.telemetry is not None else 0.0
            try:
                if get_view is not None:
                    snapshot = get_view()
                    collected[as_number] = snapshot.view
                    record.status = (
                        PortalStatus.STALE if snapshot.stale else PortalStatus.OK
                    )
                    record.stale_age = snapshot.age if snapshot.stale else None
                    if not snapshot.stale:
                        record.consecutive_failures = 0
                else:
                    collected[as_number] = client.get_pdistances()
                    record.status = PortalStatus.OK
                    record.stale_age = None
                    record.consecutive_failures = 0
            except PortalClientError as exc:
                record.status = PortalStatus.UNAVAILABLE
                record.consecutive_failures += 1
                record.last_error = str(exc)
            record.breaker_state = getattr(client, "breaker_state", None)
            self._record_fetch(as_number, record.status, started)
        return collected

    def _record_fetch(
        self, as_number: int, status: PortalStatus, started: float
    ) -> None:
        if self.telemetry is None:
            return
        registry = self.telemetry.registry
        registry.histogram(
            "p4p_integrator_view_latency_seconds",
            "Per-AS view fetch time, stale fallbacks included.",
            ("as_number",),
        ).labels(as_number=as_number).observe(self.telemetry.clock() - started)
        registry.counter(
            "p4p_integrator_views_total",
            "View fetch outcomes, by AS and health status.",
            ("as_number", "status"),
        ).labels(as_number=as_number, status=status.value).inc()

    def status_map(self) -> Dict[int, str]:
        """Plain ``{as_number: "ok" | "stale" | "unavailable"}`` view of
        :attr:`health`, the shape ``P4PSelection.portal_health`` consumes."""
        return {
            as_number: record.status.value
            for as_number, record in self.health.items()
        }

    def close(self) -> None:
        for client in self.portals.values():
            client.close()


#: In-process stand-in for DNS SRV records (domain -> portal address).
_SRV_REGISTRY: Dict[str, Tuple[str, int]] = {}


def register_itracker(domain: str, host: str, port: int) -> None:
    """Publish a portal address under a domain (the ``p4p`` SRV record)."""
    _SRV_REGISTRY[domain] = (host, port)


def discover_itracker(domain: str) -> Tuple[str, int]:
    """Resolve a domain's iTracker address.

    Raises :class:`DiscoveryError` when no portal is registered for the
    domain (the SRV lookup equivalent of NXDOMAIN).
    """
    try:
        return _SRV_REGISTRY[domain]
    except KeyError:
        raise DiscoveryError(
            f"no iTracker registered for domain {domain!r}"
        ) from None
