"""Transport-independent portal request dispatch.

:class:`PortalDispatcher` owns everything about serving one iTracker
*except* the sockets: the method handlers mirroring the iTracker
interfaces, parameter validation against
:data:`repro.portal.protocol.METHOD_SCHEMAS`, the error-frame contract,
and the full telemetry/tracing/SLO instrumentation of the request path.
One transport mounts it: :class:`repro.portal.aserver.AsyncPortalServer`
(multi-worker event loops, versioned view publication, request
coalescing), which overrides the two view handlers to serve from its
published snapshot.

Used bare, with no transport, it is the *conformance reference*: its
view handlers recompute from the iTracker on every request -- no
publisher, no memo, no splice -- so ``encode_frame(dispatch(message))``
is what every byte the server puts on the wire is compared against
(``tests/test_portal_conformance.py``).  A response frame is a pure
function of the request message and the iTracker state, never of the
transport or the view cache that produced it.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.core.capability import AccessDeniedError, CapabilityKind
from repro.core.itracker import ITracker
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_PORTAL_SLOS,
    NullTelemetry,
    PROMETHEUS_CONTENT_TYPE,
    SLO,
    SLOTracker,
    Telemetry,
    TraceContext,
    Tracer,
)
from repro.observability.tracing import (
    NullTraceBuffer,
    active_span,
    push_active,
    reset_active,
)
from repro.portal import protocol
from repro.portal.overload import AdmissionOutcome, OverloadConfig, OverloadGovernor

logger = logging.getLogger(__name__)


class PortalRequestError(Exception):
    """A request that is well-formed but unservable (bad method/params)."""


class PortalDispatcher:
    """Routes portal request messages to one iTracker; transport-free.

    A subclass adds a transport and may override individual ``_do_*``
    handlers -- the server overrides the view methods to serve from its
    publication cache -- but the dispatch contract (validation, error
    frames, instrumentation) lives here and is shared.
    """

    def __init__(
        self,
        itracker: ITracker,
        telemetry: Optional[Telemetry] = None,
        staleness_provider: Optional[Callable[[], Optional[float]]] = None,
        slos: Optional[Sequence[SLO]] = None,
        overload: Optional[OverloadConfig] = None,
    ):
        self.itracker = itracker
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # A standby replica serves reads with an explicit staleness field
        # (seconds since its last successful sync with the primary); a
        # primary serves none, so clients can tell the two roles apart.
        self._staleness_provider = staleness_provider
        # One bundle per process: price-update instruments land in the same
        # registry the request path writes, so a single scrape sees both.
        if getattr(itracker, "telemetry", None) is None:
            itracker.telemetry = self.telemetry
        registry = self.telemetry.registry
        self._requests = registry.counter(
            "p4p_portal_requests_total",
            "Requests dispatched, by method and outcome.",
            ("method",),
        )
        self._errors = registry.counter(
            "p4p_portal_errors_total",
            "Error responses, by method and error kind.",
            ("method", "kind"),
        )
        self._latency = registry.histogram(
            "p4p_portal_request_latency_seconds",
            "Dispatch wall time per request, by method.",
            ("method",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        # label -> (latency child, requests child), bound on first use so
        # the request path pays no label resolution; cardinality is the
        # ``_do_*`` handlers plus "<unknown>" (see dispatch()).
        self._per_method: Dict[str, Tuple[Any, Any]] = {}
        self._inflight = registry.gauge(
            "p4p_portal_inflight_requests",
            "Requests currently inside dispatch.",
        ).labels()
        self._bytes_in = registry.counter(
            "p4p_portal_frame_bytes_total",
            "Wire bytes moved, by direction.",
            ("direction",),
        ).labels(direction="in")
        self._bytes_out = registry.counter(
            "p4p_portal_frame_bytes_total", "", ("direction",)
        ).labels(direction="out")
        # SLO accounting: on by default for real telemetry, off for the
        # null bundle (nowhere to record, and the benchmark's null
        # baseline must stay instrument-free).
        if slos is None:
            slos = () if isinstance(self.telemetry, NullTelemetry) else DEFAULT_PORTAL_SLOS
        self._slo = SLOTracker(registry, slos) if slos else None
        # Distributed tracing: requests carrying a valid ``trace``
        # envelope get a portal.dispatch span parented under the caller's
        # remote span; requests without one stay on the untraced path.
        self._trace_enabled = not isinstance(self.telemetry.traces, NullTraceBuffer)
        self._tracer = Tracer(self.telemetry.traces)
        # Overload governance: disabled by default (admission always
        # admits, governance timeouts stay off), so the conformance
        # suite sees unchanged behaviour; the transport wires
        # admission/drain around dispatch, while dispatch itself
        # enforces deadlines and brownout method gating.
        self.overload = OverloadGovernor(
            overload if overload is not None else OverloadConfig(enabled=False),
            telemetry=self.telemetry,
        )

    def force_brownout(self, active: Optional[bool]) -> None:
        """Operator override: pin brownout on/off, or ``None`` to resume
        automatic entry/exit driven by the shedding signal."""
        self.overload.force_brownout(active)

    # -- dispatch -----------------------------------------------------------

    def dispatch(
        self,
        message: Dict[str, Any],
        received_at: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Route one request message to the iTracker; never raises.

        ``received_at`` is when the transport finished reading the frame
        (on ``telemetry.clock``); with a ``deadline`` envelope it lets
        dispatch abandon work whose answer nobody is waiting for anymore
        instead of computing-then-discarding it.  Callers without frame
        timing (tests, the fuzzer) omit it and deadlines never fire.
        """
        method = message.get("method")
        # Only known method names become label values (bounded cardinality);
        # everything else shares the "<unknown>" series.
        handler = (
            getattr(self, f"_do_{method}", None) if isinstance(method, str) else None
        )
        label = method if handler is not None else "<unknown>"
        context = None
        if self._trace_enabled:
            envelope = message.get("trace")
            if envelope is not None:
                # Malformed envelopes parse to None: served untraced.
                context = TraceContext.from_wire(envelope)
        span = None
        token = None
        if context is not None:
            span = self._tracer.start_child(
                "portal.dispatch", context, method=label
            )
            token = push_active(self.telemetry.traces, span)
        clock = self.telemetry.clock
        started = clock()
        self._inflight.inc()
        try:
            budget = protocol.deadline_budget(message)
            if (
                received_at is not None
                and budget is not None
                and started - received_at >= budget
            ):
                # The caller has already given up: answer with a cheap
                # structured frame instead of computing a result nobody
                # will read (the whole point of carrying the deadline).
                self.overload.count_deadline_drop()
                self._errors.labels(method=label, kind="deadline").inc()
                response = protocol.deadline_error(
                    "deadline exceeded before dispatch "
                    f"(budget {budget:.3f}s)"
                )
            else:
                response = self._dispatch_inner(method, handler, message)
        finally:
            elapsed = clock() - started
            self._inflight.dec()
            children = self._per_method.get(label)
            if children is None:
                children = self._per_method[label] = (
                    self._latency.labels(method=label),
                    self._requests.labels(method=label),
                )
            latency, requests = children
            latency.observe(elapsed)
            requests.inc()
            if span is not None:
                reset_active(token)
                self._tracer.buffer.finish(span)
        if self.overload.brownout_active and "error" not in response:
            # Successful answers produced during brownout carry an explicit
            # degradation marker so clients can tell stale-but-available
            # guidance from fresh guidance.
            response["degraded"] = "brownout"
        if span is not None and "error" in response:
            span.set(error="response-error")
        if self._slo is not None:
            self._slo.observe(label, elapsed, "error" in response)
        return response

    def _dispatch_inner(
        self, method: Any, handler: Optional[Any], message: Dict[str, Any]
    ) -> Dict[str, Any]:
        label = method if handler is not None else "<unknown>"
        params = message.get("params") or {}
        if not isinstance(params, dict):
            self._errors.labels(method=label, kind="request").inc()
            return protocol.error("params must be an object")
        try:
            if handler is None:
                raise PortalRequestError(f"unknown method {method!r}")
            if (
                self.overload.brownout_active
                and method in self.overload.config.brownout_methods
            ):
                # Brownout gates expensive non-view methods before any
                # validation or handler work: the cheap busy frame is the
                # degradation, computed work would defeat it.
                self._errors.labels(method=label, kind="brownout").inc()
                self.overload.count_brownout_reject()
                return protocol.busy_error(
                    f"method {method!r} temporarily disabled (brownout)",
                    self.overload.retry_after(AdmissionOutcome.SHED_BROWNOUT),
                )
            # Schema gate: unknown/missing/ill-typed params are rejected
            # before the handler runs (ValueError -> request error below).
            protocol.validate_params(method, params)
            traces = self.telemetry.traces
            if active_span(traces) is not None:
                # Traced request: time the iTracker handler as its own
                # child span so wire/dispatch overhead is attributable.
                with traces.span("itracker.handle", method=label):
                    return protocol.ok(handler(params))
            return protocol.ok(handler(params))
        except (PortalRequestError, AccessDeniedError, ValueError) as exc:
            self._errors.labels(method=label, kind="request").inc()
            return protocol.error(str(exc))
        except KeyError as exc:
            # str(KeyError('SEAT')) is the bare repr "'SEAT'" -- useless to a
            # remote client; name the failure so the message is actionable.
            self._errors.labels(method=label, kind="request").inc()
            key = exc.args[0] if exc.args else exc
            return protocol.error(f"unknown key: {key!r}")
        except Exception as exc:
            # Last resort: an unexpected bug in a handler must neither kill
            # the connection nor vanish silently -- log it, count it, and
            # answer with a structured error frame the client can surface.
            logger.exception("unexpected error dispatching %r", method)
            self._errors.labels(method=label, kind="internal").inc()
            return protocol.error(
                f"internal error: {type(exc).__name__}: {exc}"
            )

    def _do_get_pdistances(
        self, params: Dict[str, Any]
    ) -> Union[bytes, Dict[str, Any]]:
        """The plain document; the server's override may answer with its
        compact-JSON bytes instead (:func:`protocol.encode_frame`)."""
        pids = params.get("pids")
        view = self.itracker.get_pdistances(pids=pids)
        return protocol.pdistance_to_wire(view)

    def _do_get_policy(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.itracker.get_policy().to_document()

    def _do_get_capabilities(self, params: Dict[str, Any]):
        requester = params.get("requester")
        if not requester:
            raise PortalRequestError("requester is required")
        filters: Dict[str, Any] = {}
        if "kind" in params:
            filters["kind"] = CapabilityKind(params["kind"])
        if "pid" in params:
            filters["pid"] = params["pid"]
        if "content_id" in params:
            filters["content_id"] = params["content_id"]
        capabilities = self.itracker.get_capabilities(requester, **filters)
        return [
            {
                "kind": capability.kind.value,
                "pid": capability.pid,
                "capacity_mbps": capability.capacity_mbps,
                "name": capability.name,
            }
            for capability in capabilities
        ]

    def _do_lookup_pid(self, params: Dict[str, Any]):
        ip = params.get("ip")
        if not ip:
            raise PortalRequestError("ip is required")
        try:
            pid, as_number = self.itracker.lookup_pid(ip)
        except RuntimeError as exc:
            raise PortalRequestError(str(exc)) from exc
        except KeyError as exc:
            # PidMap.lookup raises KeyError with a human-readable message.
            detail = exc.args[0] if exc.args else f"no PID mapping for {ip}"
            raise PortalRequestError(str(detail)) from exc
        return {"pid": pid, "as": as_number}

    def _do_get_version(self, params: Dict[str, Any]):
        result: Dict[str, Any] = {
            "version": self.itracker.version,
            "epoch": getattr(self.itracker, "epoch", 0),
        }
        if self._staleness_provider is not None:
            staleness = self._staleness_provider()
            if staleness is not None:
                result["staleness"] = staleness
        return result

    def _do_get_state_delta(self, params: Dict[str, Any]):
        since = params.get("since")
        return self.itracker.state_delta(since=-1 if since is None else int(since))

    def _do_get_metrics(self, params: Dict[str, Any]):
        fmt = params.get("format", "json")
        if fmt == "json":
            return self.telemetry.snapshot()
        if fmt == "prometheus":
            return {
                "content_type": PROMETHEUS_CONTENT_TYPE,
                "text": self.telemetry.prometheus(),
            }
        raise PortalRequestError(f"unknown metrics format {fmt!r}")

    def _do_get_alto_costmap(self, params: Dict[str, Any]):
        from repro.portal import alto

        mode = params.get("mode", alto.NUMERICAL)
        view = self.itracker.get_pdistances(pids=params.get("pids"))
        return alto.cost_map_document(
            view, mode=mode, map_vtag=f"p4p-{self.itracker.version}"
        )

    def _do_get_alto_networkmap(self, params: Dict[str, Any]):
        if self.itracker.pid_map is None:
            raise PortalRequestError("iTracker has no PID map provisioned")
        from repro.portal import alto

        return alto.network_map_from_pidmap(
            self.itracker.pid_map, map_vtag=f"p4p-{self.itracker.version}"
        )
