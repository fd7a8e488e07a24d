"""The iTracker portal server: serves the P4P interfaces over sockets.

One :class:`AsyncPortalServer` fronts one :class:`~repro.core.itracker.
ITracker` over the length-prefixed JSON protocol of :mod:`repro.portal.
protocol`; each connection may issue any number of requests.  Routing,
method handlers and instrumentation are the transport-free
:class:`~repro.portal.dispatch.PortalDispatcher` this class subclasses
(``tests/test_portal_conformance.py`` pins the wire behaviour
byte-for-byte against it); what this module adds is the asyncio
transport, built for "millions of users":

* **Shared-nothing workers.**  ``workers`` event loops, each on its
  own thread with its own connection set (a connection lives and dies
  on one worker) and its own listening socket, bound to the shared port
  with ``SO_REUSEPORT`` so the kernel load-balances accepts.

* **A request is answered inside one transport callback.**  Each
  connection is an ``asyncio.Protocol`` (:class:`_Connection`): bytes
  land in a :class:`~repro.portal.protocol.FrameSplitter`, and the
  ``data_received`` that completes a frame decodes, admits, dispatches,
  encodes and writes the answer with ``transport.write`` -- no
  coroutine, no task wake-up, no ``drain()`` per request.  Further
  frames from the same read are answered one per loop pass, so a
  pipelining client cannot starve the worker's other connections or
  its lag probe.  Only a view read that finds the snapshot stale leaves
  the callback (the publication runs in the executor; the frames behind
  it wait, so answers keep request order).  Connection governance is
  loop timers (idle, and a frame's read budget from its first byte) and
  flow control: nothing more is answered while the transport is over
  its high-water mark.

* **Versioned copy-on-update publication.**  The read-mostly external
  view is computed once per ``(epoch, version)``, indexed by source
  row, and published by atomic reference swap
  (:class:`~repro.portal.views.ViewPublisher`); the view handlers serve
  from the published snapshot instead of re-aggregating the full mesh
  per request, an unrestricted read is answered with the snapshot's
  document as compact-JSON bytes, framed once (both built by the first
  such read of a version) and written as that one frame, and a
  restricted read of undegraded values is bytes spliced from source
  rows encoded by the first read of a version that touches them.

* **Request coalescing.**  Identical concurrent ``get_pdistances``
  requests that find the snapshot stale park on one in-flight
  computation (run off-loop in a small executor so the event loops keep
  serving) and all receive the single published result.

Telemetry, distributed tracing, and SLO accounting ride along unchanged
-- dispatch is the same instrumented code path -- plus the serving-plane
instruments: ``p4p_portal_view_publications_total``,
``p4p_portal_view_encodes_total{document}``,
``p4p_portal_view_serves_total{outcome}``, and
``p4p_portal_worker_connections{worker}``.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.itracker import ITracker
from repro.observability import SLO, Telemetry
from repro.portal import alto, protocol
from repro.portal.dispatch import PortalDispatcher
from repro.portal.overload import OverloadConfig
from repro.portal.views import ViewPublisher

__all__ = ["AsyncPortalServer"]

logger = logging.getLogger(__name__)

#: Methods whose handlers read the published view: when the snapshot is
#: stale their computation is offloaded (and coalesced) off the event
#: loop so one price update never stalls every in-flight connection.
_VIEW_METHODS = frozenset({"get_pdistances", "get_alto_costmap"})


class _Connection(asyncio.Protocol):
    """One accepted connection, answered inside its transport callbacks
    (module docstring).  At most one frame is in hand (``busy``): held
    for a view publication, or queued for the next loop pass; the frames
    behind it wait in ``frames``.  The idle and frame budgets share one
    timer, since a connection is waiting for at most one of them."""

    def __init__(self, server: "AsyncPortalServer", worker: "_Worker") -> None:
        self.server = server
        self.worker = worker
        self.transport: Any = None
        self.frames = protocol.FrameSplitter()
        self.opened = False  # holds a connection slot until connection_lost
        self.busy = False  # a frame in hand: publishing, or queued for a pass
        self.admitted = False  # the frame in hand holds an admission slot
        self.write_paused = False
        self.read_paused = False
        self.eof = False
        self.done = False  # closing: nothing more is answered
        self.served = 0
        self.timer: Optional[asyncio.TimerHandle] = None
        self.timing: Optional[str] = None  # "idle" | "slow_reader"

    # -- transport callbacks ------------------------------------------------

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.worker.connections.add(transport)
        governor = self.server.overload
        if not governor.try_open_connection():
            # Over the cap: one cheap busy frame (so a well-behaved
            # client backs off instead of reconnect-storming), then sever.
            governor.count_connection_reject("cap")
            transport.write(
                protocol.encode_frame(
                    protocol.busy_error(
                        "connection limit reached", governor.config.retry_after
                    )
                )
            )
            self._close()
            return
        self.opened = True
        self.worker.gauge.inc()
        self._wait()

    def data_received(self, data: bytes) -> None:
        self.frames.feed(data)
        if self.busy or self.write_paused or self.done:
            # Not answering: stop reading, so a client that pipelines
            # without reading is held back by TCP flow control on its
            # own socket.  ``_wait`` resumes once the buffer is answered.
            if not self.read_paused:
                self.read_paused = True
                self.transport.pause_reading()
            return
        self._advance()

    def eof_received(self) -> bool:
        self.eof = True
        if not (self.busy or self.write_paused or self.done):
            self._advance()
        return True  # half-open: answer what is buffered, then close

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        if not (self.busy or self.done):
            self._advance()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.done = True
        self._cancel_timer()
        self.worker.connections.discard(self.transport)
        governor = self.server.overload
        if self.admitted:  # abandoned mid-publication
            self.admitted = False
            governor.release()
        if self.opened:
            self.opened = False
            self.worker.gauge.dec()
            governor.connection_closed()

    # -- serving ------------------------------------------------------------

    def _advance(self) -> None:
        """Answer the next buffered frame, or wait for one."""
        try:
            framed = self.frames.next_frame()
        except protocol.ProtocolError:
            # Oversized/malformed frame: framing is lost, sever.
            self._close()
            return
        if framed is None:
            self._wait()
            return
        self._cancel_timer()
        server = self.server
        message, frame_bytes = framed
        # Receipt stamp only for deadline-carrying requests: legacy
        # traffic must not pay an extra clock read (the traced scenario
        # pins clock cadence).
        received_at = server.telemetry.clock() if "deadline" in message else None
        server._bytes_in.inc(frame_bytes)
        # Admission never queues: when the loop lags, arrivals are shed
        # with a busy frame *before* any dispatch work, which is what
        # restores capacity.
        governor = server.overload
        admitted = False
        if governor.enabled or governor.draining:
            outcome = governor.admit()
            if outcome.shed:
                self._respond(
                    message,
                    protocol.busy_error(
                        f"request shed ({outcome.value})",
                        governor.retry_after(outcome),
                    ),
                )
                return
            admitted = True
        if message.get("method") in _VIEW_METHODS:
            publication = server._publication(self.worker.loop)
            if publication is not None:
                # This frame (and its admission slot) is held until the
                # view is published; later frames wait in the buffer.
                self.busy = True
                self.admitted = admitted
                publication.add_done_callback(
                    functools.partial(self._published, message, received_at)
                )
                return
        self._dispatch(message, received_at, admitted)

    def _published(
        self,
        message: Dict[str, Any],
        received_at: Optional[float],
        future: "asyncio.Future[Any]",
    ) -> None:
        admitted, self.admitted = self.admitted, False
        if not future.cancelled() and future.exception() is not None:
            # The handler hits the same failure synchronously and
            # dispatch() turns it into a structured error frame.
            logger.debug(
                "view publication failed; %s will surface the error "
                "synchronously",
                message.get("method"),
                exc_info=future.exception(),
            )
        if self.done:
            if admitted:
                self.server.overload.release()
            return
        self.busy = False
        self._dispatch(message, received_at, admitted)

    def _dispatch(
        self, message: Dict[str, Any], received_at: Optional[float], admitted: bool
    ) -> None:
        try:
            response = self.server.dispatch(message, received_at=received_at)
        finally:
            if admitted:
                self.server.overload.release()
        self._respond(message, response)

    def _respond(self, message: Dict[str, Any], response: Dict[str, Any]) -> None:
        server = self.server
        payload: Optional[bytes] = None
        if (
            len(response) == 1
            and type(response.get("result")) is bytes
            and (message.get("params") or {}).get("pids") is None
        ):
            # An unrestricted view read: its generation's memoised frame.
            # (The test on ``pids`` spares restricted reads the lookup.)
            payload = server.publisher.frame(response["result"])
        if payload is None:
            try:
                payload = protocol.encode_frame(response)
            except protocol.ProtocolError as exc:
                # The answer cannot be framed: say so on a connection that
                # stays usable instead of dropping it unannounced.
                payload = server._oversized(message, exc)
        server._bytes_out.inc(len(payload))
        self.transport.write(payload)
        self.served += 1
        budget = server.overload.config.connection_request_budget
        if budget is not None and self.served >= budget:
            # Recycle long-lived connections so governance changes
            # (caps, drain) reach clients that never disconnect.
            server.overload.count_connection_reject("request_budget")
            self._close()
        elif self.write_paused:
            pass  # resume_writing() answers the next frame
        elif self.frames:
            # One frame per loop pass: a pipelining client must not
            # starve the lag probe or the worker's other connections.
            self.busy = True
            self.worker.loop.call_soon(self._next)
        else:
            self._wait()

    def _next(self) -> None:
        self.busy = False
        if not (self.write_paused or self.done):
            self._advance()

    # -- governance -----------------------------------------------------------

    def _wait(self) -> None:
        """No complete frame is buffered: wait for bytes, on a timer."""
        if self.eof:
            self._close()  # a clean EOF, or the peer stopped mid-frame
            return
        if self.read_paused:
            self.read_paused = False
            self.transport.resume_reading()
        config = self.server.overload.config
        kind: Optional[str] = None
        delay: Optional[float] = None
        if self.frames and config.frame_timeout is not None:
            # A started frame has ``frame_timeout`` from its first byte.
            kind, delay = "slow_reader", config.frame_timeout
        elif not self.frames.has_header():
            # The idle budget covers the wait for a frame to start; with
            # no frame budget, for its whole length prefix.
            kind, delay = "idle", config.idle_timeout
        if self.timing != kind:  # a running budget is not renewed by bytes
            self._cancel_timer()
            if kind is not None and delay is not None:
                self.timing = kind
                self.timer = self.worker.loop.call_later(
                    delay, self._expired, kind
                )

    def _cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
            self.timing = None

    def _expired(self, kind: str) -> None:
        self.timer = None
        self.timing = None
        self.server.overload.count_connection_reject(kind)
        self._close()

    def _close(self) -> None:
        self.done = True
        self._cancel_timer()
        self.transport.close()


class _Worker:
    """One event loop on one thread, owning its accepted connections."""

    def __init__(
        self,
        server: "AsyncPortalServer",
        index: int,
        sock: socket.socket,
    ) -> None:
        self.server = server
        self.index = index
        self.sock = sock
        self.loop = asyncio.new_event_loop()
        self.connections: set = set()  # transports of accepted connections
        self.gauge = server._worker_connections.labels(worker=str(index))
        self.started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self.listener: Optional[asyncio.AbstractServer] = None
        self.thread = threading.Thread(
            target=self._run, name=f"p4p-aportal-{index}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()
        self.started.wait(timeout=10.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main())
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            # Sever what the stop left established (connections made
            # while the tasks above wound down included); a closed
            # transport only lets go of its socket on the loop's next pass.
            self._sever()
            self.loop.run_until_complete(asyncio.sleep(0))
        finally:
            self.started.set()  # unblock start() even on a failed bring-up
            self.loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        server = self.server
        self.listener = await self.loop.create_server(
            lambda: _Connection(server, self), sock=self.sock
        )
        probe = None
        if server.overload.enabled:
            # The event loop's scheduling lag *is* this worker's queueing
            # delay (dispatch runs on-loop): a probe task feeds it to the
            # admission controller's CoDel signal.
            probe = self.loop.create_task(self._lag_probe())
        self.started.set()
        await self._stop.wait()
        if probe is not None:
            probe.cancel()
        if self.listener.is_serving():
            # An accept already in flight builds its transport a pass
            # later, and asyncio asserts if the Server is closed by then
            # (leaving a half-built transport to the collector): stop
            # polling, let it land, then close.  (Not serving: drained.)
            self.loop.remove_reader(self.sock)
            await asyncio.sleep(0)
            self.listener.close()
            await self.listener.wait_closed()
        # Sever established connections: a crashed portal process takes
        # its sockets with it, and a closed one must not answer from
        # beyond the grave (chaos harness / client reconnect logic rely
        # on it).
        self._sever()
        await asyncio.sleep(0)

    def _sever(self) -> None:
        for transport in list(self.connections):
            transport.abort()

    async def _lag_probe(self) -> None:
        governor = self.server.overload
        interval = governor.config.probe_interval
        clock = governor.clock
        while True:
            before = clock()
            await asyncio.sleep(interval)
            lag = max(0.0, clock() - before - interval)
            governor.observe_delay(lag)

    def stop(self) -> None:
        if self.loop.is_closed():
            return

        def _signal() -> None:
            if self._stop is not None:
                self._stop.set()

        try:
            self.loop.call_soon_threadsafe(_signal)
        except RuntimeError:
            pass

    def stop_accepting(self) -> None:
        """Drain phase one: close this worker's listener, keep serving
        the connections it already owns.  Blocks (bounded) until the
        loop has actually closed the socket -- drain() promises that new
        connects are refused by the time it returns."""
        done = threading.Event()

        def _close() -> None:
            if self.listener is not None:
                self.listener.close()
            done.set()

        try:
            self.loop.call_soon_threadsafe(_close)
        except RuntimeError:
            return
        done.wait(timeout=1.0)


class AsyncPortalServer(PortalDispatcher):
    """Serve one iTracker over asyncio worker loops until :meth:`close`."""

    def __init__(
        self,
        itracker: ITracker,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        telemetry: Optional[Telemetry] = None,
        staleness_provider: Optional[Callable[[], Optional[float]]] = None,
        slos: Optional[Sequence[SLO]] = None,
        backlog: int = 128,
        overload: Optional[OverloadConfig] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError("SO_REUSEPORT is not available on this platform")
        super().__init__(
            itracker,
            telemetry=telemetry,
            staleness_provider=staleness_provider,
            slos=slos,
            overload=overload,
        )
        self.publisher = ViewPublisher(itracker, telemetry=self.telemetry)
        registry = self.telemetry.registry
        self._worker_connections = registry.gauge(
            "p4p_portal_worker_connections",
            "Connections currently owned by each serving-plane worker.",
            ("worker",),
        )
        self._close_leaks = registry.counter(
            "p4p_server_close_leaks_total",
            "Threads still alive after close() exhausted its join "
            "timeout, by thread kind.",
            ("kind",),
        )
        # Off-loop pool for stale-view computation (and its coalesced
        # waiters); sized past the worker count so one slow compute plus
        # its waiters can never starve the pool into a deadlock.
        self._executor = ThreadPoolExecutor(
            max_workers=workers + 2, thread_name_prefix="p4p-aportal-view"
        )
        self._closed = False
        sockets = self._bind(host, port, workers, backlog)
        self._address = sockets[0].getsockname()
        self._workers = [
            _Worker(self, index, sock) for index, sock in enumerate(sockets)
        ]
        for worker in self._workers:
            worker.start()

    # -- sockets -----------------------------------------------------------

    @staticmethod
    def _bind(
        host: str, port: int, workers: int, backlog: int
    ) -> List[socket.socket]:
        """One ``SO_REUSEPORT`` listening socket per worker on a shared port.

        With ``port=0`` the first bind picks the ephemeral port and the
        remaining workers join it.
        """
        sockets: List[socket.socket] = []
        try:
            for _ in range(workers):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((host, port))
                sock.listen(backlog)
                port = sock.getsockname()[1]
        except OSError:
            for sock in sockets:
                sock.close()
            raise
        return sockets

    @property
    def address(self) -> Tuple[str, int]:
        return self._address  # type: ignore[return-value]

    # -- serving -----------------------------------------------------------

    def _oversized(
        self, message: Dict[str, Any], exc: protocol.ProtocolError
    ) -> bytes:
        """The error frame answering ``message`` when its response is over
        the frame limit, counted under the request's method."""
        method = message.get("method")
        if not isinstance(method, str) or not hasattr(self, f"_do_{method}"):
            method = "<unknown>"
        self._errors.labels(method=method, kind="too_large").inc()
        return protocol.encode_frame(protocol.error(f"response too large: {exc}"))

    def _publication(
        self, loop: asyncio.AbstractEventLoop
    ) -> "Optional[asyncio.Future[Any]]":
        """The publication a view read must wait for, or ``None``.

        Handlers are microsecond-scale once the view snapshot is current;
        the only heavyweight step -- recomputing the view after a price
        update -- runs in the executor, where concurrent identical
        requests coalesce onto a single computation.  In brownout the
        view handlers serve the last published snapshot as it is.
        """
        publisher = self.publisher
        if publisher.is_current() or (
            self.overload.brownout_active and publisher.has_published()
        ):
            return None
        return loop.run_in_executor(self._executor, self.publisher.current)

    # -- view handlers (served from the published snapshot) ----------------
    # Each handler takes one snapshot -- during brownout the last
    # *published* one, whatever its age (availability over freshness,
    # responses explicitly marked ``degraded``) -- so the data and what is
    # derived from its version (the ALTO vtag) cannot disagree.  An
    # unrestricted read is answered with that snapshot's memoised document
    # bytes, and ``_respond`` writes their memoised frame.  A restricted
    # read of raw values is bytes spliced from the snapshot's encoded
    # rows; one the iTracker degrades (noise, ranks --
    # ordinal cost maps are ranks too) depends on the restricted set as a
    # whole and is rebuilt from the rows as a plain document.

    def _do_get_pdistances(
        self, params: Dict[str, Any]
    ) -> Union[bytes, Dict[str, Any]]:
        pids = params.get("pids")
        publisher = self.publisher
        snapshot = publisher.snapshot(stale_ok=self.overload.brownout_active)
        if pids is None:
            return publisher.pdistances_document(snapshot)
        if self.itracker.serves_raw_views:
            return publisher.spliced_pdistances(snapshot, pids)
        return protocol.pdistance_to_wire(publisher.finish(snapshot, pids))

    def _do_get_alto_costmap(
        self, params: Dict[str, Any]
    ) -> Union[bytes, Dict[str, Any]]:
        mode = params.get("mode", alto.NUMERICAL)
        pids = params.get("pids")
        publisher = self.publisher
        snapshot = publisher.snapshot(stale_ok=self.overload.brownout_active)
        if pids is None:
            return publisher.costmap_document(snapshot, mode)
        if mode == alto.NUMERICAL and self.itracker.serves_raw_views:
            return publisher.spliced_costmap(snapshot, pids)
        return alto.cost_map_document(
            publisher.finish(snapshot, pids),
            mode=mode,
            map_vtag=f"p4p-{snapshot.key[1]}",
        )

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown, phase one: stop accepting, bound the rest.

        Closes every listener (new connects are refused), flips the
        governor to draining (requests still arriving on established
        connections are shed with a ``busy`` frame carrying a
        reconnect-later hint), and waits -- bounded -- for admitted work
        to finish.  Returns whether the backlog reached zero inside the
        bound; either way the caller follows with :meth:`close` to sever
        what remains.  This is the hand-off point for replication
        failover: drain the primary, promote the standby, then close.
        """
        for worker in self._workers:
            worker.stop_accepting()
        self.overload.start_drain()
        traces = self.telemetry.traces
        span = traces.start("portal.drain")
        drained = self.overload.wait_drained(timeout)
        traces.finish(span.set(complete=drained))
        return drained

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop accepting, sever every connection, and join the workers.

        A join that times out is a leaked thread, not a clean close:
        it is logged and counted (``p4p_server_close_leaks_total``)
        instead of silently ignored, so tests and operators see it.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()
        for worker in self._workers:
            worker.thread.join(timeout=join_timeout)
            if worker.thread.is_alive():
                logger.warning(
                    "worker %d thread %r still alive %.1fs after close()",
                    worker.index,
                    worker.thread.name,
                    join_timeout,
                )
                self._close_leaks.labels(kind="worker").inc()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncPortalServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
