"""The iTracker portal server: serves the P4P interfaces over sockets.

One :class:`AsyncPortalServer` fronts one :class:`~repro.core.itracker.
ITracker` over the length-prefixed JSON protocol of :mod:`repro.portal.
protocol`; each connection may issue any number of requests.  Routing,
method handlers and instrumentation are the transport-free
:class:`~repro.portal.dispatch.PortalDispatcher` this class subclasses
(``tests/test_portal_conformance.py`` pins the wire behaviour
byte-for-byte against it); what this module adds is the asyncio
transport, built for "millions of users":

* **Multi-worker accept model.**  ``workers`` event loops, each on its
  own thread with its own connection set (shared-nothing: a connection
  lives and dies on one worker).  Two accept models:

  - ``reuseport`` -- every worker binds its own listening socket to the
    same port with ``SO_REUSEPORT``; the kernel load-balances accepts.
  - ``dispatcher`` -- one listening socket, one acceptor thread handing
    accepted connections to worker loops round-robin (the portable
    fallback when ``SO_REUSEPORT`` is unavailable).

  ``auto`` (the default) picks ``reuseport`` when the platform has it.

* **Versioned copy-on-update publication.**  The read-mostly external
  view is computed once per ``(epoch, version)``, indexed by source
  row, and published by atomic reference swap
  (:class:`~repro.portal.views.ViewPublisher`); the view handlers serve
  from the published snapshot instead of re-aggregating the full mesh
  per request, an unrestricted read is answered with the snapshot's
  document as compact-JSON bytes (encoded by the first such read of a
  version), and a restricted read of undegraded values is bytes spliced
  from source rows encoded by the first read of a version that touches
  them.

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
import contextlib
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

_ACCEPT_MODELS = ("auto", "reuseport", "dispatcher")


def _reuseport_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


class _Worker:
    """One event loop on one thread, owning its accepted connections."""

    def __init__(
        self,
        server: "AsyncPortalServer",
        index: int,
        sock: Optional[socket.socket],
    ) -> None:
        self.server = server
        self.index = index
        self.sock = sock
        self.loop = asyncio.new_event_loop()
        self.connections: set = set()
        self._handlers: set = set()  # keeps start_server handler tasks alive
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
            # A handler cancelled before its first step never closed its
            # writer, and a closed transport only lets go of its socket on
            # the loop's next pass.
            self._sever()
            self.loop.run_until_complete(asyncio.sleep(0))
        finally:
            self.started.set()  # unblock start() even on a failed bring-up
            self.loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        if self.sock is not None:
            self.listener = await asyncio.start_server(
                self._accepted, sock=self.sock
            )
        probe = None
        if self.server.overload.enabled:
            # The event loop's scheduling lag *is* this worker's queueing
            # delay (dispatch runs on-loop): a probe task feeds it to the
            # admission controller's CoDel signal.
            probe = self.loop.create_task(self._lag_probe())
        self.started.set()
        await self._stop.wait()
        if probe is not None:
            probe.cancel()
        if self.listener is not None and self.listener.is_serving():
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
        for writer in list(self.connections):
            writer.transport.abort()

    def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """``start_server`` callback.  A plain function on purpose: it runs
        inside ``connection_made``, so a stop severs this connection even
        when the handler task is cancelled before its first step (and the
        task is ours: asyncio 3.11's own done-callback logs an error for
        every cancelled handler)."""
        self.connections.add(writer)
        task = self.loop.create_task(
            self.server._serve_connection(self, reader, writer)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

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

    def adopt(self, conn: socket.socket) -> None:
        """Dispatcher-fed accept: take ownership of an accepted socket."""
        try:
            asyncio.run_coroutine_threadsafe(self._adopt(conn), self.loop)
        except RuntimeError:
            conn.close()

    async def _adopt(self, conn: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=conn)
        except OSError:
            conn.close()
            return
        self.connections.add(writer)
        await self.server._serve_connection(self, reader, writer)


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
        accept_model: str = "auto",
        backlog: int = 128,
        overload: Optional[OverloadConfig] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if accept_model not in _ACCEPT_MODELS:
            raise ValueError(
                f"accept_model must be one of {_ACCEPT_MODELS}, got {accept_model!r}"
            )
        super().__init__(
            itracker,
            telemetry=telemetry,
            staleness_provider=staleness_provider,
            slos=slos,
            overload=overload,
        )
        if accept_model == "auto":
            accept_model = "reuseport" if _reuseport_available() else "dispatcher"
        elif accept_model == "reuseport" and not _reuseport_available():
            raise ValueError("SO_REUSEPORT is not available on this platform")
        self.accept_model = accept_model
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
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        sockets: List[Optional[socket.socket]]
        if accept_model == "reuseport":
            bound = self._bind_reuseport(host, port, workers, backlog)
            self._address = bound[0].getsockname()
            sockets = list(bound)
        else:
            self._listener = self._bind(host, port, backlog, reuseport=False)
            self._address = self._listener.getsockname()
            sockets = [None] * workers
        self._workers = [
            _Worker(self, index, sock) for index, sock in enumerate(sockets)
        ]
        for worker in self._workers:
            worker.start()
        if accept_model == "dispatcher":
            self._acceptor = threading.Thread(
                target=self._accept_loop, name="p4p-aportal-accept", daemon=True
            )
            self._acceptor.start()

    # -- sockets -----------------------------------------------------------

    @staticmethod
    def _bind(
        host: str, port: int, backlog: int, reuseport: bool
    ) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuseport:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        return sock

    @classmethod
    def _bind_reuseport(
        cls, host: str, port: int, workers: int, backlog: int
    ) -> List[socket.socket]:
        """One listening socket per worker on a shared port.

        With ``port=0`` the first bind picks the ephemeral port and the
        remaining workers join it.
        """
        sockets = [cls._bind(host, port, backlog, reuseport=True)]
        actual = sockets[0].getsockname()[1]
        try:
            for _ in range(1, workers):
                sockets.append(cls._bind(host, actual, backlog, reuseport=True))
        except OSError:
            for sock in sockets:
                sock.close()
            raise
        return sockets

    @property
    def address(self) -> Tuple[str, int]:
        return self._address  # type: ignore[return-value]

    def _accept_loop(self) -> None:
        assert self._listener is not None
        index = 0
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if self._closed:
                conn.close()
                return
            self._workers[index % len(self._workers)].adopt(conn)
            index += 1

    # -- serving -----------------------------------------------------------

    async def _serve_connection(
        self,
        worker: _Worker,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        governor = self.overload
        config = governor.config
        if not governor.try_open_connection():
            # Over the cap: one cheap busy frame (so a well-behaved
            # client backs off instead of reconnect-storming), then sever.
            governor.count_connection_reject("cap")
            try:
                writer.write(
                    protocol.encode_frame(
                        protocol.busy_error(
                            "connection limit reached", config.retry_after
                        )
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            worker.connections.discard(writer)
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
            return
        gauge = self._worker_connections.labels(worker=str(worker.index))
        gauge.inc()
        served = 0
        try:
            while True:
                try:
                    framed = await protocol.aread_frame_ex(
                        reader,
                        idle_timeout=config.idle_timeout,
                        frame_timeout=config.frame_timeout,
                    )
                except protocol.IdleTimeoutError:
                    governor.count_connection_reject("idle")
                    break
                except protocol.SlowReaderError:
                    governor.count_connection_reject("slow_reader")
                    break
                except (protocol.ProtocolError, ConnectionError, OSError):
                    # Torn/oversized/malformed frame or a peer reset:
                    # framing is lost, sever.
                    break
                if framed is None:
                    break
                message, frame_bytes = framed
                # Receipt stamp only for deadline-carrying requests:
                # legacy traffic must not pay an extra clock read (the
                # traced scenario pins clock cadence).
                received_at = (
                    self.telemetry.clock() if "deadline" in message else None
                )
                self._bytes_in.inc(frame_bytes)
                response = await self._adispatch(message, received_at)
                try:
                    payload = protocol.encode_frame(response)
                except protocol.ProtocolError as exc:
                    # The answer cannot be framed: say so on a connection
                    # that stays usable instead of dropping it unannounced.
                    payload = self._oversized(message, exc)
                self._bytes_out.inc(len(payload))
                writer.write(payload)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                served += 1
                if (
                    config.connection_request_budget is not None
                    and served >= config.connection_request_budget
                ):
                    # Recycle long-lived connections so governance changes
                    # (caps, drain) reach clients that never disconnect.
                    governor.count_connection_reject("request_budget")
                    break
        finally:
            worker.connections.discard(writer)
            gauge.dec()
            governor.connection_closed()
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

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

    async def _adispatch(
        self,
        message: Dict[str, Any],
        received_at: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admission-gated dispatch of one message on the event loop.

        Handlers are microsecond-scale once the view snapshot is
        current; the only heavyweight step -- recomputing the view after
        a price update -- is offloaded to the executor, where concurrent
        identical requests coalesce onto a single computation.  Nothing
        here may block, so admission never queues: when the loop lags,
        arrivals are shed with a busy frame *before* any dispatch work,
        which is what restores capacity.
        """
        governor = self.overload
        admitted = False
        if governor.enabled or governor.draining:
            outcome = governor.admit()
            if outcome.shed:
                return protocol.busy_error(
                    f"request shed ({outcome.value})",
                    governor.retry_after(outcome),
                )
            admitted = True
        try:
            method = message.get("method")
            if method in _VIEW_METHODS and not self.publisher.is_current():
                if governor.brownout_active and self.publisher.has_published():
                    # Brownout: skip the re-aggregation entirely -- the
                    # view handlers below fall back to the stale
                    # published snapshot.
                    pass
                else:
                    loop = asyncio.get_running_loop()
                    try:
                        await loop.run_in_executor(
                            self._executor, self.publisher.current
                        )
                    except Exception:
                        # The handler will hit the same failure
                        # synchronously and dispatch() turns it into a
                        # structured error frame.
                        logger.debug(
                            "view publication failed; %s will surface the "
                            "error synchronously",
                            method,
                            exc_info=True,
                        )
            return self.dispatch(message, received_at=received_at)
        finally:
            if admitted:
                governor.release()

    # -- view handlers (served from the published snapshot) ----------------
    # Each handler takes one snapshot -- during brownout the last
    # *published* one, whatever its age (availability over freshness,
    # responses explicitly marked ``degraded``) -- so the data and what is
    # derived from its version (the ALTO vtag) cannot disagree.  An
    # unrestricted read is answered with that snapshot's memoised document
    # bytes.  A restricted read of raw values is bytes spliced from the
    # snapshot's encoded rows; one the iTracker degrades (noise, ranks --
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
        self._close_listener()
        for worker in self._workers:
            worker.stop_accepting()
        self.overload.start_drain()
        traces = self.telemetry.traces
        span = traces.start("portal.drain")
        drained = self.overload.wait_drained(timeout)
        traces.finish(span.set(complete=drained))
        return drained

    def _close_listener(self) -> None:
        """Close the dispatcher-model listener and wake its acceptor: on
        Linux ``close()`` alone leaves a thread blocked in ``accept()``
        asleep; ``shutdown()`` first makes that ``accept()`` raise."""
        if self._listener is None:
            return
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop accepting, sever every connection, and join the workers.

        A join that times out is a leaked thread, not a clean close:
        it is logged and counted (``p4p_server_close_leaks_total``)
        instead of silently ignored, so tests and operators see it.
        """
        if self._closed:
            return
        self._closed = True
        self._close_listener()
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
        if self._acceptor is not None:
            self._acceptor.join(timeout=join_timeout)
            if self._acceptor.is_alive():
                logger.warning(
                    "acceptor thread %r still alive %.1fs after close()",
                    self._acceptor.name,
                    join_timeout,
                )
                self._close_leaks.labels(kind="acceptor").inc()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncPortalServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
