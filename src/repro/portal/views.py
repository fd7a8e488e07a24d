"""Versioned, copy-on-update publication of iTracker views.

The reference :class:`~repro.portal.dispatch.PortalDispatcher` recomputes
the full external view on every ``get_pdistances`` request -- correct,
and exactly what would cap a server's throughput.  The view is
*read-mostly*: it changes only when the price state's ``(epoch,
version)`` identity advances (once per update period), while "millions
of users" read it in between.  This module turns that asymmetry into
the serving plane's hot path:

* :class:`ViewPublisher` -- versioned copy-on-update publication with
  request coalescing.  Readers grab the current published snapshot with
  one attribute read (no lock); when the iTracker's identity has moved
  on, exactly *one* caller computes the replacement snapshot while every
  concurrent identical request parks on the same in-flight future and
  receives the published result (k concurrent ``get_pdistances`` -> one
  view computation, k replies).  Publication swaps a single reference,
  so a reader never observes a half-built snapshot.

* A published snapshot *is* the p-distance vector
  (:meth:`~repro.core.itracker.ITracker.view_vector`: one float per
  full-mesh pair, in :class:`MeshLayout` order) and its
  ``(epoch, version)`` key.  Publishing builds nothing else: not even
  the dense :class:`~repro.core.pdistance.PDistanceMap` (non-negativity
  is checked on the vector).

* :class:`MeshLayout` -- what depends on the PID list alone: the
  external-view pair order, and the encoded text between the numbers of
  the two full-mesh documents.  Built once, checked once against the
  route index's pair order, and handed from each published snapshot to
  the next.

Everything else is derived from the vector by the first read that needs
it and memoised on the snapshot, without a lock (two readers missing at
once build the same thing and one assignment wins), and dropped with
it:

* the *encoded* full-mesh documents (:meth:`ViewPublisher.
  pdistances_document`, :meth:`~ViewPublisher.costmap_document`): an
  unrestricted read is the same bytes for every caller until the next
  publication.  A raw view gets ``get_pdistances`` and the numerical
  cost map in one pass (:meth:`MeshLayout.encode`): every value is
  encoded once, the intra-PID entries as the configured
  ``intra_pid_distance`` encodes (an int stays ``1``, not ``1.0``),
  and spliced between the layout's text for both documents.  Degraded
  views and the ordinal cost map are built by the reference
  ``pdistance_to_wire`` / ``alto.cost_map_document`` and encoded;
* the encoded *rows* (:meth:`ViewPublisher.cells`): a restricted read
  whose view needs no degradation is its rows' cells, looked up and
  joined (:meth:`ViewPublisher.spliced_pdistances`,
  :meth:`~ViewPublisher.spliced_costmap`);
* the dense :class:`~repro.core.pdistance.PDistanceMap` of the raw full
  view (the vector un-rotated into its PID-by-PID matrix) and the
  finished view, for ``ViewPublisher.view`` and for degraded reads: a
  restriction is an index operation on the raw matrix.

Degradations (privacy perturbation, rank coarsening) are applied per
request *after* restriction via :meth:`~repro.core.itracker.ITracker.
finish_view`, seeded by the snapshot's version -- the same order and
seed the iTracker uses inline, which is what keeps the cached path
bit-identical to the reference dispatcher's.  Perturbation and ranks
are functions of the restricted *set* (noise is drawn over the
restricted matrix in external-view order, ranks are taken within the
restricted row), so those configurations restrict the dense raw view
and finish it through :meth:`ViewPublisher.finish`.  Every memoised or
spliced result is the document's compact-JSON ``bytes``, which
:func:`~repro.portal.protocol.encode_frame` copies into the frame as
they are.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.itracker import ITracker
from repro.core.pdistance import PDistanceMap, mesh_order
from repro.observability import Telemetry
from repro.portal import alto, protocol
from repro.portal.protocol import encode_json

#: How long a coalesced reader waits on the in-flight computation before
#: giving up and computing its own view (a safety valve, not a code path
#: any healthy portal takes: view computation is CPU-bound and finite).
COALESCE_TIMEOUT = 60.0


#: The memo names of the two documents :meth:`MeshLayout.encode` builds.
MESH_DOCUMENTS = ("pdistances", f"costmap-{alto.NUMERICAL}")


#: One destination of an encoded source row: the compact JSON of its
#: ``[src, dst, value]`` entry of a ``get_pdistances`` result, and the
#: ``"dst":value`` member of an ALTO cost-map row.
Cell = Tuple[bytes, bytes]


class MeshLayout:
    """The full mesh over ``pids`` in external-view order, and the
    encoded text around every number of its two full-mesh documents.

    :attr:`pairs` runs per source: the intra-PID ``(src, src)`` entry
    first, then every other PID in PID order -- the order of
    :attr:`~repro.network.routing.RouteHopIndex.pairs`, and so of the
    p-distance vector :meth:`~repro.core.itracker.ITracker.view_vector`
    returns.  Nothing here depends on the values, so one layout serves
    every generation of a portal's views.
    """

    def __init__(self, pids: Sequence[str]) -> None:
        self.pids = tuple(pids)
        n = len(self.pids)
        #: Each PID's position in :attr:`pids`.
        self.position = {pid: i for i, pid in enumerate(self.pids)}
        self._names = [encode_json(pid) for pid in self.pids]
        order = mesh_order(n)
        # Each source row's destinations as PID positions: diagonal first.
        self._order = (order % n).reshape(n, n).tolist()
        self.pairs = tuple(
            (self.pids[i], self.pids[j]) for i in range(n) for j in self._order[i]
        )
        names = self._names
        # A document is its parts joined, with the numbers in the odd
        # slots: head, (text, number) per value, tail.
        self._pdistances = [b""] * (2 * n * n + 2)
        self._pdistances[0] = b'{"pids":%b,"distances":[' % encode_json(
            list(self.pids)
        )
        heads = [b"],[" + name + b"," for name in names]
        dsts = [name + b"," for name in names]
        self._pdistances[1:-1:2] = [
            heads[i] + dsts[j] for i in range(n) for j in self._order[i]
        ]
        if n:
            self._pdistances[1] = self._pdistances[1][2:]  # no "]," before the first
        self._pdistances[-1] = b"]]}" if n else b"]}"
        # The cost map runs rows and members in PID order, so its k-th
        # value is the view's ``_costmap_order[k]``-th.
        self._costmap_order = np.argsort(order).tolist()
        members = [b"," + name + b":" for name in names]
        self._costmap = [b""] * (2 * n * n + 2)  # the head carries the version
        self._costmap[1:-1:2] = members * n
        for i, name in enumerate(names):  # each row opens on its first member
            self._costmap[1 + 2 * n * i] = (
                (b"}," if i else b"") + name + b":{" + members[0][1:]
            )
        self._costmap[-1] = b"}}}" if n else b"}}"

    def kept(self, pids: Sequence[str]) -> List[str]:
        """The PIDs of this layout among ``pids``, once each, in order."""
        position = self.position
        return sorted(position.keys() & set(pids), key=position.__getitem__)

    def _numbers(self, values: np.ndarray, diagonal: bytes) -> List[bytes]:
        """Each value of a vector in this layout (or of one of its rows)
        as its JSON number, ``diagonal`` at the intra-PID entries."""
        if not len(values):
            return []
        n = len(self.pids)
        numbers = encode_json(values.tolist())[1:-1].split(b",")
        numbers[::n] = [diagonal] * (len(numbers) // n)  # rows open on it
        return numbers

    def encode(
        self, values: np.ndarray, diagonal: bytes, version: int
    ) -> Tuple[bytes, bytes]:
        """The :data:`MESH_DOCUMENTS` of the raw view ``values`` (a
        p-distance vector in :attr:`pairs` order whose intra-PID entries
        encode as ``diagonal``): the encoded ``pdistance_to_wire`` and
        numerical ``alto.cost_map_document`` tagged with ``version``.

        Every value is encoded once, for both documents, and spliced
        between the layout's text: byte for byte what encoding the
        reference builders' documents gives.
        """
        numbers = self._numbers(values, diagonal)
        parts = self._pdistances[:]
        parts[2:-1:2] = numbers
        pdistances = b"".join(parts)
        meta = alto.cost_map_meta(alto.NUMERICAL, f"p4p-{version}")
        parts = self._costmap[:]
        parts[0] = b'{"meta":%b,"cost-map":{' % encode_json(meta)
        parts[2:-1:2] = map(numbers.__getitem__, self._costmap_order)
        return pdistances, b"".join(parts)

    def encode_row(
        self, src: str, values: np.ndarray, diagonal: bytes
    ) -> Dict[str, Cell]:
        """The :data:`Cell` of every destination of ``src``'s row of the
        raw view ``values`` (as in :meth:`encode`), keyed by destination."""
        i = self.position[src]
        n = len(self.pids)
        numbers = self._numbers(values[i * n : (i + 1) * n], diagonal)
        head = b"[" + self._names[i] + b","
        names = self._names
        return {
            self.pids[j]: (head + names[j] + b"," + number + b"]", names[j] + b":" + number)
            for j, number in zip(self._order[i], numbers)
        }


class _Snapshot:
    """One published generation: the raw p-distance vector in its
    layout's order, and what has been derived from it so far -- the
    full-mesh wire documents, the per-source rows of cells, the dense
    raw view (:attr:`view`) and the finished one (:attr:`full`).  Each
    is built on first use, without a lock: two readers missing at once
    build the same thing and one assignment wins."""

    __slots__ = (
        "key", "layout", "values", "intra", "diagonal", "documents", "cells",
        "_itracker", "_view", "_full",
    )

    def __init__(
        self,
        key: Tuple[int, int],
        layout: MeshLayout,
        values: np.ndarray,
        itracker: ITracker,
    ) -> None:
        self.key = key  # (epoch, version) identity of the price state
        self.layout = layout
        self.values = values
        # ``p_ii`` as configured: an int stays an int on the wire.
        self.intra = itracker.config.intra_pid_distance
        self.diagonal = encode_json(self.intra)
        self.documents: Dict[str, bytes] = {}
        self.cells: Dict[str, Dict[str, Cell]] = {}
        self._itracker = itracker
        self._view: Optional[PDistanceMap] = None
        self._full: Optional[PDistanceMap] = None

    @property
    def view(self) -> PDistanceMap:
        """The raw full view, as ``itracker.view_snapshot()`` gives it."""
        view = self._view
        if view is None:
            view = PDistanceMap.from_mesh(self.layout.pids, self.values, self.intra)
            self._view = view
        return view

    @property
    def full(self) -> PDistanceMap:
        """The finished full view: :attr:`view` with the configured
        degradations, seeded by this snapshot's version."""
        full = self._full
        if full is None:
            full = self._itracker.finish_view(self.view, version=self.key[1])
            self._full = full
        return full


class ViewPublisher:
    """Copy-on-update view cache with cross-thread request coalescing.

    Thread-safe by construction: reads are a single reference grab;
    writers serialize on a mutex only to decide ownership of one
    computation per ``(epoch, version)`` key, and the computation itself
    runs outside the lock.  Shared by every worker of the server, so the
    full-mesh aggregation runs once per price update per process, no
    matter how many workers or connections observe the new version.
    """

    def __init__(self, itracker: ITracker, telemetry: Telemetry) -> None:
        self.itracker = itracker
        self._lock = threading.Lock()
        self._current: Optional[_Snapshot] = None
        self._inflight: Dict[Tuple[int, int], "Future[_Snapshot]"] = {}
        self._traces = telemetry.traces
        registry = telemetry.registry
        self._publications = registry.counter(
            "p4p_portal_view_publications_total",
            "View snapshots computed and published (once per version).",
        ).labels()
        serves = registry.counter(
            "p4p_portal_view_serves_total",
            "View reads, by how the snapshot was obtained.",
            ("outcome",),
        )
        self._served_published = serves.labels(outcome="published")
        self._served_computed = serves.labels(outcome="computed")
        self._served_coalesced = serves.labels(outcome="coalesced")
        self._served_stale = serves.labels(outcome="stale")
        self._encodes = registry.counter(
            "p4p_portal_view_encodes_total",
            "Wire encodings built from a published snapshot: each "
            "full-mesh document, and each source row of cells "
            "(document=\"row\"), once per snapshot.",
            ("document",),
        )

    # -- identity ----------------------------------------------------------

    def _identity(self) -> Tuple[int, int]:
        itracker = self.itracker
        return (getattr(itracker, "epoch", 0), itracker.version)

    def is_current(self) -> bool:
        """True when the published snapshot matches the price state."""
        snapshot = self._current
        return snapshot is not None and snapshot.key == self._identity()

    # -- publication -------------------------------------------------------

    def current(self) -> _Snapshot:
        """The snapshot for the iTracker's current identity.

        Served from the published reference when fresh; otherwise exactly
        one caller computes and publishes while concurrent callers
        coalesce onto its future.
        """
        key = self._identity()
        snapshot = self._current
        if snapshot is not None and snapshot.key == key:
            self._served_published.inc()
            return snapshot
        future: "Future[_Snapshot]"
        with self._lock:
            snapshot = self._current
            if snapshot is not None and snapshot.key == key:
                self._served_published.inc()
                return snapshot
            # The PID layout outlives generations (rebuilt if the PIDs change).
            layout = None if snapshot is None else snapshot.layout
            existing = self._inflight.get(key)
            if existing is None:
                future = Future()
                self._inflight[key] = future
                owner = True
            else:
                future = existing
                owner = False
        if not owner:
            self._served_coalesced.inc()
            return future.result(timeout=COALESCE_TIMEOUT)
        try:
            snapshot = self._compute(key, layout)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            future.set_exception(exc)
            raise
        with self._lock:
            # Never replace a newer publication with an older compute
            # (the version may have advanced while we were building).
            if self._current is None or self._current.key <= key:
                self._current = snapshot
            self._inflight.pop(key, None)
        self._served_computed.inc()
        future.set_result(snapshot)
        return snapshot

    def _compute(
        self, key: Tuple[int, int], layout: Optional[MeshLayout]
    ) -> _Snapshot:
        traces = self._traces
        span = traces.start("portal.view_publish", version=key[1], epoch=key[0])
        index, values = self.itracker.view_vector()
        if layout is None or layout.pids != index.pids:
            layout = MeshLayout(index.pids)
            if layout.pairs != index.pairs:
                raise ValueError("view is not a full mesh in external-view order")
        traces.finish(span.set(pids=len(index.pids)))
        self._publications.inc()
        return _Snapshot(key, layout, values, self.itracker)

    # -- reads -------------------------------------------------------------

    def view(self, pids: Optional[Sequence[str]] = None) -> PDistanceMap:
        """What ``itracker.get_pdistances(pids=pids)`` would return,
        served from the published snapshot."""
        return self.finish(self.current(), pids)

    def has_published(self) -> bool:
        """True once any snapshot has ever been published (the brownout
        precondition: there must be *something* stale to serve)."""
        with self._lock:
            return self._current is not None

    def snapshot(self, stale_ok: bool = False) -> _Snapshot:
        """The snapshot a view read is answered from: :meth:`current`,
        unless ``stale_ok`` and anything has been published.

        ``stale_ok`` is the brownout read path: under sustained overload
        the serving plane answers view reads from the last *published*
        snapshot, regardless of freshness, without re-aggregating, so
        guidance stays available (explicitly degraded) while the
        aggregation cost is shed.  Before the first publication there is
        nothing stale to serve and the fresh path is the fallback.
        """
        if stale_ok:
            with self._lock:
                snapshot = self._current
            if snapshot is not None:
                self._served_stale.inc()
                return snapshot
        return self.current()

    def finish(
        self, snapshot: _Snapshot, pids: Optional[Sequence[str]]
    ) -> PDistanceMap:
        """``snapshot``'s view over ``pids`` (the full view for ``None``)."""
        if pids is None:
            return snapshot.full
        restricted = snapshot.view.restricted_to(pids)
        return self.itracker.finish_view(restricted, version=snapshot.key[1])

    def pdistances_document(self, snapshot: _Snapshot) -> bytes:
        """The encoded ``pdistance_to_wire`` of ``snapshot``'s full view."""
        return self._document(
            snapshot, "pdistances", lambda: protocol.pdistance_to_wire(snapshot.full)
        )

    def costmap_document(self, snapshot: _Snapshot, mode: str) -> bytes:
        """The encoded ``alto.cost_map_document`` of ``snapshot``'s full
        view in ``mode``, tagged with the snapshot's version."""
        return self._document(
            snapshot,
            f"costmap-{mode}",
            lambda: alto.cost_map_document(
                snapshot.full, mode=mode, map_vtag=f"p4p-{snapshot.key[1]}"
            ),
        )

    def _document(
        self,
        snapshot: _Snapshot,
        name: str,
        reference: Callable[[], Dict[str, Any]],
    ) -> bytes:
        """The encoded wire document ``name`` of ``snapshot``'s full view,
        built by the first caller and shared by every later one.

        A raw view gets both documents of :meth:`MeshLayout.encode` at
        once, straight from the snapshot's vector; a degraded view
        (noise, ranks) or the ordinal cost map is ``reference()``,
        encoded.  No lock: two workers missing at once both build the
        same bytes and one assignment wins, which costs a duplicate
        build once per generation instead of a lock acquisition per
        read.
        """
        document = snapshot.documents.get(name)
        if document is not None:
            return document
        if name in MESH_DOCUMENTS and self.itracker.serves_raw_views:
            encoded = snapshot.layout.encode(
                snapshot.values, snapshot.diagonal, snapshot.key[1]
            )
            built = dict(zip(MESH_DOCUMENTS, encoded))
        else:
            built = {name: encode_json(reference())}
        for built_name, document in built.items():
            snapshot.documents[built_name] = document
            self._encodes.labels(document=built_name).inc()
        return built[name]

    def cells(self, snapshot: _Snapshot, src: str) -> Dict[str, Cell]:
        """``snapshot``'s encoded row of ``src``: one :data:`Cell` per
        destination, built by the first read that touches the row and
        shared -- never mutated -- by every later one.  Lock-free like
        :meth:`_document`, and dropped with the snapshot."""
        cells = snapshot.cells.get(src)
        if cells is None:
            cells = snapshot.layout.encode_row(src, snapshot.values, snapshot.diagonal)
            snapshot.cells[src] = cells
            self._encodes.labels(document="row").inc()
        return cells

    def spliced_pdistances(self, snapshot: _Snapshot, pids: Sequence[str]) -> bytes:
        """The encoded ``pdistance_to_wire`` of ``snapshot``'s raw view
        over ``pids``, joined from its rows' cells instead of rebuilt.
        Only for an iTracker that :attr:`~ITracker.serves_raw_views`."""
        keep = snapshot.layout.kept(pids)
        parts: List[bytes] = []
        for src in keep:
            cells = self.cells(snapshot, src)
            parts.append(cells[src][0])  # rows start at the diagonal
            parts += [cells[dst][0] for dst in keep if dst != src]
        return b'{"pids":%b,"distances":[%b]}' % (
            encode_json(keep),
            b",".join(parts),
        )

    def spliced_costmap(self, snapshot: _Snapshot, pids: Sequence[str]) -> bytes:
        """The encoded numerical ``alto.cost_map_document`` of
        ``snapshot``'s raw view over ``pids``, tagged with the snapshot's
        version, joined from its rows' cells.  Same precondition as
        :meth:`spliced_pdistances`."""
        keep = snapshot.layout.kept(pids)
        meta = alto.cost_map_meta(alto.NUMERICAL, f"p4p-{snapshot.key[1]}")
        rows: List[bytes] = []
        for src in keep:  # cost-map rows run in PID order, diagonal in place
            cells = self.cells(snapshot, src)
            members = b",".join([cells[dst][1] for dst in keep])
            rows.append(b"%b:{%b}" % (encode_json(src), members))
        return b'{"meta":%b,"cost-map":{%b}}' % (encode_json(meta), b",".join(rows))
