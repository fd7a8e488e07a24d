"""Versioned, row-indexed, copy-on-update publication of iTracker views.

The reference :class:`~repro.portal.dispatch.PortalDispatcher` recomputes
the full external view on every ``get_pdistances`` request -- correct,
and exactly what would cap a server's throughput.  The view is
*read-mostly*: it changes only when the price state's ``(epoch,
version)`` identity advances (once per update period), while "millions
of users" read it in between.  This module turns that asymmetry into
the serving plane's hot path:

* :class:`ShardedView` -- one immutable raw external view, split into
  one ``{dst: value}`` row per source.  Restricting to a swarm's k-PID
  footprint is k lookups in each of the k rows it keeps instead of a
  scan of the full mesh, in exactly the order :meth:`~repro.core.
  pdistance.PDistanceMap.restricted_to` would produce -- the wire bytes
  must not depend on whether the view was read off rows or recomputed.

* :class:`ViewPublisher` -- versioned copy-on-update publication with
  request coalescing.  Readers grab the current published snapshot with
  one attribute read (no lock); when the iTracker's identity has moved
  on, exactly *one* caller computes the replacement snapshot while every
  concurrent identical request parks on the same in-flight future and
  receives the published result (k concurrent ``get_pdistances`` -> one
  view computation, k replies).  Publication swaps a single reference,
  so a reader never observes a half-built snapshot.

* :class:`MeshLayout` -- what depends on the PID list alone: the
  external-view pair order, and the encoded text between the numbers of
  the two full-mesh documents.  Built once and handed from each
  published snapshot to the next.

Degradations (privacy perturbation, rank coarsening) are applied per
request *after* restriction via :meth:`~repro.core.itracker.ITracker.
finish_view`, seeded by the snapshot's version -- the same order and
seed the iTracker uses inline, which is what keeps the cached path
bit-identical to the reference dispatcher's.

The snapshot also memoises the *encoded* full-mesh documents
(:meth:`ViewPublisher.pdistances_document`, :meth:`~ViewPublisher.
costmap_document`): an unrestricted read is the same bytes for every
caller until the next publication, so they are built once per
generation, by the first request that asks, and the memo is dropped
with the snapshot.  A full view in the layout's order -- raw or
perturbed -- gets ``get_pdistances`` and the numerical cost map in one
pass (:meth:`MeshLayout.encode`): every value is encoded once and
spliced between the layout's text for both documents.  Ranked views
and the ordinal cost map are built by the reference ``pdistance_to_wire``
/ ``alto.cost_map_document`` and encoded.  Restricted responses are not
kept -- their footprints differ per swarm and nobody has measured a hit
rate -- but what they are made of is: the first read to touch a source
row in a generation encodes that row's cells (:meth:`ViewPublisher.
cells`), and a restricted read whose view needs no degradation is those
cells' bytes, looked up and joined (:meth:`ViewPublisher.
spliced_pdistances`, :meth:`~ViewPublisher.spliced_costmap`).  Every
memoised or spliced result is the document's compact-JSON ``bytes``,
which :func:`~repro.portal.protocol.encode_frame` copies into the frame
as they are; no plain-dict copy of it is ever built.  Perturbation and
ranks are functions of the restricted *set* (noise is drawn in
restricted iteration order, ranks are taken within the restricted row),
so those configurations rebuild through :meth:`ViewPublisher.finish`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.itracker import ITracker
from repro.core.pdistance import PDistanceMap
from repro.observability import Telemetry
from repro.portal import alto, protocol
from repro.portal.protocol import encode_json

#: How long a coalesced reader waits on the in-flight computation before
#: giving up and computing its own view (a safety valve, not a code path
#: any healthy portal takes: view computation is CPU-bound and finite).
COALESCE_TIMEOUT = 60.0


#: The memo names of the two documents :meth:`MeshLayout.encode` builds.
MESH_DOCUMENTS = ("pdistances", f"costmap-{alto.NUMERICAL}")


class MeshLayout:
    """The full mesh over ``pids`` in external-view order, and the
    encoded text around every number of its two full-mesh documents.

    :attr:`pairs` runs per source: the intra-PID ``(src, src)`` entry
    first, then every other PID in PID order -- the way
    :func:`~repro.core.pdistance.external_view` lays a view out.
    Nothing here depends on the values, so one layout serves every
    generation of a portal's views.
    """

    def __init__(self, pids: Sequence[str]) -> None:
        self.pids = tuple(pids)
        n = len(self.pids)
        names = [encode_json(pid) for pid in self.pids]
        # Each source row's destinations as PID positions: diagonal first.
        order = [[i] + [j for j in range(n) if j != i] for i in range(n)]
        #: Destinations of each source row, in view order.
        self.rows = [tuple(self.pids[j] for j in row) for row in order]
        self.pairs = [(self.pids[i], self.pids[j]) for i in range(n) for j in order[i]]
        # A document is its parts joined, with the numbers in the odd
        # slots: head, (text, number) per value, tail.
        self._pdistances = [b""] * (2 * n * n + 2)
        self._pdistances[0] = b'{"pids":%b,"distances":[' % encode_json(
            list(self.pids)
        )
        heads = [b"],[" + name + b"," for name in names]
        dsts = [name + b"," for name in names]
        self._pdistances[1:-1:2] = [heads[i] + dsts[j] for i in range(n) for j in order[i]]
        if n:
            self._pdistances[1] = self._pdistances[1][2:]  # no "]," before the first
        self._pdistances[-1] = b"]]}" if n else b"]}"
        # The cost map runs rows and members in PID order, so its k-th
        # value is the view's ``_costmap_order[k]``-th.
        self._costmap_order = [
            i * n + (0 if j == i else j + 1 if j < i else j)
            for i in range(n)
            for j in range(n)
        ]
        members = [b"," + name + b":" for name in names]
        self._costmap = [b""] * (2 * n * n + 2)  # the head carries the version
        self._costmap[1:-1:2] = members * n
        for i, name in enumerate(names):  # each row opens on its first member
            self._costmap[1 + 2 * n * i] = (
                (b"}," if i else b"") + name + b":{" + members[0][1:]
            )
        self._costmap[-1] = b"}}}" if n else b"}}"

    def ordered(self, view: PDistanceMap) -> bool:
        """True when ``view``'s entries run exactly in :attr:`pairs` order."""
        return tuple(view.pids) == self.pids and list(view.distances) == self.pairs

    def encode(self, view: PDistanceMap, version: int) -> Tuple[bytes, bytes]:
        """The encoded ``pdistance_to_wire(view)`` and
        ``alto.cost_map_document(view)`` in numerical mode tagged with
        ``version`` -- the :data:`MESH_DOCUMENTS` -- for a view in this
        layout.

        Every value is encoded once, for both documents, and spliced
        between the layout's text: byte for byte what encoding the
        reference builders' documents gives.
        """
        array = encode_json(list(view.distances.values()))
        numbers = array[1:-1].split(b",") if view.distances else []
        parts = self._pdistances[:]
        parts[2:-1:2] = numbers
        pdistances = b"".join(parts)
        meta = alto.cost_map_meta(alto.NUMERICAL, f"p4p-{version}")
        parts = self._costmap[:]
        parts[0] = b'{"meta":%b,"cost-map":{' % encode_json(meta)
        parts[2:-1:2] = map(numbers.__getitem__, self._costmap_order)
        return pdistances, b"".join(parts)


class ShardedView:
    """One immutable external view, split into one row per source PID.

    ``src -> {dst: value}``.  The view must be a full mesh laid out the
    way :func:`~repro.core.pdistance.external_view` lays it out (its
    :class:`MeshLayout`), which is checked here once, so that a
    restriction to k PIDs can be read off as k lookups per kept row (the
    diagonal, then the other kept PIDs in order) and still be
    byte-identical to ``view.restricted_to``.
    """

    def __init__(self, view: PDistanceMap, layout: Optional[MeshLayout] = None) -> None:
        if layout is None or layout.pids != tuple(view.pids):
            layout = MeshLayout(view.pids)
        if not layout.ordered(view):
            raise ValueError("view is not a full mesh in external-view order")
        self.view = view
        self.layout = layout
        values = list(view.distances.values())
        n = len(view.pids)
        self._rows = {
            src: dict(zip(dsts, values[i * n : (i + 1) * n]))
            for i, (src, dsts) in enumerate(zip(view.pids, layout.rows))
        }
        self._rank = {pid: index for index, pid in enumerate(view.pids)}

    def row(self, src: str) -> Dict[str, float]:
        """``{dst: value}`` of one source, in the view's insertion order."""
        return self._rows[src]

    def kept(self, pids: Sequence[str]) -> List[str]:
        """The visible PIDs among ``pids``, once each, in view order."""
        rank = self._rank
        return sorted(rank.keys() & set(pids), key=rank.__getitem__)

    def restricted(self, pids: Sequence[str]) -> PDistanceMap:
        """Sub-view over ``pids``, equal to ``view.restricted_to(pids)``
        entry for entry and in the same order, so its JSON wire encoding
        matches that restriction exactly."""
        keep = self.kept(pids)
        distances: Dict[Tuple[str, str], float] = {}
        for src in keep:
            row = self.row(src)
            distances[(src, src)] = row[src]  # rows start at the diagonal
            for dst in keep:
                if dst != src:
                    distances[(src, dst)] = row[dst]
        return PDistanceMap(pids=tuple(keep), distances=distances)


#: One destination of an encoded source row: the compact JSON of its
#: ``[src, dst, value]`` entry of a ``get_pdistances`` result, and the
#: ``"dst":value`` member of an ALTO cost-map row.
Cell = Tuple[bytes, bytes]


def _encode_row(src: str, row: Dict[str, float]) -> Dict[str, Cell]:
    head = b"[" + encode_json(src) + b","
    cells: Dict[str, Cell] = {}
    for dst, value in row.items():
        name = encode_json(dst)
        number = encode_json(value)
        cells[dst] = (head + name + b"," + number + b"]", name + b":" + number)
    return cells


class _Snapshot:
    """One published generation: raw rows, the finished full view, and
    what has been encoded from them so far -- the full-mesh wire
    documents and the per-source rows of cells."""

    __slots__ = ("key", "sharded", "full", "documents", "cells")

    def __init__(
        self,
        key: Tuple[int, int],
        sharded: ShardedView,
        full: PDistanceMap,
    ) -> None:
        self.key = key  # (epoch, version) identity of the price state
        self.sharded = sharded
        self.full = full
        self.documents: Dict[str, bytes] = {}
        self.cells: Dict[str, Dict[str, Cell]] = {}


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
            layout = None if snapshot is None else snapshot.sharded.layout
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
        raw = self.itracker.view_snapshot()
        sharded = ShardedView(raw, layout)
        full = self.itracker.finish_view(raw, version=key[1])
        traces.finish(span.set(pids=len(raw.pids)))
        self._publications.inc()
        return _Snapshot(key, sharded, full)

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
        restricted = snapshot.sharded.restricted(pids)
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

        A full view in the snapshot's layout gets both documents of
        :meth:`MeshLayout.encode` at once; any other view (ranks) or
        document (ordinal cost map) is ``reference()``, encoded.  No
        lock: two workers missing at once both build the same bytes and
        one assignment wins, which costs a duplicate build once per
        generation instead of a lock acquisition per read.
        """
        document = snapshot.documents.get(name)
        if document is not None:
            return document
        sharded, full = snapshot.sharded, snapshot.full
        if name in MESH_DOCUMENTS and (
            full is sharded.view or sharded.layout.ordered(full)
        ):
            built = dict(
                zip(MESH_DOCUMENTS, sharded.layout.encode(full, snapshot.key[1]))
            )
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
            cells = _encode_row(src, snapshot.sharded.row(src))
            snapshot.cells[src] = cells
            self._encodes.labels(document="row").inc()
        return cells

    def spliced_pdistances(self, snapshot: _Snapshot, pids: Sequence[str]) -> bytes:
        """The encoded ``pdistance_to_wire`` of ``snapshot``'s raw view
        over ``pids``, joined from its rows' cells instead of rebuilt.
        Only for an iTracker that :attr:`~ITracker.serves_raw_views`."""
        keep = snapshot.sharded.kept(pids)
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
        keep = snapshot.sharded.kept(pids)
        meta = alto.cost_map_meta(alto.NUMERICAL, f"p4p-{snapshot.key[1]}")
        rows: List[bytes] = []
        for src in keep:  # cost-map rows run in PID order, diagonal in place
            cells = self.cells(snapshot, src)
            members = b",".join([cells[dst][1] for dst in keep])
            rows.append(b"%b:{%b}" % (encode_json(src), members))
        return b'{"meta":%b,"cost-map":{%b}}' % (encode_json(meta), b",".join(rows))
