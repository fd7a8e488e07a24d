"""Versioned, sharded, copy-on-update publication of iTracker views.

The blocking portal server recomputes the full external view on every
``get_pdistances`` request -- correct, and exactly what caps its
throughput.  The view is *read-mostly*: it changes only when the price
state's ``(epoch, version)`` identity advances (once per update period),
while "millions of users" read it in between.  This module turns that
asymmetry into the async serving plane's hot path:

* :class:`ShardedView` -- one immutable raw external view, partitioned
  over PID space (stable hash of the source PID -> shard).  Restricting
  to a swarm's PID footprint touches only the shards owning those
  sources instead of scanning the full mesh, and reassembles rows in
  exactly the order :meth:`~repro.core.pdistance.PDistanceMap.
  restricted_to` would produce -- the wire bytes must not depend on
  which server computed them.

* :class:`ViewPublisher` -- versioned copy-on-update publication with
  request coalescing.  Readers grab the current published snapshot with
  one attribute read (no lock); when the iTracker's identity has moved
  on, exactly *one* caller computes the replacement snapshot while every
  concurrent identical request parks on the same in-flight future and
  receives the published result (k concurrent ``get_pdistances`` -> one
  view computation, k replies).  Publication swaps a single reference,
  so a reader never observes a half-built snapshot.

Degradations (privacy perturbation, rank coarsening) are applied per
request *after* restriction via :meth:`~repro.core.itracker.ITracker.
finish_view`, seeded by the snapshot's version -- the same order and
seed the iTracker uses inline, which is what keeps the cached path
bit-identical to the blocking server's.

The snapshot also memoises the *encoded* full-mesh documents
(:meth:`ViewPublisher.document`): an unrestricted read is the same bytes
for every caller until the next publication, so the rows are walked and
serialised once per generation, by the first request that asks, and the
memo is dropped with the snapshot.  Restricted reads are rebuilt per
request -- their footprints differ per swarm and no hit rate has been
measured that would justify keeping them.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.itracker import ITracker
from repro.core.pdistance import PDistanceMap
from repro.portal.protocol import EncodedDocument

#: How long a coalesced reader waits on the in-flight computation before
#: giving up and computing its own view (a safety valve, not a code path
#: any healthy portal takes: view computation is CPU-bound and finite).
COALESCE_TIMEOUT = 60.0


def shard_of(pid: str, n_shards: int) -> int:
    """Stable PID -> shard index (crc32, *not* ``hash()``: the built-in
    is salted per process, and shard placement must be deterministic)."""
    return zlib.crc32(pid.encode("utf-8")) % n_shards


class ShardedView:
    """One immutable external view, partitioned by source PID.

    Each shard maps ``src -> [(dst, value), ...]`` with rows in the full
    view's insertion order (the intra-PID ``(src, src)`` entry first,
    then destinations in PID order) -- the invariant that lets
    :meth:`restricted` rebuild byte-identical sub-views.
    """

    def __init__(self, view: PDistanceMap, n_shards: int = 8) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.view = view
        self.n_shards = n_shards
        shards: List[Dict[str, List[Tuple[str, float]]]] = [
            {} for _ in range(n_shards)
        ]
        for (src, dst), value in view.distances.items():
            shards[shard_of(src, n_shards)].setdefault(src, []).append((dst, value))
        self._shards: Tuple[Dict[str, List[Tuple[str, float]]], ...] = tuple(shards)

    def shard_sizes(self) -> List[int]:
        """Row count per shard (for tests and the shard-balance gauge)."""
        return [
            sum(len(rows) for rows in shard.values()) for shard in self._shards
        ]

    def restricted(self, pids: Sequence[str]) -> PDistanceMap:
        """Sub-view over ``pids``, equal to ``view.restricted_to(pids)``.

        Iterates kept sources in full-view PID order and each source's
        rows in insertion order, so the resulting distance dict -- and
        therefore its JSON wire encoding -- matches the unsharded
        restriction exactly.
        """
        requested = set(pids)
        keep = [pid for pid in self.view.pids if pid in requested]
        keep_set = set(keep)
        distances: Dict[Tuple[str, str], float] = {}
        for src in keep:
            rows = self._shards[shard_of(src, self.n_shards)].get(src, ())
            for dst, value in rows:
                if dst in keep_set:
                    distances[(src, dst)] = value
        return PDistanceMap(pids=tuple(keep), distances=distances)


class _Snapshot:
    """One published generation: raw shards, the finished full view, and
    the full-mesh wire documents encoded from it so far."""

    __slots__ = ("key", "sharded", "full", "documents")

    def __init__(
        self,
        key: Tuple[int, int],
        sharded: ShardedView,
        full: PDistanceMap,
    ) -> None:
        self.key = key  # (epoch, version) identity of the price state
        self.sharded = sharded
        self.full = full
        self.documents: Dict[str, EncodedDocument] = {}


class ViewPublisher:
    """Copy-on-update view cache with cross-thread request coalescing.

    Thread-safe by construction: reads are a single reference grab;
    writers serialize on a mutex only to decide ownership of one
    computation per ``(epoch, version)`` key, and the computation itself
    runs outside the lock.  Shared by every worker of the async server
    (and safe under the blocking server's handler threads too), so the
    full-mesh aggregation runs once per price update per process, no
    matter how many workers or connections observe the new version.
    """

    def __init__(
        self,
        itracker: ITracker,
        n_shards: int = 8,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.itracker = itracker
        self.n_shards = n_shards
        self._lock = threading.Lock()
        self._current: Optional[_Snapshot] = None
        self._inflight: Dict[Tuple[int, int], "Future[_Snapshot]"] = {}
        self._telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._publications = registry.counter(
                "p4p_portal_view_publications_total",
                "View snapshots computed and published (once per version).",
            ).labels()
            self._serves = registry.counter(
                "p4p_portal_view_serves_total",
                "View reads, by how the snapshot was obtained.",
                ("outcome",),
            )
            self._served_published = self._serves.labels(outcome="published")
            self._served_computed = self._serves.labels(outcome="computed")
            self._served_coalesced = self._serves.labels(outcome="coalesced")
            self._served_stale = self._serves.labels(outcome="stale")
            self._encodes = registry.counter(
                "p4p_portal_view_encodes_total",
                "Full-mesh wire documents built and encoded (once per "
                "document per published snapshot).",
                ("document",),
            )
        else:
            self._encodes = None
            self._publications = None
            self._served_published = None
            self._served_computed = None
            self._served_coalesced = None
            self._served_stale = None

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
            if self._served_published is not None:
                self._served_published.inc()
            return snapshot
        future: "Future[_Snapshot]"
        with self._lock:
            snapshot = self._current
            if snapshot is not None and snapshot.key == key:
                if self._served_published is not None:
                    self._served_published.inc()
                return snapshot
            existing = self._inflight.get(key)
            if existing is None:
                future = Future()
                self._inflight[key] = future
                owner = True
            else:
                future = existing
                owner = False
        if not owner:
            if self._served_coalesced is not None:
                self._served_coalesced.inc()
            return future.result(timeout=COALESCE_TIMEOUT)
        try:
            snapshot = self._compute(key)
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
        if self._served_computed is not None:
            self._served_computed.inc()
        future.set_result(snapshot)
        return snapshot

    def _compute(self, key: Tuple[int, int]) -> _Snapshot:
        telemetry = self._telemetry
        if telemetry is not None:
            traces = telemetry.traces
            span = traces.start("portal.view_publish", version=key[1], epoch=key[0])
        else:
            traces = span = None
        raw = self.itracker.view_snapshot()
        sharded = ShardedView(raw, n_shards=self.n_shards)
        full = self.itracker.finish_view(raw, version=key[1])
        if traces is not None and span is not None:
            span.set(pids=len(raw.pids))
            traces.finish(span)
        if self._publications is not None:
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
                if self._served_stale is not None:
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

    def document(
        self,
        snapshot: _Snapshot,
        name: str,
        build: Callable[[PDistanceMap], Dict[str, Any]],
    ) -> EncodedDocument:
        """The wire document ``name`` of ``snapshot``'s full view, built
        and encoded by the first caller and shared by every later one.

        No lock: two workers missing at once both build the same bytes
        and one assignment wins, which costs a duplicate build once per
        generation instead of a lock acquisition per read.
        """
        document = snapshot.documents.get(name)
        if document is None:
            document = EncodedDocument(build(snapshot.full))
            snapshot.documents[name] = document
            if self._encodes is not None:
                self._encodes.labels(document=name).inc()
        return document
