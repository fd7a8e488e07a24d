"""The iTracker: a provider's P4P portal (Secs. 3 and 6.1).

One iTracker serves a single provider network.  It exposes the three control
plane interfaces -- ``policy``, ``p4p-distance``, ``capability`` -- and
maintains the per-link prices behind the p-distance view, either *static*
(derived from OSPF weights, hop counts, or an explicit assignment) or
*dynamic* (projected super-gradient updates driven by measured link loads,
refreshed every ``update_period`` seconds).

For interdomain multihoming cost control the iTracker tracks per-link volume
histories and estimates the virtual capacity ``v_e`` with the Sec. 6.1
charging-volume predictor.
"""

from __future__ import annotations

import enum
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.capability import Capability, CapabilityRegistry
from repro.core.charging import (
    BackgroundPredictor,
    ChargingVolumePredictor,
    estimate_virtual_capacity,
)
from repro.core.objectives import (
    MinMaxUtilization,
    ProviderObjective,
    effective_capacity,
    link_vector,
)
from repro.core.pdistance import PDistanceMap, PidMap, link_hops, mesh_values
from repro.core.policy import NetworkPolicy
from repro.core.statestore import StateStore
from repro.network.routing import RouteHopIndex, RoutingTable
from repro.network.topology import Topology
from repro.optimization.projection import project_weighted_simplex, uniform_price

LinkKey = Tuple[str, str]
#: One price-state generation as the update log keeps it: ``(epoch,
#: version, time, link order, price vector)``, rendered as a record
#: (:meth:`ITracker._record`) only when it is read or persisted.
UpdateEntry = Tuple[int, int, float, Tuple[LinkKey, ...], np.ndarray]

logger = logging.getLogger(__name__)


class PriceMode(enum.Enum):
    """How the iTracker assigns per-link p-distances (ISP use cases, Sec. 4)."""

    OSPF_WEIGHTS = "ospf"
    HOP_COUNT = "hop-count"
    EXPLICIT = "explicit"
    DYNAMIC = "dynamic"


@dataclass
class ITrackerConfig:
    """Operator-tunable iTracker settings.

    Attributes:
        mode: Price assignment mode.
        update_period: Seconds between dynamic price updates (``T``).
        step_size: ``mu`` of the super-gradient update in dynamic mode.
        step_decay: When > 0, the ``tau``-th step is ``mu / (1 + decay *
            tau)`` -- the diminishing schedule that convergence theory asks
            for; 0 keeps the constant step the paper uses in practice,
            because network and applications keep evolving anyway.
        perturbation: Relative privacy noise applied to the external view,
            in ``[0, 1)`` (0 disables).
        serve_ranks: Serve the coarse rank degradation instead of raw
            p-distances (the 'coarsest level' use case).
        intra_pid_distance: ``p_ii`` reported for intra-PID transfers
            (finite, >= 0).
        charging_quantile: q of the percentile charging model.
    """

    mode: PriceMode = PriceMode.DYNAMIC
    update_period: float = 30.0
    step_size: float = 0.05
    step_decay: float = field(default=0.0, kw_only=True)
    perturbation: float = 0.0
    serve_ranks: bool = False
    intra_pid_distance: float = 0.0
    charging_quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.update_period <= 0:
            raise ValueError("update_period must be positive")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.step_decay < 0:
            raise ValueError("step_decay must be >= 0")
        if not 0 <= self.perturbation < 1:
            raise ValueError("perturbation must be in [0, 1)")
        if not (math.isfinite(self.intra_pid_distance) and self.intra_pid_distance >= 0):
            raise ValueError("intra_pid_distance must be finite and >= 0")
        if not 0 < self.charging_quantile <= 1:
            raise ValueError("charging_quantile must be in (0, 1]")


@dataclass
class ITracker:
    """A provider portal bound to one topology.

    The portal is deliberately light-weight: it never handles per-client
    application joins; it answers aggregate queries that applications (or
    appTrackers) may cache until the next update period.
    """

    topology: Topology
    config: ITrackerConfig = field(default_factory=ITrackerConfig)
    objective: ProviderObjective = field(default_factory=MinMaxUtilization)
    policy: NetworkPolicy = field(default_factory=NetworkPolicy)
    capabilities: CapabilityRegistry = field(default_factory=CapabilityRegistry)
    pid_map: Optional[PidMap] = None
    explicit_prices: Optional[Dict[LinkKey, float]] = None
    #: Optional :class:`repro.observability.Telemetry`; when present every
    #: dynamic price update records a span (super-gradient norm, MLU) and
    #: refreshes the ``p4p_core_*`` gauges.  A :class:`~repro.portal.aserver.
    #: AsyncPortalServer` fronting this iTracker shares its bundle automatically.
    telemetry: Optional[Any] = field(default=None, repr=False)
    #: Optional :class:`repro.core.statestore.StateStore`; when present
    #: every version bump appends a WAL record and :meth:`checkpoint` /
    #: :meth:`restore` make the portal survive a crash with its price
    #: iterate, charging histories, and version epoch intact.
    state_store: Optional[StateStore] = field(default=None, repr=False)

    #: How many recent update records :meth:`state_delta` can serve.
    UPDATE_LOG_SIZE = 256

    def __post_init__(self) -> None:
        self.routing = RoutingTable.build(self.topology)
        self._link_order: Tuple[LinkKey, ...] = tuple(self.topology.links)
        self._capacities = np.array(
            [effective_capacity(self.topology.links[key]) for key in self._link_order]
        )
        self._prices = self._initial_prices()
        self._steps = 0
        self._version = 0
        self._epoch = 0
        self._last_update_time = 0.0
        self._volume_history: Dict[LinkKey, List[float]] = {}
        self._background_history: Dict[LinkKey, List[float]] = {}
        # ``view_vector``'s route gather, for one (hop index, link order).
        self._view_hops: Optional[Tuple[RouteHopIndex, Tuple[LinkKey, ...], np.ndarray]] = None
        self._update_log: Deque[UpdateEntry] = deque(maxlen=self.UPDATE_LOG_SIZE)
        self._update_log.append(self._update_entry())

    # -- price state -----------------------------------------------------------

    def _initial_prices(self) -> np.ndarray:
        mode = self.config.mode
        if mode is PriceMode.OSPF_WEIGHTS:
            return np.array(
                [self.topology.links[key].ospf_weight for key in self._link_order]
            )
        if mode is PriceMode.HOP_COUNT:
            return np.ones(len(self._link_order))
        if mode is PriceMode.EXPLICIT:
            if self.explicit_prices is None:
                raise ValueError("EXPLICIT mode requires explicit_prices")
            missing = set(self._link_order) - set(self.explicit_prices)
            if missing:
                raise ValueError(f"explicit prices missing for links: {sorted(missing)}")
            return np.array([self.explicit_prices[key] for key in self._link_order])
        return uniform_price(self._capacities)

    @property
    def link_prices(self) -> Dict[LinkKey, float]:
        """Current internal-view per-link prices ``p_e``."""
        return dict(zip(self._link_order, self._prices))

    @property
    def version(self) -> int:
        """Monotone counter bumped on every dynamic update (cache key)."""
        return self._version

    @property
    def epoch(self) -> int:
        """Restart generation: 0 for a fresh portal, +1 per :meth:`restore`.

        ``(epoch, version)`` is the fully monotone identity of the price
        state: a restore bumps both, so clients comparing the pair detect
        an amnesiac restart (a tracker that reset to ``(0, 0)``) as a
        regression rather than mistaking it for fresh state.
        """
        return self._epoch

    # -- the p4p-distance interface ---------------------------------------------

    def get_pdistances(self, pids: Optional[Sequence[str]] = None) -> PDistanceMap:
        """The external view, optionally restricted to a swarm's PIDs.

        Applies the configured privacy perturbation and/or rank coarsening.
        """
        view = self.view_snapshot()
        if pids is not None:
            view = view.restricted_to(pids)
        return self.finish_view(view)

    def view_vector(self) -> Tuple[RouteHopIndex, np.ndarray]:
        """The raw full-mesh external view for the current price state,
        as the routes' hop index and the p-distance vector in its
        ``pairs`` order (:func:`~repro.core.pdistance.mesh_values`).

        This is the expensive, *pure* part of :meth:`get_pdistances`
        (aggregating per-link prices over every PID-pair route), before
        any restriction or configured degradation.  It depends only on
        ``(epoch, version)``, which makes it the cacheable unit behind
        the async serving plane's versioned copy-on-update view
        publication (:class:`repro.portal.views.ViewPublisher`).
        """
        index = self.routing.hop_index(self.topology.aggregation_pids)
        gather = self._view_hops
        if gather is None or gather[0] is not index or gather[1] is not self._link_order:
            gather = (index, self._link_order, link_hops(index, self._link_order))
            self._view_hops = gather
        cost = self._prices
        offsets = self.objective.cost_offsets(self.topology)
        if offsets:
            cost = cost + link_vector(self._link_order, offsets)
        return index, mesh_values(index, gather[2], cost, self.config.intra_pid_distance)

    def view_snapshot(self) -> PDistanceMap:
        """:meth:`view_vector` as a :class:`PDistanceMap`."""
        index, values = self.view_vector()
        return PDistanceMap.from_mesh(index.pids, values, self.config.intra_pid_distance)

    def finish_view(
        self, view: PDistanceMap, version: Optional[int] = None
    ) -> PDistanceMap:
        """Apply the configured degradations to a (restricted) raw view.

        Perturbation is seeded by ``version`` (default: the current one)
        so a cached snapshot postprocessed later yields bit-identical
        distances to a view computed inline at that version.  Order
        matters and mirrors :meth:`get_pdistances`: restrict first, then
        perturb, then coarsen to ranks.
        """
        if self.config.perturbation > 0:
            seed = self._version if version is None else version
            view = view.perturbed(self.config.perturbation, seed=seed)
        if self.config.serve_ranks:
            view = view.to_ranks()
        return view

    @property
    def serves_raw_views(self) -> bool:
        """True when :meth:`finish_view` is the identity: no perturbation
        and no rank coarsening is configured, so a restriction of the raw
        view is served as it is (and its encoded pieces may be shared
        across requests -- both degradations depend on the restricted
        set as a whole)."""
        return not (self.config.perturbation > 0 or self.config.serve_ranks)

    # -- the policy / capability interfaces --------------------------------------

    def get_policy(self) -> NetworkPolicy:
        return self.policy

    def get_capabilities(self, requester: str, **filters) -> List[Capability]:
        return self.capabilities.query(requester, **filters)

    def lookup_pid(self, ip: str) -> Tuple[str, int]:
        """IP -> (PID, AS); requires a provisioned PID map."""
        if self.pid_map is None:
            raise RuntimeError("iTracker has no PID map provisioned")
        return self.pid_map.lookup(ip)

    # -- dynamic updates ----------------------------------------------------------

    def observe_loads(
        self, loads: Mapping[LinkKey, float], now: Optional[float] = None
    ) -> bool:
        """Feed measured P4P link loads; update prices if the period elapsed.

        Args:
            loads: Per-link P4P-controlled traffic in Mbps.
            now: Measurement timestamp; when given, updates are rate-limited
                to one per ``update_period``.  ``None`` forces an update.

        Returns:
            True when prices were updated.
        """
        if self.config.mode is not PriceMode.DYNAMIC:
            return False
        if now is not None:
            if now - self._last_update_time < self.config.update_period and self._version > 0:
                return False
            self._last_update_time = now
        telemetry = self.telemetry
        span = (
            telemetry.traces.start(
                "itracker.price_update", topology=self.topology.name
            )
            if telemetry is not None
            else None
        )
        xi = self._step(loads)
        self._version += 1
        self._log_update()
        debug = logger.isEnabledFor(logging.DEBUG)
        if telemetry is not None or debug:
            loaded = sum(1 for value in loads.values() if value > 0)
            if telemetry is not None:
                self._record_price_update(telemetry, span, xi, loads, loaded)
            if debug:
                logger.debug(
                    "price update v%d for %s (%d links loaded)",
                    self._version,
                    self.topology.name,
                    loaded,
                )
        return True

    def _step(self, loads: Mapping[LinkKey, float]) -> np.ndarray:
        """One projected super-gradient step on the weighted price simplex
        (eq. 14); returns the super-gradient ``xi``.

        ``tau`` counts the steps this object has taken, warm start
        included, so the ``tau``-th step is ``mu / (1 + decay * tau)``;
        it is not persisted, so a restored iTracker counts from 0 again.
        """
        self._steps += 1
        xi = self.objective.supergradient(self.topology, self._link_order, loads)
        mu = self.config.step_size / (1.0 + self.config.step_decay * self._steps)
        self._prices = project_weighted_simplex(self._prices + mu * xi, self._capacities)
        return xi

    def _record_price_update(self, telemetry, span, xi, loads, loaded) -> None:
        """Set the ``p4p_core_*`` gauges and finish the update span."""
        norm = float(np.linalg.norm(xi))
        capacity = self._capacities
        utilization = np.divide(
            link_vector(self._link_order, loads),
            capacity,
            out=np.zeros(len(capacity)),
            where=capacity > 0,
        )
        max_utilization = float(utilization.max(initial=0.0))
        registry = telemetry.registry
        registry.counter(
            "p4p_core_price_updates_total", "Dynamic price updates applied."
        ).inc()
        registry.gauge(
            "p4p_core_price_version", "Current price-state version counter."
        ).set(self._version)
        registry.gauge(
            "p4p_core_supergradient_norm",
            "L2 norm of the last super-gradient step.",
        ).set(norm)
        registry.gauge(
            "p4p_core_max_link_utilization",
            "Max load/capacity over links at the last update.",
        ).set(max_utilization)
        if span is not None:
            span.set(
                version=self._version,
                supergradient_norm=norm,
                max_link_utilization=max_utilization,
                links_loaded=loaded,
            )
            telemetry.traces.finish(span)

    def warm_start(self, iterations: int = 30) -> None:
        """Pre-converge dynamic prices against background traffic only.

        The paper's Internet experiments note that "the p-distances before
        the arrivals reflect pre-arrival network MLU": before any P4P load
        exists, the super-gradient sees only ``b_e``, driving price mass
        onto the already-utilized links.  No-op in static modes.
        """
        if self.config.mode is not PriceMode.DYNAMIC:
            return
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        for _ in range(iterations):
            self._step({})
        self._version += 1
        self._log_update()

    # -- crash safety & replication ------------------------------------------------

    def _update_entry(self) -> UpdateEntry:
        """The current price state as the update log keeps it."""
        return (
            self._epoch,
            self._version,
            self._last_update_time,
            self._link_order,
            self._prices,  # replaced, never written in place
        )

    @staticmethod
    def _record(entry: UpdateEntry) -> Dict[str, Any]:
        """One self-contained price-state record (WAL line / delta entry)."""
        epoch, version, time, link_order, prices = entry
        return {
            "epoch": epoch,
            "version": version,
            "time": time,
            "prices": _price_list(link_order, prices),
        }

    def _log_update(self) -> None:
        """Record the current state in the delta log and, if attached, the WAL."""
        entry = self._update_entry()
        self._update_log.append(entry)
        if self.state_store is not None:
            self.state_store.append_wal(self._record(entry))

    def checkpoint(self) -> None:
        """Write a full snapshot (prices, version, epoch, charging
        histories) to the attached store and reset the WAL."""
        if self.state_store is None:
            raise RuntimeError("iTracker has no state store attached")
        self.state_store.save_snapshot(
            {
                "format": 1,
                "topology": self.topology.name,
                "epoch": self._epoch,
                "version": self._version,
                "last_update_time": self._last_update_time,
                "prices": _price_list(self._link_order, self._prices),
                "volume_history": [
                    [src, dst, list(values)]
                    for (src, dst), values in self._volume_history.items()
                ],
                "background_history": [
                    [src, dst, list(values)]
                    for (src, dst), values in self._background_history.items()
                ],
            }
        )

    def restore(self) -> bool:
        """Resume from the attached store's snapshot + WAL, if any.

        Returns False (leaving the fresh state untouched) when the store
        is empty.  On success the price vector is the last persisted
        iterate -- the projected super-gradient *continues* instead of
        re-converging from uniform -- the charging histories come back
        from the snapshot, and both ``version`` and ``epoch`` come back
        strictly higher than any persisted value, so caches and replicas
        see the restart as an update, never a reset.  The restored state
        is immediately re-checkpointed: a crash right after recovery
        still recovers to the same place.
        """
        if self.state_store is None:
            raise RuntimeError("iTracker has no state store attached")
        recovered = self.state_store.load()
        if recovered.empty:
            return False
        snapshot = recovered.snapshot or {}
        name = snapshot.get("topology")
        if name is not None and name != self.topology.name:
            raise ValueError(
                f"state store holds topology {name!r}, not {self.topology.name!r}"
            )
        epoch = int(snapshot.get("epoch", 0))
        version = int(snapshot.get("version", 0))
        last_time = float(snapshot.get("last_update_time", 0.0))
        prices = snapshot.get("prices")
        tail = recovered.latest_record
        if tail is not None:
            epoch = max(epoch, int(tail.get("epoch", 0)))
            version = max(version, int(tail.get("version", 0)))
            last_time = float(tail.get("time", last_time))
            prices = tail.get("prices", prices)
        if prices is not None:
            self._set_prices([(src, dst, value) for src, dst, value in prices])
        self._volume_history = {
            (src, dst): [float(v) for v in values]
            for src, dst, values in snapshot.get("volume_history", [])
        }
        self._background_history = {
            (src, dst): [float(v) for v in values]
            for src, dst, values in snapshot.get("background_history", [])
        }
        # Strictly-higher identity: the restart is an epoch boundary.
        self._epoch = epoch + 1
        self._version = version + 1
        self._last_update_time = last_time
        self._update_log.clear()
        self._update_log.append(self._update_entry())
        self.checkpoint()
        logger.info(
            "restored %s from %s: epoch %d, version %d (%d WAL record(s), %d torn)",
            self.topology.name,
            self.state_store.directory,
            self._epoch,
            self._version,
            len(recovered.records),
            recovered.truncated_records,
        )
        return True

    def _set_prices(self, entries: Sequence[Tuple[str, str, float]]) -> None:
        """Install a persisted/replicated price vector.

        When the link set matches exactly the vector is installed
        verbatim (bit-identical resume); otherwise surviving links carry
        their price and the result is re-projected.
        """
        table = {(src, dst): float(value) for src, dst, value in entries}
        if set(table) == set(self._link_order):
            self._prices = np.array([table[key] for key in self._link_order])
        else:
            carried = np.array([table.get(key, 0.0) for key in self._link_order])
            self._prices = project_weighted_simplex(carried, self._capacities)

    def state_delta(self, since: int = -1) -> Dict[str, Any]:
        """Price-state records newer than version ``since`` (the
        ``get_state_delta`` portal method's payload).

        Records are self-contained full vectors, so a follower that
        misses intermediate records (the in-memory tail is bounded) still
        converges by applying the newest one.  ``complete`` is False when
        the tail no longer reaches back to ``since`` + 1 -- harmless for
        price state, but a signal that charging histories need a fresh
        snapshot transfer out of band.
        """
        records = [
            self._record(entry) for entry in self._update_log if entry[1] > since
        ]
        oldest = self._update_log[0][1] if self._update_log else 0
        return {
            "epoch": self._epoch,
            "version": self._version,
            "records": records,
            "complete": since >= oldest - 1 or not records,
        }

    def apply_state_delta(self, delta: Mapping[str, Any]) -> bool:
        """Follower side of replication: install the newest delta record.

        Returns True when state advanced.  Regressions (a delta whose
        ``(epoch, version)`` is not ahead) are ignored, so a standby can
        never be rolled back by a lagging or amnesiac primary.
        """
        records = list(delta.get("records", []))
        if not records:
            return False
        tail = records[-1]
        key = (int(tail.get("epoch", delta.get("epoch", 0))), int(tail["version"]))
        if key <= (self._epoch, self._version) and (self._epoch, self._version) != (0, 0):
            return False
        self._set_prices([(src, dst, value) for src, dst, value in tail["prices"]])
        self._epoch, self._version = key
        self._last_update_time = float(tail.get("time", self._last_update_time))
        self._update_log.append(self._update_entry())
        return True

    # -- interdomain multihoming (Sec. 6.1) -----------------------------------------

    def record_interval_volumes(
        self,
        total: Mapping[LinkKey, float],
        background: Mapping[LinkKey, float],
    ) -> None:
        """Append one 5-minute volume sample per charged link."""
        for key in total:
            if key not in self.topology.links:
                raise KeyError(f"unknown link {key}")
            self._volume_history.setdefault(key, []).append(float(total[key]))
            self._background_history.setdefault(key, []).append(
                float(background.get(key, 0.0))
            )

    def update_virtual_capacities(
        self,
        charging_predictor: Optional[ChargingVolumePredictor] = None,
        background_predictor: Optional[BackgroundPredictor] = None,
        interval_seconds: float = 300.0,
    ) -> Dict[LinkKey, float]:
        """Re-estimate ``v_e`` for every charged link from recorded history.

        Histories are per-interval volumes (Mbit); the estimate is converted
        to a rate (Mbps) by ``interval_seconds``, written onto the links (so
        the effective capacities used by the objective change) and returned.
        """
        charging = charging_predictor or ChargingVolumePredictor(
            q=self.config.charging_quantile
        )
        estimates: Dict[LinkKey, float] = {}
        for link in self.topology.interdomain_links:
            history = self._volume_history.get(link.key)
            if not history or len(history) < 2:
                continue
            interval = len(history)
            v_e_volume = estimate_virtual_capacity(
                history,
                self._background_history[link.key],
                interval,
                charging_predictor=charging,
                background_predictor=background_predictor,
            )
            v_e = v_e_volume / interval_seconds
            link.virtual_capacity = v_e
            estimates[link.key] = v_e
        if estimates:
            self._capacities = np.array(
                [
                    effective_capacity(self.topology.links[key])
                    for key in self._link_order
                ]
            )
            self._prices = project_weighted_simplex(self._prices, self._capacities)
            logger.info(
                "virtual capacities updated for %d charged links of %s",
                len(estimates),
                self.topology.name,
            )
        return estimates


def _price_list(
    link_order: Sequence[LinkKey], prices: np.ndarray
) -> List[List[Any]]:
    """``[[src, dst, price], ...]``, every price a float."""
    values = np.asarray(prices, dtype=float).tolist()
    return [[src, dst, value] for (src, dst), value in zip(link_order, values)]
