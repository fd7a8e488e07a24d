"""Session-level TCP model: flows share links max-min fairly (Sec. 7.1).

Following the paper (which follows Bharambe et al. and Bindal et al.), TCP
is modelled at the session level: the throughput of each active transfer is
its max-min fair share of the links it crosses, recomputed whenever a
transfer starts or finishes.  Per-link byte counters are maintained so the
evaluation metrics (bottleneck traffic, utilization timelines, unit BDP)
can be derived.

One engine runs every simulation, and one reference checks it:

* :class:`VectorizedFlowNetwork` -- the engine (:func:`make_flow_network`
  builds it).  The incidence lives permanently in flat numpy entry arrays
  (a COO sparse flow x link matrix with lazy deletion and periodic
  compaction), flow state lives in reusable array slots, every link
  carries a component label (union on arrival, a lazy amortised split on
  departure), and each arrival/completion only re-solves the components it
  touched, falling back to a single whole-network vector solve when one
  of them grows past a threshold.
* :class:`FlowNetwork` -- the reference oracle (and the base class holding
  the link registry).  Between rate recomputations the per-flow remaining
  sizes live in a numpy array so advancing the clock is vectorized, but
  every flow arrival or completion rebuilds the whole flow->link incidence
  from the Python flow objects and re-solves the entire network.  No
  simulation runs on it: :mod:`repro.simulator.differential` (and through
  it the fuzz oracle) and the tests construct it to check the engine, whose
  allocations agree with it to ~1e-9 (bit-exact on the full-solve path);
  see ``tests/test_engine_differential.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.optimization.maxmin import (
    _build_entries,
    _progressive_fill,
    _progressive_fill_fast,
)

LinkKey = Tuple[str, str]

_DONE_EPS = 1e-6
_INF = float("inf")


@dataclass
class Flow:
    """One in-flight transfer."""

    flow_id: int
    link_indices: Tuple[int, ...]
    remaining_mbit: float
    meta: object = None
    rate: float = 0.0
    rate_cap: float = float("inf")

    @property
    def finished(self) -> bool:
        return self.remaining_mbit <= _DONE_EPS


class FlowNetwork:
    """Active transfers over a capacitated link set: the reference oracle.

    The scalar model :class:`VectorizedFlowNetwork` is checked against, and
    its base class (the link registry lives here); no simulation runs on it.

    Usage: register links up front (``add_link``), then ``start_flow`` /
    ``advance`` / ``pop_finished`` under an external clock.  Rates are
    recomputed lazily -- flow churn marks the network dirty and the next
    query recomputes -- so one recompute covers a whole batch of same-time
    events.
    """

    def __init__(self) -> None:
        self._capacities: List[float] = []
        self._link_index: Dict[object, int] = {}
        self._flows: Dict[int, Flow] = {}
        self._next_flow_id = 0
        self._dirty = True
        self._clock = 0.0
        # Canonical between recomputes (aligned with _flow_list):
        self._flow_list: List[Flow] = []
        self._remaining = np.zeros(0)
        self._rates = np.zeros(0)
        self._link_rates = np.zeros(0)
        self.link_mbit = np.zeros(0)

    # -- links ------------------------------------------------------------

    def add_link(self, name: object, capacity: float) -> int:
        """Register a link; returns its index.  Duplicate names rejected."""
        if capacity <= 0:
            raise ValueError(f"link {name!r} needs positive capacity")
        if name in self._link_index:
            raise ValueError(f"duplicate link {name!r}")
        index = len(self._capacities)
        self._link_index[name] = index
        self._capacities.append(capacity)
        self.link_mbit = np.append(self.link_mbit, 0.0)
        self._link_rates = np.append(self._link_rates, 0.0)
        return index

    def link_id(self, name: object) -> int:
        return self._link_index[name]

    @property
    def n_links(self) -> int:
        return len(self._capacities)

    def capacity(self, index: int) -> float:
        return self._capacities[index]

    # -- flows -------------------------------------------------------------

    def start_flow(
        self,
        link_indices: Sequence[int],
        size_mbit: float,
        meta: object = None,
        rate_cap: Optional[float] = None,
    ) -> Flow:
        """Begin a transfer of ``size_mbit`` over the given links.

        ``rate_cap`` bounds the flow's throughput regardless of fair share
        (the TCP window/RTT ceiling of the session-level model).
        """
        if size_mbit <= 0:
            raise ValueError("flow size must be positive")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError("rate_cap must be positive")
        for index in link_indices:
            if not 0 <= index < self.n_links:
                raise IndexError(f"unknown link index {index}")
        flow = Flow(
            flow_id=self._next_flow_id,
            link_indices=tuple(sorted(set(link_indices))),
            remaining_mbit=size_mbit,
            meta=meta,
            rate_cap=float("inf") if rate_cap is None else float(rate_cap),
        )
        self._next_flow_id += 1
        self._flows[flow.flow_id] = flow
        self._dirty = True
        return flow

    def abort_flow(self, flow_id: int) -> Optional[Flow]:
        """Remove a flow without completing it (peer departure)."""
        self._flush()
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._dirty = True
        return flow

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def flows(self) -> Iterable[Flow]:
        return list(self._flows.values())

    # -- internal state management -----------------------------------------

    def _flush(self) -> None:
        """Write array state back into the flow objects."""
        for position, flow in enumerate(self._flow_list):
            flow.remaining_mbit = float(self._remaining[position])
            flow.rate = float(self._rates[position])

    def _recompute(self) -> None:
        self._flush()
        self._flow_list = list(self._flows.values())
        if self._flow_list:
            n_links = self.n_links
            link_of, flow_of = _build_entries(
                [flow.link_indices for flow in self._flow_list], n_links
            )
            caps = np.array([flow.rate_cap for flow in self._flow_list])
            rates = _progressive_fill(
                link_of,
                flow_of,
                np.asarray(self._capacities),
                len(self._flow_list),
                caps,
            )
            self._rates = rates
            self._remaining = np.array(
                [flow.remaining_mbit for flow in self._flow_list]
            )
            finite = np.where(np.isfinite(rates), rates, 0.0)
            # bincount of an *empty* entry set returns int64 even with
            # weights; keep the rates array float so later writes into it
            # (and dt-scaled accounting) never truncate.
            self._link_rates = np.bincount(
                link_of, weights=finite[flow_of], minlength=n_links
            ).astype(float, copy=False)
        else:
            self._flow_list = []
            self._rates = np.zeros(0)
            self._remaining = np.zeros(0)
            self._link_rates = np.zeros(self.n_links)
        self._dirty = False

    # -- time ---------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Progress all flows to ``now`` at current rates."""
        if now < self._clock - 1e-9:
            raise ValueError("clock cannot move backwards")
        if self._dirty:
            self._recompute()
        dt = now - self._clock
        if dt > 0 and self._remaining.size:
            finite = np.isfinite(self._rates)
            self._remaining[finite] -= self._rates[finite] * dt
            self._remaining[~finite] = 0.0
            self.link_mbit += self._link_rates * dt
        elif dt > 0:
            self.link_mbit += self._link_rates * dt
        self._clock = now

    def next_completion(self) -> Optional[float]:
        """Absolute time the earliest active flow finishes; None if idle."""
        if self._dirty:
            self._recompute()
        if not self._remaining.size:
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(
                np.isinf(self._rates),
                0.0,
                np.maximum(self._remaining, 0.0) / np.maximum(self._rates, 1e-30),
            )
        eta[self._rates <= 0] = np.inf
        eta[np.isinf(self._rates)] = 0.0
        best = float(eta.min())
        if not np.isfinite(best):
            return None
        return self._clock + best

    def pop_finished(self) -> List[Flow]:
        """Remove and return flows whose transfer completed by the clock."""
        if self._dirty:
            self._recompute()
        # Unconstrained (infinite-rate) flows complete instantly: they must
        # pop even when the clock has not moved, else next_completion keeps
        # reporting "now" and the driving loop spins forever.
        instant = np.isinf(self._rates)
        if instant.any():
            self._remaining[instant] = 0.0
        done_positions = np.nonzero(self._remaining <= _DONE_EPS)[0]
        if not done_positions.size:
            return []
        self._flush()
        done = [self._flow_list[position] for position in done_positions]
        for flow in done:
            del self._flows[flow.flow_id]
        self._dirty = True
        return done

    # -- accounting ----------------------------------------------------------

    def link_traffic(self) -> Dict[object, float]:
        """Cumulative Mbit carried per link (by registered name)."""
        return {
            name: float(self.link_mbit[index])
            for name, index in self._link_index.items()
        }

    def utilization(self, index: int) -> float:
        """Instantaneous utilization of a link at current rates."""
        if self._dirty:
            self._recompute()
        return float(self._link_rates[index]) / self._capacities[index]


@dataclass
class EngineStats:
    """Recompute accounting of a :class:`VectorizedFlowNetwork`.

    Mirrored into the observability registry when the network is built with
    a telemetry bundle; kept as plain ints so tests and benchmarks can read
    them without a registry.
    """

    full_solves: int = 0
    incremental_solves: int = 0
    #: Incremental solves over two or more components that carry flows.
    multi_closure_solves: int = 0
    dirty_flows_last: int = 0
    dirty_flows_peak: int = 0
    compactions: int = 0
    #: Components split back into their exact closures (one BFS each).
    resplits: int = 0

    @property
    def solves(self) -> int:
        return self.full_solves + self.incremental_solves


#: Histogram buckets for dirty-component sizes (flows per incremental solve).
_DIRTY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class VectorizedFlowNetwork(FlowNetwork):
    """Incrementally-updated max-min engine over a persistent incidence.

    State layout (the "slot" representation):

    * Every active flow owns a slot in flat numpy arrays (remaining size,
      rate, rate cap, active mask, flow id, entry span); slots are recycled
      through a free list, so per-event work never rebuilds per-flow arrays.
    * The flow x link incidence is a COO entry store: parallel arrays
      ``entry_link`` / ``entry_slot``.  A flow's entries are written once,
      contiguously, at ``start_flow``; freeing a slot tombstones its entries
      (``entry_slot = -1``), and the store compacts when less than half
      the cells are live.
    * Every link carries a component label; a component holds its links
      and the slots of the live flows crossing them.

    Label invariant: a live flow's links share one label, and a component
    is a union of exact closures (closed sets of links and the flows on
    them).  An arrival unions the labels of its links, relabelling the
    smaller side into the larger -- exact, since the flow is what joins
    them.  A departure only removes its slot, so the component may now hold
    several closures.  It is split back by one BFS over itself once its
    departures since it was last exact exceed its flow count at that time,
    which keeps the split amortised O(1) per departure.

    Invalidation rule: an arrival or departure marks its component dirty.
    Because no component shares a link with the rest of the network,
    re-solving the union of the dirty components in isolation with full
    link capacities -- one kernel call -- reproduces the global max-min
    allocation.  When any single dirty component holds more than
    ``dirty_flow_floor`` + ``dirty_flow_fraction`` x active flows, one
    whole-network vector solve (no Python per-flow work) runs instead --
    that path is bit-identical to the scalar engine's allocation.
    """

    def __init__(
        self,
        telemetry: Optional[object] = None,
        dirty_flow_floor: int = 64,
        dirty_flow_fraction: float = 0.125,
        perf_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__()
        # Solve-latency measurement is telemetry-only, but even that read
        # must be injectable (DET001): a replayed scenario with a fake
        # clock reproduces its exported histograms exactly.
        self._perf_clock = perf_clock
        if dirty_flow_floor < 1:
            raise ValueError("dirty_flow_floor must be >= 1")
        if not 0.0 <= dirty_flow_fraction <= 1.0:
            raise ValueError("dirty_flow_fraction must be in [0, 1]")
        self._dirty_floor = dirty_flow_floor
        self._dirty_fraction = dirty_flow_fraction
        self.stats = EngineStats()
        # Slot arrays (capacity doubles on demand).
        size = 64
        self._s_remaining = np.zeros(size)
        self._s_rate = np.zeros(size)
        self._s_cap = np.full(size, np.inf)
        self._s_active = np.zeros(size, dtype=bool)
        self._s_flow_id = np.full(size, -1, dtype=np.int64)
        self._s_estart = np.zeros(size, dtype=np.intp)  # entry span start
        self._s_ecount = np.zeros(size, dtype=np.intp)  # entry span length
        self._slot_flow: List[Optional[Flow]] = []
        self._free_slots: List[int] = []
        self._slot_of_flow: Dict[int, int] = {}
        # COO entry store.
        self._e_link = np.zeros(size * 4, dtype=np.intp)
        self._e_slot = np.full(size * 4, -1, dtype=np.intp)
        self._e_count = 0  # high-water mark of written cells
        self._e_live = 0  # cells not tombstoned
        # Components, indexed by label; dead labels are recycled.
        self._link_comp: List[int] = []  # per-link label
        self._comp_links: List[List[int]] = []
        self._comp_slots: List[Set[int]] = []
        self._comp_base: List[int] = []  # flows when last exact
        self._comp_departs: List[int] = []  # departures since then
        self._free_labels: List[int] = []
        # Dirty state: components touched since the last solve.
        self._dirty_comps: Set[int] = set()
        self._caps_np = np.zeros(0)
        self._link_pos = np.zeros(0, dtype=np.intp)  # solve-local link ids
        self._caps_stale = True
        self._act_cache: Optional[np.ndarray] = None
        self.telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            labels = {"engine": "vectorized"}
            self._m_solves = registry.counter(
                "p4p_engine_recomputes_total",
                "Max-min re-solves by engine and mode (full vs incremental).",
                ("engine", "mode"),
            )
            self._m_dirty = registry.histogram(
                "p4p_engine_dirty_flows",
                "Flows re-rated per solve (dirty-component size).",
                ("engine",),
                buckets=_DIRTY_BUCKETS,
            ).labels(**labels)
            self._m_latency = registry.histogram(
                "p4p_engine_solve_seconds",
                "Wall-clock latency of one max-min solve.",
                ("engine",),
            ).labels(**labels)
            self._m_resplits = registry.counter(
                "p4p_engine_component_resplits_total",
                "Flow-graph components split back into their exact closures.",
                ("engine",),
            ).labels(**labels)
        else:
            self._m_solves = None
            self._m_dirty = None
            self._m_latency = None
            self._m_resplits = None

    # -- links ------------------------------------------------------------

    def add_link(self, name: object, capacity: float) -> int:
        index = super().add_link(name, capacity)
        self._link_comp.append(-1)
        self._new_component([index], set())
        self._caps_stale = True
        return index

    def _caps(self) -> np.ndarray:
        if self._caps_stale:
            self._caps_np = np.asarray(self._capacities, dtype=float)
            self._link_pos = np.zeros(self.n_links, dtype=np.intp)
            self._caps_stale = False
        return self._caps_np

    # -- components --------------------------------------------------------

    def _new_component(self, links: List[int], slots: Set[int]) -> int:
        """Label ``links`` as one exact component holding ``slots``."""
        if self._free_labels:
            label = self._free_labels.pop()
            self._comp_links[label] = links
            self._comp_slots[label] = slots
            self._comp_base[label] = len(slots)
            self._comp_departs[label] = 0
        else:
            label = len(self._comp_links)
            self._comp_links.append(links)
            self._comp_slots.append(slots)
            self._comp_base.append(len(slots))
            self._comp_departs.append(0)
        link_comp = self._link_comp
        for link in links:
            link_comp[link] = label
        return label

    def _merge(self, keep: int, other: int) -> int:
        """Union two components; returns the surviving label."""
        comp_links = self._comp_links
        if len(comp_links[keep]) < len(comp_links[other]):
            keep, other = other, keep
        link_comp = self._link_comp
        moved = comp_links[other]
        for link in moved:
            link_comp[link] = keep
        comp_links[keep] += moved
        comp_slots = self._comp_slots
        if len(comp_slots[keep]) < len(comp_slots[other]):
            comp_slots[keep], comp_slots[other] = comp_slots[other], comp_slots[keep]
        comp_slots[keep] |= comp_slots[other]
        self._comp_base[keep] += self._comp_base[other]
        self._comp_departs[keep] += self._comp_departs[other]
        comp_links[other] = []
        comp_slots[other] = set()
        self._dirty_comps.discard(other)
        self._free_labels.append(other)
        return keep

    def _resplit(self, comp: int) -> List[int]:
        """Split ``comp`` into its exact closures; returns their labels.

        Links no live flow crosses any more leave as singletons, their
        rates zeroed here.
        """
        slot_flow = self._slot_flow
        by_link: Dict[int, List[int]] = {link: [] for link in self._comp_links[comp]}
        for slot in self._comp_slots[comp]:
            for link in slot_flow[slot].link_indices:
                by_link[link].append(slot)
        self._free_labels.append(comp)  # the first new component reuses it
        pieces: List[int] = []
        idle: List[int] = []
        for root in list(by_link):
            crossing = by_link.pop(root, None)
            if crossing is None:
                continue  # inside a closure already expanded
            if not crossing:
                idle.append(root)
                continue
            links = [root]
            slots = set(crossing)
            stack = list(crossing)
            while stack:
                for link in slot_flow[stack.pop()].link_indices:
                    more = by_link.pop(link, None)
                    if more is None:
                        continue
                    links.append(link)
                    for slot in more:
                        if slot not in slots:
                            slots.add(slot)
                            stack.append(slot)
            pieces.append(self._new_component(links, slots))
        for link in idle:
            self._new_component([link], set())
        if idle:
            self._link_rates[idle] = 0.0
        self.stats.resplits += 1
        if self._m_resplits is not None:
            self._m_resplits.inc()
        return pieces

    # -- slot / entry store ------------------------------------------------

    def _grow_slots(self, needed: int) -> None:
        size = self._s_remaining.size
        if needed <= size:
            return
        while size < needed:
            size *= 2
        for name in (
            "_s_remaining", "_s_rate", "_s_cap", "_s_active", "_s_flow_id",
            "_s_estart", "_s_ecount",
        ):
            old = getattr(self, name)
            fresh = np.zeros(size, dtype=old.dtype)
            if name == "_s_cap":
                fresh[:] = np.inf
            elif name == "_s_flow_id":
                fresh[:] = -1
            fresh[: old.size] = old
            setattr(self, name, fresh)

    def _append_entries(self, slot: int, links: Tuple[int, ...]) -> None:
        count = len(links)
        need = self._e_count + count
        size = self._e_link.size
        if need > size:
            while size < need:
                size *= 2
            for name in ("_e_link", "_e_slot"):
                old = getattr(self, name)
                fresh = np.full(size, -1, dtype=np.intp)
                fresh[: old.size] = old
                setattr(self, name, fresh)
        start = self._e_count
        if count:
            self._e_link[start:need] = links
            self._e_slot[start:need] = slot
        self._e_count = need
        self._e_live += count
        self._s_estart[slot] = start
        self._s_ecount[slot] = count

    def _compact_entries(self) -> None:
        mark = self._e_count
        valid = self._e_slot[:mark] >= 0
        live = int(valid.sum())
        self._e_link[:live] = self._e_link[:mark][valid]
        self._e_slot[:live] = self._e_slot[:mark][valid]
        self._e_slot[live : self._e_count] = -1
        self._e_count = live
        self._e_live = live
        slots = self._e_slot[:live]
        if live:
            # Spans stay contiguous and in store order: one start per run.
            starts = np.concatenate(([0], np.flatnonzero(np.diff(slots)) + 1))
            self._s_estart[slots[starts]] = starts
        self.stats.compactions += 1

    def _release_slots(self, slots: np.ndarray) -> None:
        """Free ``slots`` at once: one write per slot array, the entries and
        component membership of each, one compaction check.  The free list
        takes them back in the order given."""
        self._s_active[slots] = False
        self._s_flow_id[slots] = -1
        slot_flow = self._slot_flow
        for slot in slots.tolist():
            flow = slot_flow[slot]
            start = self._s_estart[slot]
            count = len(flow.link_indices)
            if count:
                self._e_slot[start : start + count] = -1
                self._e_live -= count
                comp = self._link_comp[flow.link_indices[0]]
                self._comp_slots[comp].discard(slot)
                self._comp_departs[comp] += 1
                self._dirty_comps.add(comp)
            del self._slot_of_flow[flow.flow_id]
            slot_flow[slot] = None
            self._free_slots.append(slot)
        self._act_cache = None
        # Compact here (not only on full solves) so a workload that stays
        # on the incremental path cannot grow the entry store unboundedly.
        if self._e_live < self._e_count // 2 and self._e_count > 256:
            self._compact_entries()

    def _act(self) -> np.ndarray:
        if self._act_cache is None:
            self._act_cache = np.flatnonzero(self._s_active[: len(self._slot_flow)])
        return self._act_cache

    # -- flows -------------------------------------------------------------

    def start_flow(
        self,
        link_indices: Sequence[int],
        size_mbit: float,
        meta: object = None,
        rate_cap: Optional[float] = None,
    ) -> Flow:
        if size_mbit <= 0:
            raise ValueError("flow size must be positive")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError("rate_cap must be positive")
        links = tuple(sorted(set(link_indices)))
        if links and not (0 <= links[0] and links[-1] < self.n_links):
            bad = links[0] if links[0] < 0 else links[-1]
            raise IndexError(f"unknown link index {bad}")
        flow = Flow(
            flow_id=self._next_flow_id,
            link_indices=links,
            remaining_mbit=size_mbit,
            meta=meta,
            rate_cap=float("inf") if rate_cap is None else float(rate_cap),
        )
        self._next_flow_id += 1
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slot_flow)
            self._slot_flow.append(None)
            self._grow_slots(slot + 1)
        self._slot_flow[slot] = flow
        self._slot_of_flow[flow.flow_id] = slot
        self._s_remaining[slot] = size_mbit
        self._s_cap[slot] = flow.rate_cap
        self._s_flow_id[slot] = flow.flow_id
        self._s_active[slot] = True
        self._append_entries(slot, links)
        if links:
            link_comp = self._link_comp
            comp = link_comp[links[0]]
            for link in links:
                if link_comp[link] != comp:
                    comp = self._merge(comp, link_comp[link])
            self._comp_slots[comp].add(slot)
            self._dirty_comps.add(comp)
        else:
            # A flow crossing no link is unconstrained: its rate is its cap
            # (or infinite) and nobody else's allocation changes.
            self._s_rate[slot] = flow.rate_cap
        self._act_cache = None
        return flow

    def abort_flow(self, flow_id: int) -> Optional[Flow]:
        slot = self._slot_of_flow.get(flow_id)
        if slot is None:
            return None
        flow = self._slot_flow[slot]
        flow.remaining_mbit = float(self._s_remaining[slot])
        flow.rate = float(self._s_rate[slot])
        self._release_slots(np.array([slot]))
        return flow

    @property
    def n_flows(self) -> int:
        return len(self._slot_of_flow)

    def flows(self) -> Iterable[Flow]:
        # flow ids are monotonic, so dict order is ascending flow id --
        # the same iteration order the scalar engine produces.
        return [self._slot_flow[slot] for slot in self._slot_of_flow.values()]

    def _flush(self) -> None:
        """Write slot-array state back into the live flow objects."""
        for slot in self._slot_of_flow.values():
            flow = self._slot_flow[slot]
            flow.remaining_mbit = float(self._s_remaining[slot])
            flow.rate = float(self._s_rate[slot])

    # -- solving -----------------------------------------------------------

    def _ensure_rates(self) -> None:
        dirty = self._dirty_comps
        if not dirty:
            return
        started = self._perf_clock()
        comp_slots = self._comp_slots
        departs = self._comp_departs
        base = self._comp_base
        for comp in [comp for comp in dirty if departs[comp] > base[comp]]:
            dirty.discard(comp)
            dirty.update(self._resplit(comp))
        limit = self._dirty_floor + int(self._dirty_fraction * self.n_flows)
        stats = self.stats
        if any(len(comp_slots[comp]) > limit for comp in dirty):
            self._solve_full()
            mode = "full"
            size = self.n_flows
            stats.full_solves += 1
        else:
            size = self._solve_component(dirty)
            mode = "incremental"
            stats.incremental_solves += 1
            if sum(1 for comp in dirty if comp_slots[comp]) > 1:
                stats.multi_closure_solves += 1
        dirty.clear()
        stats.dirty_flows_last = size
        stats.dirty_flows_peak = max(stats.dirty_flows_peak, size)
        if self._m_solves is not None:
            self._m_solves.labels(engine="vectorized", mode=mode).inc()
            self._m_dirty.observe(size)
            self._m_latency.observe(self._perf_clock() - started)

    def _solve_component(self, comps: Set[int]) -> int:
        """Re-rate the flows of ``comps``; returns how many there are."""
        caps = self._caps()
        comp_links = self._comp_links
        comp_slots = self._comp_slots
        link_arr = np.fromiter(
            chain.from_iterable(comp_links[comp] for comp in comps), dtype=np.intp
        )
        slot_arr = np.fromiter(
            chain.from_iterable(comp_slots[comp] for comp in comps), dtype=np.intp
        )
        n = slot_arr.size
        if not n:
            # The components went idle (their last flow left).
            self._link_rates[link_arr] = 0.0
            return 0
        # Solve-local ids: a link's position in ``link_arr``, a flow's in
        # ``slot_arr``; each slot's entries are one contiguous span of the
        # store.  Local ids follow set order; the fill's bits depend on
        # neither order.
        link_pos = self._link_pos
        link_pos[link_arr] = np.arange(link_arr.size, dtype=np.intp)
        counts = self._s_ecount[slot_arr]
        ends = np.cumsum(counts)
        flow_of = np.repeat(np.arange(n, dtype=np.intp), counts)
        entry = np.arange(int(ends[-1]), dtype=np.intp)
        entry += (self._s_estart[slot_arr] - ends + counts)[flow_of]
        link_of = link_pos[self._e_link[entry]]
        # The components share no link, so one fill over their union is
        # the global max-min on every one of them.
        rates = _progressive_fill_fast(
            link_of, flow_of, caps[link_arr], n, self._s_cap[slot_arr]
        )
        self._s_rate[slot_arr] = rates
        finite = np.where(np.isfinite(rates), rates, 0.0)
        self._link_rates[link_arr] = np.bincount(
            link_of, weights=finite[flow_of], minlength=link_arr.size
        )
        return n

    def _solve_full(self) -> None:
        if self._e_live < self._e_count // 2 and self._e_count > 256:
            self._compact_entries()
        mark = self._e_count
        link_of = self._e_link[:mark]
        slot_of = self._e_slot[:mark]
        if self._e_live < mark:  # tombstones to skip
            valid = slot_of >= 0
            link_of = link_of[valid]
            slot_of = slot_of[valid]
        act = self._act()
        n_links = self.n_links
        if not act.size:
            self._link_rates = np.zeros(n_links)
            return
        # Slots serve as the kernel's flow ids as they are: live entries
        # name active slots only, and to the kernel a free slot is a flow
        # crossing no link, whose rate nobody reads.
        n_slots = len(self._slot_flow)
        rates = _progressive_fill_fast(
            link_of, slot_of, self._caps(), n_slots, self._s_cap[:n_slots]
        )
        self._s_rate[act] = rates[act]
        finite = np.where(np.isfinite(rates), rates, 0.0)
        # astype guards the empty-entry case: bincount of a zero-length
        # array comes back int64, and _solve_component later writes floats
        # into this array in place.
        self._link_rates = np.bincount(
            link_of, weights=finite[slot_of], minlength=n_links
        ).astype(float, copy=False)

    # -- time ---------------------------------------------------------------

    def advance(self, now: float) -> None:
        if now < self._clock - 1e-9:
            raise ValueError("clock cannot move backwards")
        self._ensure_rates()
        dt = now - self._clock
        if dt > 0:
            act = self._act()
            if act.size:
                rates = self._s_rate[act]
                finite = np.isfinite(rates)
                remaining = self._s_remaining[act]
                self._s_remaining[act] = np.where(
                    finite, remaining - rates * dt, 0.0
                )
            self.link_mbit += self._link_rates * dt
        self._clock = now

    def next_completion(self) -> Optional[float]:
        self._ensure_rates()
        act = self._act()
        if not act.size:
            return None
        rates = self._s_rate[act]
        remaining = self._s_remaining[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(
                np.isinf(rates),
                0.0,
                np.maximum(remaining, 0.0) / np.maximum(rates, 1e-30),
            )
        eta[rates <= 0] = np.inf
        eta[np.isinf(rates)] = 0.0
        best = float(eta.min())
        if not np.isfinite(best):
            return None
        return self._clock + best

    def pop_finished(self) -> List[Flow]:
        self._ensure_rates()
        act = self._act()
        if not act.size:
            return []
        rates = self._s_rate[act]
        done_mask = (self._s_remaining[act] <= _DONE_EPS) | np.isinf(rates)
        done_slots = act[done_mask]
        if not done_slots.size:
            return []
        # Flow-id order, as the reference returns them; the free list takes
        # the slots back in the same order.
        order = np.argsort(self._s_flow_id[done_slots], kind="stable")
        done_slots = done_slots[order]
        slot_flow = self._slot_flow
        done = [slot_flow[slot] for slot in done_slots.tolist()]
        for flow, rate, left in zip(
            done,
            self._s_rate[done_slots].tolist(),
            self._s_remaining[done_slots].tolist(),
        ):
            flow.remaining_mbit = 0.0 if rate == _INF else left
            flow.rate = rate
        self._release_slots(done_slots)
        return done

    # -- accounting ----------------------------------------------------------

    def utilization(self, index: int) -> float:
        self._ensure_rates()
        return float(self._link_rates[index]) / self._capacities[index]


def make_flow_network(telemetry: Optional[object] = None) -> VectorizedFlowNetwork:
    """Build the flow engine every simulation runs on.

    ``telemetry`` feeds the engine's solve counters / latency histograms.
    """
    return VectorizedFlowNetwork(telemetry=telemetry)
