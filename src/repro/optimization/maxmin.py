"""Max-min fair rate allocation via progressive filling.

The simulator models TCP at the session level, following the methodology of
the paper (Sec. 7.1): concurrent transfers share link capacity according to
max-min fairness, recomputed whenever a flow arrives or departs.

Progressive filling: raise all rates uniformly until some link saturates;
freeze the flows crossing that link at their current rate; repeat on the
residual network.  The hot loop is pure numpy over flat COO-style index
arrays (one ``bincount`` per aggregate), avoiding per-iteration sparse
matrix construction -- simulations re-rate thousands of flows per event.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_EPS = 1e-9


def maxmin_rates(
    flow_links: Sequence[Sequence[int]],
    capacities: Sequence[float],
    rate_caps: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Max-min fair rates for flows over capacitated links.

    Args:
        flow_links: For each flow, the indices of links it traverses.  A flow
            with no links is unconstrained and gets rate ``inf`` (or its cap).
        capacities: Per-link capacities (positive).
        rate_caps: Optional per-flow rate ceilings (e.g. the TCP
            window/RTT throughput limit); ``inf``/None entries uncapped.

    Returns:
        Array of per-flow rates, shape (n_flows,).
    """
    capacities = np.asarray(capacities, dtype=float)
    if np.any(capacities <= 0):
        raise ValueError("link capacities must be positive")
    n_flows = len(flow_links)
    n_links = capacities.size
    if n_flows == 0:
        return np.zeros(0)
    caps = _normalize_caps(rate_caps, n_flows)

    link_of, flow_of = _build_entries(flow_links, n_links)
    return _progressive_fill_fast(link_of, flow_of, capacities, n_flows, caps)


def _normalize_caps(
    rate_caps: Optional[Sequence[float]], n_flows: int
) -> np.ndarray:
    if rate_caps is None:
        return np.full(n_flows, np.inf)
    caps = np.asarray(
        [np.inf if cap is None else float(cap) for cap in rate_caps], dtype=float
    )
    if caps.shape != (n_flows,):
        raise ValueError("rate_caps length must match flow count")
    if np.any(caps < 0):
        raise ValueError("rate caps must be >= 0")
    return caps


def _build_entries(
    flow_links: Sequence[Sequence[int]], n_links: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten (flow -> links) into parallel COO index arrays."""
    links: List[int] = []
    flows: List[int] = []
    for flow_index, flow in enumerate(flow_links):
        for link_index in set(flow):
            if not 0 <= link_index < n_links:
                raise IndexError(f"link index {link_index} out of range")
            links.append(link_index)
            flows.append(flow_index)
    return (
        np.asarray(links, dtype=np.intp),
        np.asarray(flows, dtype=np.intp),
    )


def _progressive_fill(
    link_of: np.ndarray,
    flow_of: np.ndarray,
    capacities: np.ndarray,
    n_flows: int,
    caps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Water-filling with optional per-flow ceilings: the reference fill.

    Only the ``FlowNetwork`` oracle runs it; :func:`maxmin_rates` and the
    engine run :func:`_progressive_fill_fast`, which returns the same bits.

    All active flows rise together from the current ``level``; the next
    event is either a link saturating (freeze its flows at the level) or a
    flow hitting its cap (freeze it at the cap).  Tracking the level lets
    link headroom be drained incrementally, so capped flows stop consuming
    once frozen.
    """
    if caps is None:
        caps = np.full(n_flows, np.inf)
    n_links = capacities.size
    rates = np.full(n_flows, np.inf)
    # Flows crossing no link rise straight to their cap.
    crosses = np.zeros(n_flows, dtype=bool)
    crosses[flow_of] = True
    rates[~crosses] = caps[~crosses]
    active = crosses.copy()
    remaining = capacities.astype(float).copy()
    level = 0.0

    while active.any():
        counts = np.bincount(
            link_of, weights=active[flow_of].astype(float), minlength=n_links
        )
        loaded = counts > 0
        link_levels = np.full(n_links, np.inf)
        link_levels[loaded] = level + remaining[loaded] / counts[loaded]
        saturation_level = link_levels.min()
        active_caps = np.where(active, caps, np.inf)
        cap_level = active_caps.min()
        next_level = min(saturation_level, cap_level)

        # Every active flow rises to next_level, draining its links.
        delta = max(0.0, next_level - level)
        remaining = np.maximum(remaining - delta * counts, 0.0)
        level = next_level

        frozen = np.zeros(n_flows, dtype=bool)
        if cap_level <= saturation_level + _EPS:
            frozen |= active & (caps <= level + _EPS)
        if saturation_level <= cap_level + _EPS:
            bottleneck = loaded & (link_levels <= level + _EPS)
            entry_hits = bottleneck[link_of]
            frozen[flow_of[entry_hits]] = True
            frozen &= active
        if not frozen.any():  # numerical safety net; should not happen
            frozen = active.copy()
        rates[frozen] = np.minimum(np.maximum(level, 0.0), caps[frozen])
        active &= ~frozen
    return rates


def _grouped(keys: np.ndarray, n_keys: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry positions grouped by key, with each key's run end and run length."""
    lens = np.bincount(keys, minlength=n_keys)
    # numpy radix-sorts stable keys of <= 16 bits, ~10x its intp merge sort.
    narrow = keys.astype(np.uint16) if n_keys <= 1 << 16 else keys
    return narrow.argsort(kind="stable"), lens.cumsum(), lens


def _runs(
    ends: np.ndarray, lens: np.ndarray, ids: np.ndarray, ramp: np.ndarray
) -> np.ndarray:
    """Concatenated ``arange(ends[i] - lens[i], ends[i])`` for every id."""
    run_lens = lens[ids]
    positions = (ends[ids] - run_lens.cumsum()).repeat(run_lens)
    positions += ramp[: positions.size]
    return positions


@np.errstate(divide="ignore")  # positive / 0 on an idle link is inf
def _progressive_fill_fast(
    link_of: np.ndarray,
    flow_of: np.ndarray,
    capacities: np.ndarray,
    n_flows: int,
    caps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Water-filling with the same freeze events as :func:`_progressive_fill`
    but O(entries + iterations x links) instead of O(iterations x entries).

    The per-iteration ``bincount`` over every entry is replaced by link
    crossing-counts maintained incrementally (exact: counts are integers),
    flows/links are gathered through grouped index arrays, and the lowest
    active rate cap comes from one upfront sort.  Every float is produced by
    the same operations on the same operands as in the reference loop, so
    given identical inputs the returned rates are bit-identical -- the
    vectorized simulator engine relies on this to stay interchangeable with
    the scalar one.  The *order* in which a level's frozen flows are listed
    is free: each rate is set elementwise and the count update is an
    integer ``bincount``.

    Each (link, flow) pair must appear at most once in the entries
    (:func:`_build_entries` and the engine's ``start_flow`` both dedupe a
    flow's links): a lone bottleneck link's flows are its run of entries
    as they stand, and a flow listed twice would be frozen twice.

    Idle links hold infinite headroom, so a level is one unmasked divide.
    Links no flow crosses start at ``remaining = inf``; a bottleneck link
    gets ``inf`` in the level it saturates, where every active flow on it
    freezes and its count falls to exactly 0.0.  This keeps the bits:

    * a loaded link's ``remaining`` sees the same operations on the same
      operands as in the reference, which never reads an idle link's;
    * an idle link's level is ``inf`` in both kernels: ``inf / 0`` here,
      the ``loaded`` mask there (``positive / 0`` is ``inf`` too, for a
      link whose flows all froze elsewhere);
    * ``0 / 0`` does not occur.  A link drains to 0.0 only at a level no
      higher than the next one, and whenever the saturation branch runs
      that makes it a bottleneck; a cap-only level stops at least ``_EPS``
      below every link's level, so no link drains to zero there.
    """
    if caps is None:
        caps = np.full(n_flows, np.inf)
    n_links = capacities.size
    by_flow, flow_end, flow_len = _grouped(flow_of, n_flows)
    active = flow_len > 0
    # Flows crossing no link rise straight to their cap; the others are cut
    # to theirs once, at the end (min(level, cap) is elementwise).
    rates = np.where(active, np.inf, caps)
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        return rates
    flow_links = link_of[by_flow]
    by_link, link_end, link_len = _grouped(link_of, n_links)
    link_flows = flow_of[by_link]
    ramp = np.arange(link_of.size)

    remaining = capacities.astype(float)
    remaining[link_len == 0] = np.inf
    counts = link_len.astype(float)
    cap_order = (np.isfinite(caps) & active).nonzero()[0]
    cap_order = cap_order[caps[cap_order].argsort(kind="stable")]
    sorted_caps = np.append(caps[cap_order], np.inf)  # sentinel: never binds
    cap_ptr = 0
    level = 0.0
    link_levels = np.empty(n_links)
    drained = np.empty(n_links)
    scratch = np.zeros(n_flows, dtype=bool)  # dedups saturated flows

    while n_active > 0:
        np.divide(remaining, counts, out=link_levels)
        link_levels += level
        saturation_level = float(link_levels.min())
        # The lowest *active* cap matters only once a cap can bind at this
        # level; until then flows that saturation froze are not skipped.
        cap_level = np.inf
        if sorted_caps[cap_ptr] <= saturation_level + _EPS:
            stop = int(sorted_caps.searchsorted(saturation_level + _EPS, "right"))
            binding = cap_order[cap_ptr:stop]
            binding = binding[active[binding]]
            if binding.size:
                cap_level = float(caps[binding[0]])
            else:
                cap_ptr = stop
        next_level = min(saturation_level, cap_level)
        delta = max(0.0, next_level - level)
        np.multiply(counts, delta, out=drained)
        remaining -= drained
        np.maximum(remaining, 0.0, out=remaining)
        level = next_level

        frozen = None
        if cap_level <= saturation_level + _EPS:
            frozen = binding[caps[binding] <= level + _EPS]
            cap_ptr = int(sorted_caps.searchsorted(level + _EPS, "right"))
            active[frozen] = False
        if saturation_level <= cap_level + _EPS:
            bottleneck = (link_levels <= level + _EPS).nonzero()[0]
            if bottleneck.size == 1:
                link = bottleneck[0]
                end = link_end[link]
                hits = link_flows[end - link_len[link] : end]
                saturated = hits[active[hits]]
            else:
                hits = link_flows[_runs(link_end, link_len, bottleneck, ramp)]
                scratch[hits] = active[hits]
                saturated = scratch.nonzero()[0]
                scratch[saturated] = False
            active[saturated] = False
            remaining[bottleneck] = np.inf
            frozen = (
                saturated if frozen is None else np.concatenate((frozen, saturated))
            )
        if not frozen.size:  # numerical safety net; should not happen
            frozen = active.nonzero()[0]
            active[frozen] = False
        rates[frozen] = max(level, 0.0)
        counts -= np.bincount(
            flow_links[_runs(flow_end, flow_len, frozen, ramp)], minlength=n_links
        )
        n_active -= frozen.size
    return np.minimum(rates, caps, out=rates)


def link_loads(
    flow_links: Sequence[Sequence[int]],
    rates: Sequence[float],
    n_links: int,
) -> np.ndarray:
    """Aggregate per-link rates for a set of flows (inf rates count as 0)."""
    loads = np.zeros(n_links)
    for flow, rate in zip(flow_links, rates):
        if not np.isfinite(rate):
            continue
        for link_index in set(flow):
            loads[link_index] += rate
    return loads


def maxmin_rates_reference(
    flow_links: Sequence[Sequence[int]],
    capacities: Sequence[float],
) -> List[float]:
    """Straightforward O(links * flows^2) progressive filling.

    Kept as an independently-written oracle for property tests against the
    vectorized implementation.
    """
    capacities = [float(c) for c in capacities]
    if any(c <= 0 for c in capacities):
        raise ValueError("link capacities must be positive")
    n_flows = len(flow_links)
    rates = [float("inf")] * n_flows
    remaining = list(capacities)
    active = [bool(set(links)) for links in flow_links]

    while any(active):
        best_share = float("inf")
        for link_index, cap in enumerate(remaining):
            count = sum(
                1
                for flow_index in range(n_flows)
                if active[flow_index] and link_index in flow_links[flow_index]
            )
            if count:
                best_share = min(best_share, cap / count)
        bottleneck_links = set()
        for link_index, cap in enumerate(remaining):
            count = sum(
                1
                for flow_index in range(n_flows)
                if active[flow_index] and link_index in flow_links[flow_index]
            )
            if count and cap / count <= best_share + _EPS:
                bottleneck_links.add(link_index)
        for flow_index in range(n_flows):
            if active[flow_index] and bottleneck_links & set(flow_links[flow_index]):
                rates[flow_index] = best_share
                active[flow_index] = False
                for link_index in set(flow_links[flow_index]):
                    remaining[link_index] -= best_share
        remaining = [max(0.0, cap) for cap in remaining]
    return rates


def verify_maxmin(
    flow_links: Sequence[Sequence[int]],
    capacities: Sequence[float],
    rates: Sequence[float],
    tolerance: float = 1e-6,
    rate_caps: Optional[Sequence[float]] = None,
) -> bool:
    """Check feasibility and the bottleneck condition of an allocation.

    Max-min optimality is equivalent to: every flow either sits at its rate
    cap or crosses at least one saturated link on which it attains the
    maximum rate among crossing flows.
    """
    caps = _normalize_caps(rate_caps, len(flow_links))
    capacities = np.asarray(capacities, dtype=float)
    loads = np.zeros(capacities.shape)
    for flow_index, links in enumerate(flow_links):
        rate = rates[flow_index]
        if not np.isfinite(rate):
            if set(links) or np.isfinite(caps[flow_index]):
                return False
            continue
        if rate > caps[flow_index] * (1 + tolerance) + tolerance:
            return False
        for link_index in set(links):
            loads[link_index] += rate
    if np.any(loads > capacities * (1 + tolerance) + tolerance):
        return False
    for flow_index, links in enumerate(flow_links):
        link_set = set(links)
        at_cap = (
            np.isfinite(caps[flow_index])
            and rates[flow_index] >= caps[flow_index] * (1 - tolerance) - tolerance
        )
        if not link_set:
            if np.isfinite(rates[flow_index]) and not at_cap:
                return False
            continue
        if at_cap:
            continue
        has_bottleneck = False
        for link_index in link_set:
            saturated = loads[link_index] >= capacities[link_index] * (1 - tolerance) - tolerance
            max_on_link = max(
                rates[other]
                for other, other_links in enumerate(flow_links)
                if link_index in set(other_links)
            )
            if saturated and rates[flow_index] >= max_on_link - tolerance:
                has_bottleneck = True
                break
        if not has_bottleneck:
            return False
    return True
