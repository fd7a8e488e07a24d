"""Property-based tests for the max-min allocation invariants.

Plain seeded pytest (no hypothesis dependency): each case draws a random
instance from one of three generators -- unstructured random incidences,
access-network-shaped instances (per-peer up/down links plus shared
backbone links, the simulator's actual shape), and heavily rate-capped
instances -- and checks the defining properties of max-min fairness:

* feasibility: no link carries more than its capacity;
* bottleneck justification: every flow either sits at its rate cap or
  crosses a saturated link (otherwise its rate could be raised, which
  contradicts max-min);
* removal monotonicity: deleting any flow never lowers anyone else's rate.

The fast CSR fill used by the vectorized engine must agree *bit for bit*
with the reference fill on every instance.
"""

import random

import numpy as np
import pytest

from repro.optimization.maxmin import (
    _build_entries,
    _progressive_fill,
    _progressive_fill_fast,
    link_loads,
    maxmin_rates,
    verify_maxmin,
)

_TOL = 1e-6
N_SEEDS = 70


def _uniform_instance(rng):
    n_links = rng.randint(2, 15)
    n_flows = rng.randint(1, 40)
    capacities = [rng.uniform(0.5, 60.0) for _ in range(n_links)]
    flow_links = [
        rng.sample(range(n_links), rng.randint(0, min(4, n_links)))
        for _ in range(n_flows)
    ]
    caps = [
        rng.uniform(0.2, 25.0) if rng.random() < 0.3 else None
        for _ in range(n_flows)
    ]
    return flow_links, capacities, caps


def _access_instance(rng):
    """Up/down access links per peer plus a few shared backbone links."""
    n_peers = rng.randint(3, 12)
    n_backbone = rng.randint(1, 4)
    capacities = []
    up, down = [], []
    for _ in range(n_peers):
        up.append(len(capacities))
        capacities.append(rng.uniform(5.0, 15.0))
        down.append(len(capacities))
        capacities.append(rng.uniform(10.0, 30.0))
    backbone = []
    for _ in range(n_backbone):
        backbone.append(len(capacities))
        capacities.append(rng.uniform(20.0, 200.0))
    n_flows = rng.randint(1, 3 * n_peers)
    flow_links, caps = [], []
    for _ in range(n_flows):
        src, dst = rng.sample(range(n_peers), 2)
        links = [up[src], down[dst]]
        if rng.random() < 0.5:
            links.extend(rng.sample(backbone, rng.randint(1, n_backbone)))
        flow_links.append(links)
        caps.append(rng.uniform(1.0, 25.0) if rng.random() < 0.5 else None)
    return flow_links, capacities, caps


def _capped_instance(rng):
    flow_links, capacities, _ = _uniform_instance(rng)
    caps = [rng.uniform(0.05, 5.0) for _ in flow_links]
    return flow_links, capacities, caps


GENERATORS = {
    "uniform": _uniform_instance,
    "access": _access_instance,
    "capped": _capped_instance,
}

# str.hash is process-randomized; seeds must not depend on it.
_FAMILY_SALT = {"access": 1, "capped": 2, "uniform": 3}


def _solve(flow_links, capacities, caps):
    return maxmin_rates(flow_links, capacities, rate_caps=caps)


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_feasible_and_bottlenecked(family, seed):
    rng = random.Random(_FAMILY_SALT[family] * 100_000 + seed)
    flow_links, capacities, caps = GENERATORS[family](rng)
    rates = _solve(flow_links, capacities, caps)

    finite = np.where(np.isfinite(rates), rates, 0.0)
    loads = link_loads(flow_links, finite, len(capacities))
    # Feasibility: no link above capacity.
    assert np.all(loads <= np.asarray(capacities) + _TOL)

    # Bottleneck justification for every flow that crosses links.
    for index, links in enumerate(flow_links):
        cap = caps[index]
        if not links:
            expected = np.inf if cap is None else cap
            assert rates[index] == pytest.approx(expected)
            continue
        at_cap = cap is not None and rates[index] >= cap - _TOL
        saturated = any(
            loads[link] >= capacities[link] - _TOL for link in links
        )
        assert at_cap or saturated, (
            f"flow {index} rate {rates[index]} neither capped nor "
            f"bottlenecked (links {links})"
        )

    # The repo's own checker agrees.
    assert verify_maxmin(flow_links, capacities, rates, rate_caps=caps)


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("seed", range(40))
def test_removing_a_flow_never_lowers_the_fairness_floor(family, seed):
    """Removal monotonicity, in the form that is actually a theorem.

    Naive per-flow monotonicity ("removing a flow never decreases anyone's
    rate") is FALSE for multi-link max-min -- see
    ``test_removal_can_hurt_a_distant_flow`` below for the canonical
    counterexample.  What does hold is that the *minimum* rate among
    surviving flows never decreases: the first freeze level is
    ``min_link capacity / crossing_count``, and removing any flow weakly
    raises every one of those quotients (caps only enter as smaller fixed
    freeze points that removal cannot lower).
    """
    rng = random.Random(7_000_000 + _FAMILY_SALT[family] * 10_000 + seed)
    flow_links, capacities, caps = GENERATORS[family](rng)
    if len(flow_links) < 2:
        pytest.skip("needs at least two flows")
    rates = _solve(flow_links, capacities, caps)
    victim = rng.randrange(len(flow_links))
    reduced_links = [l for i, l in enumerate(flow_links) if i != victim]
    reduced_caps = [c for i, c in enumerate(caps) if i != victim]
    reduced = _solve(reduced_links, capacities, reduced_caps)
    survivors = [i for i in range(len(flow_links)) if i != victim]
    old_finite = [
        rates[i] for i in survivors if np.isfinite(rates[i])
    ]
    new_finite = [
        reduced[ni]
        for ni, oi in enumerate(survivors)
        if np.isfinite(rates[oi])
    ]
    if old_finite:
        assert min(new_finite) >= min(old_finite) - 1e-9
    # Infinite (unconstrained) flows stay infinite.
    for ni, oi in enumerate(survivors):
        if np.isinf(rates[oi]):
            assert np.isinf(reduced[ni])


@pytest.mark.parametrize("seed", range(30))
def test_removal_monotone_on_a_single_shared_link(seed):
    """On one link, removal monotonicity *does* hold per flow."""
    rng = random.Random(40_000 + seed)
    n_flows = rng.randint(2, 20)
    capacity = rng.uniform(1.0, 100.0)
    caps = [
        rng.uniform(0.1, 20.0) if rng.random() < 0.5 else None
        for _ in range(n_flows)
    ]
    flow_links = [[0]] * n_flows
    rates = _solve(flow_links, [capacity], caps)
    victim = rng.randrange(n_flows)
    reduced = _solve(
        flow_links[:-1],
        [capacity],
        [c for i, c in enumerate(caps) if i != victim],
    )
    survivors = [i for i in range(n_flows) if i != victim]
    for ni, oi in enumerate(survivors):
        assert reduced[ni] >= rates[oi] - 1e-9


def test_removal_can_hurt_a_distant_flow():
    """The canonical counterexample, pinned so nobody "fixes" the engine
    to chase per-flow removal monotonicity.

    Link A (cap 4) carries flows 1,2; link B (cap 10) carries flows 2,3.
    With all three: A bottlenecks flows 1,2 at 2 each, flow 3 takes the
    rest of B -> (2, 2, 8).  Remove flow 1: flow 2 rises to A's full
    capacity 4, leaving flow 3 only 6.  Flow 3 never shared anything with
    flow 1 yet loses rate -- max-min is a global equilibrium, which is
    exactly why the vectorized engine must re-solve the *closed component*
    rather than just the departed flow's links.
    """
    rates = _solve([[0], [0, 1], [1]], [4.0, 10.0], [None, None, None])
    assert rates == pytest.approx([2.0, 2.0, 8.0])
    reduced = _solve([[0, 1], [1]], [4.0, 10.0], [None, None])
    assert reduced == pytest.approx([4.0, 6.0])


@pytest.mark.parametrize("seed", range(100))
def test_fast_fill_bit_identical_to_reference(seed):
    rng = random.Random(31_000 + seed)
    family = rng.choice(sorted(GENERATORS))
    flow_links, capacities, caps = GENERATORS[family](rng)
    n_flows = len(flow_links)
    n_links = len(capacities)
    caps_arr = np.array(
        [np.inf if c is None else float(c) for c in caps], dtype=float
    )
    link_of, flow_of = _build_entries(flow_links, n_links)
    reference = _progressive_fill(
        link_of, flow_of, np.asarray(capacities, dtype=float), n_flows, caps_arr
    )
    fast = _progressive_fill_fast(
        link_of, flow_of, np.asarray(capacities, dtype=float), n_flows, caps_arr
    )
    assert np.array_equal(reference, fast)  # exact, including inf pattern


def _assert_fast_equals_reference(link_of, flow_of, capacities, n_flows, caps):
    capacities = np.asarray(capacities, dtype=float)
    reference = _progressive_fill(link_of, flow_of, capacities, n_flows, caps)
    fast = _progressive_fill_fast(link_of, flow_of, capacities, n_flows, caps)
    assert np.array_equal(reference, fast)  # exact, including inf pattern
    return fast


def _entries(flow_links, capacities, caps):
    link_of, flow_of = _build_entries(flow_links, len(capacities))
    caps_arr = np.array([np.inf if c is None else float(c) for c in caps])
    return link_of, flow_of, capacities, len(flow_links), caps_arr


def test_fast_fill_wide_keys():
    """More than 65,535 links *and* flows: the grouping cannot radix-sort
    16-bit keys here, and a key truncated to 16 bits would fold the shared
    links (all above index 65,535) and the flows crossing them onto others.
    Few distinct capacities keep the reference at a few dozen levels."""
    rng = np.random.default_rng(7)
    n_flows, n_shared = 66_500, 40
    n_links = n_flows + n_shared
    capacities = np.empty(n_links)
    capacities[:n_flows] = rng.choice([3.0, 5.5, 8.0, 13.0], size=n_flows)
    capacities[n_flows:] = rng.uniform(50.0, 4000.0, size=n_shared)
    own = np.arange(n_flows)
    sharing = np.flatnonzero(rng.random(n_flows) < 0.3)
    shared = n_flows + rng.integers(0, n_shared, size=sharing.size)
    link_of = np.concatenate((own, shared))
    flow_of = np.concatenate((own, sharing))
    assert (sharing > 65_535).any()
    caps = np.where(
        rng.random(n_flows) < 0.2, rng.choice([2.0, 4.5, 6.0], size=n_flows), np.inf
    )
    rates = _assert_fast_equals_reference(link_of, flow_of, capacities, n_flows, caps)
    assert np.isfinite(rates).all()


@pytest.mark.parametrize("seed", range(10))
def test_fast_fill_cap_branch_only(seed):
    """Every flow capped below any fair share: each level is a cap event
    (ties included), no link ever saturates."""
    rng = random.Random(52_000 + seed)
    flow_links, capacities, _ = _uniform_instance(rng)
    floor = min(capacities) / (2 * len(flow_links))
    distinct = [rng.uniform(0.1, 1.0) * floor for _ in range(4)]
    caps = [
        rng.choice(distinct) if rng.random() < 0.5 else rng.uniform(0.1, 1.0) * floor
        for _ in flow_links
    ]
    rates = _assert_fast_equals_reference(*_entries(flow_links, capacities, caps))
    assert np.array_equal(rates, np.asarray(caps))


@pytest.mark.parametrize("seed", range(10))
def test_fast_fill_linkless_flows_and_idle_links(seed):
    """Flows crossing no link (capped or not) between flows that do, and
    links nobody crosses between links that carry flows."""
    rng = random.Random(53_000 + seed)
    flow_links, capacities, caps = _access_instance(rng)
    for _ in range(rng.randint(2, 6)):
        at = rng.randrange(len(flow_links) + 1)
        flow_links.insert(at, [])
        caps.insert(at, rng.uniform(0.5, 9.0) if rng.random() < 0.5 else None)
    # Idle links: widen the link space and move every used id up past them.
    stride = rng.randint(2, 3)
    wide = [rng.uniform(1.0, 9.0) for _ in range(stride * len(capacities) + 1)]
    for index, capacity in enumerate(capacities):
        wide[stride * index + 1] = capacity
    flow_links = [[stride * link + 1 for link in links] for links in flow_links]
    rates = _assert_fast_equals_reference(*_entries(flow_links, wide, caps))
    for links, cap, rate in zip(flow_links, caps, rates):
        if not links:
            assert rate == (np.inf if cap is None else cap)


@pytest.mark.parametrize("seed", range(10))
def test_fast_fill_levels_tied_within_eps(seed):
    """Saturation levels and caps a fraction of ``_EPS`` apart freeze in
    one event in the reference; the kernel must cut the same groups."""
    rng = random.Random(54_000 + seed)
    flow_links, capacities, caps = [], [], []
    for _ in range(rng.randint(2, 5)):
        level = rng.uniform(1.0, 8.0)
        for _ in range(rng.randint(2, 4)):  # links that saturate together
            crossing = rng.randint(1, 4)
            capacities.append(crossing * (level + rng.uniform(-4e-10, 4e-10)))
            for _ in range(crossing):
                flow_links.append([len(capacities) - 1])
                caps.append(None)
        # ... and a capped flow that ties with them, on a link of its own.
        capacities.append(50.0)
        flow_links.append([len(capacities) - 1])
        caps.append(level + rng.uniform(-4e-10, 4e-10))
    # Couple the groups so freezing one shifts the others' counts.
    capacities.append(1e3)
    for links in flow_links:
        if rng.random() < 0.5:
            links.append(len(capacities) - 1)
    _assert_fast_equals_reference(*_entries(flow_links, capacities, caps))


@pytest.mark.parametrize("seed", range(10))
def test_fast_fill_independent_of_entry_order(seed):
    """The entry arrays are a set: the engine hands them over in slot-reuse
    order with flow ids scrambled, and the rates must not notice."""
    rng = random.Random(55_000 + seed)
    family = rng.choice(sorted(GENERATORS))
    link_of, flow_of, capacities, n_flows, caps = _entries(*GENERATORS[family](rng))
    in_order = _assert_fast_equals_reference(link_of, flow_of, capacities, n_flows, caps)
    order = list(range(link_of.size))
    rng.shuffle(order)
    shuffled = _assert_fast_equals_reference(
        link_of[order], flow_of[order], capacities, n_flows, caps
    )
    assert np.array_equal(in_order, shuffled)


def _closure_union(rng, n_flows):
    """Kernel input shaped like the engine's incremental solve: the union of
    disjoint PoP closures (up/down access links, sometimes a shared metro
    link), renumbered to closure-local ids in an arbitrary (set) order,
    entries in store order -- each flow's links together, flows in arrival
    order rather than by id.  Some flows are capped, a few cross no link."""
    capacities, flow_links, caps = [], [], []
    while len(flow_links) < n_flows:
        n_peers = rng.randint(2, 12)
        up = [len(capacities) + i for i in range(n_peers)]
        capacities.extend(rng.uniform(5.0, 15.0) for _ in range(n_peers))
        down = [len(capacities) + i for i in range(n_peers)]
        capacities.extend(rng.uniform(10.0, 30.0) for _ in range(n_peers))
        metro = None
        if rng.random() < 0.5:
            metro = len(capacities)
            capacities.append(rng.uniform(20.0, 200.0))
        for _ in range(min(n_flows - len(flow_links), rng.randint(1, 3 * n_peers))):
            src, dst = rng.sample(range(n_peers), 2)
            links = [up[src], down[dst]]
            if metro is not None and rng.random() < 0.5:
                links.append(metro)
            flow_links.append([] if rng.random() < 0.05 else links)
            caps.append(rng.uniform(1.0, 25.0) if rng.random() < 0.4 else None)
    link_ids = list(range(len(capacities)))
    flow_ids = list(range(n_flows))
    rng.shuffle(link_ids)
    rng.shuffle(flow_ids)
    local_caps = np.empty(len(capacities))
    local_caps[link_ids] = capacities
    flow_caps = np.empty(n_flows)
    flow_caps[flow_ids] = [np.inf if cap is None else cap for cap in caps]
    link_of = [link_ids[link] for links in flow_links for link in links]
    flow_of = [flow_ids[flow] for flow, links in enumerate(flow_links) for _ in links]
    return (
        np.asarray(link_of, dtype=np.intp),
        np.asarray(flow_of, dtype=np.intp),
        local_caps,
        n_flows,
        flow_caps,
    )


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "n_flows", [1, 2, 3, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512]
)
def test_fast_fill_closure_shaped_inputs(n_flows, seed):
    """Every incremental solve hands the kernel its closures in this shape,
    at every size: the kernel must return the reference fill's bits across
    what used to be the 16-32-flow crossover between the two fills."""
    rng = random.Random(56_000 + 1_000 * seed + n_flows)
    link_of, flow_of, capacities, n, caps = _closure_union(rng, n_flows)
    rates = _assert_fast_equals_reference(link_of, flow_of, capacities, n, caps)
    assert rates.shape == (n_flows,)


def test_engine_closure_solves_get_the_reference_bits(monkeypatch):
    """The kernel's inputs as the engine really builds them -- gathered
    from the entry store after slot reuse and tombstones, one call per
    solve over several closures -- give the reference fill's bits."""
    import repro.simulator.tcp as tcp

    calls = []

    def checked(link_of, flow_of, capacities, n_flows, caps):
        calls.append(n_flows)
        return _assert_fast_equals_reference(link_of, flow_of, capacities, n_flows, caps)

    monkeypatch.setattr(tcp, "_progressive_fill_fast", checked)
    rng = random.Random(57)
    net = tcp.VectorizedFlowNetwork(dirty_flow_floor=40, dirty_flow_fraction=0.0)
    pops = []
    for pop in range(5):
        ups = [net.add_link(("up", pop, i), rng.uniform(5.0, 15.0)) for i in range(6)]
        downs = [net.add_link(("down", pop, i), rng.uniform(10.0, 30.0)) for i in range(6)]
        pops.append((ups, downs))

    def start():
        ups, downs = rng.choice(pops)
        src, dst = rng.sample(range(6), 2)
        cap = rng.uniform(1.0, 12.0) if rng.random() < 0.4 else None
        net.start_flow([ups[src], downs[dst]], rng.uniform(0.5, 4.0), rate_cap=cap)

    for _ in range(60):
        start()
    for _ in range(300):
        net.advance(net.next_completion())
        for _ in net.pop_finished():
            start()
        if rng.random() < 0.3:
            net.abort_flow(rng.choice(list(net.flows())).flow_id)
            start()
    assert net.stats.full_solves == 0
    assert net.stats.multi_closure_solves > 0
    assert net.stats.compactions > 0
    assert len(calls) == net.stats.incremental_solves
    assert max(calls) > 16 and min(calls) < 16


def _assert_exact_without_zero_by_zero(link_of, flow_of, capacities, n_flows, caps):
    """The reference's bits, with a ``0 / 0`` in either fill raised rather
    than left to turn a link's level into NaN."""
    with np.errstate(invalid="raise"):
        return _assert_fast_equals_reference(link_of, flow_of, capacities, n_flows, caps)


def _exact_drain_instance(rng):
    """Groups of links that saturate together at binary-fraction levels,
    beside links that go idle with headroom left.

    Every level, cap and capacity is a multiple of 1/8 and small, so every
    operation of the fill is exact: a group's links drain to exactly 0.0
    and its flows freeze at exactly the group's level.  A shared link
    crossed only by group flows goes idle, with most of its capacity
    left, once the last of those groups froze; another goes idle once its
    capped flows froze at their caps.  A last single-link group saturates
    after both, so the fill still runs levels over the idle links."""
    *levels, top = sorted(rng.sample([k / 8 for k in range(4, 160)], rng.randint(3, 6)))
    capacities = [4096.0, 512.0]  # the shared link, the capped flows' link
    flow_links, caps, expected = [], [], []
    for level in levels:
        for _ in range(rng.randint(1, 3)):  # links that saturate together
            crossing = rng.randint(1, 4)
            capacities.append(crossing * level)
            for _ in range(crossing):
                shared = [0] if rng.random() < 0.5 else []
                flow_links.append([len(capacities) - 1] + shared)
                caps.append(None)
                expected.append(level)
    for _ in range(rng.randint(1, 5)):
        cap = rng.randrange(2, int(8 * top)) / 8
        flow_links.append([1])
        caps.append(cap)
        expected.append(cap)
    crossing = rng.randint(1, 3)
    capacities.append(crossing * top)
    for _ in range(crossing):
        flow_links.append([len(capacities) - 1])
        caps.append(None)
        expected.append(top)
    order = list(range(len(flow_links)))
    rng.shuffle(order)
    return (
        [flow_links[i] for i in order],
        capacities,
        [caps[i] for i in order],
        [expected[i] for i in order],
    )


@pytest.mark.parametrize("seed", range(20))
def test_fill_drains_links_to_exact_zero_beside_idle_ones(seed):
    """A saturated link's headroom reaches exactly 0.0 and every flow on it
    freezes, so it must leave the next level's divide as ``inf``, not
    ``0 / 0``; links whose flows all froze elsewhere or at their caps go
    idle with headroom left and must read ``inf`` too."""
    rng = random.Random(58_000 + seed)
    flow_links, capacities, caps, expected = _exact_drain_instance(rng)
    rates = _assert_exact_without_zero_by_zero(*_entries(flow_links, capacities, caps))
    assert rates.tolist() == expected


def _chain_instance(rng):
    """Chain links saturating one at a time, levels >= 0.5 apart, among
    links no flow crosses.  A chain link's flows cross later chain links
    too, so each later link's entries hold flows that froze levels ago,
    whose other links are idle by then."""
    n_chain = rng.randint(3, 8)
    n_links = n_chain + rng.randint(1, 6)
    chain = rng.sample(range(n_links), n_chain)
    levels = []
    for _ in range(n_chain):
        levels.append((levels[-1] if levels else 0.0) + rng.uniform(0.5, 3.0))
    capacities = [rng.uniform(1.0, 50.0) for _ in range(n_links)]
    for link in chain:
        capacities[link] = 0.0
    flow_links = []
    for k, link in enumerate(chain):
        for _ in range(rng.randint(1, 4)):
            links = [link] + [later for later in chain[k + 1 :] if rng.random() < 0.4]
            for crossed in links:
                capacities[crossed] += levels[k]
            flow_links.append(links)
    rng.shuffle(flow_links)
    return flow_links, capacities, [None] * len(flow_links)


@pytest.mark.parametrize("seed", range(20))
def test_fill_lone_bottleneck_chains(seed):
    """Every level has one bottleneck link, whose flows are its run of
    entries: the ones still active freeze, the ones frozen at an earlier
    level stay as they are."""
    rng = random.Random(59_000 + seed)
    flow_links, capacities, caps = _chain_instance(rng)
    rates = _assert_exact_without_zero_by_zero(*_entries(flow_links, capacities, caps))
    assert len(set(rates.tolist())) > 2


@pytest.mark.parametrize("seed", range(20))
def test_fill_with_an_infinite_capacity_link(seed):
    """A link of infinite capacity never saturates and, once its flows
    froze elsewhere, is idle like any other; a capped flow crossing only
    that link rises to its cap."""
    rng = random.Random(60_000 + seed)
    flow_links, capacities, caps = _access_instance(rng)
    infinite = rng.randrange(len(capacities) + 1)
    flow_links = [
        [link + (link >= infinite) for link in links]
        + ([infinite] if rng.random() < 0.5 else [])
        for links in flow_links
    ]
    capacities.insert(infinite, np.inf)
    flow_links.append([infinite])
    caps.append(rng.uniform(1.0, 25.0))
    rates = _assert_exact_without_zero_by_zero(*_entries(flow_links, capacities, caps))
    assert np.isfinite(rates).all()
    assert rates[-1] == caps[-1]


def test_rates_scale_with_capacity():
    """Doubling every capacity doubles every uncapped rate (scale-freeness)."""
    rng = random.Random(5)
    flow_links, capacities, _ = _uniform_instance(rng)
    caps = [None] * len(flow_links)
    base = _solve(flow_links, capacities, caps)
    doubled = _solve(flow_links, [2 * c for c in capacities], caps)
    finite = np.isfinite(base)
    assert np.allclose(doubled[finite], 2 * base[finite], rtol=1e-9)


# -- component labels ---------------------------------------------------------


def _closures(flows):
    """Exact closures of the live flows by an independent BFS: a map from
    each crossed link to the (links, flow ids) of its closure."""
    by_link = {}
    for flow in flows:
        for link in flow.link_indices:
            by_link.setdefault(link, []).append(flow)
    closure_of = {}
    for root in by_link:
        if root in closure_of:
            continue
        links, ids, stack = {root}, set(), [root]
        while stack:
            for flow in by_link[stack.pop()]:
                if flow.flow_id in ids:
                    continue
                ids.add(flow.flow_id)
                for link in flow.link_indices:
                    if link not in links:
                        links.add(link)
                        stack.append(link)
        closure = (frozenset(links), frozenset(ids))
        for link in links:
            closure_of[link] = closure
    return closure_of


def _check_labels(net):
    """The label invariant, read from the engine's component state.

    Returns the components as (links, flow ids) pairs."""
    dead = set(net._free_labels)
    live = [label for label in range(len(net._comp_links)) if label not in dead]
    owner = {}
    for label in live:
        for link in net._comp_links[label]:
            assert link not in owner, f"link {link} in two components"
            assert net._link_comp[link] == label
            owner[link] = label
    assert sorted(owner) == list(range(net.n_links))
    closure_of = _closures(net.flows())
    components = []
    for label in live:
        links = frozenset(net._comp_links[label])
        ids = frozenset(net._slot_flow[slot].flow_id for slot in net._comp_slots[label])
        for slot in net._comp_slots[label]:
            assert {net._link_comp[link] for link in net._slot_flow[slot].link_indices} == {label}
        # A union of exact closures: every closure it touches lies inside.
        for link in links:
            closure = closure_of.get(link)
            if closure is not None:
                assert closure[0] <= links and closure[1] <= ids
        if net._comp_departs[label] == 0:
            # No departure since it was last exact: one closure, or one
            # idle link.
            if ids:
                assert closure_of[next(iter(links))] == (links, ids)
            else:
                assert len(links) == 1 and next(iter(links)) not in closure_of
        components.append((links, ids))
    # Every live flow that crosses a link is in exactly one component.
    placed = [flow_id for _, ids in components for flow_id in ids]
    assert sorted(placed) == sorted(flow.flow_id for flow in net.flows() if flow.link_indices)
    return components


def _bridged_pop_schedule(seed, n_pops=4, per_pop=3, n_events=400):
    """A PoP-partitioned network churned at random, with bridge flows (one
    PoP's up link, another's down link) that join two PoPs and then leave.

    The schedule is recorded while it runs on the engine, whose labels are
    checked after every event; returns it in the lockstep oracle's format,
    with the engine's stats."""
    from repro.simulator.tcp import VectorizedFlowNetwork

    rng = random.Random(seed)
    net = VectorizedFlowNetwork()
    capacities = []
    pops = []
    for pop in range(n_pops):
        ups, downs = [], []
        for _ in range(per_pop):
            for group, low in ((ups, 5.0), (downs, 10.0)):
                capacities.append(rng.uniform(low, 3 * low))
                group.append(net.add_link(("l", len(capacities) - 1), capacities[-1]))
        pops.append((ups, downs))
    pop_of = {link: pop for pop, groups in enumerate(pops) for group in groups for link in group}
    ops, live, bridges = [], [], []
    joined = parted = 0
    was_joined = False
    for _ in range(n_events):
        action = rng.random()
        if action < 0.5 or len(live) < 4:
            src = rng.randrange(n_pops)
            dst = src
            if rng.random() < 0.15:
                dst = rng.choice([pop for pop in range(n_pops) if pop != src])
            links = [rng.choice(pops[src][0]), rng.choice(pops[dst][1])]
            cap = rng.uniform(2.0, 12.0) if rng.random() < 0.4 else None
            op = {"op": "arrive", "links": links, "size": rng.uniform(0.5, 5.0), "cap": cap}
            flow = net.start_flow(links, op["size"], rate_cap=cap)
            (bridges if dst != src else live).append(flow.flow_id)
        elif action < 0.7 or bridges:
            # Bridges leave first: a joined pair of PoPs then splits apart.
            pool = bridges if bridges and rng.random() < 0.6 else live
            victim = pool.pop(rng.randrange(len(pool)))
            op = {"op": "abort", "flow": victim}
            net.abort_flow(victim)
        else:
            idle = rng.uniform(0.0, 0.5) if rng.random() < 0.3 else None
            op = {"op": "advance", "idle": idle}
            when = net.next_completion()
            if idle is not None or when is None:
                when = net._clock + (idle or 0.0)
            net.advance(max(when, net._clock))
            for flow in net.pop_finished():
                for pool in (live, bridges):
                    if flow.flow_id in pool:
                        pool.remove(flow.flow_id)
        ops.append(op)
        net.next_completion()  # solve: labels are re-split here
        is_joined = any(
            len({pop_of[link] for link in links}) > 1 for links, _ in _check_labels(net)
        )
        joined += is_joined
        parted += was_joined and not is_joined
        was_joined = is_joined
    return capacities, ops, net.stats, joined, parted


@pytest.mark.parametrize("seed", range(6))
def test_component_labels_hold_their_invariant_under_bridged_churn(seed):
    """Labels are a union of exact closures after every event, exact after
    a re-split, and every solve mode agrees with the reference in lockstep
    on the same schedule."""
    from repro.simulator.differential import ENGINE_REGIMES, run_schedule

    capacities, ops, stats, joined, parted = _bridged_pop_schedule(seed)
    assert stats.resplits > 10
    assert joined > 0 and parted > 0  # bridges joined PoPs, re-splits parted them
    assert stats.multi_closure_solves > 0
    for regime in ENGINE_REGIMES:
        report = run_schedule(capacities, ops, regime=regime, label=f"seed={seed}")
        assert report.steps == len(ops)


def test_resplits_are_mirrored_into_telemetry():
    """``EngineStats.resplits`` and ``p4p_engine_component_resplits_total``
    count the same splits, and the solve-latency histogram keeps reading
    the injected clock (two reads per solve)."""
    from repro.observability import Telemetry
    from repro.simulator.tcp import VectorizedFlowNetwork

    ticks = iter(range(10**6))
    telemetry = Telemetry(clock=lambda: 0.0)
    net = VectorizedFlowNetwork(telemetry=telemetry, perf_clock=lambda: float(next(ticks)))
    links = [net.add_link(("l", index), 10.0) for index in range(4)]
    rng = random.Random(3)
    for _ in range(200):
        flow = net.start_flow(rng.sample(links, 2), 1.0)
        net.next_completion()
        if rng.random() < 0.7:
            net.abort_flow(flow.flow_id)
    net.next_completion()
    counter = telemetry.registry.get("p4p_engine_component_resplits_total")
    assert net.stats.resplits >= 5
    assert counter.labels(engine="vectorized").value == net.stats.resplits
    latency = net._m_latency
    assert latency.count == net.stats.solves
    assert latency.sum == latency.count  # each solve spans one clock tick
