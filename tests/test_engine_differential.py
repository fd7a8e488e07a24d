"""Differential harness: scalar vs vectorized flow engines in lockstep.

The oracle implementation lives in :mod:`repro.simulator.differential`
(shared with the scenario fuzzer); this module sweeps it over randomized
schedules so every solve path is covered: the default adaptive policy, a
dirty limit of zero (every solve falls back to the full vector path),
and an unbounded limit (every solve takes the incremental component
path).  Entry-store compaction is reached through the churn the
schedules generate.
"""

import random

import numpy as np
import pytest

from repro.simulator.differential import (
    DivergenceError,
    ENGINE_REGIMES,
    random_schedule,
    run_schedule,
    validate_schedule,
)
from repro.simulator.tcp import FlowNetwork, VectorizedFlowNetwork

N_SEEDS = 60
N_EVENTS = 80


def _run_lockstep(seed, regime, n_events=N_EVENTS):
    capacities, ops = random_schedule(seed, n_events=n_events)
    report = run_schedule(capacities, ops, regime=regime, label=f"seed={seed}")
    assert report.steps == n_events
    return report.vector


@pytest.mark.parametrize("regime", sorted(ENGINE_REGIMES))
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_lockstep_schedule_matches(seed, regime):
    _run_lockstep(seed, regime)


def test_incremental_path_actually_taken():
    """The incremental-only config must not silently full-solve everything."""
    vector = _run_lockstep(1234, "incremental-only", n_events=120)
    assert vector.stats.incremental_solves > 0
    # The full-biased config must exercise the vector full path almost
    # exclusively (a dirty limit of one still admits single-flow
    # components, so a handful of incremental solves are expected).
    vector = _run_lockstep(1234, "full-only", n_events=120)
    assert vector.stats.full_solves > 0
    assert vector.stats.full_solves > 10 * max(vector.stats.incremental_solves, 1)


def test_compaction_exercised_under_churn():
    """Enough churn tombstones half the entry store and triggers compaction."""
    rng = random.Random(99)
    vector = VectorizedFlowNetwork()
    links = [vector.add_link(("l", i), 10.0) for i in range(6)]
    for round_index in range(400):
        flow = vector.start_flow(
            rng.sample(links, 3), 1.0, rate_cap=None
        )
        vector.next_completion()
        vector.abort_flow(flow.flow_id)
    assert vector.stats.compactions > 0


def test_divergence_error_carries_context():
    """A broken vectorized engine is caught with a located, labeled error."""

    class _CapDropping(VectorizedFlowNetwork):
        def start_flow(self, links, size, meta=None, rate_cap=None):
            return super().start_flow(links, size, meta=meta, rate_cap=None)

    capacities = [20.0]
    ops = [
        {"op": "arrive", "links": [0], "size": 4.0, "cap": 1.0},
        {"op": "advance", "idle": None},
    ]
    with pytest.raises(DivergenceError) as excinfo:
        run_schedule(capacities, ops, vector_factory=_CapDropping, label="planted")
    assert "planted" in str(excinfo.value)
    assert excinfo.value.context.startswith("planted step=0")
    assert excinfo.value.detail


def test_malformed_schedules_rejected():
    with pytest.raises(ValueError):
        validate_schedule([], [])
    with pytest.raises(ValueError):
        validate_schedule([5.0], [{"op": "arrive", "links": [3], "size": 1.0}])
    with pytest.raises(ValueError):
        validate_schedule([5.0], [{"op": "arrive", "links": [0], "size": -1.0}])
    with pytest.raises(ValueError):
        validate_schedule([5.0], [{"op": "teleport"}])
    with pytest.raises(ValueError):
        run_schedule([5.0], [], regime="warp-speed")


def test_abort_of_missing_flow_is_a_noop_in_both_engines():
    """Minimized schedules may abort dropped flows; both engines agree."""
    capacities = [10.0]
    ops = [
        {"op": "abort", "flow": 7},
        {"op": "arrive", "links": [0], "size": 2.0, "cap": None},
        {"op": "abort", "flow": 7},
        {"op": "advance", "idle": None},
    ]
    report = run_schedule(capacities, ops)
    assert report.aborts == 2
    assert report.pops == 1


def test_full_solve_bit_identical_to_scalar():
    """The whole-network vector solve reproduces scalar rates *bit for bit*.

    The experiment harness depends on this: selecting the vectorized
    engine must not perturb any figure derived from a full-solve run.
    """
    rng = random.Random(7)
    scalar = FlowNetwork()
    vector = VectorizedFlowNetwork(dirty_flow_floor=1, dirty_flow_fraction=0.0)
    for index in range(10):
        capacity = rng.uniform(2.0, 40.0)
        scalar.add_link(("l", index), capacity)
        vector.add_link(("l", index), capacity)
    for step in range(60):
        links = rng.sample(range(10), rng.randint(1, 4))
        cap = rng.uniform(1.0, 20.0) if rng.random() < 0.5 else None
        size = rng.uniform(1.0, 5.0)
        scalar.start_flow(links, size, rate_cap=cap)
        vector.start_flow(links, size, rate_cap=cap)
    scalar.next_completion()
    vector.next_completion()
    scalar._flush()
    vector._flush()
    s_rates = {f.flow_id: f.rate for f in scalar.flows()}
    for v_flow in vector.flows():
        assert v_flow.rate == s_rates[v_flow.flow_id]  # exact, no tolerance


def test_full_path_replay_bit_identical_to_scalar():
    """A churning replay through the full path stays *equal* to the
    reference, not merely close: slot reuse, tombstoned entries and entry
    compaction all feed ``_solve_full``, and the class docstring promises
    bit-exact rates there.  Compared with ``==`` after every event whose
    solve was full -- rates, remaining sizes, the shared completion clock
    and the cumulative ``link_mbit`` counters.

    With ``dirty_flow_floor=1`` any component of two or more flows is
    solved whole, and 24 flows over 14 links never leave one on its own,
    so every solve of the replay is a full one (asserted: a locally
    re-solved single flow may differ from the global solve in the last
    bit, which would then show in every later counter).
    """
    rng = random.Random(24)
    scalar = FlowNetwork()
    vector = VectorizedFlowNetwork(dirty_flow_floor=1, dirty_flow_fraction=0.0)
    n_links = 14
    for index in range(n_links):
        capacity = rng.uniform(2.0, 40.0)
        scalar.add_link(("l", index), capacity)
        vector.add_link(("l", index), capacity)

    live = []

    def start():
        links = rng.sample(range(n_links), rng.randint(1, 4))
        cap = rng.uniform(1.0, 20.0) if rng.random() < 0.5 else None
        size = rng.uniform(0.5, 6.0)
        flow = scalar.start_flow(links, size, rate_cap=cap)
        assert vector.start_flow(links, size, rate_cap=cap).flow_id == flow.flow_id
        live.append(flow.flow_id)

    for _ in range(24):
        start()
    slots_at_peak = len(vector._slot_flow)
    compared = 0
    for event in range(500):
        full_before = vector.stats.full_solves
        when = scalar.next_completion()
        assert vector.next_completion() == when
        if vector.stats.full_solves > full_before:
            compared += 1
            scalar._flush()
            vector._flush()
            v_flows = {flow.flow_id: flow for flow in vector.flows()}
            for s_flow in scalar.flows():
                v_flow = v_flows.pop(s_flow.flow_id)
                assert v_flow.rate == s_flow.rate  # exact, no tolerance
                assert v_flow.remaining_mbit == s_flow.remaining_mbit
            assert not v_flows
            assert np.array_equal(vector.link_mbit, scalar.link_mbit)
        scalar.advance(when)
        vector.advance(when)
        done = [flow.flow_id for flow in scalar.pop_finished()]
        assert [flow.flow_id for flow in vector.pop_finished()] == done
        for flow_id in done:
            live.remove(flow_id)
        if event % 7 == 3 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert scalar.abort_flow(victim).flow_id == victim
            assert vector.abort_flow(victim).flow_id == victim
        while len(live) < 24:
            start()
    assert compared > 400
    assert vector.stats.incremental_solves == 0
    assert vector.stats.compactions >= 1
    # Slots were recycled rather than appended: reuse is what scrambles the
    # slot order the kernel sees relative to flow-id order.
    assert len(vector._slot_flow) <= slots_at_peak + 4
    assert scalar._next_flow_id > 10 * slots_at_peak


def test_disjoint_closures_over_the_limit_together_stay_incremental():
    """Two dirty PoP closures, each under the dirty limit, their union over
    it: the solve re-rates both in one incremental pass (the limit applies
    per closure) and still matches the reference after every event."""
    rng = random.Random(28)
    limit = 8
    scalar = FlowNetwork()
    vector = VectorizedFlowNetwork(dirty_flow_floor=limit, dirty_flow_fraction=0.0)
    pops = []
    for pop in range(4):
        # Every flow of a PoP crosses its metro link: one closure per PoP.
        metro = scalar.add_link(("metro", pop), rng.uniform(20.0, 40.0))
        vector.add_link(("metro", pop), scalar.capacity(metro))
        ups, downs = [], []
        for peer in range(4):
            for side, group, capacity in (("up", ups, 10.0), ("down", downs, 20.0)):
                group.append(scalar.add_link((side, pop, peer), capacity))
                vector.add_link((side, pop, peer), capacity)
        pops.append((metro, ups, downs))
    live = {pop: [] for pop in range(len(pops))}

    def start(pop):
        metro, ups, downs = pops[pop]
        src, dst = rng.sample(range(len(ups)), 2)
        links = [ups[src], metro, downs[dst]]
        size = rng.uniform(1.0, 6.0)
        cap = rng.uniform(2.0, 12.0) if rng.random() < 0.5 else None
        flow = scalar.start_flow(links, size, meta=pop, rate_cap=cap)
        assert vector.start_flow(links, size, meta=pop, rate_cap=cap).flow_id == flow.flow_id
        live[pop].append(flow.flow_id)

    def check():
        when = scalar.next_completion()
        assert vector.next_completion() == pytest.approx(when, rel=1e-9, abs=1e-9)
        scalar._flush()
        vector._flush()
        v_rates = {flow.flow_id: flow.rate for flow in vector.flows()}
        s_rates = {flow.flow_id: flow.rate for flow in scalar.flows()}
        assert v_rates.keys() == s_rates.keys()
        for flow_id, rate in s_rates.items():
            assert v_rates[flow_id] == pytest.approx(rate, rel=1e-9, abs=1e-12)
        for index in range(scalar.n_links):
            assert vector.utilization(index) == pytest.approx(
                scalar.utilization(index), rel=1e-9, abs=1e-12
            )
        return when

    for pop in live:
        for _ in range(6):
            start(pop)
    check()
    now = 0.0
    for _ in range(80):
        # Churn two PoPs at once: one departure and one arrival in each.
        for pop in rng.sample(sorted(live), 2):
            victim = live[pop].pop(rng.randrange(len(live[pop])))
            assert scalar.abort_flow(victim).flow_id == victim
            assert vector.abort_flow(victim).flow_id == victim
            start(pop)
        before = (vector.stats.incremental_solves, vector.stats.multi_closure_solves)
        when = check()
        assert vector.stats.incremental_solves == before[0] + 1
        assert vector.stats.multi_closure_solves == before[1] + 1
        assert vector.stats.dirty_flows_last > limit  # the union alone is too big
        now = min(when, now + 0.25)
        scalar.advance(now)
        vector.advance(now)
        done = [flow.flow_id for flow in scalar.pop_finished()]
        assert [flow.flow_id for flow in vector.pop_finished()] == done
        for flow in done:
            for pop, flows in live.items():
                if flow in flows:
                    flows.remove(flow)
                    start(pop)
        check()
    assert vector.stats.full_solves == 0
    assert vector.stats.multi_closure_solves >= 80
