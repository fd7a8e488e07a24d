"""Property tests for the p-distance view transformations."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.fuzz.executor import Executor
from repro.network.library import abilene
from repro.portal import faults, protocol
from repro.portal.resilience import ValidationPolicy
from tests.conftest import view_of, view_pairs


def view_strategy(min_pids=2, max_pids=6):
    return st.integers(min_value=min_pids, max_value=max_pids).flatmap(
        lambda n: st.lists(
            st.floats(min_value=0.0, max_value=1e4),
            min_size=n * (n - 1),
            max_size=n * (n - 1),
        ).map(lambda values: _build_view(n, values))
    )


def _build_view(n, values):
    pids = tuple(f"P{i}" for i in range(n))
    distances = {}
    index = 0
    for a in pids:
        for b in pids:
            if a == b:
                continue
            distances[(a, b)] = values[index]
            index += 1
    return view_of(pids, distances)


class TestRankProperties:
    @settings(max_examples=60)
    @given(view_strategy())
    def test_ranks_preserve_strict_order(self, view):
        ranks = view.to_ranks()
        for src in view.pids:
            row = view.row(src)
            rank_row = ranks.row(src)
            for a in row:
                for b in row:
                    if row[a] < row[b] - 1e-9:
                        assert rank_row[a] < rank_row[b]

    @settings(max_examples=60)
    @given(view_strategy())
    def test_ranks_are_positive_integers_starting_at_one(self, view):
        ranks = view.to_ranks()
        for src in view.pids:
            values = list(ranks.row(src).values())
            assert min(values) == 1.0
            assert all(float(v).is_integer() and v >= 1 for v in values)

    @settings(max_examples=40)
    @given(view_strategy())
    def test_rank_idempotence_on_orders(self, view):
        """Ranking twice yields the same ranks (ranks of ranks = ranks)."""
        once = view.to_ranks()
        twice = once.to_ranks()
        assert view_pairs(once) == view_pairs(twice)


class TestPerturbationProperties:
    @settings(max_examples=60)
    @given(view_strategy(), st.floats(min_value=0.0, max_value=0.49),
           st.integers(min_value=0, max_value=100))
    def test_noise_bounded_and_nonnegative(self, view, noise, seed):
        noisy = view.perturbed(noise, seed=seed)
        for pair, value in view_pairs(view).items():
            assert view_pairs(noisy)[pair] >= 0
            assert abs(view_pairs(noisy)[pair] - value) <= noise * value + 1e-9

    @settings(max_examples=30)
    @given(view_strategy(), st.integers(min_value=0, max_value=50))
    def test_zero_noise_is_identity(self, view, seed):
        assert view_pairs(view.perturbed(0.0, seed=seed)) == view_pairs(view)

    @settings(max_examples=30)
    @given(view_strategy(), st.integers(min_value=0, max_value=50))
    def test_same_seed_same_noise(self, view, seed):
        a = view.perturbed(0.1, seed=seed)
        b = view.perturbed(0.1, seed=seed)
        assert view_pairs(a) == view_pairs(b)


class TestRestrictionProperties:
    @settings(max_examples=60)
    @given(view_strategy(min_pids=3))
    def test_restriction_preserves_distances(self, view):
        keep = list(view.pids[:2])
        sub = view.restricted_to(keep)
        assert set(sub.pids) == set(keep)
        for src in keep:
            for dst in keep:
                if src != dst:
                    assert sub.distance(src, dst) == view.distance(src, dst)

    @settings(max_examples=30)
    @given(view_strategy(min_pids=3))
    def test_restriction_then_ranks_consistent(self, view):
        """Restricting and ranking commute on the surviving pairs' order."""
        keep = list(view.pids[:3])
        ranked_sub = view.restricted_to(keep).to_ranks()
        for src in keep:
            row = {dst: view.distance(src, dst) for dst in keep if dst != src}
            rank_row = ranked_sub.row(src)
            for a in row:
                for b in row:
                    if row[a] < row[b] - 1e-9:
                        assert rank_row[a] < rank_row[b]


def tracker_view(**config):
    """Abilene's external view under seeded, diverse link prices."""
    topology = abilene()
    tracker = ITracker(topology=topology, config=ITrackerConfig(**config))
    rng = random.Random(11)
    prices = [[src, dst, rng.uniform(1e-6, 1e-3)] for src, dst in topology.links]
    record = {"epoch": 0, "version": tracker.version + 1, "time": 0.0, "prices": prices}
    assert tracker.apply_state_delta({"records": [record]})
    return tracker.get_pdistances()


def round_trip(view):
    return protocol.pdistance_from_wire(protocol.pdistance_to_wire(view))


class TestWireRoundTrip:
    """``pdistance_from_wire(pdistance_to_wire(v)) == v``, absences included."""

    def test_full_restricted_perturbed_ranked_and_holed_views(self):
        full = tracker_view()
        pids = list(full.pids)
        holed = protocol.pdistance_from_wire(
            faults.drop_rows(protocol.pdistance_to_wire(full))
        )
        views = {
            "full": full,
            "restricted": full.restricted_to(pids[7:1:-1]),
            "perturbed": full.perturbed(0.2, seed=5),
            "ranked": full.to_ranks(),
            "holed": holed,
            "integer p_ii": tracker_view(intra_pid_distance=1),
            "served ranks": tracker_view(perturbation=0.1, serve_ranks=True),
        }
        assert np.isnan(holed.matrix[0]).all()
        for name, view in views.items():
            assert round_trip(view) == view, name
            # Re-encoding the parsed view gives the same document (the
            # ranked ones list each row most preferred first; the parsed
            # copy in external-view order holds the same pairs).
            again = protocol.pdistance_to_wire(round_trip(view))
            assert sorted(map(tuple, again["distances"])) == sorted(
                tuple(entry) for entry in protocol.pdistance_to_wire(view)["distances"]
            ), name

    @settings(max_examples=40)
    @given(view_strategy(), st.integers(min_value=0, max_value=50))
    def test_generated_views(self, view, seed):
        for variant in (view, view.to_ranks(), view.perturbed(0.3, seed=seed)):
            assert round_trip(variant) == variant


class TestWireRefusals:
    def document(self):
        return protocol.pdistance_to_wire(tracker_view().restricted_to(["ATLA", "CHIN"]))

    def test_a_nan_distance_is_refused_by_the_parser(self):
        document = self.document()
        document["distances"][1][2] = float("nan")
        with pytest.raises(ValueError, match="NaN p-distance"):
            protocol.pdistance_from_wire(document)
        # As it arrives in a frame: JSON's NaN literal decodes to the float.
        text = json.dumps(self.document()).replace("0.0]", "NaN]", 1)
        assert "NaN" in text
        with pytest.raises(ValueError, match="NaN p-distance"):
            protocol.pdistance_from_wire(json.loads(text))

    def test_a_pid_listed_twice_is_a_protocol_error(self):
        document = self.document()
        document["pids"].append(document["pids"][0])
        with pytest.raises(protocol.ProtocolError, match="listed twice"):
            protocol.pdistance_from_wire(document)


#: ``Executor._judge_view``'s verdict per byzantine mutator chain, as
#: the dict-backed view gave them.
VERDICTS = {
    (): ("accepted", [], "accepted", []),
    ("negate",): ("rejected", ["parse"], "rejected", ["parse"]),
    ("drop-rows",): ("rejected", ["missing-row"], "accepted", []),
    ("churn-mild",): ("accepted", [], "accepted", []),
    ("churn-wild",): ("rejected", ["churn"], "rejected", ["churn"]),
    ("drop-rows", "churn-wild"): ("rejected", ["missing-row"], "rejected", ["churn"]),
    ("churn-wild", "negate"): ("rejected", ["parse"], "rejected", ["parse"]),
    ("churn-mild", "drop-rows"): ("rejected", ["missing-row"], "accepted", []),
}


class TestValidationCategories:
    @pytest.mark.parametrize("chain", sorted(VERDICTS))
    def test_each_fault_mutator_keeps_its_category(self, chain):
        tracker = ITracker(topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT))
        base = tracker.get_pdistances()
        document = protocol.pdistance_to_wire(base)
        mutators = {
            "negate": faults.negate_distances,
            "drop-rows": faults.drop_rows,
            "churn-mild": faults.churn_values(3.0),
            "churn-wild": faults.churn_values(50.0),
        }
        for name in chain:
            document = mutators[name](document)
        judged = []
        for full_mesh in (True, False):
            policy = ValidationPolicy(require_full_mesh=full_mesh)
            judged += Executor()._judge_view(document, base, policy)
        assert tuple(judged) == VERDICTS[chain]
