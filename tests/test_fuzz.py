"""Self-tests for the coverage-guided scenario fuzzer.

Four properties the fuzzer's own machinery must hold (beyond what the
oracles it drives already guarantee):

* **spec round-trip** -- every ScenarioSpec survives to_json/from_json
  exactly (same canonical form, same digest), and malformed documents
  are rejected loudly;
* **mutator determinism** -- the same (parent, RNG seed) always yields
  the same child chain, and every mutator's output re-validates;
* **coverage-map stability** -- executing the same spec twice produces
  identical coverage keys and outcome digests;
* **minimizer convergence** -- against a planted regression, delta
  debugging shrinks a padded failing spec down to the essential core
  while preserving the exact failure signature.

Plus the end-to-end story: a short fuzz run re-discovers both planted
regressions, produces replayable fixtures, and two identically-seeded
runs agree bit for bit on the determinism digest.
"""

import json
import random

import pytest

from repro.fuzz import (
    ChaosSpec,
    DifferentialSpec,
    Executor,
    Fixture,
    FuzzConfig,
    Fuzzer,
    MUTATORS,
    Minimizer,
    PLANTS,
    ScenarioSpec,
    TopologySpec,
    ViewSpec,
    WorkloadSpec,
    load_fixture,
    mutate,
    replay_fixture,
)
from repro.fuzz.corpus import Corpus, CorpusEntry, CoverageMap
from repro.simulator.chaos import ChaosEvent, ChaosSchedule
from repro.simulator.differential import random_schedule
from repro.tools.cli import main as cli_main

pytestmark = pytest.mark.fuzz


def _diff_spec(seed=3, n_events=20, **kwargs):
    capacities, ops = random_schedule(seed, n_events=n_events)
    return ScenarioSpec(
        differential=DifferentialSpec(
            capacities=tuple(capacities), ops=tuple(ops)
        ),
        **kwargs,
    )


def _full_spec():
    capacities, ops = random_schedule(5, n_events=15)
    return ScenarioSpec(
        topology=TopologySpec(family="synthetic", n_pops=8, n_hubs=3, seed=4),
        workload=WorkloadSpec(until=2000.0, n_peers=8),
        differential=DifferentialSpec(
            capacities=tuple(capacities), ops=tuple(ops), regime="full-only"
        ),
        chaos=ChaosSpec(
            events=ChaosSchedule.seeded(9, horizon=100.0),
            stale_ttl=20.0,
            byzantine=("churn-mild",),
        ),
        view=ViewSpec(mutators=("drop-rows", "churn-wild")),
    )


# -- ScenarioSpec round-trip -------------------------------------------------------


def test_spec_round_trip_exact():
    for spec in (_diff_spec(), _full_spec(), ScenarioSpec(view=ViewSpec())):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()
        # And through an actual JSON string, as fixtures are stored.
        assert ScenarioSpec.from_json(json.loads(spec.canonical())) == spec


def test_spec_rejects_garbage():
    spec = _diff_spec()
    good = spec.to_json()
    with pytest.raises(ValueError):
        ScenarioSpec.from_json({**good, "format": "p4p-fuzz-spec/99"})
    with pytest.raises(ValueError):
        ScenarioSpec.from_json({**good, "surprise": 1})
    with pytest.raises(ValueError):  # at least one oracle section
        ScenarioSpec.from_json(
            {**good, "differential": None, "chaos": None, "view": None}
        )
    with pytest.raises(ValueError):  # envelope violation
        ScenarioSpec.from_json(
            {**good, "workload": {**good["workload"], "n_peers": 4000}}
        )
    with pytest.raises(ValueError):  # a spec carries no engine key: strict key check
        ScenarioSpec.from_json({**good, "engine": None})
    with pytest.raises(ValueError):  # malformed differential op
        bad_diff = {**good["differential"], "ops": [{"op": "teleport"}]}
        ScenarioSpec.from_json({**good, "differential": bad_diff})


def test_chaos_event_json_round_trip():
    schedule = ChaosSchedule.seeded(17, horizon=100.0)
    assert ChaosSchedule.from_json(schedule.to_json()) == schedule
    with pytest.raises(ValueError):
        ChaosEvent.from_json({"time": 1.0, "kind": "meteor-strike"})
    with pytest.raises(ValueError):
        ChaosEvent.from_json({"time": -1.0, "kind": "crash"})
    with pytest.raises(ValueError):
        ChaosEvent.from_json({"time": True, "kind": "crash"})
    with pytest.raises(ValueError):
        ChaosEvent.from_json({"time": 1.0, "kind": "crash", "blast_radius": 3})


# -- mutators ---------------------------------------------------------------------


def test_mutators_deterministic_and_valid():
    parent = _full_spec()
    chains = []
    for _ in range(2):
        rng = random.Random(42)
        chain = []
        current = parent
        for _round in range(30):
            current, applied = mutate(current, rng, rounds=1)
            chain.append((current.digest(), applied))
            # every child re-validates through the constructor round-trip
            assert ScenarioSpec.from_json(current.to_json()) == current
        chains.append(chain)
    assert chains[0] == chains[1]


def test_every_mutator_reachable_and_sound():
    """Each mutator either declines or emits a valid, different-or-equal spec."""
    rng = random.Random(7)
    specs = [_full_spec(), _diff_spec(), ScenarioSpec(view=ViewSpec(mutators=("negate",)))]
    fired = set()
    for spec in specs:
        for name, mutator in MUTATORS.items():
            for _ in range(5):
                child = mutator(spec, rng)
                if child is None:
                    continue
                fired.add(name)
                ScenarioSpec.from_json(child.to_json())
    assert fired == set(MUTATORS), f"never applied: {set(MUTATORS) - fired}"


# -- coverage map + corpus --------------------------------------------------------


def test_coverage_map_stability():
    spec = _diff_spec()
    executor = Executor()
    first = executor.run(spec)
    second = executor.run(spec)
    assert first.coverage == second.coverage
    assert first.digest == second.digest
    assert not first.failed


def test_coverage_map_first_seen_and_corpus_dedup():
    coverage = CoverageMap()
    assert coverage.observe(frozenset({"a", "b"}), 0) == frozenset({"a", "b"})
    assert coverage.observe(frozenset({"b", "c"}), 1) == frozenset({"c"})
    assert coverage.to_json() == {"a": 0, "b": 0, "c": 1}

    corpus = Corpus()
    spec = _diff_spec()
    entry = CorpusEntry(
        spec=spec, coverage=frozenset({"a"}), new_keys=frozenset({"a"}), iteration=0
    )
    assert corpus.add(entry)
    assert not corpus.add(entry)  # same digest -> rejected
    assert spec in corpus
    assert corpus.choose(random.Random(0)) == spec


def test_corpus_chaos_fraction_bounds_expensive_parents():
    corpus = Corpus()
    cheap = _diff_spec()
    chaotic = ScenarioSpec(
        workload=WorkloadSpec(until=2000.0),
        chaos=ChaosSpec(events=ChaosSchedule.seeded(1, horizon=100.0)),
    )
    for index, spec in enumerate((cheap, chaotic)):
        corpus.add(
            CorpusEntry(
                spec=spec,
                coverage=frozenset({str(index)}),
                new_keys=frozenset({str(index)}),
                iteration=index,
            )
        )
    rng = random.Random(0)
    draws = [corpus.choose(rng, chaos_fraction=0.15) for _ in range(400)]
    chaos_rate = sum(1 for spec in draws if spec.chaos is not None) / len(draws)
    assert 0.05 < chaos_rate < 0.30


# -- executor oracles -------------------------------------------------------------


def test_executor_plants_are_caught():
    cap_spec = ScenarioSpec(
        differential=DifferentialSpec(
            capacities=(20.0,),
            ops=(
                {"op": "arrive", "links": [0], "size": 4.0, "cap": 1.0},
                {"op": "advance", "idle": None},
            ),
        )
    )
    outcome = Executor(plants=("vector-cap-ignored",)).run(cap_spec)
    assert ("differential", "divergence") in outcome.signatures()
    assert not Executor().run(cap_spec).failed

    view_spec = ScenarioSpec(view=ViewSpec(mutators=("drop-rows",)))
    outcome = Executor(plants=("view-accept-missing-rows",)).run(view_spec)
    assert ("view", "byzantine-accepted") in outcome.signatures()
    clean = Executor().run(view_spec)
    assert not clean.failed
    assert "view:rejected:missing-row" in clean.coverage


def test_executor_view_acceptance_consistency():
    executor = Executor()
    pristine = Executor().run(ScenarioSpec(view=ViewSpec()))
    assert "view:accepted" in pristine.coverage and not pristine.failed
    for name, expect_reject in (
        ("negate", True),
        ("churn-wild", True),
        ("churn-mild", False),
    ):
        outcome = executor.run(ScenarioSpec(view=ViewSpec(mutators=(name,))))
        assert not outcome.failed, (name, outcome.failures)
        rejected = any(k.startswith("view:rejected") for k in outcome.coverage)
        assert rejected == expect_reject, (name, sorted(outcome.coverage))


def test_executor_rejects_unknown_plant():
    with pytest.raises(ValueError):
        Executor(plants=("warp-core-breach",))


# -- minimizer --------------------------------------------------------------------


def test_minimizer_converges_on_planted_failure():
    """A padded failing schedule shrinks to its essential core."""
    rng = random.Random(11)
    ops = [
        {"op": "arrive", "links": [0], "size": 4.0, "cap": 1.0},  # the trigger
    ]
    for _ in range(20):  # padding that does not matter
        ops.append(
            {
                "op": "arrive",
                "links": [rng.randrange(3)],
                "size": round(rng.uniform(1.0, 8.0), 3),
                "cap": None,
            }
        )
        ops.append({"op": "advance", "idle": None})
    spec = ScenarioSpec(
        topology=TopologySpec(family="synthetic", n_pops=10, n_hubs=4, seed=2),
        workload=WorkloadSpec(until=3000.0, n_peers=10),
        differential=DifferentialSpec(
            capacities=(20.0, 10.0, 30.0), ops=tuple(ops), regime="incremental-only"
        ),
        view=ViewSpec(mutators=("churn-mild",)),
    )
    executor = Executor(plants=("vector-cap-ignored",))
    signature = ("differential", "divergence")
    assert signature in executor.run(spec).signatures()

    results = [Minimizer(executor).minimize(spec, signature) for _ in range(2)]
    minimized = results[0].spec
    assert results[0].spec == results[1].spec  # deterministic
    assert signature in executor.run(minimized).signatures()
    assert minimized.sections == ("differential",)  # view section pruned
    assert len(minimized.differential.ops) <= 2
    assert len(minimized.differential.capacities) <= 1
    assert minimized.topology == TopologySpec()
    assert minimized.workload == WorkloadSpec()
    assert not results[0].budget_exhausted


def test_minimizer_leaves_nonreproducing_spec_alone():
    spec = _diff_spec()
    executor = Executor()  # no plant: the spec does not fail
    result = Minimizer(executor).minimize(spec, ("differential", "divergence"))
    assert result.spec == spec
    assert result.executions == 1


# -- fuzzer end to end ------------------------------------------------------------


def test_fuzzer_deterministic_and_finds_plants(tmp_path):
    config = FuzzConfig(
        seed=0,
        iterations=40,
        chaos_enabled=False,
        plants=tuple(sorted(PLANTS)),
        corpus_dir=str(tmp_path / "out"),
    )
    report = Fuzzer(config).run()
    twin = Fuzzer(FuzzConfig(**{**config.__dict__, "corpus_dir": None})).run()
    assert report.determinism_digest() == twin.determinism_digest()
    signatures = {f.failure.signature for f in report.findings}
    assert ("differential", "divergence") in signatures
    assert ("view", "byzantine-accepted") in signatures
    assert all(f.confirmed for f in report.findings)
    assert len(report.coverage) > 10
    assert len(report.corpus) >= 5

    fixture_files = sorted((tmp_path / "out" / "findings").glob("*.json"))
    assert len(fixture_files) == len(report.findings)
    for path in fixture_files:
        fixture = load_fixture(str(path))
        reproduced, outcome = replay_fixture(fixture)
        assert reproduced, (path.name, outcome.failures)
    assert (tmp_path / "out" / "coverage.json").exists()
    corpus_files = list((tmp_path / "out" / "corpus").glob("*.json"))
    assert len(corpus_files) == len(report.corpus)


def test_fuzzer_finds_the_skipped_component_merge():
    """The CI job's planted run (seed 0, 40 iterations, no chaos) finds an
    engine whose arrivals join components without merging their flows, and
    the minimized spec still shows it: two flows sharing one link."""
    config = FuzzConfig(
        seed=0, iterations=40, chaos_enabled=False, plants=("vector-merge-skipped",)
    )
    report = Fuzzer(config).run()
    signatures = {f.failure.signature for f in report.findings}
    assert signatures == {("differential", "divergence")}
    finding = report.findings[0]
    assert finding.confirmed
    ops = finding.minimized.differential.ops
    arrivals = [set(op["links"]) for op in ops if op["op"] == "arrive"]
    assert len(arrivals) >= 2 and arrivals[0] & arrivals[1]
    assert not Executor().run(finding.minimized).failed


def test_fuzzer_clean_run_has_no_findings():
    report = Fuzzer(FuzzConfig(seed=1, iterations=30, chaos_enabled=False)).run()
    assert not report.failed
    assert "determinism digest" in report.summary()


def test_fixture_validation_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        Fixture.from_json({"format": "p4p-fuzz-fixture/99"})
    with pytest.raises(ValueError):
        Fixture.from_json(
            {
                "format": "p4p-fuzz-fixture/1",
                "spec": _diff_spec().to_json(),
                "expect": {"oracle": "differential"},  # missing kind
                "plants": [],
                "provenance": {},
            }
        )
    with pytest.raises(ValueError):
        Fixture.from_json(
            {
                "format": "p4p-fuzz-fixture/1",
                "spec": _diff_spec().to_json(),
                "expect": {"oracle": "differential", "kind": "divergence"},
                "plants": ["unknown-plant"],
                "provenance": {},
            }
        )


# -- CLI --------------------------------------------------------------------------


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    # Clean short run: exit 0.
    code = cli_main(
        ["fuzz", "--seed", "1", "--iterations", "15", "--no-chaos"]
    )
    assert code == 0
    # Planted run: exit nonzero, fixtures written.
    out_dir = tmp_path / "run"
    code = cli_main(
        [
            "fuzz",
            "--seed", "0",
            "--iterations", "25",
            "--no-chaos",
            "--plant", "vector-cap-ignored",
            "--corpus-dir", str(out_dir),
        ]
    )
    assert code == 1
    fixtures = sorted((out_dir / "findings").glob("*.json"))
    assert fixtures
    # Replay the minimized fixture: reproduces -> exit 1.
    code = cli_main(["fuzz", "--replay", str(fixtures[0])])
    assert code == 1
    output = capsys.readouterr().out
    assert "REPRODUCED" in output
    # A garbage path: exit 2.
    assert cli_main(["fuzz", "--replay", str(tmp_path / "nope.json")]) == 2
