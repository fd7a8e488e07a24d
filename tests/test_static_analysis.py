"""p4plint self-tests: the tree gate, per-rule fixtures, baseline, CLI.

Three layers:

* **tree gate** -- running every rule over ``src/repro`` must produce
  zero findings beyond ``lint_baseline.json``, and the baseline itself
  must respect the ratchet policy (strict rules empty, discipline rules
  small and justified);
* **fixture self-tests** -- each rule has a trigger fixture it must
  flag and a near-miss fixture it must pass, so a rule that silently
  stops matching fails its own test rather than quietly passing the
  tree;
* **plumbing** -- baseline round-trip, CLI exit codes and JSON output,
  and :class:`LintRuleError` for unknown rule ids.
"""

from __future__ import annotations

import ast
import io
import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import (
    ALL_RULES,
    Analyzer,
    Baseline,
    LintRuleError,
    Module,
    Project,
    resolve_rules,
)
from repro.analysis import cli as lint_cli
from repro.analysis.baseline import BaselineEntry
from repro.analysis.cli import default_baseline_path, default_root
from repro.tools.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
BASELINE_PATH = REPO_ROOT / "lint_baseline.json"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

#: Rules whose baseline must be empty (ISSUE acceptance criteria).
STRICT_RULES = ("DET001", "TEL001", "EXC001", "RES001")
#: Rules allowed a small justified baseline.
DISCIPLINE_RULES = ("LCK001", "API001", "ASY001", "ASY002")


def load_fixture_project(filename: str, relpath: str) -> Project:
    """Build a one-module project from a fixture, mapping its relpath.

    The mapped relpath controls rule scoping (e.g. DET001's wall-clock
    check only applies under ``repro/simulator/`` and friends).
    """
    path = FIXTURES / filename
    source = path.read_text(encoding="utf-8")
    module = Module(
        path=path,
        relpath=relpath,
        source=source,
        tree=ast.parse(source, filename=str(path)),
    )
    return Project(root=FIXTURES, modules=[module])


def run_rule(rule_id: str, filename: str, relpath: str):
    project = load_fixture_project(filename, relpath)
    report = Analyzer(resolve_rules(select=[rule_id])).run(project)
    return report.findings


# -- the tree gate ---------------------------------------------------------


@pytest.fixture(scope="module")
def tree_project():
    return Project.load(SRC_ROOT)


@pytest.fixture(scope="module")
def tree_report(tree_project):
    return Analyzer([rule_cls() for rule_cls in ALL_RULES]).run(tree_project)


def test_tree_has_no_nonbaselined_findings(tree_report):
    baseline = Baseline.load(BASELINE_PATH)
    new, _suppressed, unused = baseline.apply(tree_report.findings)
    assert new == [], "non-baselined findings:\n" + "\n".join(
        finding.format() for finding in new
    )
    assert unused == [], "stale baseline entries:\n" + "\n".join(
        f"{entry.rule} {entry.path}: {entry.message}" for entry in unused
    )


def test_baseline_ratchet_policy():
    baseline = Baseline.load(BASELINE_PATH)
    by_rule = baseline.by_rule()
    for rule_id in STRICT_RULES:
        assert not by_rule.get(rule_id), (
            f"{rule_id} must keep an empty baseline; fix the code instead"
        )
    for rule_id, entries in by_rule.items():
        assert rule_id in STRICT_RULES + DISCIPLINE_RULES
        assert len(entries) <= 3, f"{rule_id} baseline exceeds 3 entries"
        for entry in entries:
            assert entry.justification.strip(), (
                f"baseline entry for {entry.rule} at {entry.path} "
                "needs a justification"
            )


def test_tree_lint_is_fast(tree_report):
    """The full-tree run must stay well under the 5 s CI budget."""
    project = Project.load(SRC_ROOT)
    started = time.perf_counter()
    Analyzer([rule_cls() for rule_cls in ALL_RULES]).run(project)
    assert time.perf_counter() - started < 5.0


def test_syntax_errors_surface_as_findings(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    report = Analyzer([rule_cls() for rule_cls in ALL_RULES]).run(
        Project.load(tmp_path)
    )
    assert [finding.rule for finding in report.findings] == ["SYN000"]


# -- per-rule fixture self-tests ------------------------------------------

# (rule id, trigger fixture, near-miss fixture, mapped relpath,
#  minimum trigger findings)
FIXTURE_CASES = [
    ("DET001", "det001_trigger.py", "det001_nearmiss.py",
     "repro/simulator/fixture.py", 5),
    ("LCK001", "lck001_trigger.py", "lck001_nearmiss.py",
     "repro/observability/fixture.py", 2),
    ("TEL001", "tel001_trigger.py", "tel001_nearmiss.py",
     "repro/observability/fixture.py", 5),
    ("EXC001", "exc001_trigger.py", "exc001_nearmiss.py",
     "repro/portal/fixture.py", 2),
    ("API001", "api001_trigger.py", "api001_nearmiss.py",
     "repro/portal/fixture.py", 2),
    ("ASY001", "asy001_trigger.py", "asy001_nearmiss.py",
     "repro/portal/fixture.py", 3),
    ("ASY002", "asy002_trigger.py", "asy002_nearmiss.py",
     "repro/portal/fixture.py", 2),
    ("RES001", "res001_trigger.py", "res001_nearmiss.py",
     "repro/portal/fixture.py", 3),
]


@pytest.mark.parametrize(
    "rule_id,trigger,nearmiss,relpath,minimum",
    FIXTURE_CASES,
    ids=[case[0] for case in FIXTURE_CASES],
)
def test_rule_flags_trigger_fixture(rule_id, trigger, nearmiss, relpath, minimum):
    findings = run_rule(rule_id, trigger, relpath)
    assert len(findings) >= minimum, [f.format() for f in findings]
    assert {finding.rule for finding in findings} == {rule_id}


@pytest.mark.parametrize(
    "rule_id,trigger,nearmiss,relpath,minimum",
    FIXTURE_CASES,
    ids=[case[0] for case in FIXTURE_CASES],
)
def test_rule_passes_nearmiss_fixture(rule_id, trigger, nearmiss, relpath, minimum):
    findings = run_rule(rule_id, nearmiss, relpath)
    assert findings == [], [f.format() for f in findings]


def test_det001_wall_clock_scoped_to_simulation_paths():
    """The same source outside the clock scopes only reports RNG misuse."""
    in_scope = run_rule("DET001", "det001_trigger.py", "repro/simulator/x.py")
    out_of_scope = run_rule("DET001", "det001_trigger.py", "repro/tools/x.py")
    in_messages = {finding.message for finding in in_scope}
    out_messages = {finding.message for finding in out_of_scope}
    clock_messages = in_messages - out_messages
    assert clock_messages, "expected wall-clock findings in simulator scope"
    assert all("wall-clock" in message for message in clock_messages)
    assert len(out_of_scope) < len(in_scope)


def test_api001_covers_get_state_delta(tree_report):
    """The replication wire method stays under API001's parity contract.

    ``get_state_delta`` (how a standby tails its primary's WAL) must keep
    a handler, a schema entry, and a clean tree gate -- a drift in either
    direction would let replication requests through unvalidated or leave
    an orphan schema rotting.
    """
    from repro.portal import protocol
    from repro.portal.dispatch import PortalDispatcher

    assert "get_state_delta" in protocol.METHOD_SCHEMAS
    assert callable(getattr(PortalDispatcher, "_do_get_state_delta"))
    # The schema constrains `since` (optional integer) rather than
    # accepting arbitrary params.
    assert protocol.METHOD_SCHEMAS["get_state_delta"] == {
        "since": (False, "integer")
    }
    assert not [
        finding
        for finding in tree_report.findings
        if finding.rule == "API001" and "get_state_delta" in finding.message
    ]


def test_analysis_package_lints_clean(tree_report):
    """The analyzer holds itself to its own rules, with no baseline."""
    own = [
        finding
        for finding in tree_report.findings
        if finding.path.startswith("repro/analysis/")
    ]
    assert own == [], [finding.format() for finding in own]


def test_asy001_finding_carries_reachability_chain():
    """The message explains *why* the coroutine can block, hop by hop."""
    findings = run_rule(
        "ASY001", "asy001_trigger.py", "repro/portal/fixture.py"
    )
    transitive = [
        f for f in findings if "handle_transitive" in f.message
    ]
    assert transitive, [f.format() for f in findings]
    message = transitive[0].message
    assert "handle_transitive -> _refresh -> _throttle -> time.sleep()" in message
    assert "no executor hop" in message


def test_asy001_roots_loop_callbacks():
    """Protocol transport callbacks and ``call_soon`` targets are roots
    like coroutines; one class's callbacks report a blocking site once."""
    findings = run_rule(
        "ASY001", "asy001_trigger.py", "repro/portal/fixture.py"
    )
    callbacks = sorted(
        f.message for f in findings if f.message.startswith("loop callback")
    )
    assert len(callbacks) == 2, callbacks
    assert (
        "SlowProtocol.data_received -> SlowProtocol._answer -> _refresh "
        "-> _throttle -> time.sleep()" in callbacks[0]
    )
    assert "_throttle_later -> time.sleep()" in callbacks[1]


def test_asy001_findings_are_deterministic():
    first = run_rule("ASY001", "asy001_trigger.py", "repro/portal/fixture.py")
    second = run_rule("ASY001", "asy001_trigger.py", "repro/portal/fixture.py")
    assert [f.format() for f in first] == [f.format() for f in second]
    lines = [(f.path, f.line, f.col, f.message) for f in first]
    assert lines == sorted(lines)


# -- baseline round-trip ---------------------------------------------------


def test_baseline_round_trip(tmp_path):
    findings = run_rule("LCK001", "lck001_trigger.py", "repro/x/fixture.py")
    assert findings
    baseline = Baseline.from_findings(findings)
    path = tmp_path / "baseline.json"
    baseline.save(path)
    reloaded = Baseline.load(path)
    new, suppressed, unused = reloaded.apply(findings)
    assert new == [] and unused == []
    assert len(suppressed) == len(findings)
    # A finding that was not baselined still fails.
    extra = run_rule("EXC001", "exc001_trigger.py", "repro/x/fixture.py")
    new, _suppressed, _unused = reloaded.apply(findings + extra)
    assert new == extra


def test_baseline_multiset_semantics(tmp_path):
    findings = run_rule("LCK001", "lck001_trigger.py", "repro/x/fixture.py")
    one_entry = Baseline(
        entries=[
            BaselineEntry(
                rule=findings[0].rule,
                path=findings[0].path,
                message=findings[0].message,
            )
        ]
    )
    new, suppressed, _unused = one_entry.apply(findings)
    assert len(suppressed) == 1
    assert len(new) == len(findings) - 1


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(path)


def test_baseline_loads_v1_without_stamps(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "findings": [
                    {"rule": "LCK001", "path": "repro/x.py", "message": "m"}
                ],
            }
        )
    )
    baseline = Baseline.load(path)
    assert len(baseline.entries) == 1
    assert baseline.rule_versions == {}
    assert baseline.stale_versions({"LCK001": "1.0"}) == []


def test_baseline_version_stamps_round_trip(tmp_path):
    baseline = Baseline.from_findings([], rule_versions={"ASY001": "1.0"})
    path = tmp_path / "baseline.json"
    baseline.save(path)
    reloaded = Baseline.load(path)
    assert reloaded.rule_versions == {"ASY001": "1.0"}
    assert reloaded.stale_versions({"ASY001": "2.0"}) == [
        ("ASY001", "1.0", "2.0")
    ]


def test_baseline_update_preserves_justifications():
    findings = run_rule("LCK001", "lck001_trigger.py", "repro/x/fixture.py")
    assert len(findings) >= 2
    old = Baseline(
        entries=[
            BaselineEntry(
                rule=findings[0].rule,
                path=findings[0].path,
                message=findings[0].message,
                justification="reviewed and accepted",
            ),
            # An entry of a rule outside the run passes through untouched.
            BaselineEntry(
                rule="API001", path="repro/y.py", message="other",
                justification="kept",
            ),
        ],
        rule_versions={"LCK001": "0.9", "API001": "1.0"},
    )
    updated = old.updated(findings, {"LCK001": "1.0"}, selected={"LCK001"})
    by_rule = updated.by_rule()
    assert len(by_rule["LCK001"]) == len(findings)
    carried = [e for e in by_rule["LCK001"] if e.justification]
    assert [e.justification for e in carried] == ["reviewed and accepted"]
    assert by_rule["API001"][0].justification == "kept"
    assert updated.rule_versions == {"LCK001": "1.0", "API001": "1.0"}


def test_baseline_restricted_to_selected_rules():
    baseline = Baseline(
        entries=[
            BaselineEntry(rule="LCK001", path="a.py", message="m1"),
            BaselineEntry(rule="ASY001", path="b.py", message="m2"),
        ],
        rule_versions={"LCK001": "1.0", "ASY001": "1.0"},
    )
    restricted = baseline.restricted_to({"LCK001"})
    assert [e.rule for e in restricted.entries] == ["LCK001"]
    assert restricted.rule_versions == {"LCK001": "1.0"}


# -- CLI -------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_cli(tree_project, tree_report):
    """``p4p-repro lint`` in process, returning (status, output).

    The CLI tests re-run the unchanged tree only to exercise argument
    parsing, baseline I/O, exit codes and output, so each (root, selected
    rules) pair is loaded and analysed once per module and reused after
    that; the tree gate's analysis seeds the cache.
    """
    projects = {tree_project.root: tree_project}
    reports = {(tree_project.root, tuple(tree_report.rules)): tree_report}

    def load(root):
        root = Path(root).resolve()
        if root not in projects:
            projects[root] = Project.load(root)
        return projects[root]

    class MemoisedAnalyzer(Analyzer):
        def run(self, project):
            key = (project.root, tuple(rule.id for rule in self.rules))
            if key not in reports:
                reports[key] = super().run(project)
            return reports[key]

    def run(*argv: str):
        out = io.StringIO()
        status = cli_main(["lint", *argv], out=out)
        return status, out.getvalue()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lint_cli, "Project", SimpleNamespace(load=load))
        patch.setattr(lint_cli, "Analyzer", MemoisedAnalyzer)
        yield run


def test_cli_defaults_resolve_repo_layout():
    assert default_root() == SRC_ROOT
    assert default_baseline_path(SRC_ROOT) == BASELINE_PATH


def test_cli_exits_zero_with_baseline(run_cli):
    status, text = run_cli()
    assert status == 0, text
    assert "0 finding(s)" in text


def test_cli_exits_nonzero_without_baseline(run_cli):
    # The checked-in baseline suppresses at least one finding, so
    # disabling it must flip the exit code.
    status, text = run_cli("--baseline", "none")
    assert status == 1
    assert "LCK001" in text


def test_cli_json_output(run_cli):
    status, text = run_cli("--format", "json")
    assert status == 0
    document = json.loads(text)
    assert set(document["counts"]) == {rule.id for rule in ALL_RULES}
    assert document["findings"] == []
    assert document["suppressed"] >= 1  # the checked-in LCK001 entry
    assert document["baseline_stale"] == []
    assert document["elapsed_seconds"] < 30.0
    # Per-rule timings, plus the shared index build, are reported.
    assert set(document["timings"]) == {rule.id for rule in ALL_RULES} | {"index"}


def test_cli_select_restricts_rules(run_cli):
    status, text = run_cli("--format", "json", "--select", "DET001",
                           "--baseline", "none")
    assert status == 0
    document = json.loads(text)
    assert set(document["counts"]) == {"DET001"}


def test_cli_unknown_rule_is_usage_error(run_cli):
    status, _text = run_cli("--select", "NOPE001")
    assert status == 2


def test_cli_write_baseline_round_trip(tmp_path, run_cli):
    path = tmp_path / "generated_baseline.json"
    status, text = run_cli("--baseline", str(path), "--write-baseline")
    assert status == 0 and path.exists(), text
    status, text = run_cli("--baseline", str(path))
    assert status == 0, text
    # --write-baseline with the baseline disabled is a usage error.
    status, _text = run_cli("--baseline", "none", "--write-baseline")
    assert status == 2


def test_cli_update_baseline_round_trip(tmp_path, run_cli):
    path = tmp_path / "baseline.json"
    # Seed via --write-baseline, inject a justification, then update.
    status, text = run_cli("--baseline", str(path), "--write-baseline")
    assert status == 0, text
    document = json.loads(path.read_text())
    assert document["version"] == 2
    assert document["rule_versions"]  # stamped for every rule that ran
    for item in document["findings"]:
        item["justification"] = "accepted: " + item["rule"]
    path.write_text(json.dumps(document))
    status, text = run_cli("--baseline", str(path), "--update-baseline")
    assert status == 0, text
    updated = json.loads(path.read_text())
    assert updated["findings"], "tree findings should survive the update"
    assert all(
        item["justification"] == "accepted: " + item["rule"]
        for item in updated["findings"]
    ), updated["findings"]
    status, text = run_cli("--baseline", str(path))
    assert status == 0, text


def test_cli_stale_baseline_entry_is_hard_error(tmp_path, run_cli):
    path = tmp_path / "baseline.json"
    status, _text = run_cli("--baseline", str(path), "--write-baseline")
    assert status == 0
    document = json.loads(path.read_text())
    document["findings"].append(
        {
            "rule": "LCK001",
            "path": "repro/portal/views.py",
            "message": "a finding that no longer exists",
            "justification": "obsolete",
        }
    )
    path.write_text(json.dumps(document))
    status, text = run_cli("--baseline", str(path))
    assert status == 1, text
    assert "stale baseline entry" in text


def test_cli_rule_version_mismatch_is_usage_error(tmp_path, capsys, run_cli):
    path = tmp_path / "baseline.json"
    status, _text = run_cli("--baseline", str(path), "--write-baseline")
    assert status == 0
    document = json.loads(path.read_text())
    document["rule_versions"]["ASY001"] = "0.1"
    path.write_text(json.dumps(document))
    status, _text = run_cli("--baseline", str(path))
    assert status == 2
    stderr = capsys.readouterr().err
    assert "ASY001" in stderr and "--update-baseline" in stderr
    # A run that does not select the mismatched rule is unaffected.
    status, _text = run_cli("--baseline", str(path), "--select", "LCK001")
    assert status == 0


def test_cli_text_output_reports_per_rule_timings(run_cli):
    status, text = run_cli()
    assert status == 0, text
    timing_lines = [
        line for line in text.splitlines() if line.startswith("timings: ")
    ]
    assert len(timing_lines) == 1
    for rule_cls in ALL_RULES:
        assert f"{rule_cls.id}=" in timing_lines[0]
    assert "index=" in timing_lines[0]


def test_resolve_rules_raises_named_error():
    with pytest.raises(LintRuleError) as excinfo:
        resolve_rules(select=["DET001", "BOGUS9"])
    assert "BOGUS9" in str(excinfo.value)
    assert "DET001" in str(excinfo.value)  # known ids listed for the user
    with pytest.raises(LintRuleError):
        resolve_rules(ignore=["NOPE001"])


def test_resolve_rules_select_and_ignore():
    rules = resolve_rules(select=["DET001", "LCK001"], ignore=["LCK001"])
    assert [rule.id for rule in rules] == ["DET001"]
