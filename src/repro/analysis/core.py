"""p4plint core: findings, rules, and the analyzer that runs them.

The repository states invariants its layers must honor -- deterministic
simulation, lock-guarded shared state, bounded telemetry naming -- but
until now nothing enforced them mechanically.  This module is the spine
of a small AST-based checker: a :class:`Project` parses every ``.py``
file under a root into ASTs once, :class:`Rule` subclasses visit those
ASTs and emit structured :class:`Finding` objects, and the
:class:`Analyzer` orchestrates rule selection and collection.

Rules never *import* the code under analysis: everything is derived from
the syntax tree, so the checker is safe to run on broken or half-written
modules and costs no side effects.  Cross-file rules (e.g. the portal
method/schema parity check) read other modules' ASTs through the shared
:class:`Project`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Rule id of the built-in syntax-error pseudo-rule (always enabled).
PARSE_RULE_ID = "SYN000"


class LintRuleError(ValueError):
    """An unknown rule id was selected or ignored (see ``--select``)."""

    def __init__(self, unknown: Sequence[str], known: Sequence[str]) -> None:
        self.unknown = tuple(unknown)
        self.known = tuple(known)
        names = ", ".join(sorted(self.unknown))
        super().__init__(
            f"unknown rule id(s): {names}; known rules: {', '.join(sorted(known))}"
        )


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix path relative to the lint root, e.g. "repro/portal/aserver.py"
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR

    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity: line numbers drift, (rule, path, message) is
        stable across unrelated edits."""
        return (self.rule, self.path, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class Module:
    """One parsed source file."""

    path: Path  # absolute
    relpath: str  # posix, relative to the lint root
    source: str
    tree: Optional[ast.Module]  # None when the file failed to parse
    parse_error: Optional[str] = None


class Project:
    """Every module under one root, parsed once and shared by all rules."""

    def __init__(self, root: Path, modules: List[Module]) -> None:
        self.root = root
        self.modules = modules
        self._by_relpath = {module.relpath: module for module in modules}

    @classmethod
    def load(cls, root: Path, package: str = "repro") -> "Project":
        """Parse ``root/package/**/*.py`` (sorted, deterministic order)."""
        root = Path(root).resolve()
        package_dir = root / package
        if not package_dir.is_dir():
            raise FileNotFoundError(f"no package directory {package_dir}")
        modules: List[Module] = []
        for path in sorted(package_dir.rglob("*.py")):
            relpath = path.relative_to(root).as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                tree: Optional[ast.Module] = ast.parse(source, filename=str(path))
                error = None
            except SyntaxError as exc:
                tree, error = None, f"{exc.msg} (line {exc.lineno})"
            modules.append(
                Module(
                    path=path,
                    relpath=relpath,
                    source=source,
                    tree=tree,
                    parse_error=error,
                )
            )
        return cls(root, modules)

    def module(self, relpath: str) -> Optional[Module]:
        return self._by_relpath.get(relpath)


class Rule:
    """Base class for one invariant check.

    ``scopes`` restricts which relpaths the per-module :meth:`check` sees
    (prefix match, posix); an empty tuple means the whole tree.  Rules
    needing cross-file context implement :meth:`finalize`, called once
    after every module has been visited.

    Whole-program rules set ``requires_project_index = True``: the
    analyzer then builds one shared :class:`repro.analysis.callgraph.
    ProjectIndex` per run and hands it to every such rule through
    :meth:`prepare` before any module is visited.

    ``version`` stamps the rule's matching logic.  It is recorded into
    the baseline file on write; bump it whenever the rule's findings
    change shape or coverage, so stale baselines fail loudly instead of
    silently suppressing the wrong things.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    severity: str = SEVERITY_ERROR
    scopes: Tuple[str, ...] = ()
    version: str = "1.0"
    requires_project_index: bool = False

    def prepare(self, project: "Project", index: Optional[object]) -> None:
        """Receive the shared project index (built once per run)."""
        self.index = index

    def applies_to(self, module: Module) -> bool:
        if not self.scopes:
            return True
        return any(module.relpath.startswith(scope) for scope in self.scopes)

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        return iter(())

    def finalize(self, project: Project) -> Iterator[Finding]:
        return iter(())

    def finding(
        self,
        module: Module,
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=severity or self.severity,
        )


@dataclass
class Report:
    """The analyzer's output: findings plus what ran and how long."""

    root: str
    rules: List[str]
    findings: List[Finding] = field(default_factory=list)
    #: Seconds spent per rule id (prepare + per-module checks + finalize),
    #: plus the shared project-index build under :data:`INDEX_TIMING_KEY`.
    timings: Dict[str, float] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


#: Key under which :class:`Report.timings` records the index build.
INDEX_TIMING_KEY = "index"


class Analyzer:
    """Run a set of rules over a project and collect sorted findings.

    When any selected rule declares ``requires_project_index``, the
    whole-program :class:`~repro.analysis.callgraph.ProjectIndex` is
    built exactly once and shared across those rules via
    :meth:`Rule.prepare`; single-file rules never pay for it.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)

    def run(self, project: Project) -> Report:
        import time as _time

        clock = _time.perf_counter
        timings: Dict[str, float] = {rule.id: 0.0 for rule in self.rules}
        index = None
        if any(rule.requires_project_index for rule in self.rules):
            from repro.analysis.callgraph import ProjectIndex

            started = clock()
            index = ProjectIndex.build(project)
            timings[INDEX_TIMING_KEY] = clock() - started
        for rule in self.rules:
            started = clock()
            rule.prepare(project, index if rule.requires_project_index else None)
            timings[rule.id] += clock() - started
        findings: List[Finding] = []
        for module in project.modules:
            if module.tree is None:
                findings.append(
                    Finding(
                        rule=PARSE_RULE_ID,
                        path=module.relpath,
                        line=1,
                        col=1,
                        message=f"syntax error: {module.parse_error}",
                    )
                )
                continue
            for rule in self.rules:
                if rule.applies_to(module):
                    started = clock()
                    findings.extend(rule.check(module, project))
                    timings[rule.id] += clock() - started
        for rule in self.rules:
            started = clock()
            findings.extend(rule.finalize(project))
            timings[rule.id] += clock() - started
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
        return Report(
            root=str(project.root),
            rules=[rule.id for rule in self.rules],
            findings=findings,
            timings=timings,
        )


# -- shared AST helpers ----------------------------------------------------------


def is_self_attr(node: ast.AST) -> bool:
    """``self.<attr>`` (the shape LCK001 and the dataflow layer track)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def is_lock_guard(item: ast.withitem) -> bool:
    """``with self.<something-lock-ish>:`` (no ``as`` binding needed).

    The single definition of "holding the lock" shared by LCK001 and the
    cross-domain dataflow summaries -- both layers must agree on what a
    guarded region is.
    """
    expr = item.context_expr
    # Accept both ``with self._lock:`` and ``with self._lock.acquire_x():``
    if isinstance(expr, ast.Call):
        expr = expr.func
    return is_self_attr(expr) and "lock" in expr.attr.lower()  # type: ignore[attr-defined]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def literal_str_sequence(node: ast.AST) -> Optional[List[str]]:
    """The element strings of a literal tuple/list of str constants."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: List[str] = []
    for element in node.elts:
        value = literal_str(element)
        if value is None:
            return None
        values.append(value)
    return values


def walk_scoped(node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` that does not descend into nested class/function defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))
