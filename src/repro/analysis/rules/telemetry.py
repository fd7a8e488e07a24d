"""TEL001: telemetry hygiene -- static names, bounded declared labels.

Every instrument registered on a :class:`~repro.observability.registry.
MetricsRegistry` must be statically auditable:

* the metric name must be a **string literal** (a dynamic name defeats
  static cardinality review and golden-file exports);
* the name must match ``p4p_[a-z0-9_]+`` (the repo-wide prefix
  convention from DESIGN.md);
* counters must end in ``_total`` (Prometheus convention, relied on by
  the dashboard's rate table);
* label names must be a literal tuple/list of literals, each drawn from
  the declared bounded catalog below.  Label *values* are bounded by
  construction when the label name is (method names, engines, AS
  numbers, ...); free-form label names are how cardinality explosions
  start.

The rule matches ``<receiver>.counter/gauge/histogram(...)`` calls where
the receiver identifier ends in ``registry`` -- the naming convention
all instrumented modules already follow.  Label tuples may be a literal,
a conditional between literals, or a local variable assigned only such
values in the same scope (simple constant propagation); anything the
rule cannot statically enumerate is a finding.

Trace **span names** get the same treatment as metric names: every span
started through a trace buffer (receiver ending in ``traces``, methods
``start``/``span``) or a tracer (receiver ending in ``tracer``, methods
``start_trace``/``start_child``/``trace``) must pass a string-literal
name drawn from the declared span catalog below.  Span names are join
keys for the trace assembler, the dashboard's convergence plot, and the
golden trace exports -- an undeclared or dynamic name silently falls out
of all three.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional

from repro.analysis.core import (
    Finding,
    Module,
    Project,
    Rule,
    dotted_name,
    literal_str,
    literal_str_sequence,
    walk_scoped,
)

_NAME_PATTERN = re.compile(r"^p4p_[a-z0-9_]+$")
_LABEL_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")

#: The declared label catalog: every label name used anywhere in the tree
#: must come from this closed set (DESIGN.md, "Telemetry naming").
DECLARED_LABELS = frozenset(
    {
        "method",  # portal/client RPC method names
        "kind",  # error kinds (request/transport/internal/response)
        "direction",  # frame bytes in/out
        "outcome",  # cache hit/miss
        "as_number",  # provider AS numbers
        "engine",  # flow engine emitting the metric (always "vectorized")
        "mode",  # solve mode (full/incremental)
        "swarm",  # simulated swarm ids
        "scheme",  # selection scheme (native/localized/p4p)
        "endpoint",  # failover endpoint index (bounded by the configured list)
        "status",  # integrator portal health (PortalStatus: ok/stale/unavailable)
        "oracle",  # fuzzer oracle names (differential/chaos/view/universal)
        "slo",  # declared SLO names (DEFAULT_PORTAL_SLOS and test SLOs)
        "worker",  # serving-plane worker index (bounded by the worker count)
        "document",  # memoised full-mesh view documents (pdistances, costmap-*)
    }
)

#: The declared span catalog: every span started anywhere in the tree
#: must use one of these names (DESIGN.md, "Distributed tracing & SLOs").
DECLARED_SPANS = frozenset(
    {
        "chaos.tick",  # one chaos-harness scheduler tick
        "client.call",  # one PortalClient RPC (root of client traces)
        "failover.get_view",  # multi-endpoint failover view fetch
        "itracker.handle",  # server-side method handler execution
        "itracker.price_update",  # one dynamic price-update step
        "portal.dispatch",  # server-side request dispatch
        "portal.drain",  # graceful drain: stop accepting, bound the backlog
        "portal.view_publish",  # sharded view snapshot computation + publication
        "replica.sync",  # standby replica delta pull
        "resilient.fetch",  # fetch+validate of one fresh view
        "resilient.get_view",  # resilient view fetch incl. stale fallback
    }
)

_FACTORY_METHODS = frozenset({"counter", "gauge", "histogram"})

#: ``<receiver suffix> -> span-starting method names`` for the span check.
_SPAN_METHODS = {
    "traces": frozenset({"start", "span"}),
    "tracer": frozenset({"start_trace", "start_child", "trace"}),
}


class TelemetryNamingRule(Rule):
    id = "TEL001"
    name = "telemetry-naming"
    description = (
        "Registry instruments need literal p4p_* names, counters a _total "
        "suffix, and label names from the declared bounded catalog."
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        assert module.tree is not None
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        )
        for scope in scopes:
            assigns = self._scope_assigns(scope)
            for node in walk_scoped(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = dotted_name(func.value)
                if receiver is None:
                    continue
                tail = receiver.split(".")[-1]
                if func.attr in _FACTORY_METHODS and tail.endswith("registry"):
                    yield from self._check_call(module, node, func.attr, assigns)
                    continue
                for suffix, methods in _SPAN_METHODS.items():
                    if tail.endswith(suffix) and func.attr in methods:
                        yield from self._check_span(module, node, func.attr)
                        break

    def _scope_assigns(self, scope: ast.AST) -> Dict[str, List[ast.AST]]:
        """Simple-name assignments directly in one scope (no nesting)."""
        assigns: Dict[str, List[ast.AST]] = {}
        for node in walk_scoped(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigns.setdefault(node.target.id, []).append(node.value)
        return assigns

    def _resolve_labels(
        self,
        node: ast.AST,
        assigns: Dict[str, List[ast.AST]],
        depth: int = 0,
    ) -> Optional[List[str]]:
        """Statically enumerate every label the expression can produce."""
        if depth > 4:
            return None
        literal = literal_str_sequence(node)
        if literal is not None:
            return literal
        if isinstance(node, ast.IfExp):
            body = self._resolve_labels(node.body, assigns, depth + 1)
            orelse = self._resolve_labels(node.orelse, assigns, depth + 1)
            if body is None or orelse is None:
                return None
            return body + [label for label in orelse if label not in body]
        if isinstance(node, ast.Name):
            candidates = assigns.get(node.id)
            if not candidates:
                return None
            union: List[str] = []
            for candidate in candidates:
                resolved = self._resolve_labels(candidate, assigns, depth + 1)
                if resolved is None:
                    return None
                union.extend(label for label in resolved if label not in union)
            return union
        return None

    def _check_span(
        self, module: Module, node: ast.Call, method: str
    ) -> Iterator[Finding]:
        name_node = self._name_argument(node)
        if name_node is None:
            return
        name = literal_str(name_node)
        if name is None:
            yield self.finding(
                module,
                node,
                f"span name passed to .{method}() must be a string literal "
                "so the span catalog is statically auditable",
            )
            return
        if name not in DECLARED_SPANS:
            yield self.finding(
                module,
                node,
                f"span name {name!r} is not in the declared span catalog "
                "(add it to DECLARED_SPANS, or reuse an existing span name)",
            )

    def _name_argument(self, node: ast.Call) -> Optional[ast.AST]:
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "name":
                return keyword.value
        return None

    def _labels_argument(self, node: ast.Call) -> Optional[ast.AST]:
        if len(node.args) >= 3:
            return node.args[2]
        for keyword in node.keywords:
            if keyword.arg == "labelnames":
                return keyword.value
        return None

    def _check_call(
        self,
        module: Module,
        node: ast.Call,
        factory: str,
        assigns: Dict[str, List[ast.AST]],
    ) -> Iterator[Finding]:
        name_node = self._name_argument(node)
        if name_node is None:
            return
        name = literal_str(name_node)
        if name is None:
            yield self.finding(
                module,
                node,
                f"metric name passed to .{factory}() must be a string "
                "literal so names are statically auditable",
            )
            return
        if not _NAME_PATTERN.match(name):
            yield self.finding(
                module,
                node,
                f"metric name {name!r} does not match the p4p_[a-z0-9_]+ "
                "naming convention",
            )
        if factory == "counter" and not name.endswith("_total"):
            yield self.finding(
                module,
                node,
                f"counter {name!r} must end in _total (Prometheus "
                "counter convention)",
            )
        labels_node = self._labels_argument(node)
        if labels_node is None:
            return
        labels = self._resolve_labels(labels_node, assigns)
        if labels is None:
            yield self.finding(
                module,
                node,
                f"labelnames for {name!r} must be statically enumerable "
                "(a literal tuple/list of string literals, or a local "
                "variable assigned only such values)",
            )
            return
        for label in labels:
            if not _LABEL_PATTERN.match(label):
                yield self.finding(
                    module,
                    node,
                    f"label {label!r} on {name!r} is not a valid label "
                    "identifier",
                )
            elif label not in DECLARED_LABELS:
                yield self.finding(
                    module,
                    node,
                    f"label {label!r} on {name!r} is not in the declared "
                    "label catalog (add it to DECLARED_LABELS with a "
                    "bounded value set, or reuse an existing label)",
                )
