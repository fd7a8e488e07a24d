"""API001: portal dispatch methods and wire schemas must stay in sync.

:class:`~repro.portal.dispatch.PortalDispatcher` routes ``method``
strings to ``_do_<method>`` handlers, and :data:`repro.portal.protocol.
METHOD_SCHEMAS` declares each method's parameter schema (used by
``validate_params`` to reject malformed requests before they reach a
handler).  Nothing ties the two together at runtime -- a handler added
without a schema entry silently serves unvalidated params, and a schema
entry whose handler was renamed rots silently.

This rule closes the loop statically:

* every ``_do_<name>`` method on a class that also defines ``dispatch``
  must have a ``METHOD_SCHEMAS`` entry named ``<name>``;
* every ``METHOD_SCHEMAS`` key must correspond to some ``_do_<name>``
  handler in the project (orphan schemas are reported at the schema
  table's definition).

The schema table is found syntactically: the first module-level
assignment to a name ``METHOD_SCHEMAS`` whose value is a dict literal
with string-literal keys -- in the same module as the dispatcher when
present, else anywhere in the project (``repro/portal/protocol.py`` in
this tree).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Module, Project, Rule, literal_str

_TABLE_NAME = "METHOD_SCHEMAS"


def _schema_table(
    module: Module,
) -> Optional[Tuple[ast.AST, Dict[str, ast.AST]]]:
    """The (assignment node, key -> key node) of METHOD_SCHEMAS, if any."""
    if module.tree is None:
        return None
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Dict):
            continue
        named = any(
            isinstance(target, ast.Name) and target.id == _TABLE_NAME
            for target in targets
        )
        if not named:
            continue
        keys: Dict[str, ast.AST] = {}
        for key in value.keys:
            text = literal_str(key) if key is not None else None
            if text is not None:
                keys[text] = key
        return node, keys
    return None


def _dispatch_handlers(module: Module) -> List[Tuple[str, ast.FunctionDef]]:
    """(method name, def node) for _do_* methods on dispatcher classes."""
    handlers: List[Tuple[str, ast.FunctionDef]] = []
    if module.tree is None:
        return handlers
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        method_names = {
            item.name
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "dispatch" not in method_names:
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name.startswith("_do_"):
                handlers.append((item.name[len("_do_") :], item))
    return handlers


class ApiSchemaParityRule(Rule):
    id = "API001"
    name = "api-schema-parity"
    description = (
        "Every portal _do_<method> handler needs a METHOD_SCHEMAS entry, "
        "and every schema entry needs a handler."
    )

    def finalize(self, project: Project) -> Iterator[Finding]:
        tables: List[Tuple[Module, ast.AST, Dict[str, ast.AST]]] = []
        handlers: List[Tuple[Module, str, ast.FunctionDef]] = []
        for module in project.modules:
            table = _schema_table(module)
            if table is not None:
                tables.append((module, table[0], table[1]))
            for name, node in _dispatch_handlers(module):
                handlers.append((module, name, node))
        if not handlers and not tables:
            return
        declared: Set[str] = set()
        for _, _, keys in tables:
            declared.update(keys)
        for module, name, node in handlers:
            # Prefer a schema table in the handler's own module (fixture
            # self-tests define both in one file); fall back to any table
            # in the project.
            local = _schema_table(module)
            known = set(local[1]) if local is not None else declared
            if name not in known:
                yield self.finding(
                    module,
                    node,
                    f"dispatch handler _do_{name} has no METHOD_SCHEMAS "
                    f"entry {name!r}; requests reach it unvalidated",
                )
        handled = {name for _, name, _ in handlers}
        if not handled:
            return
        for module, table_node, keys in tables:
            for name, key_node in keys.items():
                if name not in handled:
                    yield self.finding(
                        module,
                        key_node,
                        f"METHOD_SCHEMAS entry {name!r} has no _do_{name} "
                        "handler on any dispatcher; remove or implement it",
                    )
