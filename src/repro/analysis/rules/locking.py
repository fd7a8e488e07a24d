"""LCK001: lock discipline for state shared across threads.

The portal's view publisher and overload governor and the observability
registry/tracing layer guard mutable state with ``with self._lock:`` blocks.  The invariant this
rule enforces is *consistency*: an attribute that is ever **written**
under a lock is considered lock-guarded for its class, and every other
access (read or write) to it from a method of the same class must also
hold the lock.

Inference is per class, entirely syntactic:

* lock objects are ``self.<name>`` attributes whose name contains
  ``lock`` (``_lock``, ``_state_lock``, ...);
* guarded attributes are ``self.<attr>`` targets of assignments,
  augmented assignments, or mutating subscripts inside a ``with
  self.<lock>:`` body (outside ``__init__``);
* constructors (``__init__``/``__new__``/``__post_init__``) are exempt
  on both sides -- the object is not yet shared while it is being built.

A deliberate unguarded fast path (double-checked locking) is expected to
be carried in ``lint_baseline.json`` with a justification, not silenced.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import (
    Finding,
    Module,
    Project,
    Rule,
    is_lock_guard as _is_lock_guard,
    is_self_attr as _is_self_attr,
)

_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})


class _MethodScanner(ast.NodeVisitor):
    """Record self-attribute accesses in one method, tagged guarded or not."""

    def __init__(self) -> None:
        self.accesses: List[Tuple[ast.Attribute, bool, bool]] = []
        # (node, is_write, under_lock)
        self._lock_depth = 0

    def visit_With(self, node: ast.With) -> None:
        guarded = any(_is_lock_guard(item) for item in node.items)
        for item in node.items:
            self.visit(item)
        if guarded:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self._lock_depth -= 1

    visit_AsyncWith = visit_With

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self.x[k] = v`` / ``del self.x[k]`` mutate self.x: record a
        # write to the attribute itself, and skip the inner Load so the
        # same site is not double-reported as a read.
        if isinstance(node.ctx, (ast.Store, ast.Del)) and _is_self_attr(node.value):
            attr = node.value
            if "lock" not in attr.attr.lower():
                self.accesses.append((attr, True, self._lock_depth > 0))
            self.visit(node.slice)
            return
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_self_attr(node) and "lock" not in node.attr.lower():
            is_write = isinstance(node.ctx, (ast.Store, ast.Del))
            self.accesses.append((node, is_write, self._lock_depth > 0))
        self.generic_visit(node)

    # Nested defs run on other stacks/closures; do not attribute their
    # accesses to this method's lock state.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class LockDisciplineRule(Rule):
    id = "LCK001"
    name = "lock-discipline"
    description = (
        "Attributes written under `with self._lock:` must be read and "
        "written under the lock everywhere else in the class."
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        assert module.tree is not None
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(module, cls)

    def _scan_methods(
        self, cls: ast.ClassDef
    ) -> Dict[str, List[Tuple[ast.Attribute, bool, bool]]]:
        scans: Dict[str, List[Tuple[ast.Attribute, bool, bool]]] = {}
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scanner = _MethodScanner()
                for stmt in item.body:
                    scanner.visit(stmt)
                scans[item.name] = scanner.accesses
        return scans

    def _check_class(
        self, module: Module, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        scans = self._scan_methods(cls)
        guarded: Set[str] = set()
        for method, accesses in scans.items():
            if method in _CONSTRUCTORS:
                continue
            for node, is_write, under_lock in accesses:
                if is_write and under_lock:
                    guarded.add(node.attr)
        if not guarded:
            return
        for method, accesses in scans.items():
            if method in _CONSTRUCTORS:
                continue
            for node, is_write, under_lock in accesses:
                if node.attr in guarded and not under_lock:
                    kind = "write to" if is_write else "read of"
                    yield self.finding(
                        module,
                        node,
                        f"unguarded {kind} {cls.name}.{node.attr} "
                        f"(lock-guarded elsewhere in this class) in "
                        f"{method}()",
                    )
