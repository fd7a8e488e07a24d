"""Whole-program indexing and a conservative project call graph.

Every p4plint rule so far was a single-file AST pass; that ceiling is
exactly where the serving plane's bugs live -- a coroutine that
*transitively* calls ``time.sleep``, an attribute mutated by both the
event loop and a worker thread.  This module builds the shared
whole-program layer those rules stand on:

* **Symbol tables.**  Every module's imports, top-level functions,
  classes and methods (nested functions included, named with the
  ``outer.<locals>.inner`` convention), keyed by dotted qualname
  (``repro.portal.views.ViewPublisher.current``).

* **Conservative call resolution.**  Project-internal calls are resolved
  through import aliases, module-level names, ``self.method()`` with
  single/multiple inheritance over project classes, ``self.attr.m()`` /
  ``local.m()`` through lightweight type inference (constructor
  assignments, parameter and attribute annotations), class instantiation
  (edges to ``__init__``), and a *unique-method* fallback for receivers
  the inference cannot type (an unresolved ``x.adopt()`` resolves iff
  exactly one project class defines ``adopt``).  Dynamic portal dispatch
  (``getattr(self, f"_do_{method}")``) becomes explicit ``dynamic``
  edges to every ``_do_``-prefixed method in the class hierarchy,
  subclass overrides included.  Unresolved calls are kept as *external*
  edges carrying their resolved dotted name (``time.sleep``,
  ``subprocess.run``, ``self._listener.accept``) -- the raw material for
  the blocking-primitive catalog.

* **Execution-domain classification.**  Functions are seeded into the
  event-loop domain (``async def`` bodies, ``call_soon*`` /
  ``add_done_callback`` callbacks, the transport callbacks of
  ``asyncio.Protocol`` subclasses) or
  the thread domain (``threading.Thread`` targets, ``Executor.submit`` /
  ``run_in_executor`` / ``asyncio.to_thread`` submissions, ``handle`` /
  ``run`` methods of classes extending external handler/server/thread
  machinery), and domains propagate along call edges -- except across an
  executor hop, which is precisely the boundary that makes blocking work
  legal again.

* **Reachability queries.**  :meth:`ProjectIndex.walk_sync` walks the
  synchronous call closure of a function (never crossing an executor
  hop, never descending into other coroutines) yielding the chain that
  reached each node -- what lets ASY001 print *why* a coroutine can
  block, not just that it does.

Everything here is derived from the syntax trees alone: nothing under
analysis is imported, so the index is safe to build on broken or
half-written code.  Resolution is deliberately *under*-approximate
(unknown calls stay external) except for the documented conservative
closures (dynamic dispatch, unique-method fallback), which are
*over*-approximate by design: a race or blocking-call lint must not go
quiet because dispatch is dynamic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Module, Project, dotted_name

#: Execution domains a function can be classified into.
DOMAIN_LOOP = "loop"  # runs on an asyncio event-loop thread
DOMAIN_THREAD = "thread"  # runs on a non-loop thread (Thread/executor)

#: Methods that schedule a plain callable onto the event loop.
#: ``add_done_callback`` counts: an asyncio future runs its callbacks on
#: its loop (a ``concurrent.futures`` one would not, but the serving
#: plane hands executor work back as asyncio futures).
_LOOP_CALLBACK_METHODS = frozenset(
    {
        "call_soon",
        "call_soon_threadsafe",
        "call_later",
        "call_at",
        "add_done_callback",
    }
)

#: Methods the event loop calls on an ``asyncio`` protocol instance.
_PROTOCOL_CALLBACKS = frozenset(
    {
        "connection_made",
        "data_received",
        "eof_received",
        "connection_lost",
        "pause_writing",
        "resume_writing",
        "get_buffer",
        "buffer_updated",
        "datagram_received",
        "error_received",
    }
)

#: Methods/functions that run a callable on a worker thread.  The callee
#: is seeded into the thread domain and the edge is an executor hop.
_EXECUTOR_METHODS = frozenset({"submit", "run_in_executor", "map"})
_EXECUTOR_FUNCTIONS = frozenset({"asyncio.to_thread"})

#: External base-class name fragments whose ``handle``/``run``/``serve``
#: methods are invoked on machinery-owned threads (socketserver handlers,
#: Thread subclasses, ...).
_THREAD_BASE_HINTS = ("thread", "handler", "server", "process")
_THREAD_ENTRY_METHODS = frozenset({"run", "handle", "serve"})

_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})


def module_name_of(relpath: str) -> str:
    """``repro/portal/views.py`` -> ``repro.portal.views`` (packages map
    to their ``__init__`` module's name)."""
    parts = relpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method known to the index."""

    qualname: str  # repro.portal.views.ViewPublisher.current
    module: str  # relpath, e.g. repro/portal/views.py
    name: str  # bare name
    class_name: Optional[str]  # owning class qualname, if a method
    node: ast.AST
    is_async: bool
    lineno: int

    @property
    def short(self) -> str:
        """Qualname without the module prefix, for human-facing chains."""
        prefix = module_name_of(self.module)
        if self.qualname.startswith(prefix + "."):
            return self.qualname[len(prefix) + 1 :]
        return self.qualname


@dataclass
class ClassInfo:
    """One class: its methods, bases, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    bases: List[str] = field(default_factory=list)  # resolved dotted names
    #: ``self.<attr>`` -> class qualname, inferred from constructor-call
    #: assignments and annotations anywhere in the class body.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """One call (or callable reference) site in one function."""

    caller: str  # function qualname
    callee: Optional[str]  # project function qualname, if resolved
    external: Optional[str]  # resolved dotted name otherwise
    lineno: int
    col: int
    kind: str  # "call" | "ref" | "dynamic" | "unique"
    awaited: bool = False
    #: True when the callee runs on an executor/thread rather than being
    #: invoked inline -- the edge that cuts blocking-call reachability.
    executor: bool = False


class _ModuleTable:
    """Per-module symbol table: imports, top-level defs, classes."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.modname = module_name_of(module.relpath)
        self.imports: Dict[str, str] = {}  # local alias -> dotted origin
        self.toplevel: Dict[str, str] = {}  # name -> function/class qualname
        self.classes: Dict[str, str] = {}  # bare class name -> class qualname
        assert module.tree is not None
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are not used in this tree
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_alias(self, name: str) -> Optional[str]:
        """Expand the leading alias of a dotted name, if imported."""
        parts = name.split(".")
        origin = self.imports.get(parts[0])
        if origin is None:
            return None
        return ".".join([origin, *parts[1:]])


class ProjectIndex:
    """The shared whole-program index: symbols, call graph, domains."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, List[CallEdge]] = {}
        self.tables: Dict[str, _ModuleTable] = {}  # module name -> table
        self._methods_by_name: Dict[str, List[str]] = {}
        self._domains: Optional[Dict[str, Set[str]]] = None
        self._loop_callbacks: Optional[Set[str]] = None
        self._fn_by_node: Dict[int, str] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "ProjectIndex":
        index = cls()
        parsed = [m for m in project.modules if m.tree is not None]
        for module in parsed:
            index.tables[module_name_of(module.relpath)] = _ModuleTable(module)
        for module in parsed:
            index._collect_symbols(module)
        index._resolve_bases()
        index._infer_attr_types()
        for module in parsed:
            index._collect_edges(module)
        return index

    def _collect_symbols(self, module: Module) -> None:
        table = self.tables[module_name_of(module.relpath)]
        modname = table.modname

        def add_function(
            node: ast.AST, qualname: str, class_name: Optional[str]
        ) -> None:
            info = FunctionInfo(
                qualname=qualname,
                module=module.relpath,
                name=qualname.rsplit(".", 1)[-1],
                class_name=class_name,
                node=node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                lineno=node.lineno,  # type: ignore[attr-defined]
            )
            self.functions[qualname] = info
            self._fn_by_node[id(node)] = qualname
            # nested defs: outer.<locals>.inner
            for child in ast.walk(node):
                if child is node:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if id(child) not in self._fn_by_node:
                        add_function(
                            child,
                            f"{qualname}.<locals>.{child.name}",
                            class_name,
                        )

        assert module.tree is not None
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{modname}.{node.name}"
                table.toplevel[node.name] = qualname
                add_function(node, qualname, None)
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{modname}.{node.name}"
                info = ClassInfo(
                    qualname=cls_qual,
                    module=module.relpath,
                    name=node.name,
                    node=node,
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn_qual = f"{cls_qual}.{item.name}"
                        info.methods[item.name] = fn_qual
                        add_function(item, fn_qual, cls_qual)
                        self._methods_by_name.setdefault(item.name, []).append(
                            fn_qual
                        )
                self.classes[cls_qual] = info
                table.toplevel[node.name] = cls_qual
                table.classes[node.name] = cls_qual

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            table = self.tables[module_name_of(info.module)]
            for base in info.node.bases:
                name = dotted_name(base)
                if name is None:
                    continue
                resolved = self._resolve_symbol(table, name)
                info.bases.append(resolved if resolved is not None else name)

    def _resolve_symbol(self, table: _ModuleTable, name: str) -> Optional[str]:
        """A dotted name (local view) -> project qualname, if it is one."""
        parts = name.split(".")
        if parts[0] in table.toplevel:
            return ".".join([table.toplevel[parts[0]], *parts[1:]])
        expanded = table.resolve_alias(name)
        if expanded is None:
            return None
        # Longest module prefix wins: repro.portal.protocol.encode_frame
        # splits into module repro.portal.protocol + symbol encode_frame.
        pieces = expanded.split(".")
        for cut in range(len(pieces), 0, -1):
            mod = ".".join(pieces[:cut])
            if mod in self.tables:
                if cut == len(pieces):
                    return mod  # a module reference, not a symbol
                return expanded
        return None

    def _annotation_class(
        self, table: _ModuleTable, annotation: Optional[ast.AST]
    ) -> Optional[str]:
        """``x: Foo`` / ``x: "Foo"`` / ``x: Optional[Foo]`` -> class qualname."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name: Optional[str] = annotation.value
        elif isinstance(annotation, ast.Subscript):
            head = dotted_name(annotation.value)
            if head not in ("Optional", "typing.Optional"):
                return None
            return self._annotation_class(table, annotation.slice)
        else:
            name = dotted_name(annotation)
        if name is None:
            return None
        resolved = self._resolve_symbol(table, name)
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    def _infer_attr_types(self) -> None:
        """``self.x = Cls(...)`` and ``self.x: Cls`` -> attr_types."""
        for info in self.classes.values():
            table = self.tables[module_name_of(info.module)]
            for node in ast.walk(info.node):
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls = self._annotation_class(table, node.annotation)
                        if cls is not None:
                            info.attr_types.setdefault(target.attr, cls)
                elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    name = dotted_name(node.value.func)
                    if name is None:
                        continue
                    resolved = self._resolve_symbol(table, name)
                    if resolved is None or resolved not in self.classes:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_types.setdefault(target.attr, resolved)

    # -- class hierarchy ---------------------------------------------------

    def mro(self, class_qualname: str) -> List[ClassInfo]:
        """The class plus its project-internal ancestors, breadth-first."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            info = self.classes[current]
            out.append(info)
            queue.extend(info.bases)
        return out

    def subclasses(self, class_qualname: str) -> List[ClassInfo]:
        """Project classes that (transitively) extend the given class."""
        out: List[ClassInfo] = []
        for info in self.classes.values():
            if info.qualname == class_qualname:
                continue
            if any(
                ancestor.qualname == class_qualname
                for ancestor in self.mro(info.qualname)
            ):
                out.append(info)
        return out

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[str]:
        for info in self.mro(class_qualname):
            if method in info.methods:
                return info.methods[method]
        return None

    # -- edge collection ---------------------------------------------------

    def _collect_edges(self, module: Module) -> None:
        table = self.tables[module_name_of(module.relpath)]
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._fn_by_node.get(id(node))
                if qualname is not None:
                    self.edges[qualname] = list(
                        _EdgeCollector(self, table, qualname).collect(node)
                    )

    def function_of_node(self, node: ast.AST) -> Optional[str]:
        return self._fn_by_node.get(id(node))

    # -- execution domains -------------------------------------------------

    def loop_callbacks(self) -> Set[str]:
        """Plain functions the event loop itself calls: transport
        callbacks of ``asyncio`` protocol subclasses, and callables
        scheduled with ``call_soon*`` / ``call_later`` / ``call_at`` /
        ``add_done_callback``.  Like a coroutine, each one runs on the
        loop thread with nothing above it on the stack."""
        if self._loop_callbacks is not None:
            return self._loop_callbacks
        callbacks: Set[str] = set()
        for qualname, info in self.functions.items():
            if (
                info.class_name is not None
                and info.name in _PROTOCOL_CALLBACKS
                and any(
                    base.startswith("asyncio.") and base.endswith("Protocol")
                    for ancestor in self.mro(info.class_name)
                    for base in ancestor.bases
                )
            ):
                callbacks.add(qualname)
        for edges in self.edges.values():
            for edge in edges:
                if edge.callee is not None and edge.kind == "loopref":
                    callbacks.add(edge.callee)
        self._loop_callbacks = {
            qualname
            for qualname in callbacks
            if not self.functions[qualname].is_async
        }
        return self._loop_callbacks

    def domains(self) -> Dict[str, Set[str]]:
        """Function qualname -> execution domains it can run in.

        Functions nothing schedules (plain main-thread code, tests) map
        to an empty set -- the conservative "don't know" answer.
        """
        if self._domains is not None:
            return self._domains
        seeds: Dict[str, Set[str]] = {q: set() for q in self.functions}
        for qualname, info in self.functions.items():
            if info.is_async:
                seeds[qualname].add(DOMAIN_LOOP)
            if info.class_name is not None and info.name in _THREAD_ENTRY_METHODS:
                cls = self.classes.get(info.class_name)
                if cls is not None and any(
                    base not in self.classes
                    and any(h in base.lower() for h in _THREAD_BASE_HINTS)
                    for base in cls.bases
                ):
                    seeds[qualname].add(DOMAIN_THREAD)
        for qualname in self.loop_callbacks():
            seeds[qualname].add(DOMAIN_LOOP)
        for edges in self.edges.values():
            for edge in edges:
                if edge.callee is not None and edge.executor:
                    seeds[edge.callee].add(DOMAIN_THREAD)
        # Propagate caller domains along inline call edges.  Async
        # callees keep their loop seed (their body runs on the loop no
        # matter who constructs the coroutine); executor hops already
        # seeded the thread domain and do not forward the caller's.
        domains = seeds
        changed = True
        while changed:
            changed = False
            for caller, edges in self.edges.items():
                source = domains.get(caller)
                if not source:
                    continue
                for edge in edges:
                    if edge.callee is None or edge.executor:
                        continue
                    if edge.kind == "loopref":
                        continue
                    target = self.functions.get(edge.callee)
                    if target is None or target.is_async:
                        continue
                    dst = domains[edge.callee]
                    before = len(dst)
                    dst |= source
                    if len(dst) != before:
                        changed = True
        self._domains = domains
        return domains

    # -- reachability ------------------------------------------------------

    def walk_sync(
        self, start: str
    ) -> Iterator[Tuple[str, Tuple[str, ...], CallEdge]]:
        """BFS over the synchronous closure of ``start``.

        Yields ``(function, chain, entering_edge)`` for every function
        reachable through inline (non-executor) call edges without
        entering another coroutine; ``chain`` is the qualname path from
        ``start`` up to and including ``function``.  ``start`` itself is
        yielded first with a single-element chain.
        """
        if start not in self.functions:
            return
        seen: Set[str] = {start}
        queue: List[Tuple[str, Tuple[str, ...]]] = [(start, (start,))]
        first = CallEdge(
            caller=start,
            callee=start,
            external=None,
            lineno=self.functions[start].lineno,
            col=0,
            kind="call",
        )
        yield start, (start,), first
        while queue:
            current, chain = queue.pop(0)
            for edge in sorted(
                self.edges.get(current, ()),
                key=lambda e: (e.lineno, e.col),
            ):
                if edge.callee is None or edge.executor:
                    continue
                if edge.kind == "loopref":
                    continue
                target = self.functions.get(edge.callee)
                if target is None or target.is_async:
                    continue  # another coroutine's body is its own root
                if edge.callee in seen:
                    continue
                seen.add(edge.callee)
                next_chain = chain + (edge.callee,)
                yield edge.callee, next_chain, edge
                queue.append((edge.callee, next_chain))

    def external_calls(self, qualname: str) -> List[CallEdge]:
        """The unresolved (external) call edges of one function."""
        return [
            edge
            for edge in self.edges.get(qualname, ())
            if edge.external is not None
        ]


class _EdgeCollector(ast.NodeVisitor):
    """Extract the call edges of one function body.

    Does not descend into nested defs (they are separate functions) but
    resolves calls *to* them through the enclosing scope.
    """

    def __init__(
        self, index: ProjectIndex, table: _ModuleTable, qualname: str
    ) -> None:
        self.index = index
        self.table = table
        self.qualname = qualname
        self.fn = index.functions[qualname]
        self.out: List[CallEdge] = []
        self._await_value: Optional[ast.AST] = None
        self._local_types: Dict[str, str] = {}
        self._nested: Dict[str, str] = {}

    def collect(self, node: ast.AST) -> List[CallEdge]:
        # nested defs callable from this body (one <locals> hop only)
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = self.index.function_of_node(child)
                if qual is not None and qual.startswith(
                    self.qualname + ".<locals>."
                ):
                    # only direct children: one <locals> hop
                    rest = qual[len(self.qualname) + len(".<locals>.") :]
                    if "." not in rest:
                        self._nested[child.name] = qual
        self._collect_param_types(node)
        self._collect_local_types(node)
        for stmt in ast.iter_child_nodes(node):
            if isinstance(stmt, (ast.arguments, ast.expr_context)):
                continue
            self.visit(stmt)
        return self.out

    # -- lightweight local type inference ---------------------------------

    def _collect_param_types(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = self.index._annotation_class(self.table, arg.annotation)
            if cls is not None:
                self._local_types[arg.arg] = cls

    def _collect_local_types(self, node: ast.AST) -> None:
        cls_info = (
            self.index.classes.get(self.fn.class_name)
            if self.fn.class_name
            else None
        )
        for child in ast.walk(node):
            if not isinstance(child, ast.Assign):
                continue
            targets = [
                t.id for t in child.targets if isinstance(t, ast.Name)
            ]
            if not targets:
                continue
            value = child.value
            inferred: Optional[str] = None
            if isinstance(value, ast.Call):
                name = dotted_name(value.func)
                if name is not None:
                    resolved = self.index._resolve_symbol(self.table, name)
                    if resolved in self.index.classes:
                        inferred = resolved
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and cls_info is not None
            ):
                inferred = cls_info.attr_types.get(value.attr)
            if inferred is not None:
                for target in targets:
                    self._local_types.setdefault(target, inferred)

    # -- traversal ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # separate function

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Await(self, node: ast.Await) -> None:
        previous = self._await_value
        self._await_value = node.value
        self.visit(node.value)
        self._await_value = previous

    def visit_Call(self, node: ast.Call) -> None:
        awaited = self._await_value is node
        self._emit_call(node, awaited)
        self._emit_refs(node)
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    # -- resolution --------------------------------------------------------

    def _edge(
        self,
        node: ast.AST,
        callee: Optional[str],
        external: Optional[str],
        kind: str,
        awaited: bool = False,
        executor: bool = False,
    ) -> None:
        self.out.append(
            CallEdge(
                caller=self.qualname,
                callee=callee,
                external=external,
                lineno=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                kind=kind,
                awaited=awaited,
                executor=executor,
            )
        )

    def _target_of(self, name: str) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a dotted callable name -> (project qualname, external)."""
        parts = name.split(".")
        head = parts[0]
        index = self.index
        # self.method() / self.attr.method()
        if head == "self" and self.fn.class_name is not None:
            if len(parts) == 2:
                target = index.resolve_method(self.fn.class_name, parts[1])
                if target is not None:
                    return target, None
                return None, name
            if len(parts) == 3:
                cls_info = index.classes.get(self.fn.class_name)
                attr_cls = (
                    cls_info.attr_types.get(parts[1]) if cls_info else None
                )
                if attr_cls is not None:
                    target = index.resolve_method(attr_cls, parts[2])
                    if target is not None:
                        return target, None
                return None, name
            return None, name
        # nested defs of this function
        if name in self._nested:
            return self._nested[name], None
        # typed local / parameter receiver: local.method()
        if len(parts) == 2 and head in self._local_types:
            target = index.resolve_method(self._local_types[head], parts[1])
            if target is not None:
                return target, None
        # module-level symbol or imported name
        resolved = index._resolve_symbol(self.table, name)
        if resolved is not None:
            if resolved in index.functions:
                return resolved, None
            if resolved in index.classes:
                init = index.resolve_method(resolved, "__init__")
                if init is not None:
                    return init, None
                return None, resolved
            # Class.method spelled through an import
            if "." in resolved:
                owner, _, meth = resolved.rpartition(".")
                if owner in index.classes:
                    target = index.resolve_method(owner, meth)
                    if target is not None:
                        return target, None
            return None, resolved
        expanded = self.table.resolve_alias(name)
        return None, expanded if expanded is not None else name

    def _emit_call(self, node: ast.Call, awaited: bool) -> None:
        name = dotted_name(node.func)
        if name is None:
            # call on a subscript/call result: try the unique-method
            # fallback on the attribute name.
            if isinstance(node.func, ast.Attribute):
                candidates = self.index._methods_by_name.get(node.func.attr, ())
                if len(candidates) == 1:
                    self._edge(
                        node, candidates[0], None, "unique", awaited=awaited
                    )
                self._edge(
                    node, None, f"?.{node.func.attr}", "call", awaited=awaited
                )
            return
        # dynamic dispatch: getattr(self, f"_do_{x}") anywhere in the
        # function adds edges to every matching method in the hierarchy.
        if name == "getattr" and self._maybe_dynamic_dispatch(node):
            return
        callee, external = self._target_of(name)
        if callee is not None:
            self._edge(node, callee, None, "call", awaited=awaited)
            return
        if (
            external == name
            and "." in name
            and name.split(".")[0] not in self.table.imports
        ):
            # Unresolved attribute call on an untyped receiver: apply the
            # unique-method fallback, but keep the external edge too --
            # the receiver might equally be a stdlib object whose method
            # happens to collide with one project method (future.result
            # vs. SwarmSimulation.result), and the external spelling is
            # what the blocking-call catalog matches against.
            method = name.rsplit(".", 1)[-1]
            candidates = self.index._methods_by_name.get(method, ())
            if len(candidates) == 1:
                self._edge(node, candidates[0], None, "unique", awaited=awaited)
        self._edge(node, None, external, "call", awaited=awaited)

    def _maybe_dynamic_dispatch(self, node: ast.Call) -> bool:
        """``getattr(self, f"_do_{m}")`` -> dynamic edges to ``_do_*``."""
        if self.fn.class_name is None or len(node.args) < 2:
            return False
        first = node.args[0]
        if not (isinstance(first, ast.Name) and first.id == "self"):
            return False
        prefix = _literal_prefix(node.args[1])
        if not prefix:
            return False
        targets: Dict[str, str] = {}
        hierarchy = self.index.mro(self.fn.class_name) + self.index.subclasses(
            self.fn.class_name
        )
        for cls in hierarchy:
            for method, qual in cls.methods.items():
                if method.startswith(prefix):
                    targets.setdefault(qual, qual)
        for qual in sorted(targets):
            self._edge(node, qual, None, "dynamic")
        return bool(targets)

    def _emit_refs(self, node: ast.Call) -> None:
        """Callable references passed as arguments (callbacks, targets)."""
        name = dotted_name(node.func) or ""
        attr = name.rsplit(".", 1)[-1] if "." in name else name
        resolved_fn = self.table.resolve_alias(name) or name
        is_executor = (
            attr in _EXECUTOR_METHODS or resolved_fn in _EXECUTOR_FUNCTIONS
        )
        is_thread_ctor = resolved_fn in (
            "threading.Thread",
            "threading.Timer",
            "multiprocessing.Process",
        ) or (attr in ("Thread", "Timer", "Process"))
        is_loop_callback = attr in _LOOP_CALLBACK_METHODS
        candidates: List[ast.AST] = list(node.args)
        for keyword in node.keywords:
            candidates.append(keyword.value)
        for arg in candidates:
            target = self._callable_ref(arg)
            if target is None:
                continue
            if is_executor or is_thread_ctor:
                self._edge(arg, target, None, "ref", executor=True)
            elif is_loop_callback:
                self._edge(arg, target, None, "loopref")
            else:
                self._edge(arg, target, None, "ref")

    def _callable_ref(self, arg: ast.AST) -> Optional[str]:
        """A bare Name/Attribute argument that resolves to a project
        function (``functools.partial(f, ...)`` unwraps to ``f``)."""
        if isinstance(arg, ast.Call):
            name = dotted_name(arg.func)
            resolved = (
                (self.table.resolve_alias(name) or name) if name else None
            )
            if resolved in ("functools.partial", "partial") and arg.args:
                return self._callable_ref(arg.args[0])
            return None
        name = dotted_name(arg)
        if name is None:
            return None
        callee, _external = self._target_of(name)
        if callee is not None and callee in self.index.functions:
            return callee
        return None


def _literal_prefix(node: ast.AST) -> Optional[str]:
    """The literal leading text of a string expression.

    ``f"_do_{method}"`` -> ``"_do_"``; ``"_do_" + m`` -> ``"_do_"``;
    plain constants return themselves.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_prefix(node.left)
    return None
