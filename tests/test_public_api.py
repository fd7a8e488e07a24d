"""Public-API surface tests: imports, exports, and basic composition."""

import ast
import importlib
import inspect
import re
import textwrap
from pathlib import Path
from typing import Iterator, Optional

import repro

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _module_file(name: str) -> Optional[Path]:
    """The source file of module ``name`` under ``src/repro``, if any."""
    if name != "repro" and not name.startswith("repro."):
        return None
    base = SRC.joinpath(*name.split(".")[1:])
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _non_test_files() -> Iterator[Path]:
    """Every Python file a program runs from: ``src/`` and the harness
    roots ``benchmarks/``, ``examples/`` and ``bench/``."""
    for directory in ("src", "benchmarks", "examples", "bench"):
        yield from (REPO / directory).rglob("*.py")


# Names no program calls that stay anyway: reference oracles tests compare
# against, and scaffolding tests build their inputs with.
_KEEP = {
    "maxmin_rates_reference": "oracle: the flow engine's max-min fill is checked against it",
    "verify_maxmin": "oracle: checks a rate vector against the max-min definition",
    "Topology.add_pid": "scaffolding: tests build small topologies with it",
    "RoutingTable.path_pids": "scaffolding: routing tests walk every route with it",
}

# Names only tests reach whose deletion takes whole tests with it: they go a
# few tests at a time, in later changes, and each leaves this map as it goes.
_DEFERRED = {
    "endpoint_cost_document": "tests/test_alto.py::TestEndpointCost (3 tests)",
    "TrackerlessSwarm.leave": "test_leave_withdraws; orphans DhtNode.forget and its test",
    "simulate": "two tests/test_loadgen.py tests",
}


_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/THEORY.md",
    ".claude/skills/verify/SKILL.md",
    "bench/README.md",
)


def _definitions() -> dict:
    """Qualified name -> ``path:line`` of every public module-level function
    and class, and every public method of a class, under ``src/repro``.
    ``visit_*`` methods of ``ast.NodeVisitor`` subclasses are left out:
    the visitor dispatches them by name."""
    found = {}
    for path in SRC.rglob("*.py"):
        where = path.relative_to(REPO)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found[node.name] = f"{where}:{node.lineno}"
            if not isinstance(node, ast.ClassDef):
                continue
            visitor = any(
                getattr(base, "attr", getattr(base, "id", None)) == "NodeVisitor"
                for base in node.bases
            )
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name.startswith("_") or (visitor and item.name.startswith("visit_")):
                    continue
                found[f"{node.name}.{item.name}"] = f"{where}:{item.lineno}"
    return found


def _uses(path: Path) -> Iterator[str]:
    """Every identifier ``path`` uses: names, attributes, import aliases and
    identifier-shaped strings (``getattr`` dispatch).  An ``__init__.py``
    re-export, an ``__all__`` entry and an import whose bound name is never
    read are not uses."""
    tree = ast.parse(path.read_text(), str(path))
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exports = set()
    for node in ast.walk(tree):
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(getattr(target, "id", None) == "__all__" for target in targets):
            exports.update(map(id, ast.walk(node.value)))
        if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
            exports.update(map(id, node.names))
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            if (node.asname or node.name.split(".", 1)[0]) in loaded:
                yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _imports(path: Path) -> Iterator[str]:
    """Every dotted name an absolute import in ``path`` may load, lazy
    imports in function bodies included (``from a import b`` yields both
    ``a`` and ``a.b``: ``b`` may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _public_classes() -> dict:
    """Class name -> the public classes of that name under ``src/repro``."""
    found: dict = {}
    for path in SRC.rglob("*.py"):
        module = importlib.import_module(
            ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
            .removesuffix(".__init__")
        )
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found.setdefault(node.name, []).append(getattr(module, node.name))
    return found


def _self_assigned(cls) -> set:
    """The attributes ``cls``'s own methods assign on ``self``."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    except (OSError, TypeError):
        return set()
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == "self"
    }


def _has_member(cls, attribute: str) -> bool:
    """``attribute`` is a class attribute, a dataclass field, or assigned
    on ``self`` by ``cls`` or one of its bases."""
    return (
        hasattr(cls, attribute)
        or attribute in getattr(cls, "__dataclass_fields__", {})
        or any(attribute in _self_assigned(base) for base in cls.__mro__)
    )


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_minimal_composition(self):
        """The README quickstart works via the top-level namespace only."""
        itracker = repro.ITracker(
            topology=repro.abilene(),
            config=repro.ITrackerConfig(mode=repro.PriceMode.DYNAMIC),
        )
        itracker.warm_start()
        pids = ["SEAT", "NYCM", "CHIN"]
        session = repro.SessionDemand(
            name="swarm",
            uploads={pid: 100.0 for pid in pids},
            downloads={pid: 100.0 for pid in pids},
        )
        view = itracker.get_pdistances(pids=pids)
        pattern = repro.min_cost_traffic(session, view, beta=0.9)
        assert pattern.total() > 0
        assert itracker.observe_loads(pattern.link_loads(itracker.routing))

    def test_topology_builders_exported(self):
        assert len(repro.isp_a().nodes) == 20
        assert len(repro.isp_b().nodes) == 52
        assert len(repro.isp_c().nodes) == 37

    def test_subpackages_importable(self):
        """Every module under ``src/repro`` is reached by an import walk
        from the ``p4p-repro`` entry point, the package and what
        ``benchmarks/``, ``examples/`` and ``bench/`` import -- a module
        only ``tests/`` imports is a leaf nothing runs."""
        roots = {"repro", "repro.tools.cli"}
        for directory in ("benchmarks", "examples", "bench"):
            for path in (REPO / directory).rglob("*.py"):
                roots.update(_imports(path))
        reached = set()
        pending = [name for name in roots if _module_file(name)]
        while pending:
            name = pending.pop()
            if name in reached:
                continue
            reached.add(name)
            parts = name.split(".")
            parents = (".".join(parts[:i]) for i in range(1, len(parts)))
            pending.extend(parents)
            pending.extend(n for n in _imports(_module_file(name)) if _module_file(n))
        modules = {
            ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
            .removesuffix(".__init__")
            for path in SRC.rglob("*.py")
        }
        unreached = sorted(modules - reached)
        assert not unreached, f"modules nothing runs: {unreached}"

    def test_public_names_used(self):
        """Every public function, class and method under ``src/repro`` is
        used by name somewhere outside ``tests/`` -- a name only tests
        reach is surface nothing runs.  ``_KEEP`` and ``_DEFERRED`` hold the
        exceptions, and each of their entries must still be defined and
        still unused."""
        defined = _definitions()
        used = {name for path in _non_test_files() for name in _uses(path)}
        unused = {q for q in defined if q.rsplit(".", 1)[-1] not in used}
        excused = _KEEP.keys() | _DEFERRED.keys()
        dead = sorted(f"{q} ({defined[q]})" for q in unused - excused)
        assert not dead, f"public names only tests use: {dead}"
        stale = sorted(excused - unused)
        assert not stale, f"exceptions undefined or used outside tests: {stale}"

    def test_doc_dotted_names_resolve(self):
        """Every backticked ``repro.``-dotted name in the documentation is
        a module, or an attribute reached from one by ``getattr``; every
        backticked ``Class.attr`` whose ``Class`` is a public class under
        ``src/repro`` names one of its attributes, dataclass fields or
        ``self.<attr>`` assignments (its bases' included)."""
        fence = re.compile(r"^```.*?^```", re.S | re.M)
        span = re.compile(r"`([^`\n]+)`")
        dotted = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
        member = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")
        classes = _public_classes()
        unresolved = []
        for doc in _DOCS:
            text = fence.sub("", (REPO / doc).read_text())
            spans = span.findall(text)
            for name in {n for s in spans for n in dotted.findall(s)}:
                parts = name.split(".")
                cut = max(i for i in range(1, len(parts) + 1) if _module_file(".".join(parts[:i])))
                target = importlib.import_module(".".join(parts[:cut]))
                for attribute in parts[cut:]:
                    target = getattr(target, attribute, None)
                if target is None:
                    unresolved.append(f"{doc}: {name}")
            for owner, attribute in {m for s in spans for m in member.findall(s)}:
                if owner in classes and not any(
                    _has_member(cls, attribute) for cls in classes[owner]
                ):
                    unresolved.append(f"{doc}: {owner}.{attribute}")
        assert not unresolved, f"doc names that do not resolve: {sorted(unresolved)}"

    def test_every_public_module_has_docstring(self):
        import pkgutil

        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"
