"""Public-API surface tests: imports, exports, and basic composition."""

import ast
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

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"
