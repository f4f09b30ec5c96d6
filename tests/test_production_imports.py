"""Every ``src/repro`` module is reachable from a production entry point.

Code kept only as a test reference (an alternate implementation, a
comparator baseline) belongs beside the tests that use it, not in the
shipped package.  This test walks the import graph by AST from the
production roots — the library API, the CLI, the examples and
``perfbench/`` — and fails on any ``src/repro`` module the walk does
not reach.

Imports inside functions count.  A name imported through a package
``__init__`` counts for the submodule that defines it; the
``__init__``'s own re-exports do not make a module reachable, so an
``__init__`` that re-exports a test-only module does not hide it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def production_roots() -> list[pathlib.Path]:
    return [SRC / "repro" / "api.py", SRC / "repro" / "cli.py",
            *sorted((ROOT / "examples").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py"))]


def module_files() -> dict[str, pathlib.Path]:
    """Dotted module name -> file, for every module of ``repro``."""
    files = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


class ImportGraph:
    def __init__(self):
        self.files = module_files()
        self.trees: dict[str, ast.Module] = {}
        self.reached: set[str] = set()
        self._resolving: set[tuple[str, str]] = set()

    def tree(self, module: str) -> ast.Module:
        if module not in self.trees:
            self.trees[module] = ast.parse(self.files[module].read_text())
        return self.trees[module]

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def walk(self, roots: list[pathlib.Path]) -> set[str]:
        modules = {file: module for module, file in self.files.items()}
        for path in roots:
            if path in modules:
                self.reach(modules[path])
            else:
                self._follow(ast.parse(path.read_text()), None, nested=False)
        return self.reached

    def reach(self, module: str) -> None:
        """``module`` is imported: its packages run, its body runs."""
        parts = module.split(".")
        for end in range(1, len(parts)):
            self._enter_package(".".join(parts[:end]))
        if self.is_package(module):
            self._enter_package(module)
        elif module not in self.reached:
            self.reached.add(module)
            self._follow(self.tree(module), module, nested=False)

    def _enter_package(self, package: str) -> None:
        # an __init__ runs, but only imports inside its own functions
        # are followed; its top-level re-exports are resolved per name
        if package not in self.reached:
            self.reached.add(package)
            self._follow(self.tree(package), package, nested=True)

    def _follow(self, tree, module, nested: bool) -> None:
        nodes = ast.walk(tree)
        if nested:
            nodes = (node for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                     for node in ast.walk(fn))
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.files:
                        self.reach(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(node, module)
                if source not in self.files:
                    continue
                for alias in node.names:
                    self.import_name(source, alias.name)

    def _absolute(self, node: ast.ImportFrom, module) -> str:
        if not node.level:
            return node.module or ""
        package = module if module and self.is_package(module) \
            else (module or "").rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return ".".join(p for p in (package, node.module) if p)

    def import_name(self, source: str, name: str) -> None:
        """``from source import name``."""
        submodule = f"{source}.{name}"
        if submodule in self.files:
            self.reach(submodule)
            return
        self.reach(source)
        if not self.is_package(source) or (source, name) in self._resolving:
            return
        self._resolving.add((source, name))
        for node in self.tree(source).body:
            if isinstance(node, ast.ImportFrom):
                origin = self._absolute(node, source)
                for alias in node.names:
                    if (alias.asname or alias.name) == name and \
                            origin in self.files:
                        self.import_name(origin, alias.name)


def test_every_module_serves_a_production_caller():
    reached = ImportGraph().walk(production_roots())
    unreached = sorted(set(module_files()) - reached)
    assert not unreached, (
        "src/repro modules no production entry point imports: "
        f"{unreached}; move test-only code beside its tests")


def test_a_reexport_alone_does_not_reach_a_module(tmp_path):
    """The walk itself: a package re-export of an unused submodule
    does not count, a name imported through the package does."""
    graph = ImportGraph()
    graph.files = {
        "pkg": tmp_path / "pkg" / "__init__.py",
        "pkg.used": tmp_path / "pkg" / "used.py",
        "pkg.unused": tmp_path / "pkg" / "unused.py",
        "pkg.lazy": tmp_path / "pkg" / "lazy.py",
    }
    sources = {
        "pkg": ("from pkg.used import Used\n"
                "from pkg.unused import Unused\n"),
        "pkg.used": "def Used():\n    from pkg import lazy\n",
        "pkg.unused": "class Unused: pass\n",
        "pkg.lazy": "",
    }
    for module, text in sources.items():
        graph.files[module].parent.mkdir(exist_ok=True)
        graph.files[module].write_text(text)
    root = tmp_path / "main.py"
    root.write_text("from pkg import Used\n")
    assert graph.walk([root]) == {"pkg", "pkg.used", "pkg.lazy"}
