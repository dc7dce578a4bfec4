"""Every name a teleion module imports is used there, and every name it defines is used.

An import kept only for an outside reader of the binding says so with
`# noqa: F401` on its line; the package's re-exports are its `__all__`.
A top-level function, class or constant is named somewhere in the package
besides its own definition, or is in `__all__`.
Every function the benchmark traces (perfbench/spans.py) exists by the name
it traces. Every top-level name of the test-side oracles (tests/oracles.py)
is imported by some test module, so that no reference goes stale unseen.
"""
import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "teleion"
TESTS = Path(__file__).resolve().parent


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    """`file:line name` for each imported name that `path` never uses."""
    text = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(text), text.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = getattr(alias, "lineno", node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _all_names(tree)
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used | exported and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nimport json  # noqa: F401  kept for a reader\n"
        "from os import path, sep\n__all__ = ['sep']\nprint(path)\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == ["probe.py:1 math"]


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names bound to the package's own modules by `from . import trap [as t]`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }


def _mentions(node: ast.AST, modules: set[str]) -> Counter:
    """Names read in `node`: plain names, names imported from a package module,
    and attributes of a package module bound to a name in `modules`."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.level:
            names.update(alias.name for alias in sub.names)
    return names


def _definitions(tree: ast.Module):
    """(name, line, defining statement) for each top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id, node.lineno, node


def dead_definitions(package: Path) -> list[str]:
    """`file:line name` for each top-level definition in `package`/*.py that no
    other statement of the package names and no `__all__` exports."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    modules = {path: _module_aliases(tree) for path, tree in trees.items()}
    named, exported = Counter(), set()
    for path, tree in trees.items():
        named += _mentions(tree, modules[path])
        exported |= _all_names(tree)
    return [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line, node in _definitions(tree)
        if name not in exported and named[name] <= _mentions(node, modules[path])[name]
    ]


def test_every_defined_name_is_used():
    assert dead_definitions(SRC) == []


def test_the_check_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n__all__ = ['exported']\n"
        "LIMIT = 3\ndef exported(): return used(LIMIT)\ndef orphan(): return orphan()\n"
        # an attribute counts only on a package module: np.mean does not use b's mean
        "import numpy as np\nfrom . import b as bee\nprint(np.mean(bee.SCALE))\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "import math\nclass Unread: pass\ndef used(x): return math.sqrt(x)\n"
        "SCALE = 2\ndef mean(x): return x\n",
        encoding="utf-8",
    )
    assert dead_definitions(tmp_path) == ["a.py:5 orphan", "b.py:2 Unread", "b.py:5 mean"]


def unimported_oracles(tests: Path) -> list[str]:
    """`oracles.py:line name` for each top-level definition of `tests`/oracles.py
    that no `tests`/test_*.py module imports from `oracles`."""
    imported = {
        alias.name
        for path in sorted(tests.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    tree = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    return [f"oracles.py:{line} {name}" for name, line, _ in _definitions(tree) if name not in imported]


def test_every_oracle_is_imported_by_a_test():
    assert unimported_oracles(TESTS) == []


def test_the_check_sees_an_unimported_oracle(tmp_path):
    (tmp_path / "oracles.py").write_text("LIMIT = 3\ndef used(): pass\ndef stale(): pass\n", encoding="utf-8")
    (tmp_path / "test_a.py").write_text("from oracles import used\nimport oracles\n", encoding="utf-8")
    (tmp_path / "helper.py").write_text("from oracles import LIMIT\n", encoding="utf-8")
    assert unimported_oracles(tmp_path) == ["oracles.py:1 LIMIT", "oracles.py:3 stale"]


def test_every_function_the_benchmark_traces_exists():
    # perfbench/spans.install skips a function its module lacks, and that
    # function's per-layer metrics then read zero: a rename must fail here.
    spec = importlib.util.spec_from_file_location("spans", SRC.parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_FUNCTIONS
    for module, function in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), function, None)), f"{module}.{function}"
