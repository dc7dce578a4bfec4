"""Every name a teleion module imports is used there.

An import kept only for an outside reader of the binding says so with
`# noqa: F401` on its line; the package's re-exports are its `__all__`.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "teleion"


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
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
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
