"""Every name a module in src/migopt or tests/ imports is read somewhere in
that module, or listed in its `__all__`. `from __future__` imports bind
no name and are skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


def test_unused_imports_are_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from re import sub\n"
        "__all__ = ['sub']\n"
        "def f():\n"
        "    from math import pi\n"
        "    return np.zeros(1), loads\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (8, "pi")]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "migopt").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imported but never read: " + ", ".join(found)
