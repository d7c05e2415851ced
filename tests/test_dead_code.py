"""Dead-code guard over the library: unused imports and unused private names."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "planeperm"


def _modules() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(modules: dict[str, str]) -> list[str]:
    """``<file>: unused import <name>`` for each imported name never read."""
    found = []
    for name, text in modules.items():
        tree = ast.parse(text)
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.append((alias.asname or alias.name).split(".")[0])
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = _exported(tree)
        found += [
            f"{name}: unused import {bound}"
            for bound in imported
            if bound not in read and bound not in exported
        ]
    return found


def _private_definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level ``_x`` binding."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for bound in names:
            if bound.startswith("_") and not bound.endswith("__"):
                yield bound, node.lineno, node.end_lineno


def unused_private_names(modules: dict[str, str]) -> list[str]:
    """``<file>: unused private name <name>`` for each module-level ``_x``
    that appears nowhere in the library outside its own definition."""
    found = []
    for name, text in modules.items():
        for bound, first, last in _private_definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(bound)}\b")
            uses = sum(
                len(word.findall(other)) for key, other in modules.items() if key != name
            )
            uses += sum(
                len(word.findall(line))
                for number, line in enumerate(text.splitlines(), 1)
                if not first <= number <= last
            )
            if not uses:
                found.append(f"{name}: unused private name {bound}")
    return found


def test_no_unused_imports():
    assert unused_imports(_modules()) == []


def test_no_unused_private_names():
    assert unused_private_names(_modules()) == []


def test_guard_reports_what_it_finds():
    modules = {
        "a.py": (
            "from __future__ import annotations\n"
            "from .b import kept, dropped, exported\n"
            "__all__ = ['exported']\n"
            "def _dead():\n"
            "    return _dead()\n"
            "def _alive():\n"
            "    return kept\n"
        ),
        "b.py": "from .a import _alive\n_alive()\n",
    }
    assert unused_imports(modules) == ["a.py: unused import dropped"]
    assert unused_private_names(modules) == ["a.py: unused private name _dead"]
