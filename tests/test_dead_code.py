"""Dead-code guard over the library: unused imports, unused private names,
and public names that nothing but the tests reads."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planeperm"


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


def _public_definitions(tree: ast.Module):
    """(name, first line, last line, is a method, is a click command) of each
    public module-level function or class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            command = any(
                "command" in ast.unparse(d) or "group" in ast.unparse(d)
                for d in node.decorator_list
            )
            yield node.name, node.lineno, node.end_lineno, False, command
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno, True, False


def _reads(tree: ast.Module):
    """(name, line, is an attribute) of each ``Name`` or ``Attribute`` load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def unread_public_names(modules: dict[str, str], kept: set[str]) -> list[str]:
    """``<file>: unread public name <name>`` for each public function, class
    or method that the library never reads outside its own definition, unless
    it is a click command or its name is in ``kept``.  A method is read only
    as an attribute; a bare name of the same word is some other variable."""
    reads = {name: list(_reads(ast.parse(text))) for name, text in modules.items()}
    found = []
    for name, text in modules.items():
        for bound, first, last, method, command in _public_definitions(ast.parse(text)):
            if command or bound in kept:
                continue
            if not any(
                read == bound
                and (attribute or not method)
                and (key != name or not first <= line <= last)
                for key, loads in reads.items()
                for read, line, attribute in loads
            ):
                found.append(f"{name}: unread public name {bound}")
    return found


def kept_names() -> set[str]:
    """Public names with readers outside the library: the package exports,
    every identifier in a README code block, and what the benchmark calls.
    The benchmark's files are read, never written: every part of a tracer
    target (``module:Class.method``) and every attribute they load, which
    covers both ``module.name`` and methods such as ``table.total()``."""
    init = ast.parse((SRC / "__init__.py").read_text())
    kept = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M):
        kept |= set(re.findall(r"[A-Za-z_]\w*", block))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if path.name == "tracing.py" and ":" in node.value:
                    kept |= set(node.value.split(":", 1)[1].split("."))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                kept.add(node.attr)
    return kept


def test_no_unused_imports():
    assert unused_imports(_modules()) == []


def test_no_unused_private_names():
    assert unused_private_names(_modules()) == []


def test_every_public_name_is_read():
    assert unread_public_names(_modules(), kept_names()) == []


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
    public = {
        "a.py": (
            "import click\n"
            "def used():\n"
            "    return 1\n"
            "def lonely():\n"
            "    return lonely()\n"
            "def exported():\n"
            "    pass\n"
            "@click.command()\n"
            "def cmd():\n"
            "    pass\n"
            "class Box:\n"
            "    def open(self):\n"
            "        return self.close()\n"
            "    def close(self):\n"
            "        return Box\n"
            "    def rows(self):\n"
            "        return 0\n"
        ),
        "b.py": "from .a import Box, used\nrows = used(Box)\nprint(rows)\n",
    }
    assert unread_public_names(public, {"exported"}) == [
        "a.py: unread public name lonely",
        "a.py: unread public name open",
        "a.py: unread public name rows",
    ]
