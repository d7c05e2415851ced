"""Dead-code guard over the library: unused imports, unused private names,
public names that nothing but the tests reads, and parameters with a default
that no call in the library or the benchmark passes.  It also refuses any
``assert`` statement in the library, since ``python -O`` strips them."""

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


def _optional_parameters(tree: ast.Module):
    """(function, parameter, position) of each parameter with a default in a
    module-level function or a method.  A method's positions skip ``self`` or
    ``cls``; a keyword-only parameter has no position."""
    for node in tree.body:
        in_class = isinstance(node, ast.ClassDef)
        for fn in node.body if in_class else [node]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
            skip = int(in_class and not static)
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            for t, arg in enumerate(positional[first_default:], first_default):
                yield fn.name, arg.arg, t - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def unpassed_parameters(library: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``<file>: <function>(<param>) is never passed`` for each parameter with
    a default that no call in ``callers`` passes, by keyword, by position or
    through ``**kwargs``.  A call is matched by the name it calls."""
    passed: dict[str | None, set] = {}
    for text in callers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                got = passed.setdefault(called, set())
                got.update(range(len(node.args)))
                got.update("*" for a in node.args if isinstance(a, ast.Starred))
                got.update(k.arg or "**" for k in node.keywords)
    found = []
    for name, text in library.items():
        for function, param, position in _optional_parameters(ast.parse(text)):
            ways = {param, "**"} | ({position, "*"} if position is not None else set())
            if not passed.get(function, set()) & ways:
                found.append(f"{name}: {function}({param}) is never passed")
    return found


def assert_statements(modules: dict[str, str]) -> list[str]:
    """``<file>:<line>: assert`` for each ``assert`` statement."""
    return [
        f"{name}:{node.lineno}: assert"
        for name, text in modules.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
    ]


def _callers() -> dict[str, str]:
    """The library and the benchmark, which is read, never written."""
    bench = {
        f"perfbench/{path.name}": path.read_text()
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    }
    return {**_modules(), **bench}


def test_no_unused_imports():
    assert unused_imports(_modules()) == []


def test_no_unused_private_names():
    assert unused_private_names(_modules()) == []


def test_every_public_name_is_read():
    assert unread_public_names(_modules(), kept_names()) == []


def test_every_optional_parameter_is_passed():
    assert unpassed_parameters(_modules(), _callers()) == []


def test_no_assert_statements():
    assert assert_statements(_modules()) == []


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


def test_parameter_guard_reports_what_it_finds():
    library = {
        "a.py": (
            "def f(x, by_position=1, by_keyword=2, lonely=3, *, alone=4):\n"
            "    return x\n"
            "def g(x, starred=1, *, kw_only=2):\n"
            "    return x\n"
            "def h(x, spread=1, *, also=2):\n"
            "    return x\n"
            "class Box:\n"
            "    def open(self, wide=False, lid=None):\n"
            "        return wide\n"
            "    @staticmethod\n"
            "    def make(size=1):\n"
            "        return size\n"
        ),
        "b.py": "from .a import f, h\nf(0, 1, by_keyword=2)\nh(0, **options)\n",
    }
    callers = {
        "b.py": library["b.py"],
        "c.py": "g(*args)\nbox.open(True)\nBox.make()\n",
    }
    assert unpassed_parameters(library, callers) == [
        "a.py: f(lonely) is never passed",
        "a.py: f(alone) is never passed",
        "a.py: g(kw_only) is never passed",
        "a.py: open(lid) is never passed",
        "a.py: make(size) is never passed",
    ]


def test_assert_guard_reports_what_it_finds():
    modules = {
        "a.py": "def f(x):\n    assert x, 'checked'\n    return x\n",
        "b.py": "def g(x):\n    if not x:\n        raise ValueError('checked')\n",
    }
    assert assert_statements(modules) == ["a.py:2: assert"]
