"""Source hygiene: no imported name left unused, no function local left unread.

A static scan with `ast` over the library and the test modules.  An import
counts as used when its bound name is read anywhere in the module (or listed
in `__all__`); a function local counts as read when any code inside the
function, nested closures included, loads it.  Names starting with an
underscore are deliberate placeholders and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "deconv").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _loaded(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unused_imports(tree: ast.Module) -> list:
    used = _loaded(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"line {node.lineno}: import {name}")
    return unused


def _own_stores(func) -> dict:
    """Names the function itself assigns (nested defs keep their own)."""
    stores = {}
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, node.lineno)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                stores[name] = None
        todo.extend(ast.iter_child_nodes(node))
    return {k: v for k, v in stores.items() if v is not None}


def _unread_locals(tree: ast.Module) -> list:
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = _loaded(func)
        loaded |= {n.target.id for n in ast.walk(func)
                   if isinstance(n, ast.AugAssign)
                   and isinstance(n.target, ast.Name)}
        for name, line in _own_stores(func).items():
            if not name.startswith("_") and name not in loaded:
                unread.append(f"line {line}: {func.name}.{name}")
    return unread


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports_or_unread_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = _unused_imports(tree) + _unread_locals(tree)
    assert problems == [], f"{path.name}: {problems}"
