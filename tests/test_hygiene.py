"""Static checks on the source tree, with the standard library's ``ast`` only:
no unused imports, no module-level private name of the package that nothing
in ``src/`` uses, and no function in ``src/`` with a parameter its body
never reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _files(*dirs):
    return sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every name a module reads, attribute names included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported_names(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


# A package's __init__.py imports its public names for re-export.
@pytest.mark.parametrize(
    "path",
    [p for p in _files("src", "tests", "scripts") if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """Module-level private names: functions, classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_name_is_used_in_src():
    trees = {path: _tree(path) for path in _files("src")}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    dead = [
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not dead, f"private names nothing in src/ uses: {dead}"


def _unread_parameters(tree):
    """(function, parameter) of each parameter, ``self`` and ``cls`` aside,
    that nothing in its function's body reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        params = [a.arg for a in every if a]
        read = _used_names(ast.Module(body=node.body, type_ignores=[]))
        yield from ((node.name, p) for p in params if p not in ("self", "cls") and p not in read)


def test_every_parameter_is_read():
    unread = [
        f"{path.name}: {func}({param})"
        for path in _files("src")
        for func, param in _unread_parameters(_tree(path))
    ]
    assert not unread, f"parameters their functions never read: {unread}"
