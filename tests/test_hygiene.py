"""Static checks on the source tree, with the standard library's ``ast`` only:
no unused imports, no module-level private name of the package that nothing
in ``src/`` uses, no function in ``src/`` with a parameter its body never
reads, no random draw in ``src/`` outside a seeded generator, no file opened
outside ``harness.py`` and ``channel.py``, no JSON write in ``src/``
that allows NaN, and no DropLp solve in ``power_assoc.py`` or ``maxmin.py``
that takes a scenario or an optional antenna count. One more check imports the
package: every dotted name README.md gives of it resolves."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import mimopower

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


# The modules whose solves take a DropLp, which holds its drop's scenario,
# and the cell's antenna count beside it.
DROP_LP_MODULES = ("power_assoc.py", "maxmin.py")


def _drop_lp_signature_faults(tree):
    """(function, fault) of each function that gives ``num_antennas`` a
    default, or that takes both a DropLp and a NetworkScenario: a parameter
    counts as one when so annotated, or when named ``lp`` or ``scenario``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = (*args.posonlyargs, *args.args)
        defaults = dict(zip(reversed(positional), reversed(args.defaults)))
        defaults.update((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        kinds = set()
        for a in (*positional, *args.kwonlyargs):
            if a.arg == "num_antennas" and a in defaults:
                yield node.name, "num_antennas has a default"
            kinds.add({"lp": "DropLp", "scenario": "NetworkScenario"}.get(a.arg))
            kinds.add(ast.unparse(a.annotation).strip("'\"") if a.annotation else None)
        if {"DropLp", "NetworkScenario"} <= kinds:
            yield node.name, "takes a DropLp and a NetworkScenario"


def test_drop_lp_solves_take_no_scenario_and_a_required_antenna_count():
    """A DropLp holds its drop, so a solve of one takes no scenario beside
    it, and the cell's antenna count is always passed: no optional count
    can fall back on a scenario's."""
    faults = [
        f"{path.name}: {func}: {fault}"
        for path in _files("src")
        if path.name in DROP_LP_MODULES
        for func, fault in _drop_lp_signature_faults(_tree(path))
    ]
    assert not faults, f"DropLp signature faults: {faults}"


def test_drop_lp_check_sees_each_fault():
    tree = ast.parse(
        "def solve(lp, targets, num_antennas=None): ...\n"
        "def bound(lp: 'DropLp', *, num_antennas=1): ...\n"
        "def probe(drop: DropLp, scn: NetworkScenario, num_antennas): ...\n"
        "def scale(lp, scenario): ...\n"
        "def fine(lp: DropLp, num_antennas: int, weights=None): ...\n"
    )
    assert list(_drop_lp_signature_faults(tree)) == [
        ("solve", "num_antennas has a default"),
        ("bound", "num_antennas has a default"),
        ("probe", "takes a DropLp and a NetworkScenario"),
        ("scale", "takes a DropLp and a NetworkScenario"),
    ]


# numpy.random names that build or seed an explicit generator; every other
# name there is the legacy global-state API (np.random.seed, rand, normal, ...).
SEEDED_RNG_NAMES = {"default_rng", "Generator", "PCG64", "SeedSequence"}


def _global_rng_uses(tree):
    """(line, name) of each use of numpy's legacy global RNG or of the
    standard library's ``random`` module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                yield node.lineno, "import random"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node.lineno, "from random import ..."
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in SEEDED_RNG_NAMES:
                        yield node.lineno, f"numpy.random.{alias.name}"
            elif node.module == "numpy" and any(a.name == "random" for a in node.names):
                yield node.lineno, "from numpy import random"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
            and node.attr not in SEEDED_RNG_NAMES
        ):
            yield node.lineno, f"np.random.{node.attr}"


def test_src_draws_only_from_seeded_generators():
    """Every draw comes from a generator built from explicit seeds, so that
    outputs depend on the seeds alone and not on hidden global state."""
    uses = [
        f"{path.name}:{line}: {name}"
        for path in _files("src")
        for line, name in _global_rng_uses(_tree(path))
    ]
    assert not uses, f"random draws outside a seeded generator: {uses}"


# Every file mimopower writes comes from harness.emit_results or
# channel.save_scenario, and every file it reads from channel.load_scenario.
FILE_MODULES = {"harness.py", "channel.py"}


def _file_calls(tree):
    """(line, name) of each call to ``open`` or ``makedirs``, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("open", "makedirs"):
                yield node.lineno, name


def test_only_harness_and_channel_touch_files():
    """The CLI parses, calls the library and prints; it opens no file."""
    calls = [
        f"{path.name}:{line}: {name}"
        for path in _files("src")
        if path.name not in FILE_MODULES
        for line, name in _file_calls(_tree(path))
    ]
    assert not calls, f"file access outside {sorted(FILE_MODULES)}: {calls}"


def test_file_check_sees_open_and_makedirs():
    tree = ast.parse("import os\nos.makedirs(d)\nwith open(p, 'w') as fh:\n    fh.write(t)\n")
    assert list(_file_calls(tree)) == [(2, "makedirs"), (3, "open")]


def _json_writes(tree):
    """(line, name, strict) of each ``json.dump`` or ``json.dumps`` call, where
    strict means it passes ``allow_nan=False``."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr in ("dump", "dumps")
            and getattr(func.value, "id", None) == "json"
        ):
            strict = any(
                kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in node.keywords
            )
            yield node.lineno, func.attr, strict


def test_json_writes_reject_nan():
    """NaN and infinities are not JSON, so a file or line mimopower writes that
    holds one raises instead of failing a strict parser later."""
    writes = [(path.name, *w) for path in _files("src") for w in _json_writes(_tree(path))]
    assert writes, "src/ writes no JSON: the check checks nothing"
    loose = [f"{name}:{line}: json.{func}" for name, line, func, strict in writes if not strict]
    assert not loose, f"json writes without allow_nan=False: {loose}"


def test_json_check_sees_a_missing_flag():
    tree = ast.parse("json.dump(r, fh, allow_nan=False)\njson.dumps(r)\njson.dumps(r, allow_nan=True)\n")
    assert list(_json_writes(tree)) == [(1, "dump", True), (2, "dumps", False), (3, "dumps", False)]


def _package_roots():
    """The names a README reference may start with: the package, each of
    its modules, and each class they define."""
    modules = {"mimopower": mimopower}
    for info in pkgutil.iter_modules(mimopower.__path__):
        modules[info.name] = importlib.import_module(f"mimopower.{info.name}")
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__.startswith("mimopower.")
    }
    return {**modules, **classes}


def _init_assigns(cls, name):
    """Whether the class's own ``__init__`` assigns ``self.<name>``."""
    init = cls.__dict__.get("__init__")
    try:
        source = inspect.getsource(init)
    except (OSError, TypeError):  # no ``__init__`` of its own, or a dataclass's generated one
        return False
    tree = ast.parse(textwrap.dedent(source))
    return any(
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr == name
        for node in ast.walk(tree)
    )


def _resolves(obj, parts):
    """Whether ``parts`` name attributes down from ``obj``: a module's by
    getattr, a class's as a dataclass field, a class attribute or a
    ``self.<name> =`` in its ``__init__``."""
    for i, part in enumerate(parts):
        if inspect.isclass(obj) and not hasattr(obj, part):
            fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
            # an instance attribute: nothing further to follow
            return (part in fields or _init_assigns(obj, part)) and i == len(parts) - 1
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _unresolved_references(text, roots):
    """The backticked dotted names in ``text`` that start with a name in
    ``roots`` but do not resolve, and how many such references it holds.
    Others, such as the file name ``config.json``, are not the package's."""
    refs = [
        name
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
        if name.split(".")[0] in roots
    ]
    unresolved = [name for name in refs if not _resolves(roots[name.split(".")[0]], name.split(".")[1:])]
    return unresolved, len(refs)


def test_readme_references_resolve():
    roots = _package_roots()
    unresolved, count = _unresolved_references((ROOT / "README.md").read_text(), roots)
    assert count > 0, "README.md names nothing of the package: the check checks nothing"
    assert not unresolved, f"README.md names what the package does not have: {unresolved}"


def test_readme_check_catches_a_stale_name():
    text = "`DropLp.basis`, `DropLp.begin`, `power_assoc.DropLp.mask`, `se.gone`, `SweepSpec.gone`, `config.json`"
    assert _unresolved_references(text, _package_roots()) == (["DropLp.begin", "se.gone", "SweepSpec.gone"], 5)
