"""The three ruff rules CI selects beyond syntax, as ``ast`` walks.

The sandbox has no ruff; these are its stand-ins, so what CI rejects
fails tier-1 first.

* ``F401`` — a name a module under ``src/repro`` imports at top level
  must be read somewhere in that module.  ``__init__.py`` files are
  exempt (their imports are the re-exports).  A string constant that
  parses as an expression counts as a read of the names in it, which
  covers quoted annotations and ``__all__`` entries.
* ``B006`` — no list, dict, set or comprehension as an argument
  default, anywhere in ``src``, ``tests``, ``benchmarks``, ``examples``.
* ``F841`` — in the same trees, a local a function binds (by plain or
  annotated assignment, ``with … as`` or ``except … as``) must be read
  somewhere in that function.  As in ruff, tuple unpacking, ``_``-names,
  ``global`` / ``nonlocal`` names and functions that call ``locals()``
  are exempt, and an augmented assignment counts as a read.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Where the rules without a ``src``-only exemption look.
TREES = ("src", "tests", "benchmarks", "examples")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)
_MUTABLE = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Name bound by a module-level import → its line."""
    bound: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.AST) -> Set[str]:
    """Every name read in ``tree``, quoted expressions included."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _read(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def test_no_unused_module_level_imports():
    offenders: List[str] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _read(tree)
        offenders += [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in read
        ]
    assert not offenders, (
        f"{len(offenders)} unused imports:\n" + "\n".join(offenders)
    )


def _modules() -> Iterator[Tuple[str, ast.Module]]:
    """``(repo-relative path, parsed module)`` of every file in TREES."""
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            yield str(path.relative_to(ROOT)), ast.parse(path.read_text())


def _mutable_defaults(tree: ast.AST) -> List[int]:
    """Lines of argument defaults that are mutable displays."""
    return [
        default.lineno
        for node in ast.walk(tree)
        if isinstance(node, _FUNCTIONS + (ast.Lambda,))
        for default in node.args.defaults + node.args.kw_defaults
        if isinstance(default, _MUTABLE)
    ]


def _own_scope(function: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``function``'s own scope: nested scopes are yielded
    but not entered."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(function: ast.AST) -> List[Tuple[str, int]]:
    """``(name, line)`` of locals ``function`` binds and never reads."""
    bound: Dict[str, int] = {}
    for node in _own_scope(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        elif isinstance(node, ast.withitem):
            targets = [node.optional_vars]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, target.lineno)
    read: Set[str] = set()
    for node in ast.walk(function):  # closures read the enclosing locals
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            read.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            read.update(node.names)
    if "locals" in read:
        return []
    return [
        (name, line)
        for name, line in bound.items()
        if name not in read and not name.startswith("_")
    ]


def test_no_mutable_argument_defaults():
    offenders = [
        f"{path}:{line}"
        for path, tree in _modules()
        for line in _mutable_defaults(tree)
    ]
    assert not offenders, (
        f"{len(offenders)} mutable argument defaults:\n" + "\n".join(offenders)
    )


def test_no_local_assigned_and_never_read():
    offenders = [
        f"{path}:{line}: {name}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, _FUNCTIONS)
        for name, line in _unused_locals(node)
    ]
    assert not offenders, (
        f"{len(offenders)} unused locals:\n" + "\n".join(offenders)
    )


_OFFENDING = """
def f(a, b=[], *, c={k: 1 for k in ()}, d=None, e=()):
    unused = a
    kept = 1
    total = 0
    total += kept
    first, second = a
    _scratch = 2
    with open(a) as handle:
        pass
    try:
        pass
    except ValueError as error:
        pass
    def inner():
        return closed_over
    closed_over = 3
    return inner
"""


def test_the_walks_catch_what_they_claim_to():
    """The guards land on a clean tree; this is what they would catch."""
    tree = ast.parse(_OFFENDING)
    assert _mutable_defaults(tree) == [2, 2]
    assert sorted(_unused_locals(tree.body[0])) == [
        ("error", 13), ("handle", 9), ("unused", 3),
    ]
