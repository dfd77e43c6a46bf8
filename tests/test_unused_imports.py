"""No unused module-level import under ``src/repro`` (``ast`` only).

The sandbox's stand-in for ruff's ``F401``, which CI runs: a name a
module imports at top level must be read somewhere in that module.
``__init__.py`` files are exempt (their imports are the re-exports).
A string constant that parses as an expression counts as a read of the
names in it, which covers quoted annotations and ``__all__`` entries.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parents[1] / "src"


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
