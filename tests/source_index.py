"""The repository's Python sources, read and parsed once per session.

The ``ast`` audits (layering, unused imports, builtin raises, the one
pool and one reference, trace kinds, operators, traffic) all read the
same files.  They share this index instead of each walking the tree
with its own ``rglob`` + ``ast.parse`` loop: a file is parsed once, and
what audits ask of every file — its nodes, the names it uses — is
computed once.  The trees are shared, so no audit may change them.
"""

from __future__ import annotations

import ast
from functools import cached_property, lru_cache
from pathlib import Path
from typing import FrozenSet, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


class SourceFile:
    """One parsed file: its path, text and tree, plus what audits read
    off every file."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.text = path.read_text()
        self.tree = ast.parse(self.text, filename=str(path))

    @cached_property
    def nodes(self) -> Tuple[ast.AST, ...]:
        """Every node of the tree, in ``ast.walk`` order."""
        return tuple(ast.walk(self.tree))

    @cached_property
    def names(self) -> FrozenSet[str]:
        """Every name the file uses: bare names and attribute names
        (calls, base classes and plain references alike; imports do
        not count)."""
        return frozenset(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in self.nodes
            if isinstance(node, (ast.Name, ast.Attribute))
        )


@lru_cache(maxsize=None)
def source(path: Path) -> SourceFile:
    """The parsed file at ``path``."""
    return SourceFile(path)


@lru_cache(maxsize=None)
def sources(*directories: str) -> Tuple[SourceFile, ...]:
    """Every ``.py`` file under each directory (relative to the
    repository root), sorted by path within each directory."""
    return tuple(
        source(path)
        for directory in directories
        for path in sorted((ROOT / directory).rglob("*.py"))
    )


def package() -> Tuple[SourceFile, ...]:
    """Every module under ``src/repro``."""
    return sources("src/repro")
