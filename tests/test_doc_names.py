"""Every code name the docs cite resolves in the tree (``ast`` only).

README.md, DESIGN.md and ``docs/*.md`` (not ``docs/perf.md``, ROADMAP
item 15 rewrites it) name classes, modules and their members in
backticks.  Each backticked dotted name whose first part is a class or
a module under ``src/repro`` must resolve, part by part: a module's
part is a submodule or a name it defines or imports; a class's part is
a method, attribute or nested class defined in its body, assigned to
``self`` in one of its methods, or found on one of its bases.  Fenced
code blocks are not read (``tests/test_readme.py`` runs the README's).
So a deleted or renamed function fails here, not in a reader's hands.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from typing import Dict, FrozenSet, List, Set, Tuple

from tests.source_index import PACKAGE, ROOT, package

#: The documents checked.
DOCS = ("README.md", "DESIGN.md", "docs/*.md")
#: Left out: item 15 rewrites it.
EXEMPT = ("docs/perf.md",)

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
#: Suffixes that make a dotted span a file name, not a code name.
FILES = ("py", "md", "json", "jsonl", "txt", "yml", "csv")


class Namespace:
    """A module or a class: the names it holds, and the namespaces
    some of them are."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.inner: Dict[str, List["Namespace"]] = {}
        self.bases: List[str] = []


def _targets(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _class(node: ast.ClassDef) -> Namespace:
    space = Namespace()
    space.bases = [
        getattr(base, "id", getattr(base, "attr", "")) for base in node.bases
    ]
    for statement in node.body:
        space.names.update(_targets(statement))
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            space.names.add(statement.name)
    for child in ast.walk(node):
        target = getattr(child, "target", None)
        for assigned in getattr(child, "targets", [target]):
            if (
                isinstance(assigned, ast.Attribute)
                and isinstance(assigned.value, ast.Name)
                and assigned.value.id == "self"
            ):
                space.names.add(assigned.attr)
    return space


@lru_cache(maxsize=None)
def index() -> Tuple[Dict[str, List[Namespace]], Dict[str, List[Namespace]]]:
    """``(modules by name, classes by name)`` under ``src/repro``; a
    package is a module whose submodules are names of it."""
    modules: Dict[str, List[Namespace]] = {}
    classes: Dict[str, List[Namespace]] = {}
    by_path: Dict[Tuple[str, ...], Namespace] = {}
    for file in package():
        parts = file.path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = by_path.setdefault(parts, Namespace())
        modules.setdefault(parts[-1], []).append(module)
        for node in file.tree.body:
            module.names.update(_targets(node))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module.names.update(
                    (a.asname or a.name).split(".")[0] for a in node.names
                )
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module.names.add(node.name)
        for node in file.nodes:
            if isinstance(node, ast.ClassDef):
                space = _class(node)
                classes.setdefault(node.name, []).append(space)
                if node in file.tree.body:
                    module.inner.setdefault(node.name, []).append(space)
    for parts, module in by_path.items():
        if len(parts) > 1:
            parent = by_path[parts[:-1]]
            parent.names.add(parts[-1])
            parent.inner.setdefault(parts[-1], []).append(module)
    return modules, classes


def _has(
    space: Namespace, name: str, seen: FrozenSet[int] = frozenset()
) -> bool:
    """``name`` is in ``space`` or, for a class, on a base of it."""
    if name in space.names:
        return True
    classes = index()[1]
    return any(
        _has(base, name, seen | {id(space)})
        for base_name in space.bases
        for base in classes.get(base_name, ())
        if id(base) not in seen
    )


def unresolved(dotted: str) -> bool:
    """Does a dotted name that starts at a module or class under
    ``src/repro`` miss somewhere along its parts?"""
    modules, classes = index()
    first, *rest = dotted.split(".")
    spaces = modules.get(first, []) + classes.get(first, [])
    for part in rest:
        if not spaces:
            return False  # resolved to a function or a value: stop
        holders = [space for space in spaces if _has(space, part)]
        if not holders:
            return True
        spaces = [
            inner
            for space in holders
            for inner in space.inner.get(part, classes.get(part, []))
        ]
    return False


def doc_names(text: str) -> List[str]:
    """The dotted names backticked outside fenced code blocks."""
    found = []
    for span in _SPAN.findall(_FENCE.sub("", text)):
        match = _DOTTED.match(span.strip())
        if match and not match.group(0).endswith(FILES) and "/" not in span:
            found.append(match.group(0))
    return found


def documents() -> List[str]:
    return sorted(
        str(path.relative_to(ROOT))
        for pattern in DOCS
        for path in ROOT.glob(pattern)
        if str(path.relative_to(ROOT)) not in EXEMPT
    )


def test_every_cited_name_resolves():
    missing = [
        f"{doc}: {name}"
        for doc in documents()
        for name in doc_names((ROOT / doc).read_text())
        if unresolved(name)
    ]
    assert missing == [], f"names the tree no longer has: {missing}"


def test_the_scope_is_the_prose_docs():
    docs = documents()
    assert "README.md" in docs and "docs/service.md" in docs
    assert "docs/perf.md" not in docs


def test_resolution_bites():
    """A deleted method, a member of a nested module and an inherited
    method are told apart; names outside ``src/repro`` are not read."""
    assert not unresolved("ObjectStore.fetch_pinned")
    assert unresolved("ObjectStore.fetch_everything")
    assert not unresolved("repro.storage.store.ObjectStore.fetch_pinned")
    assert unresolved("storage.store.NoSuchThing")
    assert not unresolved("ElevatorScheduler.add_siblings")  # on the base
    assert not unresolved("AssemblyService.metrics")  # assigned to self
    assert not unresolved("os.path.join")
    assert doc_names(
        "`A.b()`, `a.py`, `src/a.b`\n```\n`C.d`\n```\n`e`"
    ) == ["A.b"]
