"""There is one reference type, built in one place (``ast`` only).

The component iterator yields the very :class:`UnresolvedReference`
objects the pool holds; the engine stamps their placement and never
builds or copies one.  Two walks keep the prose rules checked:

* ``UnresolvedReference(`` is called in exactly one module under
  ``src/`` — the component iterator — and the name of the deleted
  precursor class appears nowhere;
* ``Assembly`` assigns at most 29 instance attributes, counting the
  ones it inherits from ``VolcanoIterator`` (docs/perf.md, "Do not
  ``vars()`` hot objects": 30 is CPython's key-sharing limit).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Set

from tests.test_one_pool import SRC, _calls_of

MAX_ENGINE_ATTRIBUTES = 29


def _instance_attributes(path: Path, class_name: str) -> Set[str]:
    """Names ``class_name`` (defined in ``path``) assigns on ``self``."""
    (cls,) = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    return {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def test_references_are_constructed_in_one_module():
    sources = sorted((SRC / "repro").rglob("*.py"))
    builders = [
        str(path.relative_to(SRC))
        for path in sources
        if _calls_of(path, "UnresolvedReference")
    ]
    assert builders == ["repro/core/component_iterator.py"]
    assert [
        str(path.relative_to(SRC))
        for path in sources
        if "ChildReference" in path.read_text()
    ] == []


def test_the_engine_stays_under_the_key_sharing_limit():
    repro = SRC / "repro"
    attributes = _instance_attributes(
        repro / "core" / "assembly.py", "Assembly"
    ) | _instance_attributes(repro / "iterator.py", "VolcanoIterator")
    assert len(attributes) <= MAX_ENGINE_ATTRIBUTES, sorted(attributes)
