"""Static audit: every Volcano operator class is registered everywhere.

The conformance harness only audits operators someone remembered to
list in ``OPERATOR_FACTORIES``, and ``explain`` only names operators
whose ``describe`` keeps its class name — neither failure is caught
when a new operator lands without the bookkeeping.  Mirroring the
trace-KINDS audit, this walks the AST of every module under
``src/repro/volcano``, collects the concrete :class:`VolcanoIterator`
subclasses, and fails if any is missing from ``repro.volcano.__all__``,
the lifecycle-conformance registry, or the ``explain()`` rendering.
"""

from __future__ import annotations

import ast
import importlib
import inspect

import repro.volcano
from repro.iterator import VolcanoIterator
from repro.volcano.plan import describe_operator, walk_plan

from test_conformance import OPERATOR_FACTORIES
from tests.source_index import PACKAGE, package

VOLCANO_SRC = PACKAGE / "volcano"


def operator_classes():
    """name -> class, for every concrete operator defined in volcano/."""
    classes = {}
    for file in package():
        path = file.path
        if path.parent != VOLCANO_SRC or path.name == "__init__.py":
            continue
        module = importlib.import_module(f"repro.volcano.{path.stem}")
        for node in file.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            obj = getattr(module, node.name, None)
            if (
                inspect.isclass(obj)
                and issubclass(obj, VolcanoIterator)
                and obj is not VolcanoIterator
                and not inspect.isabstract(obj)
                and obj.__module__ == module.__name__
            ):
                classes[node.name] = obj
    return classes


def audited_instances():
    """One representative instance per operator class the registry covers.

    Factories may return composed plans (e.g. the component filter over
    the assembly operator), so the whole plan tree counts as coverage.
    """
    instances = {}
    for factory in OPERATOR_FACTORIES.values():
        for _depth, operator in walk_plan(factory()):
            instances.setdefault(type(operator), operator)
    return instances


class TestOperatorAudit:
    def test_finds_the_operators(self):
        names = set(operator_classes())
        assert {"InterleavedAssemblies", "ComponentFilter", "ParallelAssembly"} <= names
        assert len(names) >= 11

    def test_every_operator_is_exported(self):
        missing = sorted(
            name
            for name in operator_classes()
            if name not in repro.volcano.__all__
        )
        assert not missing, (
            f"operator classes not exported from repro.volcano: {missing}"
        )

    def test_every_operator_is_conformance_audited(self):
        covered = audited_instances()
        missing = sorted(
            name
            for name, cls in operator_classes().items()
            if cls not in covered
        )
        assert not missing, (
            f"operator classes with no OPERATOR_FACTORIES instance "
            f"(add one to test_conformance.py): {missing}"
        )

    def test_every_operator_renders_its_class_in_explain(self):
        covered = audited_instances()
        wrong = {
            name: describe_operator(covered[cls])
            for name, cls in operator_classes().items()
            if cls in covered and name not in describe_operator(covered[cls])
        }
        assert not wrong, (
            f"describe() output hides the operator class name: {wrong}"
        )
