"""Fluent construction of complex-object graphs.

Workload generators and examples build databases through
:class:`GraphBuilder`: define types once, then mint objects, wire
references, and group objects into complex objects.  The builder only
produces in-memory :class:`~repro.objects.model.ComplexObjectDef`
graphs; clustering layouts (:mod:`repro.cluster`) decide physical
placement afterwards — the separation the paper's Figures 8–10 rely on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.objects.model import (
    ComplexObjectDef,
    ModelError,
    ObjectDef,
    ObjectType,
    TypeRegistry,
    validate_database,
)
from repro.storage.oid import Oid


class GraphBuilder:
    """Accumulates objects and groups them into complex objects."""

    def __init__(self, registry: Optional[TypeRegistry] = None) -> None:
        self.registry = registry if registry is not None else TypeRegistry()
        self._objects: Dict[Oid, ObjectDef] = {}
        self._grouped: Dict[Oid, Oid] = {}  # component oid -> root oid
        self._complex: List[ComplexObjectDef] = []
        self._shared: Dict[Oid, ObjectDef] = {}

    # -- types ----------------------------------------------------------------

    def define_type(
        self,
        name: str,
        int_fields: Sequence[str] = (),
        ref_fields: Sequence[str] = (),
    ) -> ObjectType:
        """Define a new object type (delegates to the registry)."""
        return self.registry.define(name, int_fields, ref_fields)

    # -- objects --------------------------------------------------------------

    def new_object(
        self,
        type_name: str,
        ints: Optional[Dict[str, int]] = None,
        refs: Optional[Dict[str, Oid]] = None,
    ) -> ObjectDef:
        """Mint an object of ``type_name`` with the given field values."""
        otype = self.registry.by_name(type_name)
        oid = self.registry.new_oid(type_name)
        obj = ObjectDef(
            oid=oid, otype=otype, ints=dict(ints or {}), refs=dict(refs or {})
        )
        self._objects[oid] = obj
        return obj

    # -- grouping -------------------------------------------------------------

    def complex_object(
        self, root: ObjectDef, components: Sequence[ObjectDef] = ()
    ) -> ComplexObjectDef:
        """Group a root and its private components into a complex object."""
        cobj = ComplexObjectDef(root=root.oid, objects={root.oid: root})
        self._claim(root.oid, root.oid)
        for comp in components:
            cobj.add(comp)
            self._claim(comp.oid, root.oid)
        self._complex.append(cobj)
        return cobj

    def mark_shared(self, obj: ObjectDef) -> None:
        """Move an object into the shared pool (referenced across roots)."""
        if obj.oid in self._grouped:
            raise ModelError(
                f"{obj.oid} already belongs to complex object "
                f"{self._grouped[obj.oid]}"
            )
        self._shared[obj.oid] = obj
        self._objects.pop(obj.oid, None)

    def _claim(self, oid: Oid, root: Oid) -> None:
        if oid in self._shared:
            raise ModelError(f"{oid} is shared; cannot be private to {root}")
        if oid in self._grouped:
            raise ModelError(
                f"{oid} already belongs to complex object {self._grouped[oid]}"
            )
        self._grouped[oid] = root

    # -- results ----------------------------------------------------------------

    @property
    def complex_objects(self) -> List[ComplexObjectDef]:
        """All complex objects built so far."""
        return list(self._complex)

    @property
    def shared_objects(self) -> Dict[Oid, ObjectDef]:
        """The shared-component pool."""
        return dict(self._shared)

    def ungrouped(self) -> List[ObjectDef]:
        """Objects minted but not yet grouped or shared (should be empty)."""
        return [
            obj
            for oid, obj in self._objects.items()
            if oid not in self._grouped
        ]

    def validate(self) -> None:
        """Referential-integrity check over everything built."""
        loose = self.ungrouped()
        if loose:
            raise ModelError(
                f"{len(loose)} objects were never grouped "
                f"(first: {loose[0].oid})"
            )
        validate_database(self._complex, self._shared)
