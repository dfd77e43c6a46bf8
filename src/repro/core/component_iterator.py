"""The component iterator: template-driven companion of assembly.

"In our design, these tasks [what part of a complex object to assemble,
when assembly is complete, how to find unresolved references within a
newly retrieved object] are the responsibility of the component
iterator, a companion routine to the assembly operator." (Section 5)

The component iterator is stateless with respect to any single complex
object: given a fetched record and its template node it materializes
the :class:`AssembledObject` and enumerates the child references the
template says must be resolved.  It also understands *partially
assembled* inputs (Section 4: "When a partially assembled sub-object is
discovered, the operator finds all unresolved references within it"),
which is what stacked bottom-up/top-down assembly (Figure 17) relies
on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.assembled import AssembledObject
from repro.core.template import Template, TemplateNode
from repro.errors import AssemblyError
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord


class ChildReference:
    """A reference the component iterator wants resolved.

    A lighter precursor of
    :class:`~repro.core.schedulers.UnresolvedReference`: the assembly
    operator adds owner/sequence bookkeeping before scheduling it.
    """

    __slots__ = ("oid", "node", "parent", "slot")

    def __init__(
        self,
        oid: Oid,
        node: TemplateNode,
        parent: AssembledObject,
        slot: int,
    ) -> None:
        self.oid = oid
        self.node = node
        self.parent = parent
        self.slot = slot

    def __repr__(self) -> str:
        return f"ChildReference({self.oid} via slot {self.slot} of {self.parent.oid})"


class ComponentIterator:
    """Template interpreter for the assembly operator."""

    def __init__(self, template: Template) -> None:
        template.finalize()
        self.template = template
        self._rejection_cache: Dict[str, float] = {}

    # -- statistics ------------------------------------------------------------

    def subtree_rejection(self, node: TemplateNode) -> float:
        """Highest rejection probability of any predicate in the subtree.

        This is Section 5's scheduling hint: among equal-cost fetches,
        prefer the component most likely to reject the whole object.
        """
        cached = self._rejection_cache.get(node.label)
        if cached is not None:
            return cached
        best = 0.0
        for sub in node.walk():
            if sub.predicate is not None:
                best = max(best, sub.predicate.rejection_probability)
        self._rejection_cache[node.label] = best
        return best

    # -- materialization -----------------------------------------------------------

    def materialize(
        self, oid: Oid, node: TemplateNode, record: ObjectRecord
    ) -> Tuple[AssembledObject, List[ChildReference]]:
        """Build the in-memory object and list its unresolved children.

        Children whose reference slot holds a null OID simply do not
        exist in this instance (the data may be shallower than the
        template, e.g. a person without a recorded father).
        """
        assembled = AssembledObject(oid, node, record)
        children = self.expand(assembled)
        return assembled, children

    def expand(self, assembled: AssembledObject) -> List[ChildReference]:
        """Unresolved children of one (possibly pre-built) object."""
        refs: List[ChildReference] = []
        swizzled = assembled.children
        ref_oids = assembled.ref_oids
        n_refs = len(ref_oids)
        for slot, child_node in assembled.node.child_items():
            if slot in swizzled:
                continue  # already swizzled (partially assembled input)
            if slot >= n_refs:
                raise AssemblyError(
                    f"{assembled.oid}: template expects reference slot "
                    f"{slot}, record has {n_refs}"
                )
            target = ref_oids[slot]
            if target.is_null():
                continue
            refs.append(ChildReference(target, child_node, assembled, slot))
        return refs

    def expand_partial(
        self, root: AssembledObject
    ) -> List[ChildReference]:
        """All unresolved references anywhere in a partial assembly.

        Walks the already-swizzled structure and collects every
        template-followed slot that still holds only an OID — the
        Section 4 behaviour for partially assembled sub-objects.
        """
        refs: List[ChildReference] = []
        seen = set()
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            refs.extend(self.expand(obj))
            stack.extend(obj.children.values())
        return refs

    # -- completion accounting --------------------------------------------------------

    def missing_subtree_counts(
        self, assembled: AssembledObject, resolved_children: List[ChildReference]
    ) -> Tuple[int, int]:
        """(nodes, predicates) of template subtrees that have no instance.

        When a reference slot is null, the whole template subtree below
        it will never be fetched; the owner's outstanding-node and
        pending-predicate counters must shrink accordingly.
        """
        live_slots = {ref.slot for ref in resolved_children}
        swizzled = assembled.children
        missing_nodes = 0
        missing_predicates = 0
        for slot, child_node in assembled.node.child_items():
            if slot in live_slots or slot in swizzled:
                continue
            missing_nodes += child_node.subtree_nodes
            missing_predicates += child_node.subtree_predicates
        return missing_nodes, missing_predicates
