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

from typing import List, Tuple

from repro.core.assembled import AssembledObject
from repro.core.schedulers import UnresolvedReference
from repro.core.template import Template, TemplateNode
from repro.errors import AssemblyError
from repro.storage.oid import NULL_OID, Oid
from repro.storage.store import StoredRecord

#: ``page_id`` / ``owner`` / ``seq`` of a reference the engine has not
#: placed yet: where the object lives, whose window slot it fills and
#: its position in the pool are the engine's to stamp, at scheduling.
UNPLACED = -1


class ComponentIterator:
    """Template interpreter for the assembly operator.

    Every reference the engine pools is built here, complete except
    for its placement (:data:`UNPLACED`): template node, parent, slot
    and the node's rejection hint are read off the template once, so
    the engine stamps three fields and schedules the very object this
    class yielded.
    """

    def __init__(self, template: Template) -> None:
        template.finalize()
        self.template = template

    def root_reference(self, oid: Oid) -> UnresolvedReference:
        """The window-root reference of the complex object at ``oid``."""
        root = self.template.root
        return UnresolvedReference(
            oid=oid,
            page_id=UNPLACED,
            owner=UNPLACED,
            node=root,
            parent=None,
            parent_slot=-1,
            seq=UNPLACED,
            rejection=root.subtree_rejection,
            is_root=True,
        )

    # -- materialization -----------------------------------------------------------

    def materialize(
        self, oid: Oid, node: TemplateNode, record: StoredRecord
    ) -> Tuple[AssembledObject, List[UnresolvedReference], int, int]:
        """Build the in-memory object and list its unresolved children.

        Returns ``(assembled, children, missing_nodes,
        missing_predicates)`` — everything the engine needs from one
        fetched object, counted as :meth:`expand` counts them.  The
        assembled object keeps the record's tuples themselves (the
        store's cached values), not copies.  The pass runs in this
        frame; :meth:`expand` is the one that skips swizzled slots.
        """
        assembled = AssembledObject(oid, node, record)
        refs: List[UnresolvedReference] = []
        missing_nodes = 0
        missing_predicates = 0
        ref_oids = assembled.ref_oids
        n_refs = len(ref_oids)
        for slot, child_node in node.slot_children:
            if slot >= n_refs:
                raise AssemblyError(
                    f"{oid}: template expects reference slot "
                    f"{slot}, record has {n_refs}"
                )
            target = ref_oids[slot]
            if target == NULL_OID:
                missing_nodes += child_node.subtree_nodes
                missing_predicates += child_node.subtree_predicates
                continue
            refs.append(
                UnresolvedReference(  # positional: see expand
                    target, UNPLACED, UNPLACED, child_node, assembled,
                    slot, UNPLACED, child_node.subtree_rejection,
                )
            )
        return assembled, refs, missing_nodes, missing_predicates

    def expand(
        self, assembled: AssembledObject
    ) -> Tuple[List[UnresolvedReference], int, int]:
        """Unresolved children of one (possibly pre-built) object.

        One pass over the template node's child slots yields
        ``(children, missing_nodes, missing_predicates)``.  A slot
        holding a null OID has no instance (the data may be shallower
        than the template, e.g. a person without a recorded father):
        the whole template subtree below it will never be fetched, so
        its nodes and predicates are totalled for the owner's
        outstanding-node and pending-predicate counters to shrink by.
        """
        refs: List[UnresolvedReference] = []
        missing_nodes = 0
        missing_predicates = 0
        swizzled = assembled.children
        ref_oids = assembled.ref_oids
        n_refs = len(ref_oids)
        for slot, child_node in assembled.node.slot_children:
            if slot in swizzled:
                continue  # already swizzled (partially assembled input)
            if slot >= n_refs:
                raise AssemblyError(
                    f"{assembled.oid}: template expects reference slot "
                    f"{slot}, record has {n_refs}"
                )
            target = ref_oids[slot]
            if target == NULL_OID:
                missing_nodes += child_node.subtree_nodes
                missing_predicates += child_node.subtree_predicates
                continue
            # (oid, page_id, owner, node, parent, parent_slot, seq,
            # rejection): positional, as keywords cost more per call.
            refs.append(
                UnresolvedReference(
                    target, UNPLACED, UNPLACED, child_node, assembled,
                    slot, UNPLACED, child_node.subtree_rejection,
                )
            )
        return refs, missing_nodes, missing_predicates

    def expand_partial(
        self, root: AssembledObject
    ) -> List[UnresolvedReference]:
        """All unresolved references anywhere in a partial assembly.

        Walks the already-swizzled structure and collects every
        template-followed slot that still holds only an OID — the
        Section 4 behaviour for partially assembled sub-objects.
        """
        refs: List[UnresolvedReference] = []
        seen = set()
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            refs.extend(self.expand(obj)[0])
            stack.extend(obj.children.values())
        return refs
