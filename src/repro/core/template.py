"""Assembly templates: the structural + statistical map of a complex object.

"The component iterator uses structural and statistical information
contained in a template to control the assembly operator.  A template
resembles a tree similar to the representation of a complex object …
In addition to structural information, the template is annotated with
statistical information.  Currently the statistical information
consists of the degree of sharing between objects and predicates with
predicate selectivity." (paper, Section 5)

A :class:`TemplateNode` describes one storage object of the complex
object: which of its reference slots to follow and what the referenced
components look like.  Nodes carry the two Batory properties the paper
highlights: **recursive definitions** (via :meth:`TemplateNode.recurse`,
unrolled to a bounded depth at finalization) and **borders of shared
components** (the ``shared`` flag plus a sharing degree).

``Template.finalize`` computes the derived annotations assembly needs:
per-subtree predicate counts (for deferred scheduling of components
that cannot reject an object) and node counts (for completion
detection and buffer-bound math).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TemplateError
from repro.core.predicates import Predicate, conjunction


@dataclass
class _RecursiveEdge:
    """A child edge that re-enters an ancestor node, bounded in depth."""

    slot: int
    target_label: str
    max_depth: int


class TemplateNode:
    """One node of a template tree.

    ``label`` must be unique within the template; ``type_name`` is
    documentation (the application-level type).  ``shared`` marks a
    border of a shared component (Section 5): assembly will consult the
    shared-component table before fetching and keep the component
    buffered while referenced.  ``sharing_degree`` is the statistical
    annotation (ratio of shared objects to sharing objects, Section 6.4).
    """

    def __init__(
        self,
        label: str,
        type_name: str = "",
        shared: bool = False,
        sharing_degree: float = 0.0,
        predicate: Optional[Predicate] = None,
    ) -> None:
        if not label:
            raise TemplateError("template node needs a non-empty label")
        if not 0.0 <= sharing_degree <= 1.0:
            raise TemplateError(
                f"node {label!r}: sharing_degree must be in [0, 1]"
            )
        if sharing_degree > 0.0 and not shared:
            raise TemplateError(
                f"node {label!r}: sharing_degree set on a non-shared node"
            )
        self.label = label
        self.type_name = type_name or label
        self.shared = shared
        self.sharing_degree = sharing_degree
        self.predicate = predicate
        self._children: Dict[int, TemplateNode] = {}
        #: ``(slot, child)`` pairs in slot order (kept by :meth:`attach`;
        #: read-only outside this class).
        self.slot_children: List[Tuple[int, "TemplateNode"]] = []
        self._recursive: List[_RecursiveEdge] = []
        # Derived at finalize():
        self.subtree_predicates = 0
        self.subtree_nodes = 0
        #: highest rejection probability of any predicate in the subtree
        #: — Section 5's scheduling hint: among equal-cost fetches,
        #: prefer the component most likely to reject the whole object.
        self.subtree_rejection = 0.0
        self.depth = 0

    # -- construction ---------------------------------------------------------

    def child(
        self,
        slot: int,
        label: str,
        type_name: str = "",
        shared: bool = False,
        sharing_degree: float = 0.0,
        predicate: Optional[Predicate] = None,
    ) -> "TemplateNode":
        """Attach and return a child template node on reference ``slot``."""
        node = TemplateNode(
            label=label,
            type_name=type_name,
            shared=shared,
            sharing_degree=sharing_degree,
            predicate=predicate,
        )
        self.attach(slot, node)
        return node

    def attach(self, slot: int, node: "TemplateNode") -> None:
        """Attach an existing node as the child on reference ``slot``."""
        if slot < 0:
            raise TemplateError(f"node {self.label!r}: negative ref slot")
        if slot in self._children:
            raise TemplateError(
                f"node {self.label!r}: slot {slot} already has a child"
            )
        self._children[slot] = node
        self.slot_children = sorted(self._children.items())

    def recurse(self, slot: int, target_label: str, max_depth: int) -> None:
        """Declare that ``slot`` re-enters the ancestor ``target_label``.

        The recursion is unrolled to ``max_depth`` additional levels
        when the template is finalized, which keeps the assembly loop
        iteration-only.  ``max_depth`` of 0 means the edge is ignored.
        """
        if max_depth < 0:
            raise TemplateError("max_depth must be non-negative")
        if slot < 0:
            raise TemplateError(f"node {self.label!r}: negative ref slot")
        if slot in self._children:
            raise TemplateError(
                f"node {self.label!r}: slot {slot} already has a child"
            )
        self._recursive.append(
            _RecursiveEdge(slot=slot, target_label=target_label, max_depth=max_depth)
        )

    # -- structure -------------------------------------------------------------

    @property
    def children(self) -> Dict[int, "TemplateNode"]:
        """Children keyed by the reference slot that leads to them."""
        return dict(self._children)

    def child_slots(self) -> List[int]:
        """Reference slots with children, in slot order."""
        return [slot for slot, _ in self.slot_children]

    def walk(self) -> Iterator["TemplateNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for _, child in self.slot_children:
            yield from child.walk()

    def _clone_shallow(self, suffix: str) -> "TemplateNode":
        return TemplateNode(
            label=f"{self.label}{suffix}",
            type_name=self.type_name,
            shared=self.shared,
            sharing_degree=self.sharing_degree,
            predicate=self.predicate,
        )

    def __repr__(self) -> str:
        flags = []
        if self.shared:
            flags.append(f"shared={self.sharing_degree:.2f}")
        if self.predicate is not None:
            flags.append(f"pred={self.predicate.name}")
        extra = (", " + ", ".join(flags)) if flags else ""
        return (
            f"TemplateNode({self.label!r}, children={len(self._children)}"
            f"{extra})"
        )


class Template:
    """A finalized template: validated tree plus derived statistics."""

    def __init__(self, root: TemplateNode) -> None:
        self.root = root
        self._by_label: Dict[str, TemplateNode] = {}
        self._finalized = False
        self._fingerprint: Optional[str] = None
        #: predicates folded in by :meth:`with_predicate` (explain()).
        self.pushed_predicates = 0

    # -- finalization -----------------------------------------------------------

    def finalize(self) -> "Template":
        """Unroll recursion, validate, and compute derived annotations."""
        if self._finalized:
            return self
        self._copy_counter = 0
        self._unroll_all()
        self._by_label = {}
        for node in self.root.walk():
            if node.label in self._by_label:
                raise TemplateError(
                    f"duplicate template label {node.label!r}"
                )
            self._by_label[node.label] = node
        self._annotate(self.root, depth=0)
        self._finalized = True
        return self

    def clone(self) -> "Template":
        """An independent deep copy (labels preserved, finalized).

        :meth:`with_predicate` pushes predicates into a clone, never
        into the shared catalog template.
        """
        self._require_finalized()
        # Pre-order with an explicit stack of ``((slot, node), parent's
        # copy)`` (a recursive local function would be a reference
        # cycle): each copy is attached to its parent's copy when it is
        # made, in the original slot order.
        root: Optional[TemplateNode] = None
        stack: List[
            Tuple[Tuple[int, TemplateNode], Optional[TemplateNode]]
        ] = [((0, self.root), None)]
        while stack:
            (slot, node), parent = stack.pop()
            copy = TemplateNode(
                label=node.label,
                type_name=node.type_name,
                shared=node.shared,
                sharing_degree=node.sharing_degree,
                predicate=node.predicate,
            )
            if parent is None:
                root = copy
            else:
                parent.attach(slot, copy)
            stack += zip(reversed(node._children.items()), repeat(copy))
        return Template(root).finalize()

    def with_predicate(self, label: str, predicate: Predicate) -> "Template":
        """A clone with ``predicate`` folded onto the node ``label``.

        The one predicate-pushdown rule (Section 6.5's selective
        assembly), under both the query optimizer and the plan rewrite:
        a predicate already on the node conjoins (selectivities
        multiply), the clone is re-annotated, and this template is left
        untouched.
        """
        template = self.clone()
        node = template.node(label)
        if node.predicate is not None:
            predicate = conjunction([node.predicate, predicate])
        node.predicate = predicate
        template.pushed_predicates = self.pushed_predicates + 1
        return template.reannotate()

    def reannotate(self) -> "Template":
        """Recompute derived statistics after mutating annotations.

        Call this after changing ``shared`` flags or attaching
        predicates to a finalized template (the structure itself must
        not change).  Workload helpers use it to decorate the stock
        binary-tree template per experiment.
        """
        self._require_finalized()
        self._annotate(self.root, depth=0)
        self._fingerprint = None
        return self

    def _unroll_all(self) -> None:
        """Expand recursive edges one level at a time until none remain.

        Each expansion copies the ancestor's subtree under the
        recursing slot with every copied recursive edge's ``max_depth``
        decremented, so the process terminates after ``max_depth``
        rounds per edge.  A node recursing to a non-ancestor is an
        error (a DAG-shaped template must be expressed with explicit
        nodes and ``shared`` borders instead).
        """
        rounds = 0
        while True:
            pending = self._collect_recursive()
            if not pending:
                return
            rounds += 1
            if rounds > 64:
                raise TemplateError("template recursion unroll did not converge")
            for node, ancestors in pending:
                edges = list(node._recursive)
                attachments: List[Tuple[int, TemplateNode]] = []
                for edge in edges:
                    if edge.target_label not in ancestors:
                        raise TemplateError(
                            f"node {node.label!r} recurses to "
                            f"{edge.target_label!r}, which is not an ancestor"
                        )
                    if edge.max_depth <= 0:
                        continue
                    # Copy while the edge is still on the node, so the
                    # copied node carries it with one level less.
                    target = ancestors[edge.target_label]
                    attachments.append((edge.slot, self._copy_subtree(target)))
                node._recursive = []
                for slot, copy in attachments:
                    node.attach(slot, copy)

    def _collect_recursive(self) -> List[Tuple[TemplateNode, Dict[str, TemplateNode]]]:
        found: List[Tuple[TemplateNode, Dict[str, TemplateNode]]] = []
        # Pre-order with an explicit stack: a recursive local function
        # would be a reference cycle.
        stack: List[Tuple[TemplateNode, Dict[str, TemplateNode]]] = [
            (self.root, {})
        ]
        while stack:
            node, ancestors = stack.pop()
            here = dict(ancestors)
            here[node.label] = node
            if node._recursive:
                found.append((node, here))
            stack += zip(reversed(node._children.values()), repeat(here))
        return found

    def _copy_subtree(self, root: TemplateNode) -> TemplateNode:
        """Deep copy with fresh labels; recursive edges lose one level."""
        self._copy_counter += 1
        suffix = f"+{self._copy_counter}"
        relabel: Dict[str, str] = {}
        top: Optional[TemplateNode] = None
        # Pre-order with an explicit stack (a recursive local function
        # would be a reference cycle).  ``(node, parent's copy, slot)``
        # copies a node; the ``(node, copy)`` pushed under its children
        # closes its subtree, where its recursive edges are copied with
        # the subtree's labels known, as the recursion did.
        stack: List[tuple] = [(root, None, 0)]
        while stack:
            item = stack.pop()
            if len(item) == 2:
                node, copy = item
                copy._recursive = [
                    _RecursiveEdge(
                        slot=edge.slot,
                        target_label=relabel.get(
                            edge.target_label, edge.target_label
                        ),
                        max_depth=edge.max_depth - 1,
                    )
                    for edge in node._recursive
                ]
                continue
            node, parent, slot = item
            copy = node._clone_shallow(suffix)
            relabel[node.label] = copy.label
            if parent is None:
                top = copy
            else:
                parent.attach(slot, copy)
            stack.append((node, copy))
            stack += (
                (child, copy, child_slot)
                for child_slot, child in reversed(node._children.items())
            )
        return top

    def _annotate(self, node: TemplateNode, depth: int) -> None:
        node.depth = depth
        nodes = 1
        predicates = 0
        rejection = 0.0
        if node.predicate is not None:
            predicates = 1
            rejection = node.predicate.rejection_probability
        for child in node._children.values():
            self._annotate(child, depth + 1)
            nodes += child.subtree_nodes
            predicates += child.subtree_predicates
            rejection = max(rejection, child.subtree_rejection)
        node.subtree_nodes = nodes
        node.subtree_predicates = predicates
        node.subtree_rejection = rejection

    # -- queries ---------------------------------------------------------------------

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise TemplateError("template must be finalized first")

    @property
    def node_count(self) -> int:
        """Total template nodes (objects per complex object)."""
        self._require_finalized()
        return self.root.subtree_nodes

    @property
    def predicate_count(self) -> int:
        """Total predicates in the template."""
        self._require_finalized()
        return self.root.subtree_predicates

    @property
    def max_depth(self) -> int:
        """Deepest node's depth (root is 0)."""
        self._require_finalized()
        return max(node.depth for node in self.root.walk())

    def node(self, label: str) -> TemplateNode:
        """Look a node up by label."""
        self._require_finalized()
        try:
            return self._by_label[label]
        except KeyError:
            raise TemplateError(f"no template node labelled {label!r}") from None

    def nodes(self) -> List[TemplateNode]:
        """All nodes in pre-order."""
        self._require_finalized()
        return list(self.root.walk())

    def shared_labels(self) -> List[str]:
        """Labels of shared-border nodes."""
        self._require_finalized()
        return [n.label for n in self.root.walk() if n.shared]

    def has_predicates(self) -> bool:
        """Does any node carry a predicate?"""
        return self.predicate_count > 0

    def fingerprint(self) -> str:
        """Stable digest of the template's structure and annotations.

        Two templates share a fingerprint exactly when they request the
        same assembly: same tree shape (labels, slots), same shared
        borders and degrees, and same predicates (by name and
        selectivity — predicate *functions* are opaque, so distinct
        predicates should carry distinct names).  The assembly service
        keys its result cache by (root OID, fingerprint).

        The digest is computed once and memoised; :meth:`reannotate`
        (the contract after mutating annotations) clears it.
        """
        self._require_finalized()
        if self._fingerprint is not None:
            return self._fingerprint
        parts: List[str] = []
        # Pre-order with an explicit stack (``None`` closes a subtree):
        # a recursive local function would be a reference cycle.
        stack: List[Optional[Tuple[TemplateNode, Optional[int]]]] = [
            (self.root, None)
        ]
        while stack:
            item = stack.pop()
            if item is None:
                parts.append(")")
                continue
            node, slot = item
            predicate = ""
            if node.predicate is not None:
                predicate = (
                    f"{node.predicate.name}@{node.predicate.selectivity!r}"
                )
            parts.append(
                f"{slot}|{node.label}|{node.type_name}|{int(node.shared)}"
                f"|{node.sharing_degree!r}|{predicate}"
            )
            stack.append(None)
            stack.extend(
                (child, child_slot)
                for child_slot, child in reversed(node.slot_children)
            )
        self._fingerprint = hashlib.sha1("\n".join(parts).encode()).hexdigest()
        return self._fingerprint


def binary_tree_template(
    levels: int,
    left_slot: int = 0,
    right_slot: int = 1,
    label_prefix: str = "n",
) -> Template:
    """Template for the paper's benchmark object: a binary tree.

    Section 6 uses 3-level binary trees (7 objects).  Node labels are
    positional: ``n0`` is the root, ``n1``/``n2`` its children, etc.,
    matching the type-per-position scheme of the ACOB-like workload.
    """
    if levels <= 0:
        raise TemplateError("binary tree needs at least one level")

    # Pre-order with an explicit stack (a recursive local function would
    # be a reference cycle): each node is attached to its parent when it
    # is built, left child before right.
    root: Optional[TemplateNode] = None
    stack: List[Tuple[int, int, Optional[TemplateNode], int]] = [
        (0, 0, None, 0)
    ]
    while stack:
        position, level, parent, slot = stack.pop()
        node = TemplateNode(
            label=f"{label_prefix}{position}",
            type_name=f"T{position}",
        )
        if parent is None:
            root = node
        else:
            parent.attach(slot, node)
        if level + 1 < levels:
            stack += (
                (2 * position + 2, level + 1, node, right_slot),
                (2 * position + 1, level + 1, node, left_slot),
            )
    return Template(root).finalize()
