"""A HyperModel-style document workload.

Section 6 of the paper names the HyperModel Benchmark (Anderson et al.,
EDBT 1990) as one of the object-oriented benchmarks "better suited for
our system" than relational suites.  This module provides a simplified
HyperModel database so assembly can be exercised on a workload with a
very different shape from the ACOB binary trees:

* an **aggregation (partOf) hierarchy**: each document is a tree of
  sections with fan-out 5 (the HyperModel parent/children relation),
* **attributes** on every node,
* **hypertext references**: leaves may point into a pool of shared
  annotation objects (the refTo/refFrom link web), which makes the
  sharing machinery matter outside the ACOB leaf-sharing setup.

The complex object is one document; ``hypermodel_template`` follows the
aggregation hierarchy and the annotation links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.template import Template, TemplateNode
from repro.errors import ReproError
from repro.objects.builder import GraphBuilder
from repro.objects.model import ComplexObjectDef, ObjectDef, TypeRegistry
from repro.storage.oid import Oid

#: HyperModel aggregation fan-out (children per interior section).
FANOUT = 5
#: Reference slot of a leaf's annotation link (slots 0-4 hold children).
ANNOTATION_SLOT = 5
#: Integer slot of every node's payload attribute.
PAYLOAD_SLOT = 3
#: Aggregation levels of a document (the root is level 0).
LEVELS = 3
#: The template's sharing annotation on every annotation node.
ANNOTATION_SHARING = 0.3


@dataclass
class HyperModelDatabase:
    """A generated document database."""

    registry: TypeRegistry
    complex_objects: List[ComplexObjectDef]
    shared_pool: Dict[Oid, ObjectDef] = field(default_factory=dict)
    levels: int = 3
    annotation_probability: float = 0.0

    @property
    def n_documents(self) -> int:
        """Number of documents (complex-object roots)."""
        return len(self.complex_objects)

    def sections_per_document(self) -> int:
        """Aggregation-hierarchy nodes per document."""
        return sum(FANOUT ** level for level in range(self.levels))


def generate_hypermodel(
    n_documents: int,
    annotation_probability: float = 0.3,
    annotation_pool_size: Optional[int] = None,
    seed: int = 21,
) -> HyperModelDatabase:
    """Generate ``n_documents`` documents of :data:`LEVELS` aggregation levels.

    Each leaf section carries an annotation link with
    ``annotation_probability``; link targets are drawn from a shared
    pool of ``annotation_pool_size`` objects (default: one tenth of the
    documents, at least one).
    """
    if n_documents <= 0:
        raise ReproError("need at least one document")
    if not 0.0 <= annotation_probability <= 1.0:
        raise ReproError("annotation_probability must be in [0, 1]")

    rng = random.Random(seed)
    registry = TypeRegistry()
    registry.define(
        "Document",
        int_fields=("doc_id", "level", "seq", "payload"),
        ref_fields=tuple(f"part{i}" for i in range(FANOUT))
        + ("annotation", "r6", "r7"),
    )
    registry.define(
        "Section",
        int_fields=("doc_id", "level", "seq", "payload"),
        ref_fields=tuple(f"part{i}" for i in range(FANOUT))
        + ("annotation", "r6", "r7"),
    )
    registry.define(
        "Annotation",
        int_fields=("doc_id", "level", "seq", "payload"),
    )
    builder = GraphBuilder(registry)

    annotations: List[ObjectDef] = []
    if annotation_probability > 0.0:
        pool_size = annotation_pool_size
        if pool_size is None:
            pool_size = max(1, n_documents // 10)
        for seq in range(pool_size):
            note = builder.new_object(
                "Annotation",
                ints={
                    "doc_id": -1,
                    "level": -1,
                    "seq": seq,
                    "payload": rng.randrange(1_000_000),
                },
            )
            builder.mark_shared(note)
            annotations.append(note)

    complex_objects: List[ComplexObjectDef] = []
    for doc_id in range(n_documents):
        sections: List[ObjectDef] = []
        seq_counter = [0]

        def build_section(level: int) -> ObjectDef:
            refs: Dict[str, Oid] = {}
            if level + 1 < LEVELS:
                for index in range(FANOUT):
                    refs[f"part{index}"] = build_section(level + 1).oid
            elif annotations and rng.random() < annotation_probability:
                refs["annotation"] = rng.choice(annotations).oid
            type_name = "Document" if level == 0 else "Section"
            node = builder.new_object(
                type_name,
                ints={
                    "doc_id": doc_id,
                    "level": level,
                    "seq": seq_counter[0],
                    "payload": rng.randrange(1_000_000),
                },
                refs=refs,
            )
            seq_counter[0] += 1
            if level > 0:
                sections.append(node)
            return node

        root = build_section(0)
        complex_objects.append(builder.complex_object(root, sections))

    builder.validate()
    return HyperModelDatabase(
        registry=registry,
        complex_objects=builder.complex_objects,
        shared_pool=builder.shared_objects,
        levels=LEVELS,
        annotation_probability=annotation_probability,
    )


def hypermodel_template() -> Template:
    """Template for one document: fan-out-5 hierarchy plus annotations."""
    counter = [0]

    def build(level: int) -> TemplateNode:
        label = f"s{counter[0]}"
        counter[0] += 1
        node = TemplateNode(
            label, type_name="Document" if level == 0 else "Section"
        )
        if level + 1 < LEVELS:
            for slot in range(FANOUT):
                node.attach(slot, build(level + 1))
        else:
            node.child(
                ANNOTATION_SLOT,
                f"note@{label}",
                type_name="Annotation",
                shared=True,
                sharing_degree=ANNOTATION_SHARING,
            )
        return node

    return Template(build(0)).finalize()
