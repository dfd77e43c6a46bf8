"""Sampling-based statistics collection for templates.

The paper assumes templates arrive annotated — "the statistical
information consists of the degree of sharing between objects and
predicates with predicate selectivity" (Section 5) — but something must
*produce* those numbers.  This module closes that loop the way real
optimizers do: assemble a random sample of complex objects and measure

* per-component **predicate pass rates** (estimated selectivities for
  the conditions a query wants to push down), and
* per-component **sharing degree** (distinct objects / references at a
  label).

``annotate_from_sample`` returns a template clone carrying the measured
numbers, ready for :class:`repro.query.optimizer.Optimizer` — so the
whole pipeline can run from data, with no hand-written estimates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.core.assembly import Assembly
from repro.core.predicates import Predicate
from repro.core.template import Template
from repro.errors import PlanError
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.storage.store import ObjectStore
from repro.iterator import ListSource


@dataclass
class LabelStatistics:
    """Measured facts about one template component across the sample."""

    label: str
    #: sampled complex objects in which the component was present.
    occurrences: int = 0
    #: distinct storage objects observed at this label.
    distinct_objects: int = 0
    #: pass counts per named candidate predicate.
    predicate_passes: Dict[str, int] = field(default_factory=dict)

    @property
    def sharing_degree(self) -> float:
        """Distinct objects / references (1.0 = nothing shared)."""
        if self.occurrences == 0:
            return 0.0
        return self.distinct_objects / self.occurrences

    def selectivity(self, predicate_name: str) -> float:
        """Observed pass rate of one candidate predicate."""
        if self.occurrences == 0:
            return 1.0
        return self.predicate_passes.get(predicate_name, 0) / self.occurrences


@dataclass
class SampleStatistics:
    """Everything measured over one sample run."""

    sample_size: int
    labels: Dict[str, LabelStatistics]

    def for_label(self, label: str) -> LabelStatistics:
        """Statistics of one component (raises KeyError if unseen)."""
        return self.labels[label]


def collect_statistics(
    store: ObjectStore,
    template: Template,
    roots: Sequence[Oid],
    candidates: Optional[Dict[str, Callable[[ObjectRecord], bool]]] = None,
    sample_size: int = 100,
    seed: int = 0,
) -> SampleStatistics:
    """Assemble a sample and measure per-label statistics.

    ``candidates`` maps template labels to boolean tests whose pass
    rates should be measured.  The sample template is stripped of
    predicates so every sampled object assembles fully (statistics
    must see rejected objects too).
    """
    if sample_size <= 0:
        raise PlanError("sample_size must be positive")
    if not roots:
        raise PlanError("cannot sample an empty root set")
    candidates = candidates or {}
    rng = random.Random(seed)
    chosen = (
        list(roots)
        if len(roots) <= sample_size
        else rng.sample(list(roots), sample_size)
    )

    probe = template.clone()
    for node in probe.nodes():
        node.predicate = None
    probe.reannotate()

    operator = Assembly(
        ListSource(chosen), store, probe, window_size=min(16, len(chosen)),
        scheduler="elevator",
    )
    labels: Dict[str, LabelStatistics] = {
        node.label: LabelStatistics(label=node.label)
        for node in probe.nodes()
    }
    seen_oids: Dict[str, set] = {node.label: set() for node in probe.nodes()}
    for cobj in operator.rows():
        for obj in cobj.scan():
            stats = labels[obj.node.label]
            stats.occurrences += 1
            seen_oids[obj.node.label].add(obj.oid)
            test = candidates.get(obj.node.label)
            if test is not None:
                record = ObjectRecord(
                    ints=list(obj.ints),
                    refs=list(obj.ref_oids),
                    fmt=store.fmt,
                )
                if test(record):
                    name = _candidate_name(obj.node.label)
                    stats.predicate_passes[name] = (
                        stats.predicate_passes.get(name, 0) + 1
                    )
    for label, oids in seen_oids.items():
        labels[label].distinct_objects = len(oids)
    return SampleStatistics(sample_size=len(chosen), labels=labels)


def _candidate_name(label: str) -> str:
    return f"sampled@{label}"


def annotate_from_sample(
    template: Template,
    store: ObjectStore,
    roots: Sequence[Oid],
    predicates: Optional[Dict[str, Callable[[ObjectRecord], bool]]] = None,
    sample_size: int = 100,
    seed: int = 0,
    shared_threshold: float = 0.95,
) -> Template:
    """A template clone annotated with *measured* statistics.

    * Labels whose observed sharing degree falls below
      ``shared_threshold`` are marked ``shared`` with the measured
      degree (references at the label land on fewer distinct objects
      than there are references).
    * For every label in ``predicates``, a :class:`Predicate` with the
      measured pass rate is attached.
    """
    predicates = predicates or {}
    stats = collect_statistics(
        store, template, roots,
        candidates=predicates, sample_size=sample_size, seed=seed,
    )
    annotated = template.clone()
    for node in annotated.nodes():
        label_stats = stats.labels.get(node.label)
        if label_stats is None or label_stats.occurrences == 0:
            continue
        degree = label_stats.sharing_degree
        if degree < shared_threshold:
            node.shared = True
            node.sharing_degree = min(1.0, max(0.0, degree))
        if node.label in predicates:
            name = _candidate_name(node.label)
            annotated_selectivity = label_stats.selectivity(name)
            node.predicate = Predicate(
                name=name,
                fn=predicates[node.label],
                selectivity=annotated_selectivity,
            )
    return annotated.reannotate()
