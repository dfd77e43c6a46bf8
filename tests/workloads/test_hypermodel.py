"""Tests for the HyperModel-style workload."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering, Unclustered
from repro.core.assembly import Assembly
from repro.errors import ReproError
from repro.objects.model import validate_database
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads import hypermodel
from repro.workloads.hypermodel import (
    FANOUT,
    generate_hypermodel,
    hypermodel_template,
)


class TestGenerator:
    def test_document_structure(self):
        db = generate_hypermodel(4, annotation_probability=0.0)
        assert db.n_documents == 4
        assert db.sections_per_document() == 1 + 5 + 25
        assert all(len(c) == 31 for c in db.complex_objects)

    def test_fanout(self):
        db = generate_hypermodel(2, annotation_probability=0.0)
        cobj = db.complex_objects[0]
        root = cobj.objects[cobj.root]
        children = [
            root.refs[f"part{i}"] for i in range(FANOUT)
            if f"part{i}" in root.refs
        ]
        assert len(children) == FANOUT

    def test_validates(self):
        db = generate_hypermodel(5, annotation_probability=0.5)
        validate_database(db.complex_objects, db.shared_pool)

    def test_annotations_shared_across_documents(self):
        db = generate_hypermodel(
            30, annotation_probability=1.0, annotation_pool_size=3, seed=1
        )
        assert len(db.shared_pool) == 3
        linked = set()
        for cobj in db.complex_objects:
            linked.update(cobj.external_refs())
        assert linked <= set(db.shared_pool)
        assert linked  # at least one link landed

    def test_no_annotations_means_no_pool(self):
        db = generate_hypermodel(3, annotation_probability=0.0)
        assert db.shared_pool == {}

    def test_levels_annotated(self):
        db = generate_hypermodel(2, annotation_probability=0.0)
        cobj = db.complex_objects[0]
        levels = sorted(
            {obj.ints["level"] for obj in cobj.objects.values()}
        )
        assert levels == [0, 1, 2]

    def test_bad_parameters(self):
        with pytest.raises(ReproError):
            generate_hypermodel(0)
        with pytest.raises(ReproError):
            generate_hypermodel(2, annotation_probability=1.5)


class TestTemplate:
    def test_node_counts(self, monkeypatch):
        monkeypatch.setattr(hypermodel, "LEVELS", 2)
        noted = hypermodel_template()
        assert noted.node_count == 6 + 5  # root + 5 sections, a note each

    def test_annotation_nodes_shared(self, monkeypatch):
        monkeypatch.setattr(hypermodel, "LEVELS", 2)
        template = hypermodel_template()
        assert len(template.shared_labels()) == FANOUT


class TestAssemblyOverHyperModel:
    @pytest.mark.parametrize("scheduler", ["depth-first", "elevator", "adaptive"])
    def test_full_assembly(self, scheduler):
        db = generate_hypermodel(12, annotation_probability=0.5, seed=5)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order),
            store,
            hypermodel_template(),
            window_size=4,
            scheduler=scheduler,
        )
        emitted = op.execute()
        assert len(emitted) == 12
        for document in emitted:
            document.verify_swizzled()
        assert store.buffer.pinned_pages == 0

    def test_annotation_links_deduplicated(self):
        db = generate_hypermodel(
            20, annotation_probability=1.0, annotation_pool_size=2, seed=6
        )
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects, store, Unclustered(), shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order),
            store,
            hypermodel_template(),
            window_size=8,
            scheduler="elevator",
        )
        op.execute()
        # Two pool objects: at most two annotation fetches, the rest
        # are links.
        total_annotation_refs = op.stats.shared_links + 2
        assert op.stats.shared_links > 0
        assert op.stats.fetches == 20 * 31 + (
            total_annotation_refs - op.stats.shared_links
        )

    def test_inter_object_clustering_by_type(self):
        db = generate_hypermodel(10, annotation_probability=0.3, seed=7)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(
            db.complex_objects,
            store,
            InterObjectClustering(cluster_pages=64),
            shared=db.shared_pool,
        )
        # Three types -> three cluster extents.
        assert len(layout.extents) == 3
        op = Assembly(
            ListSource(layout.root_order),
            store,
            hypermodel_template(),
            window_size=5,
        )
        assert len(op.execute()) == 10
