"""Tests for the bill-of-materials workload (deep recursive templates)."""

import pytest

from repro.cluster.layout import layout_database
from repro.cluster.policies import InterObjectClustering, Unclustered
from repro.core.assembly import Assembly
from repro.errors import ReproError
from repro.objects.model import validate_database
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.iterator import ListSource
from repro.workloads.bom import bom_template, generate_bom, rolled_up_cost


class TestGenerator:
    def test_structure_validates(self):
        db = generate_bom(10, seed=1)
        validate_database(db.complex_objects, db.shared_pool)
        assert db.n_products == 10
        assert len(db.costs) == 10

    def test_irregular_fanout(self):
        db = generate_bom(20, seed=2)
        sizes = {len(c) for c in db.complex_objects}
        assert len(sizes) > 1  # products differ in part count

    def test_standard_parts_shared(self):
        db = generate_bom(30, catalog_size=5, standard_probability=1.0, seed=3)
        assert len(db.shared_pool) == 5
        linked = set()
        for cobj in db.complex_objects:
            linked.update(cobj.external_refs())
        assert linked and linked <= set(db.shared_pool)

    def test_no_catalog(self):
        db = generate_bom(5, standard_probability=0.0)
        assert db.shared_pool == {}

    def test_depth_respected(self):
        db = generate_bom(10, depth=2, seed=4)
        for cobj in db.complex_objects:
            levels = {obj.ints["level"] for obj in cobj.objects.values()}
            assert max(levels) <= 1

    def test_bad_parameters(self):
        with pytest.raises(ReproError):
            generate_bom(0)
        with pytest.raises(ReproError):
            generate_bom(5, depth=0)
        with pytest.raises(ReproError):
            generate_bom(5, standard_probability=-1)


class TestTemplate:
    def test_recursive_unroll_size(self):
        # Depth 3, fan-out 3: 13 part nodes, each with a standard slot.
        template = bom_template(depth=3)
        assert template.node_count == 26
        assert len(template.shared_labels()) == 13

    def test_depth_one_is_single_part(self):
        template = bom_template(depth=1)
        assert template.node_count == 2  # part + its standard slot

    def test_bad_depth(self):
        with pytest.raises(ReproError):
            bom_template(depth=0)


class TestAssemblyAndCostRollup:
    def run(self, clustering, scheduler="elevator", n=40):
        db = generate_bom(n, seed=6)
        store = ObjectStore(SimulatedDisk())
        policy = (
            InterObjectClustering(cluster_pages=64)
            if clustering == "inter"
            else Unclustered()
        )
        layout = layout_database(
            db.complex_objects, store, policy, shared=db.shared_pool
        )
        op = Assembly(
            ListSource(layout.root_order),
            store,
            bom_template(),
            window_size=8,
            scheduler=scheduler,
        )
        emitted = {c.root_oid: c for c in op.execute()}
        return db, op, emitted

    @pytest.mark.parametrize("clustering", ["inter", "unclustered"])
    def test_costs_match_oracle(self, clustering):
        db, _op, emitted = self.run(clustering)
        for cobj_def, expected in zip(db.complex_objects, db.costs):
            product = emitted[cobj_def.root]
            product.verify_swizzled()
            assert rolled_up_cost(product) == expected

    def test_catalog_loaded_once(self):
        db, op, _emitted = self.run("unclustered")
        from repro.workloads.sharing import measure_sharing

        profile = measure_sharing(db.complex_objects, db.shared_pool)
        assert op.stats.shared_links == profile.duplicate_references

    @pytest.mark.parametrize(
        "scheduler", ["depth-first", "breadth-first", "elevator", "adaptive"]
    )
    def test_every_scheduler_handles_recursion(self, scheduler):
        db, _op, emitted = self.run("unclustered", scheduler=scheduler, n=15)
        assert len(emitted) == 15
