"""Tests for exchange-style partitioning."""

import pytest

from repro.errors import PlanError, UnknownOidError
from repro.volcano.exchange import PartitionedExecute
from repro.volcano.filters import Project
from repro.iterator import ListSource


class TestPartitionedExecute:
    def test_runs_fragment_per_partition(self):
        op = PartitionedExecute(
            rows=list(range(8)),
            n_partitions=2,
            fragment=lambda source: Project(source, lambda n: n * 10),
        )
        assert sorted(op.execute()) == [n * 10 for n in range(8)]

    def test_interleaves_round_robin(self):
        op = PartitionedExecute(
            rows=[0, 1, 2, 3],
            n_partitions=2,
            fragment=lambda source: source,
        )
        # partitions: [0, 2] and [1, 3]; merged round-robin.
        assert op.execute() == [0, 1, 2, 3]

    def test_uneven_partitions_drain(self):
        op = PartitionedExecute(
            rows=list(range(5)),
            n_partitions=3,
            fragment=lambda source: source,
        )
        assert sorted(op.execute()) == list(range(5))

    def test_empty_input(self):
        op = PartitionedExecute(
            rows=[], n_partitions=2, fragment=lambda source: source
        )
        assert op.execute() == []

    def test_bad_partition_count(self):
        with pytest.raises(PlanError):
            PartitionedExecute(rows=[], n_partitions=0, fragment=lambda s: s)

    def test_partition_fn_routes_rows(self):
        op = PartitionedExecute(
            rows=list(range(6)),
            n_partitions=2,
            fragment=lambda source, index: Project(
                source, lambda n: (index, n)
            ),
            partition_fn=lambda row, _position: 0 if row < 4 else 1,
        )
        # partitions: [0, 1, 2, 3] and [4, 5]; merged round-robin.
        assert op.execute() == [
            (0, 0), (1, 4), (0, 1), (1, 5), (0, 2), (0, 3),
        ]

    def test_partition_fn_out_of_range(self):
        op = PartitionedExecute(
            rows=[0, 1, 2],
            n_partitions=2,
            fragment=lambda source: source,
            partition_fn=lambda _row, position: position,
        )
        with pytest.raises(PlanError, match="routed row 2 to 2"):
            op.open()

    def test_source_operator_input(self):
        source = Project(ListSource(list(range(5))), lambda n: n + 100)
        op = PartitionedExecute(
            rows=source, n_partitions=2, fragment=lambda part: part
        )
        assert op.execute() == [100, 101, 102, 103, 104]
        assert not source.is_open
        # Reopening deals from the source again, not from a stale copy.
        assert op.execute() == [100, 101, 102, 103, 104]


class TestFailedOpen:
    """``open()`` failing on fragment k closes fragments 0..k-1: the
    exchange never opened, so nobody could close them afterwards."""

    @staticmethod
    def _exchanges():
        from repro.cluster.layout import layout_database
        from repro.cluster.policies import Unclustered
        from repro.core.assembly import Assembly
        from repro.storage.disk import SimulatedDisk
        from repro.storage.oid import Oid
        from repro.storage.store import ObjectStore
        from repro.volcano.assembly import InterleavedAssemblies, ParallelAssembly
        from repro.workloads.acob import generate_acob, make_template

        db = generate_acob(6, seed=1)
        store = ObjectStore(SimulatedDisk())
        layout = layout_database(db.complex_objects, store, Unclustered())
        template = make_template(db)
        # Round-robin over two partitions: the ghost lands in the second.
        roots = layout.root_order[:3] + [Oid(99, 1)]
        return store, {
            "partitioned-execute": lambda: PartitionedExecute(
                roots,
                2,
                lambda source: Assembly(
                    source, store, template, window_size=4
                ),
            ),
            "interleaved-assemblies": lambda: InterleavedAssemblies(
                roots, store, template, 2, window_size=4
            ),
            "parallel-assembly": lambda: ParallelAssembly(
                ListSource(roots),
                [store, store],
                template,
                driver="sync",
                window_size=4,
            ),
        }

    @pytest.mark.parametrize(
        "name",
        ["partitioned-execute", "interleaved-assemblies", "parallel-assembly"],
    )
    def test_opened_fragments_are_closed(self, name):
        store, exchanges = self._exchanges()
        exchange = exchanges[name]()
        with pytest.raises(UnknownOidError):
            exchange.open()
        assert [plan.is_open for plan in exchange._plans] == [False, False]
        assert store.buffer.pinned_pages == 0
        assert not exchange.is_open
