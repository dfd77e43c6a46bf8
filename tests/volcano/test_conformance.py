"""Protocol conformance for every Volcano operator.

One parametrized harness drives each operator through the lifecycle
contracts all operators must share: open/next/close ordering is
enforced, end-of-stream is stable (``next`` keeps returning ``None``),
reopening restarts cleanly, and two executions yield identical rows.
"""

import pytest

from repro.errors import IteratorStateError
from repro.volcano.aggregate import HashAggregate
from repro.volcano.exchange import PartitionedExecute
from repro.volcano.filters import Filter, Project
from repro.iterator import ListSource
from repro.volcano.joins import HashJoin
from repro.volcano.scan import StoreScan, TidScan
from repro.volcano.sort import ExternalSort


def _laid_out_store():
    from repro.cluster.layout import layout_database
    from repro.cluster.policies import Unclustered
    from repro.storage.disk import SimulatedDisk
    from repro.storage.store import ObjectStore
    from repro.workloads.acob import generate_acob

    db = generate_acob(5, seed=1)
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(db.complex_objects, store, Unclustered())
    return db, store, layout


def assembly_factory():
    from repro.core.assembly import Assembly
    from repro.workloads.acob import make_template

    db, store, layout = _laid_out_store()
    return Assembly(
        ListSource(layout.root_order), store, make_template(db), window_size=2
    )


def assembly_operator_factory():
    from repro.volcano.assembly import AssemblyOperator
    from repro.workloads.acob import make_template

    db, store, layout = _laid_out_store()
    return AssemblyOperator(
        ListSource(layout.root_order), store, make_template(db), window_size=2
    )


def component_filter_factory():
    from repro.volcano.assembly import ComponentFilter
    from repro.workloads.acob import generate_acob, make_template, payload_predicate

    template = make_template(generate_acob(5, seed=1))
    label = template.nodes()[1].label
    return ComponentFilter(
        assembly_operator_factory(), label, payload_predicate(1.0)
    )


def parallel_assembly_factory():
    from repro.volcano.assembly import ParallelAssembly
    from repro.workloads.acob import make_template

    db, store_a, layout = _laid_out_store()
    _db, store_b, _layout = _laid_out_store()  # deterministic replica
    return ParallelAssembly(
        ListSource(layout.root_order),
        [store_a, store_b],
        make_template(db),
        window_size=2,
    )


def interleaved_assemblies_factory():
    from repro.volcano.assembly import InterleavedAssemblies
    from repro.workloads.acob import make_template

    db, store, layout = _laid_out_store()
    return InterleavedAssemblies(
        layout.root_order, store, make_template(db), 2, window_size=4
    )


def _record_store():
    """A store with four one-page records, for scan-family factories."""
    from repro.storage.disk import SimulatedDisk
    from repro.storage.oid import Oid
    from repro.storage.record import ObjectRecord
    from repro.storage.store import ObjectStore

    store = ObjectStore(SimulatedDisk())
    extent = store.disk.allocate(1)
    oids = []
    for serial in range(4):
        oid = Oid(1, serial + 1)
        store.store_page(extent.start, [(oid, ObjectRecord(ints=[serial, 0, 0, 0]))])
        oids.append(oid)
    return store, extent, oids


def store_scan_factory():
    store, extent, _oids = _record_store()
    return StoreScan(store, extent)


def tid_scan_factory():
    store, _extent, oids = _record_store()
    return TidScan(ListSource(oids), store, order="sorted")


OPERATOR_FACTORIES = {
    "list-source": lambda: ListSource([1, 2, 3]),
    "filter": lambda: Filter(ListSource(range(6)), lambda n: n % 2 == 0),
    "project": lambda: Project(ListSource(range(3)), lambda n: n + 1),
    "sort": lambda: ExternalSort(ListSource([3, 1, 2]), key=lambda n: n),
    "hash-join": lambda: HashJoin(
        build=ListSource([(1, "b")]),
        probe=ListSource([(1, "p"), (2, "q")]),
        build_key=lambda r: r[0],
        probe_key=lambda r: r[0],
    ),
    "aggregate": lambda: HashAggregate(
        ListSource("aabbc"),
        group_key=lambda c: c,
        init=lambda: 0,
        step=lambda acc, _row: acc + 1,
    ),
    "partitioned-execute": lambda: PartitionedExecute(
        rows=list(range(6)),
        n_partitions=2,
        fragment=lambda source: Project(source, lambda n: n),
    ),
    "assembly": assembly_factory,
    "assembly-operator": assembly_operator_factory,
    "component-filter": component_filter_factory,
    "parallel-assembly": parallel_assembly_factory,
    "interleaved-assemblies": interleaved_assemblies_factory,
    "store-scan": store_scan_factory,
    "tid-scan": tid_scan_factory,
}


@pytest.fixture(params=sorted(OPERATOR_FACTORIES))
def operator_factory(request):
    return OPERATOR_FACTORIES[request.param]


class TestLifecycleConformance:
    def test_produces_at_least_one_row(self, operator_factory):
        rows = operator_factory().execute()
        assert rows

    def test_next_before_open_rejected(self, operator_factory):
        with pytest.raises(IteratorStateError):
            operator_factory().next()

    def test_close_before_open_rejected(self, operator_factory):
        with pytest.raises(IteratorStateError):
            operator_factory().close()

    def test_double_open_rejected(self, operator_factory):
        operator = operator_factory()
        operator.open()
        with pytest.raises(IteratorStateError):
            operator.open()
        operator.close()

    def test_end_of_stream_is_stable(self, operator_factory):
        operator = operator_factory()
        operator.open()
        while operator.next() is not None:
            pass
        assert operator.next() is None
        assert operator.next() is None
        operator.close()

    def test_reopen_reproduces_rows(self, operator_factory):
        """Reopen yields the same multiset of rows.

        Order may legally differ for physically-scheduled operators:
        the assembly operator's elevator sees a different disk head and
        buffer residency on the second run.
        """
        operator = operator_factory()
        first = [self._key(row) for row in operator.execute()]
        second = [self._key(row) for row in operator.execute()]
        assert sorted(first, key=repr) == sorted(second, key=repr)

    def test_next_after_close_rejected(self, operator_factory):
        operator = operator_factory()
        operator.open()
        operator.close()
        with pytest.raises(IteratorStateError):
            operator.next()

    def test_double_close_rejected(self, operator_factory):
        operator = operator_factory()
        operator.open()
        operator.close()
        with pytest.raises(IteratorStateError):
            operator.close()

    def test_early_close_is_legal(self, operator_factory):
        operator = operator_factory()
        operator.open()
        operator.next()
        operator.close()  # mid-stream close must not raise

    @staticmethod
    def _key(row):
        # Assembled complex objects compare by identity; use their OID.
        root_oid = getattr(row, "root_oid", None)
        return root_oid if root_oid is not None else row
