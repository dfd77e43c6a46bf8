"""repro — Efficient Assembly of Complex Objects (SIGMOD 1991).

A faithful, laptop-scale reproduction of Keller, Graefe & Maier's
assembly operator on a Volcano-style query engine with a
seek-accounting simulated disk.

Quickstart::

    from repro import (
        SimulatedDisk, ObjectStore, Assembly, ListSource,
        InterObjectClustering, layout_database,
    )
    from repro.workloads import generate_acob, make_template

    db = generate_acob(1000)
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(
        db.complex_objects, store,
        InterObjectClustering(disk_order=db.type_ids_depth_first()),
        shared=db.shared_pool,
    )
    op = Assembly(
        ListSource(layout.root_order), store, make_template(db),
        window_size=50, scheduler="elevator",
    )
    for complex_object in op.rows():
        ...  # pointer-swizzled, ready to traverse

    print(store.disk.stats.avg_seek_per_read)  # the paper's metric
"""

from repro.cluster import (
    InterObjectClustering,
    IntraObjectClustering,
    LayoutResult,
    Unclustered,
    layout_database,
)
from repro.core import (
    AssembledComplexObject,
    AssembledObject,
    Assembly,
    AssemblyStats,
    AssemblyTracer,
    ComponentIterator,
    Predicate,
    StackedAssembly,
    Template,
    TemplateNode,
    binary_tree_template,
    make_scheduler,
    max_window_for_buffer,
    pin_bound,
    tune_window,
)
from repro.database import BoundQuery, Database
from repro.errors import ReproError
from repro.objects import GraphBuilder, TypeRegistry
from repro.query import ComplexObjectQuery, Optimizer, retrieve
from repro.service import DeviceServerAssembly
from repro.storage import (
    BufferManager,
    HeapFile,
    ObjectStore,
    Oid,
    SimulatedDisk,
)
from repro.volcano import (
    Filter,
    InterleavedAssemblies,
    ListSource,
    Project,
    VolcanoIterator,
)

__version__ = "1.0.0"

__all__ = [
    "AssembledComplexObject",
    "AssembledObject",
    "Assembly",
    "AssemblyStats",
    "AssemblyTracer",
    "BoundQuery",
    "ComplexObjectQuery",
    "Database",
    "DeviceServerAssembly",
    "Optimizer",
    "retrieve",
    "InterleavedAssemblies",
    "max_window_for_buffer",
    "pin_bound",
    "tune_window",
    "BufferManager",
    "ComponentIterator",
    "Filter",
    "GraphBuilder",
    "HeapFile",
    "InterObjectClustering",
    "IntraObjectClustering",
    "LayoutResult",
    "ListSource",
    "ObjectStore",
    "Oid",
    "Predicate",
    "Project",
    "ReproError",
    "SimulatedDisk",
    "StackedAssembly",
    "Template",
    "TemplateNode",
    "TypeRegistry",
    "Unclustered",
    "VolcanoIterator",
    "binary_tree_template",
    "layout_database",
    "make_scheduler",
    "__version__",
]
