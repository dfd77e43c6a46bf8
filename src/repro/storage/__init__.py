"""Storage substrate: simulated disk, pages, buffer manager, object store.

This package is the part of Volcano's "file system with heap files,
B-trees, and buffer management" (paper, Section 3) that the measured
figures use: pages, the buffer, the object store and its OID
directory, heap files for sort runs, built over a seek-accounting
:class:`~repro.storage.disk.SimulatedDisk` — the measurement instrument
behind every figure in Section 6.  No figure reads an index: the
Section 2 baseline takes its pointers from the layout's root order.
"""

from repro.storage.buffer import BufferManager, BufferStats
from repro.storage.disk import DiskStats, Extent, SimulatedDisk
from repro.storage.events import AsyncIOEngine, EventClock, InFlightIO
from repro.storage.faults import (
    DeviceHealthTracker,
    DownInterval,
    FaultConfig,
    FaultInjector,
    FaultStats,
    RetryPolicy,
)
from repro.storage.heap import HeapFile
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.oid import NULL_OID, OID_SIZE, Oid, OidDirectory, Rid
from repro.storage.page import PAGE_SIZE, Page, records_per_page
from repro.storage.record import (
    OBJECT_PAYLOAD_SIZE,
    PAPER_FORMAT,
    ObjectRecord,
    RecordFormat,
)
from repro.storage.store import ObjectStore, PagePlanner

__all__ = [
    "AsyncIOEngine",
    "BufferManager",
    "BufferStats",
    "DeviceHealthTracker",
    "DiskStats",
    "DownInterval",
    "EventClock",
    "Extent",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "HeapFile",
    "RetryPolicy",
    "InFlightIO",
    "MultiDeviceDisk",
    "NULL_OID",
    "OBJECT_PAYLOAD_SIZE",
    "OID_SIZE",
    "Oid",
    "OidDirectory",
    "ObjectRecord",
    "ObjectStore",
    "PAGE_SIZE",
    "PAPER_FORMAT",
    "Page",
    "PagePlanner",
    "RecordFormat",
    "Rid",
    "SimulatedDisk",
    "records_per_page",
]
