"""Store snapshots: persist a laid-out database to a file.

Laying out and loading a large benchmark database is the slow part of
an experiment; a snapshot lets a layout be built once and reopened many
times (and shipped alongside results for exact reproduction).  The
format is a small, versioned binary file:

* header — magic, version, disk kind (single or multi-device), disk
  geometry, allocation cursor(s);
* pages — ``(page_id, 1 KB image)`` for every materialized page;
* directory — ``(oid, page, slot)`` for every stored object.

Only durable state is saved: buffer contents and statistics are
runtime artifacts and start fresh on load.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Union

from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.multidisk import MultiDeviceDisk
from repro.storage.oid import OID_SIZE, Oid, Rid
from repro.storage.page import PAGE_SIZE
from repro.storage.record import RecordFormat
from repro.storage.store import ObjectStore

_MAGIC = b"RPRO"
_VERSION = 1
_KIND_SINGLE = 0
_KIND_MULTI = 1

_HEADER = struct.Struct(">4sHBxiiII")  # magic, ver, kind, limit, next/dev, n?, counts
_PAGE_ENTRY = struct.Struct(">I")
_DIR_ENTRY = struct.Struct(">IH")
_FMT = struct.Struct(">HH")


def save_store(store: ObjectStore, path: Union[str, Path]) -> Path:
    """Write the store's disk image and OID directory to ``path``."""
    disk = store.disk
    target = Path(path)

    if isinstance(disk, MultiDeviceDisk):
        kind = _KIND_MULTI
        geometry = [disk.n_devices, disk.pages_per_device]
        cursors = list(disk._device_free) + [disk._next_device]
    else:
        kind = _KIND_SINGLE
        geometry = [disk._limit if disk._limit is not None else -1]
        cursors = [disk.allocated_pages]

    store.buffer.flush_all()
    pages = sorted(disk._pages.items())
    directory = [(oid, store.directory.lookup(oid)) for oid in store.directory]

    with open(target, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack(">HB", _VERSION, kind))
        handle.write(_FMT.pack(store.fmt.n_ints, store.fmt.n_refs))
        handle.write(struct.pack(">H", len(geometry)))
        for value in geometry:
            handle.write(struct.pack(">i", value))
        handle.write(struct.pack(">H", len(cursors)))
        for value in cursors:
            handle.write(struct.pack(">i", value))
        handle.write(struct.pack(">I", len(pages)))
        for page_id, image in pages:
            handle.write(_PAGE_ENTRY.pack(page_id))
            handle.write(image)
        handle.write(struct.pack(">I", len(directory)))
        for oid, rid in directory:
            handle.write(oid.encode())
            handle.write(_DIR_ENTRY.pack(rid.page_id, rid.slot))
    return target


def load_store(
    path: Union[str, Path],
    buffer_capacity: Optional[int] = None,
) -> ObjectStore:
    """Reopen a snapshot as a fresh store (cold buffer, zero stats)."""
    data = Path(path).read_bytes()
    view = memoryview(data)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise StorageError("snapshot truncated")
        chunk = view[offset : offset + n]
        offset += n
        return chunk

    if bytes(take(4)) != _MAGIC:
        raise StorageError("not a repro snapshot")
    version, kind = struct.unpack(">HB", take(3))
    if version != _VERSION:
        raise StorageError(f"unsupported snapshot version {version}")
    n_ints, n_refs = _FMT.unpack(take(_FMT.size))

    (n_geometry,) = struct.unpack(">H", take(2))
    geometry = [
        struct.unpack(">i", take(4))[0] for _ in range(n_geometry)
    ]
    (n_cursors,) = struct.unpack(">H", take(2))
    cursors = [struct.unpack(">i", take(4))[0] for _ in range(n_cursors)]

    if kind == _KIND_MULTI:
        disk: SimulatedDisk = MultiDeviceDisk(
            n_devices=geometry[0], pages_per_device=geometry[1]
        )
        disk._device_free = cursors[:-1]
        disk._next_device = cursors[-1]
    elif kind == _KIND_SINGLE:
        limit = None if geometry[0] == -1 else geometry[0]
        disk = SimulatedDisk(n_pages=limit)
        disk._next_free = cursors[0]
    else:
        raise StorageError(f"unknown snapshot disk kind {kind}")

    (n_pages,) = struct.unpack(">I", take(4))
    for _ in range(n_pages):
        (page_id,) = _PAGE_ENTRY.unpack(take(_PAGE_ENTRY.size))
        disk._pages[page_id] = bytes(take(PAGE_SIZE))

    store = ObjectStore(
        disk,
        BufferManager(disk, capacity=buffer_capacity),
        fmt=RecordFormat(n_ints=n_ints, n_refs=n_refs),
    )
    (n_entries,) = struct.unpack(">I", take(4))
    for _ in range(n_entries):
        oid = Oid.decode(bytes(take(OID_SIZE)))
        page_id, slot = _DIR_ENTRY.unpack(take(_DIR_ENTRY.size))
        store.directory.register(oid, Rid(page_id, slot))
    if offset != len(view):
        raise StorageError("snapshot has trailing bytes")
    return store
