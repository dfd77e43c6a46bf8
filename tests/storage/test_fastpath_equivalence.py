"""Cached hot paths must be bit-identical to their naive references.

The raw-speed pass added small caches in the storage layer: the OID
encoder memoizes its ``struct`` pack, the cost model memoizes
``(distance, n_pages)`` service times, and the object store keeps a
decoded-record cache in front of the codec.  A cache can only be a
pure speedup — these properties pin each one to the uncached
computation across random inputs and call orders.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BadSlotError, ReproError
from repro.storage.buffer import BufferManager
from repro.storage.costmodel import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.oid import Oid
from repro.storage.record import ObjectRecord
from repro.storage.store import ObjectStore

oids = st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**63))


class TestOidEncodeCache:
    """The memoized OID encoder equals a fresh struct pack."""

    @given(st.lists(oids, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_encode_matches_fresh_pack(self, pairs):
        for type_id, serial in pairs:
            expected = struct.pack(">HQ", type_id, serial)
            # Two distinct instances with equal fields hit the same
            # cache entry; both must produce the reference bytes.
            assert Oid(type_id, serial).encode() == expected
            assert Oid(type_id, serial).encode() == expected
            assert Oid.decode(expected) == Oid(type_id, serial)

    def test_repeated_encode_is_stable(self):
        oid = Oid(7, 123456789)
        first = oid.encode()
        assert all(oid.encode() == first for _ in range(5))


class TestCostModelMemo:
    """The memoized run cost equals the documented formula."""

    @staticmethod
    def reference_cost(model, distance, n_pages):
        """The formula from the class docstring, computed directly."""
        positioning = 0.0
        if distance > 0:
            positioning = model.settle + model.seek_per_page * distance
        return (
            positioning
            + model.rotational_latency
            + model.transfer * n_pages
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 5000), st.integers(1, 64)),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_formula_in_any_order(self, calls):
        model = CostModel()
        for distance, n_pages in calls:
            expected = self.reference_cost(model, distance, n_pages)
            # First call populates the memo, second call reads it.
            assert model.run_service_time(distance, n_pages) == expected
            assert model.run_service_time(distance, n_pages) == expected

    def test_memo_is_per_instance(self):
        fast = CostModel()
        fast.run_service_time(10, 4)  # warm one instance's memo
        slow = SlowSeek()
        assert slow.run_service_time(10, 4) == self.reference_cost(
            slow, 10, 4
        )


class SlowSeek(CostModel):
    """A second pricing, for the per-instance memo."""

    seek_per_page = 1.0


def fresh_store():
    """An empty store on its own simulated disk."""
    disk = SimulatedDisk()
    return ObjectStore(disk, BufferManager(disk))


@st.composite
def store_op_streams(draw):
    """Random store streams over a small OID space.

    Beside store / fetch / overwrite, a stream migrates objects, and
    writes pages behind the store's back through a fixed frame: a
    same-length ``poke`` of new field values and a ``tombstone``.
    """
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "store",
                        "store",
                        "fetch",
                        "fetch",
                        "overwrite",
                        "migrate",
                        "poke",
                        "tombstone",
                    ]
                ),
                st.integers(1, 10),  # serial
                st.integers(-100, 100),  # payload marker / target page
            ),
            max_size=40,
        )
    )


def paper_record(serial, marker):
    """A paper-format record whose first field is ``marker``."""
    return ObjectRecord(
        ints=[marker, serial, 0, 1],
        refs=[Oid(1, serial + slot) for slot in range(8)],
    )


def run_store_op(store, extent, kind, serial, marker, forget=None):
    """One stream operation; returns ``("ok", value)`` or ``("raised", type)``.

    ``forget`` runs between a write and the fetch that reads it back:
    clearing the decoded cache there makes that fetch decode the page.
    """
    oid = Oid(3, serial)
    record = paper_record(serial, marker)
    try:
        if kind == "store":
            # One home page per serial keeps the pages from filling.
            page_id = extent.start + serial - 1
            return "ok", store.store_page(page_id, [(oid, record)])[0]
        if kind == "fetch":
            return "ok", store.fetch(oid).encode()
        if kind == "overwrite":
            store.overwrite(oid, record)
            if forget is not None:
                forget()
            return "ok", store.fetch(oid).encode()
        if kind == "migrate":
            return "ok", store.migrate(oid, extent.start + marker % 20)
        rid = store.directory.lookup(oid)
        with store.buffer.fixed(rid.page_id, dirty=True) as page:
            if kind == "poke":
                page.update(rid.slot, oid.encode() + record.encode())
            else:
                page.delete(rid.slot)
        return "ok", store.fetch(oid).encode() if kind == "poke" else None
    except ReproError as exc:
        return "raised", type(exc)


class TestDecodedRecordCache:
    """Fetch via the decoded cache equals fetch via the codec."""

    @given(store_op_streams())
    @example(
        [
            ("store", 1, 5),
            ("store", 2, 6),
            ("migrate", 1, 1),  # onto serial 2's page
            ("poke", 1, 9),
            ("fetch", 1, 0),
            ("tombstone", 2, 0),
            ("fetch", 2, 0),
        ]
    )
    @settings(max_examples=80, deadline=None)
    def test_cached_store_matches_codec_only_store(self, ops):
        cached = fresh_store()
        naive = fresh_store()
        cached_extent = cached.disk.allocate(20)
        naive_extent = naive.disk.allocate(20)
        dead = set()
        for kind, serial, marker in ops:
            # Force the codec path, also for the read-back of an
            # overwrite, which fills the cache again.
            forget = naive._decoded.clear
            forget()
            outcome = run_store_op(cached, cached_extent, kind, serial, marker)
            expected = run_store_op(
                naive, naive_extent, kind, serial, marker, forget=forget
            )
            assert outcome == expected
            # A fetch that raised holds no pin.
            assert cached.buffer.pinned_pages == 0
            assert naive.buffer.pinned_pages == 0
            if outcome[0] != "ok":
                continue
            if kind == "poke":
                # The page changed behind the cache: the fetch decodes it.
                assert outcome[1] == paper_record(serial, marker).encode()
            elif kind == "tombstone":
                dead.add(serial)
            elif kind == "fetch":
                assert serial not in dead
        for serial in dead:
            outcome = run_store_op(cached, cached_extent, "fetch", serial, 0)
            assert outcome == ("raised", BadSlotError)
            assert cached.buffer.pinned_pages == 0
