"""The assembled-object cache: LRU behaviour and write invalidation."""

import pytest

from repro.bench.harness import ExperimentConfig, build_layout
from repro.core.assembly import Assembly
from repro.errors import ServiceStateError
from repro.service.cache import AssembledObjectCache
from repro.iterator import ListSource
from repro.workloads.acob import make_template


@pytest.fixture(scope="module")
def assembled():
    """(template fingerprint, store, assembled objects) for 12 roots."""
    config = ExperimentConfig(
        n_complex_objects=12,
        clustering="inter-object",
        scheduler="elevator",
        window_size=4,
        cluster_pages=64,
    )
    database, layout = build_layout(config)
    template = make_template(database).finalize()
    operator = Assembly(
        ListSource(layout.root_order),
        layout.store,
        template,
        window_size=4,
        scheduler="elevator",
    )
    objects = operator.execute()
    return template.fingerprint(), layout.store, objects


class TestLookup:
    def test_hit_and_miss_stats(self, assembled):
        fingerprint, _store, objects = assembled
        cache = AssembledObjectCache(capacity=8)
        cache.put(fingerprint, objects[0])
        assert cache.get(objects[0].root_oid, fingerprint) is objects[0]
        assert cache.get(objects[1].root_oid, fingerprint) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_root_different_template_is_a_miss(self, assembled):
        fingerprint, _store, objects = assembled
        cache = AssembledObjectCache(capacity=8)
        cache.put(fingerprint, objects[0])
        assert cache.get(objects[0].root_oid, "other-template") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ServiceStateError):
            AssembledObjectCache(capacity=0)


class TestEviction:
    def test_lru_evicts_the_coldest_entry(self, assembled):
        fingerprint, _store, objects = assembled
        cache = AssembledObjectCache(capacity=2)
        cache.put(fingerprint, objects[0])
        cache.put(fingerprint, objects[1])
        cache.get(objects[0].root_oid, fingerprint)  # refresh 0
        cache.put(fingerprint, objects[2])  # evicts 1, the coldest
        assert cache.get(objects[0].root_oid, fingerprint) is not None
        assert cache.get(objects[1].root_oid, fingerprint) is None
        assert cache.stats.evictions == 1

    def test_len_tracks_entries(self, assembled):
        fingerprint, _store, objects = assembled
        cache = AssembledObjectCache(capacity=4)
        for obj in objects[:6]:
            cache.put(fingerprint, obj)
        assert len(cache) == 4


class TestInvalidation:
    def test_writing_any_member_drops_containing_entries(self, assembled):
        fingerprint, _store, objects = assembled
        cache = AssembledObjectCache(capacity=8)
        cache.put(fingerprint, objects[0])
        cache.put(fingerprint, objects[1])
        # Pick a NON-root member: the whole cached structure is stale
        # when any component is rewritten, not just the root.
        member = next(
            obj.oid
            for obj in objects[0].scan()
            if obj.oid != objects[0].root_oid
        )
        dropped = cache.invalidate(member)
        assert dropped == 1
        assert cache.get(objects[0].root_oid, fingerprint) is None
        assert cache.get(objects[1].root_oid, fingerprint) is not None
        assert cache.stats.invalidations == 1

    def test_store_write_hook_invalidates(self, assembled):
        fingerprint, store, objects = assembled
        cache = AssembledObjectCache(capacity=8)
        cache.wire(store)
        try:
            cache.put(fingerprint, objects[3])
            member = next(iter(objects[3].scan())).oid
            store.overwrite(member, store.fetch(member))
            assert cache.get(objects[3].root_oid, fingerprint) is None
            assert cache.stats.invalidations == 1
        finally:
            cache.unwire()

    def test_unwire_stops_following_writes(self, assembled):
        fingerprint, store, objects = assembled
        cache = AssembledObjectCache(capacity=8)
        cache.wire(store)
        cache.unwire()
        cache.put(fingerprint, objects[4])
        root = objects[4].root_oid
        store.overwrite(root, store.fetch(root))
        assert cache.get(root, fingerprint) is not None

    def test_clear_drops_everything(self, assembled):
        fingerprint, _store, objects = assembled
        cache = AssembledObjectCache(capacity=8)
        for obj in objects[:3]:
            cache.put(fingerprint, obj)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(objects[0].root_oid, fingerprint) is None
