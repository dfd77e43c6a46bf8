"""Result-cache coherence across reorganization migrations.

PR 1's store-write invalidation was only ever exercised by in-place
``overwrite`` calls — one OID, one page.  A migration is a multi-page
move: the object leaves page P for a fresh extent, and every cached
assembled object whose pin set touched P (i.e. that contains the moved
member) is stale the moment the directory relocates it.  These tests
pin the contract end to end: migrations evict exactly the containing
entries, leave unrelated entries hot, count into
``ServiceMetrics.reorg_cache_invalidations``, and the next poll
re-assembles the evicted root byte-equal from the *new* layout.
"""

from repro.bench.harness import ExperimentConfig, build_layout
from repro.cluster.reorg import ReorgPolicy
from repro.service.server import AssemblyService
from repro.workloads.acob import make_template


def content_of(cobj):
    return tuple(
        (obj.oid, obj.ints, obj.ref_oids, tuple(sorted(obj.children)))
        for obj in cobj.root.walk()
    )


def build_service(**service_kwargs):
    database, layout = build_layout(
        ExperimentConfig(
            n_complex_objects=16,
            clustering="unclustered",
            scheduler="elevator",
            window_size=4,
        )
    )
    template = make_template(database)
    service = AssemblyService(layout.store, **service_kwargs)
    return service, layout, template


#: One assembly pass gives every co-resolved pair weight 1 (the device
#: server feeds the sketch automatically); ``min_weight=3`` keeps that
#: background affinity below threshold so only the explicitly repeated
#: co-accesses in these tests plan migrations.  No test here observes
#: anywhere near ``min_observations`` references, so the round a drained
#: ``run()`` attempts never passes the sketch's readiness gate: only the
#: explicit (forced) ``reorganize()`` calls execute rounds.
RECURRING_ONLY = ReorgPolicy(min_weight=3.0, min_observations=1_000_000)


def assemble(service, template, roots, window=4):
    request_id = service.submit(list(roots), template, window_size=window)
    return service.result(request_id)


class TestMigrationInvalidation:
    def test_direct_migration_evicts_containing_entries(self):
        """The store-level contract, no reorganizer involved: moving any
        member of a cached assembly drops that entry and only that
        entry — the PR 1 write-hook regression for multi-page moves."""
        service, layout, template = build_service(cache_capacity=8)
        victim, bystander = layout.root_order[:2]
        emitted = assemble(service, template, [victim, bystander])
        store = service.store
        fingerprint = template.finalize().fingerprint()
        assert service.cache.get(victim, fingerprint) is not None

        victim_assembly = next(
            cobj for cobj in emitted if cobj.root.oid == victim
        )
        member = next(
            obj.oid
            for obj in victim_assembly.root.walk()
            if obj.oid != victim
        )
        target = store.disk.allocate(1)
        store.migrate(member, target.start)

        assert service.cache.get(victim, fingerprint) is None
        assert service.cache.get(bystander, fingerprint) is not None
        assert service.cache.stats.invalidations >= 1

    def test_reorg_round_invalidates_and_repoll_uses_new_layout(self):
        service, layout, template = build_service(
            cache_capacity=32, reorg_policy=RECURRING_ONLY
        )
        reorg = service.server.reorg
        roots = layout.root_order[:6]
        baseline = {
            cobj.root.oid: content_of(cobj)
            for cobj in assemble(service, template, roots)
        }
        hits_before = service.metrics.cache_hits
        assemble(service, template, roots)  # all six served from cache
        assert service.metrics.cache_hits - hits_before == len(roots)

        # Recurring co-access of two roots' members, then an explicit
        # round in the drained service: their pages get repacked.
        for context in range(4):
            for root in roots[:2]:
                reorg.observe(("hot", context), root)
        report = service.reorganize()
        assert report.migrations > 0
        assert service.metrics.reorg_cache_invalidations > 0

        moved_pages = {service.store.directory.page_of(root) for root in roots[:2]}
        assert moved_pages == {report.extent.start}

        # Next poll: migrated roots re-assemble from the new layout —
        # cache misses, byte-equal content; untouched roots stay hot.
        hits_before = service.metrics.cache_hits
        misses_before = service.metrics.cache_misses
        again = {
            cobj.root.oid: content_of(cobj)
            for cobj in assemble(service, template, roots)
        }
        assert again == baseline
        assert service.metrics.cache_misses - misses_before == 2
        assert (
            service.metrics.cache_hits - hits_before == len(roots) - 2
        )

    def test_invalidation_counter_stays_zero_without_migrations(self):
        service, layout, template = build_service(
            cache_capacity=8, reorg_policy=RECURRING_ONLY
        )
        assemble(service, template, layout.root_order[:3])
        # One pass of background affinity stays below min_weight: the
        # round plans nothing and the cache keeps every entry.
        report = service.reorganize()
        assert report.migrations == 0
        assert service.metrics.reorg_cache_invalidations == 0
        assert len(service.cache) == 3
