"""The assembly operator under injected faults: retry and degradation."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, build_layout
from repro.core.assembly import PARTIAL, SKIP_OBJECT, Assembly
from repro.errors import AssemblyError, FaultError, RetriesExhaustedError
from repro.service.server import AssemblyService
from repro.storage.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.iterator import ListSource
from repro.workloads.acob import make_template


def build(n=30):
    config = ExperimentConfig(
        n_complex_objects=n,
        clustering="inter-object",
        scheduler="elevator",
        window_size=8,
        cluster_pages=64,
    )
    return build_layout(config)


def operator_for(db, layout, **kwargs):
    return Assembly(
        ListSource(layout.root_order),
        layout.store,
        make_template(db),
        window_size=8,
        scheduler="elevator",
        **kwargs,
    )


def leaf_only_page(db, layout):
    """A page holding only non-root components (degradable subtrees)."""
    store = layout.store
    roots = {co.root for co in db.complex_objects}
    by_page = {}
    oids = [oid for co in db.complex_objects for oid in co.objects]
    oids.extend(db.shared_pool)
    for oid in oids:
        by_page.setdefault(store.directory.page_of(oid), set()).add(oid)
    for page, members in sorted(by_page.items()):
        if not members & roots:
            return page
    raise AssertionError("no root-free page in this layout")


class TestValidation:
    def test_unknown_mode_rejected(self):
        db, layout = build(n=3)
        with pytest.raises(AssemblyError):
            operator_for(db, layout, on_fault="explode")


class TestRetriesMaskFaults:
    def test_output_identical_to_fault_free_run(self):
        db, layout = build()
        expected = [c.root.oid for c in operator_for(db, layout).execute()]

        db2, layout2 = build()
        injector = FaultInjector(
            FaultConfig(seed=5, read_error_rate=0.15)
        ).attach(layout2.store.disk)
        operator = operator_for(
            db2, layout2, retry_policy=RetryPolicy(max_retries=3)
        )
        emitted = operator.execute()
        assert [c.root.oid for c in emitted] == expected
        for cobj in emitted:
            cobj.verify_swizzled()
        assert injector.stats.transient_errors > 0
        assert operator.stats.fault_retries > 0
        assert operator.stats.fault_retries == injector.stats.transient_errors
        assert operator.stats.fault_backoff_ms == injector.stats.backoff_ms
        assert operator.stats.fault_skipped == 0
        assert layout2.store.buffer.pinned_pages == 0

    def test_seek_accounting_unchanged_by_retries(self):
        """Failed attempts never move the head: the faulted-but-retried
        run charges exactly the seeks of the fault-free run."""
        db, layout = build()
        operator_for(db, layout).execute()
        clean = layout.store.disk.stats

        db2, layout2 = build()
        FaultInjector(
            FaultConfig(seed=5, read_error_rate=0.15)
        ).attach(layout2.store.disk)
        operator_for(
            db2, layout2, retry_policy=RetryPolicy(max_retries=3)
        ).execute()
        faulted = layout2.store.disk.stats
        assert faulted.read_seeks == clean.read_seeks
        assert faulted.reads == clean.reads
        assert faulted.pages_read == clean.pages_read


class TestFailFast:
    def test_no_policy_raises_the_fault(self):
        db, layout = build(n=10)
        FaultInjector(
            FaultConfig(seed=5, read_error_rate=0.3)
        ).attach(layout.store.disk)
        operator = operator_for(db, layout)  # no retry policy
        with pytest.raises(FaultError):
            operator.execute()

    def test_exhausted_retries_raise_with_context(self):
        db, layout = build(n=10)
        page = leaf_only_page(db, layout)
        FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({page}),
                max_consecutive_failures=None,
            )
        ).attach(layout.store.disk)
        operator = operator_for(
            db, layout, retry_policy=RetryPolicy(max_retries=2)
        )
        with pytest.raises(RetriesExhaustedError) as caught:
            operator.execute()
        assert caught.value.page_id == page
        assert caught.value.retries == 2


class TestSkipObject:
    def test_faulted_objects_skipped_rest_emitted(self):
        db, layout = build()
        page = leaf_only_page(db, layout)
        FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({page}),
                max_consecutive_failures=None,
            )
        ).attach(layout.store.disk)
        operator = operator_for(
            db, layout,
            retry_policy=RetryPolicy(max_retries=1),
            on_fault=SKIP_OBJECT,
        )
        emitted = operator.execute()
        stats = operator.stats
        assert stats.fault_skipped > 0
        assert len(emitted) + stats.fault_skipped == len(db.complex_objects)
        assert stats.fault_skipped == stats.aborted
        # Skipped is all-or-nothing: nothing emitted is degraded.
        assert all(not c.degraded for c in emitted)
        for cobj in emitted:
            cobj.verify_swizzled()
        assert layout.store.buffer.pinned_pages == 0


class TestPartial:
    def test_degraded_objects_emitted_with_markers(self):
        db, layout = build()
        page = leaf_only_page(db, layout)
        FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({page}),
                max_consecutive_failures=None,
            )
        ).attach(layout.store.disk)
        operator = operator_for(
            db, layout,
            retry_policy=RetryPolicy(max_retries=1),
            on_fault=PARTIAL,
        )
        emitted = operator.execute()
        stats = operator.stats
        # Only non-root, predicate-free subtrees degrade; the faulted
        # page holds no roots, so every object still comes out.
        assert len(emitted) == len(db.complex_objects)
        assert stats.degraded_emitted > 0
        assert stats.missing_components >= stats.degraded_emitted
        assert stats.fault_skipped == 0
        degraded = [c for c in emitted if c.degraded]
        assert len(degraded) == stats.degraded_emitted
        for cobj in degraded:
            assert cobj.missing_components > 0
        for cobj in emitted:
            if not cobj.degraded:
                assert cobj.missing_components == 0
                cobj.verify_swizzled()
        assert layout.store.buffer.pinned_pages == 0

    def test_partial_on_root_falls_back_to_skip(self):
        """A faulted root has no parent to hang a partial result on:
        the object is skipped even in partial mode."""
        db, layout = build(n=10)
        root_page = layout.store.directory.page_of(db.complex_objects[0].root)
        FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({root_page}),
                max_consecutive_failures=None,
            )
        ).attach(layout.store.disk)
        operator = operator_for(
            db, layout,
            retry_policy=RetryPolicy(max_retries=1),
            on_fault=PARTIAL,
        )
        emitted = operator.execute()
        assert operator.stats.fault_skipped > 0
        assert (
            len(emitted) + operator.stats.fault_skipped
            == len(db.complex_objects)
        )


class TestServiceIntegration:
    def test_degraded_results_surface_but_are_not_cached(self):
        db, layout = build()
        page = leaf_only_page(db, layout)
        FaultInjector(
            FaultConfig(
                always_fail_pages=frozenset({page}),
                max_consecutive_failures=None,
            )
        ).attach(layout.store.disk)
        service = AssemblyService(layout.store)
        template = make_template(db)
        kwargs = dict(
            retry_policy=RetryPolicy(max_retries=1), on_fault=PARTIAL
        )
        first = service.submit(layout.root_order, template, **kwargs)
        results = service.result(first)
        assert any(c.degraded for c in results)
        snapshot = service.metrics.snapshot()
        assert snapshot["objects_degraded"] > 0
        assert snapshot["fault_retries"] > 0
        assert service.request_metrics(first).degraded > 0

        # Degraded objects never entered the cache: resubmitting the
        # same roots misses for every degraded root.
        degraded_roots = {c.root_oid for c in results if c.degraded}
        second = service.submit(layout.root_order, template, **kwargs)
        service.result(second)
        hits = service.request_metrics(second).cache_hits
        assert hits == len(layout.root_order) - len(degraded_roots)
