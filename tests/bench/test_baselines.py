"""Tests for the Section 2 TID-scan baseline driver."""

from repro.bench.baselines import baseline_tid_scan, flat_template


class TestFlatTemplate:
    def test_single_node(self):
        template = flat_template()
        assert template.node_count == 1
        assert template.root.depth == 0
        assert not template.has_predicates()


class TestSpectrum:
    def test_small_scale_shape(self):
        figure = baseline_tid_scan(db_size=300, windows=(1, 10, 50))
        assert not figure.violations
        assert set(figure.series) == {
            "assembly (elevator)",
            "naive TID scan",
            "fully sorted TID scan",
        }
        assembly = figure.ys("assembly (elevator)")
        naive = figure.ys("naive TID scan")[0]
        full_sort = figure.ys("fully sorted TID scan")[0]
        assert full_sort < assembly[-1] < naive


class TestStreaming:
    def test_assembly_streams_sorted_scan_materializes(self):
        """'A pointer join would require at least one input to be
        completely scanned before producing a single result.  Assembly
        can touch a number of objects ranging from only those needed
        for one complex object up to the entire window.' (Section 4)"""
        from repro.bench.harness import ExperimentConfig, build_layout
        from repro.core.assembly import Assembly
        from repro.iterator import ListSource
        from repro.volcano.scan import TidScan

        config = ExperimentConfig(
            n_complex_objects=200, clustering="unclustered", window_size=1
        )

        # Sorted TID scan: all 200 pointers fetched... no — sorted scan
        # fetches lazily but must *materialize and sort* every pointer
        # before the first fetch.  Assembly reads at most its window.
        _db, layout = build_layout(config)
        operator = Assembly(
            ListSource(layout.root_order),
            layout.store,
            flat_template(),
            window_size=10,
            scheduler="elevator",
        )
        operator.open()
        first = operator.next()
        assert first is not None
        # Only up to one window of objects was fetched for one result.
        assert operator.stats.fetches <= 10
        assert layout.store.disk.stats.reads <= 10
        operator.close()

        _db, layout = build_layout(config)
        scan = TidScan(
            ListSource(layout.root_order), layout.store, order="sorted"
        )
        scan.open()
        scan.next()
        # The sorted scan consumed its entire input before result one.
        assert scan._pending is not None
        assert len(scan._pending) == 200
        scan.close()
