"""Tests for layout diagnostics — the Figure 8–12 claims, measured."""


from repro.cluster.analysis import describe_profile, profile_layout
from repro.cluster.layout import layout_database
from repro.cluster.policies import (
    InterObjectClustering,
    IntraObjectClustering,
    Unclustered,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.store import ObjectStore
from repro.workloads.acob import generate_acob


def make_profile(policy, n=30, seed=3):
    db = generate_acob(n, seed=seed)
    store = ObjectStore(SimulatedDisk())
    layout = layout_database(db.complex_objects, store, policy, seed=1)
    return profile_layout(layout, db.complex_objects), layout


class TestIntraObject:
    def test_tight_spans(self):
        profile, _layout = make_profile(IntraObjectClustering())
        # Seven objects at nine per page: span of at most one page.
        assert max(profile.spans) <= 1
        assert profile.mean_reference_distance <= 1.0

    def test_dense_fill(self):
        profile, _layout = make_profile(IntraObjectClustering())
        assert profile.overall_fill > 0.9


class TestInterObject:
    def test_sparse_clusters_figure_12(self):
        """'the cluster size is larger than any database size used'."""
        profile, _layout = make_profile(
            InterObjectClustering(cluster_pages=64)
        )
        # 30 objects per type over 64-page (576-object) clusters.
        for extent in profile.extents:
            assert extent.fill_factor < 0.10
            assert extent.stored_objects == 30

    def test_wide_reference_distances(self):
        """References cross clusters: distances dwarf intra-object's."""
        inter, _ = make_profile(InterObjectClustering(cluster_pages=64))
        intra, _ = make_profile(IntraObjectClustering())
        assert (
            inter.mean_reference_distance
            > 20 * max(intra.mean_reference_distance, 1.0)
        )

    def test_spans_cover_the_cluster_range(self):
        profile, layout = make_profile(
            InterObjectClustering(cluster_pages=64)
        )
        total_pages = layout.pages_spanned()
        assert max(profile.spans) <= total_pages
        assert profile.mean_span > 64  # crosses several clusters


class TestUnclustered:
    def test_scattered_spans(self):
        profile, layout = make_profile(Unclustered())
        # Random placement: typical span is a large fraction of the DB.
        assert profile.mean_span > layout.pages_spanned() / 4

    def test_full_fill(self):
        profile, _layout = make_profile(Unclustered())
        assert profile.overall_fill > 0.9


class TestDescribe:
    def test_report_contains_numbers(self):
        profile, _layout = make_profile(
            InterObjectClustering(cluster_pages=64)
        )
        text = describe_profile(profile)
        assert "overall fill" in text
        assert "mean complex-object span" in text
        assert "type-1" in text
