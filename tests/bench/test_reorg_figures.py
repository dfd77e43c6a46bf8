"""The G-figure family: run once at CI scale, assert every claim.

Unlike the R/F families there is no reduced-scale variant here — the
reorganization win is a workload property (hot footprints must exceed
the buffer) and the full driver runs in a few seconds — so the tests
share one run of the exact configuration the CI baseline archives.
"""

import pytest

from repro.bench.figures import ALL_FIGURES
from repro.bench.reorg import _make_schedule, _zipf_weights, figure_reorg
from repro.errors import ReproError
from repro.storage.oid import Oid


@pytest.fixture(scope="module")
def figures():
    return figure_reorg()


class TestFigureReorg:
    def test_ids_and_no_violations(self, figures):
        assert [f.figure_id for f in figures] == [
            "Figure G-1",
            "Figure G-2",
            "Figure G-3",
        ]
        for figure in figures:
            assert figure.violations == [], (
                f"{figure.figure_id}: {figure.violations}"
            )

    def test_g1_reorg_beats_every_static_total(self, figures):
        g1 = figures[0]
        reorg_total = sum(g1.ys("intra-object + reorg"))
        for clustering in ("unclustered", "inter-object", "intra-object"):
            assert reorg_total < sum(g1.ys(clustering))

    def test_g2_migrations_spike_at_the_shift(self, figures):
        g2 = figures[1]
        migrations = g2.ys("objects migrated")
        # Phases are 1-indexed; the shift lands after phase 3, so the
        # second half must re-cluster: migrations happen there too.
        assert sum(migrations[:3]) > 0
        assert sum(migrations[3:]) > 0

    def test_g3_anchor_series_coincide(self, figures):
        g3 = figures[2]
        assert g3.ys("reorg_policy=None") == g3.ys("no reorg kwarg")

    def test_registered_in_the_figure_catalog(self):
        assert "reorg" in ALL_FIGURES


class TestScheduleGenerator:
    def test_zipf_weights_are_monotone(self):
        weights = _zipf_weights(5)
        assert weights == sorted(weights, reverse=True)

    def test_schedule_shifts_to_a_disjoint_hot_set(self):
        roots = [Oid(1, serial) for serial in range(1, 41)]
        schedule = _make_schedule(
            roots,
            phases=4,
            shift_phase=2,
            n_groups=2,
            group_size=10,
            queries_per_phase=6,
            seed=9,
        )
        assert len(schedule) == 4
        before = {
            oid for phase in schedule[:2] for query in phase for oid in query
        }
        after = {
            oid for phase in schedule[2:] for query in phase for oid in query
        }
        assert before.isdisjoint(after)

    def test_schedule_is_deterministic(self):
        roots = [Oid(1, serial) for serial in range(1, 41)]
        args = dict(
            phases=3,
            shift_phase=2,
            n_groups=2,
            group_size=8,
            queries_per_phase=5,
            seed=4,
        )
        assert _make_schedule(roots, **args) == _make_schedule(roots, **args)

    def test_too_small_database_is_rejected(self):
        with pytest.raises(ReproError):
            _make_schedule(
                [Oid(1, 1)],
                phases=2,
                shift_phase=1,
                n_groups=2,
                group_size=10,
                queries_per_phase=4,
                seed=0,
            )
