"""Tests for the sliding-window bookkeeping."""

import pytest

from repro.core.window import ComplexObjectState, Window
from repro.errors import WindowError
from repro.storage.oid import Oid


class TestWindow:
    def test_admit_until_full(self):
        window = Window(2)
        window.admit(Oid(1, 1), total_nodes=7, total_predicates=0)
        window.admit(Oid(1, 2), total_nodes=7, total_predicates=0)
        assert window.is_full
        with pytest.raises(WindowError):
            window.admit(Oid(1, 3), total_nodes=7, total_predicates=0)

    def test_serials_are_unique_and_increasing(self):
        window = Window(3)
        serials = [
            window.admit(Oid(1, s), 1, 0).serial for s in range(1, 4)
        ]
        assert serials == [0, 1, 2]

    def test_retire_frees_capacity(self):
        window = Window(1)
        state = window.admit(Oid(1, 1), 1, 0)
        window.retire(state.serial)
        assert window.is_empty
        window.admit(Oid(1, 2), 1, 0)

    def test_retire_unknown(self):
        with pytest.raises(WindowError):
            Window(1).retire(42)

    def test_find_unknown(self):
        assert Window(1).by_serial.get(0) is None

    def test_peak_occupancy(self):
        window = Window(3)
        a = window.admit(Oid(1, 1), 1, 0)
        window.admit(Oid(1, 2), 1, 0)
        window.retire(a.serial)
        window.admit(Oid(1, 3), 1, 0)
        assert window.peak_occupancy == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(WindowError):
            Window(0)

    def test_contains_and_states(self):
        window = Window(2)
        state = window.admit(Oid(1, 1), 1, 0)
        assert state.serial in window
        assert window.states() == [state]


class TestComplexObjectState:
    def test_gating(self):
        state = ComplexObjectState(
            serial=0, root_oid=Oid(1, 1), pending_predicates=2
        )
        assert state.gate_references()
        state.pending_predicates = 0
        assert not state.gate_references()
