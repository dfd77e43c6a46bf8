"""EventQueue: ordering, tie-breaks, lazy cancellation."""

from __future__ import annotations

import pytest

from repro.errors import DiskError
from repro.storage.events import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.schedule(30.0, "c")
        queue.schedule(10.0, "a")
        queue.schedule(20.0, "b")
        assert queue.next_time() == 10.0
        assert [queue.pop() for _ in range(3)] == [
            (10.0, "a"),
            (20.0, "b"),
            (30.0, "c"),
        ]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for payload in ("first", "second", "third"):
            queue.schedule(5.0, payload)
        assert [queue.pop()[1] for _ in range(3)] == [
            "first",
            "second",
            "third",
        ]

    def test_unhashable_payloads_are_fine(self):
        queue = EventQueue()
        queue.schedule(1.0, ["list", "payload"])
        queue.schedule(1.0, {"dict": "payload"})
        assert queue.pop() == (1.0, ["list", "payload"])


class TestCancellation:
    def test_cancelled_events_never_surface(self):
        queue = EventQueue()
        keep = queue.schedule(1.0, "keep")
        drop = queue.schedule(0.5, "drop")
        queue.cancel(drop)
        assert queue.next_time() == 1.0
        assert queue.pop() == (1.0, "keep")
        assert queue.next_time() is None
        del keep

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "x")
        queue.cancel(handle)
        queue.cancel(handle)
        assert queue.next_time() is None

    def test_unknown_handle_rejected(self):
        queue = EventQueue()
        with pytest.raises(DiskError):
            queue.cancel(7)


class TestEdges:
    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.next_time() is None
        with pytest.raises(DiskError):
            queue.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(DiskError):
            EventQueue().schedule(-0.1, "early")

    def test_zero_time_is_valid(self):
        queue = EventQueue()
        queue.schedule(0.0, "genesis")
        assert queue.pop() == (0.0, "genesis")
