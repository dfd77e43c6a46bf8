"""Tests for the Volcano iterator protocol."""

import pytest

from repro.errors import IteratorStateError
from repro.iterator import ListSource


class TestProtocol:
    def test_lifecycle(self):
        source = ListSource([1, 2])
        source.open()
        assert source.next() == 1
        assert source.next() == 2
        assert source.next() is None
        source.close()

    def test_next_before_open(self):
        with pytest.raises(IteratorStateError):
            ListSource([1]).next()

    def test_double_open(self):
        source = ListSource([1])
        source.open()
        with pytest.raises(IteratorStateError):
            source.open()

    def test_close_before_open(self):
        with pytest.raises(IteratorStateError):
            ListSource([1]).close()

    def test_double_close(self):
        source = ListSource([])
        source.open()
        source.close()
        with pytest.raises(IteratorStateError):
            source.close()

    def test_next_after_close(self):
        source = ListSource([1])
        source.open()
        source.close()
        with pytest.raises(IteratorStateError):
            source.next()

    def test_reopen_after_close(self):
        """Volcano re-opens inner join inputs; iterators must support it."""
        source = ListSource([1, 2])
        assert source.execute() == [1, 2]
        assert source.execute() == [1, 2]

    def test_is_open(self):
        source = ListSource([])
        assert not source.is_open
        source.open()
        assert source.is_open
        source.close()
        assert not source.is_open


class TestHelpers:
    def test_rows_generator_drives_protocol(self):
        source = ListSource([1, 2, 3])
        assert list(source.rows()) == [1, 2, 3]
        assert not source.is_open  # closed when exhausted

    def test_rows_closes_on_early_exit(self):
        source = ListSource([1, 2, 3])
        for row in source.rows():
            break
        assert not source.is_open

    def test_execute(self):
        assert ListSource(["a", "b"]).execute() == ["a", "b"]

    def test_empty_source(self):
        assert ListSource([]).execute() == []
