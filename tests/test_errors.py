"""Tests for the exception hierarchy."""

import inspect

import pytest

from repro import errors


def all_error_classes():
    return [
        obj
        for _name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception)
    ]


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in all_error_classes():
            assert issubclass(cls, errors.ReproError)

    def test_storage_family(self):
        for cls in (
            errors.PageError,
            errors.PageFullError,
            errors.BadSlotError,
            errors.DiskError,
            errors.ExtentError,
            errors.BufferFullError,
            errors.PinError,
            errors.RecordError,
            errors.UnknownOidError,
            errors.DuplicateOidError,
            errors.FaultError,
        ):
            assert issubclass(cls, errors.StorageError)

    def test_fault_family(self):
        for cls in (
            errors.TransientReadError,
            errors.DeviceDownError,
            errors.RetriesExhaustedError,
        ):
            assert issubclass(cls, errors.FaultError)
        # A retry loop that catches StorageError (pre-fault code) still
        # catches the whole injected-fault family.
        assert issubclass(errors.FaultError, errors.StorageError)
        assert not issubclass(errors.FaultError, errors.AssemblyError)

    def test_assembly_family(self):
        for cls in (
            errors.TemplateError,
            errors.SchedulerError,
            errors.WindowError,
        ):
            assert issubclass(cls, errors.AssemblyError)

    def test_query_family(self):
        for cls in (errors.IteratorStateError, errors.PlanError):
            assert issubclass(cls, errors.QueryError)

    def test_one_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.BufferFullError("x")
        with pytest.raises(errors.ReproError):
            raise errors.PlanError("x")

    def test_storage_does_not_cross_into_query(self):
        assert not issubclass(errors.PageError, errors.QueryError)
        assert not issubclass(errors.PlanError, errors.StorageError)

    def test_every_class_is_documented(self):
        for cls in all_error_classes():
            assert cls.__doc__, f"{cls.__name__} has no docstring"


class TestFaultAttributes:
    """The fault classes carry enough context to act on programmatically."""

    def test_transient_read_error(self):
        exc = errors.TransientReadError(
            "boom", page_id=17, device=2, attempt=3
        )
        assert exc.page_id == 17
        assert exc.device == 2
        assert exc.attempt == 3
        with pytest.raises(errors.ReproError):
            raise exc

    def test_device_down_error(self):
        exc = errors.DeviceDownError("down", device=1, retry_after=40.0)
        assert exc.device == 1
        assert exc.retry_after == 40.0
        assert errors.DeviceDownError().retry_after is None

    def test_retries_exhausted_chains_the_final_fault(self):
        cause = errors.TransientReadError(page_id=9)
        try:
            try:
                raise cause
            except errors.FaultError as inner:
                raise errors.RetriesExhaustedError(
                    "gave up", page_id=9, device=0, retries=2
                ) from inner
        except errors.RetriesExhaustedError as exc:
            assert exc.__cause__ is cause
            assert exc.page_id == 9
            assert exc.retries == 2

    def test_all_fault_classes_default_constructible(self):
        for cls in (
            errors.FaultError,
            errors.TransientReadError,
            errors.DeviceDownError,
            errors.RetriesExhaustedError,
        ):
            assert isinstance(cls(), errors.FaultError)
