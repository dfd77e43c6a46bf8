"""Tests for the exception hierarchy."""

import ast
import builtins
import inspect
from pathlib import Path

import pytest

from repro import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: the one builtin the library may raise: an abstract method's body.
ALLOWED_BUILTINS = {"NotImplementedError"}
BUILTIN_ERRORS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def builtin_raises(tree):
    """``(line, name)`` of every ``raise`` naming a forbidden builtin."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (
            isinstance(exc, ast.Name)
            and exc.id in BUILTIN_ERRORS
            and exc.id not in ALLOWED_BUILTINS
        ):
            found.append((node.lineno, exc.id))
    return found


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

    def test_the_library_raises_no_builtin_error(self):
        """What ``test_one_base_catches_all`` promises, for every raise:
        no module under ``src/repro`` raises a builtin exception other
        than ``NotImplementedError``."""
        offenders = [
            f"{path.relative_to(SRC.parent)}:{line} raises {name}"
            for path in sorted(SRC.rglob("*.py"))
            for line, name in builtin_raises(ast.parse(path.read_text()))
        ]
        assert offenders == []

    def test_the_audit_sees_what_it_forbids(self):
        tree = ast.parse(
            "def f(x):\n"
            "    if x:\n"
            "        raise ValueError('x')\n"
            "    if not x:\n"
            "        raise KeyError\n"
            "    try:\n"
            "        pass\n"
            "    except OSError as error:\n"
            "        raise errors.ReproError('y') from error\n"
            "    raise NotImplementedError\n"
        )
        assert builtin_raises(tree) == [(3, "ValueError"), (5, "KeyError")]

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
