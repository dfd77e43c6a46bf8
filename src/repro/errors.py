"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: storage-layer errors, query-engine errors, and assembly errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this package."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageError(StorageError):
    """A slotted-page operation failed (bad slot, no free space, ...)."""


class PageFullError(PageError):
    """The record does not fit into the page's free space."""


class BadSlotError(PageError):
    """A slot id does not address a live record."""


class DiskError(StorageError):
    """The simulated disk was asked for an invalid page."""


class ExtentError(DiskError):
    """Extent allocation failed or an address fell outside its extent."""


class BufferError_(StorageError):
    """Base class for buffer-manager failures.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`BufferError`.
    """


class BufferFullError(BufferError_):
    """All buffer frames are pinned; nothing can be evicted."""


class PinError(BufferError_):
    """A page was unfixed more times than it was fixed."""


class RecordError(StorageError):
    """Record encoding or decoding failed."""


class UnknownOidError(StorageError):
    """An OID has no entry in the OID directory."""


class DuplicateOidError(StorageError):
    """An OID was stored twice."""


class FaultError(StorageError):
    """Base class of injected I/O failures (:mod:`repro.storage.faults`).

    Raised only while a :class:`~repro.storage.faults.FaultInjector` is
    attached to a disk; the fault-free path never sees this family.
    """


class TransientReadError(FaultError):
    """A physical read failed transiently; retrying may succeed.

    Carries the faulted ``page_id``, the ``device`` it lives on, and
    the 1-based ``attempt`` count of consecutive failures on that page.
    """

    def __init__(
        self,
        message: str = "transient read error",
        page_id: int = -1,
        device: int = 0,
        attempt: int = 0,
    ) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.device = device
        self.attempt = attempt


class DeviceDownError(FaultError):
    """A device is inside a down interval and rejects all reads.

    ``retry_after`` is the injector-clock time at which the interval
    ends (``None`` if unknown) — circuit breakers quarantine the
    device until then instead of retrying blindly.
    """

    def __init__(
        self,
        message: str = "device down",
        device: int = 0,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.device = device
        self.retry_after = retry_after


class RetriesExhaustedError(FaultError):
    """A retry policy gave up on a faulted read.

    Chains the final underlying fault as ``__cause__``; carries the
    faulted ``page_id``/``device`` and how many retries were spent.
    """

    def __init__(
        self,
        message: str = "retries exhausted",
        page_id: int = -1,
        device: int = 0,
        retries: int = 0,
    ) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.device = device
        self.retries = retries


# ---------------------------------------------------------------------------
# Volcano query engine
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query-engine failures."""


class IteratorStateError(QueryError):
    """An iterator was driven outside the open/next/close protocol."""


class PlanError(QueryError):
    """A query plan is malformed."""


# ---------------------------------------------------------------------------
# Assembly operator
# ---------------------------------------------------------------------------


class AssemblyError(ReproError):
    """Base class for assembly-operator failures."""


class TemplateError(AssemblyError):
    """A template is structurally invalid."""


class SchedulerError(AssemblyError):
    """A scheduling structure was misused (pop from empty pool, ...)."""


class WindowError(AssemblyError):
    """Sliding-window bookkeeping failed."""


# ---------------------------------------------------------------------------
# Assembly service
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for assembly-service failures."""


class ServiceOverloadError(ServiceError):
    """Admission control rejected a request: budget and wait queue full."""


class ServiceStateError(ServiceError):
    """A service request was driven outside its lifecycle."""


# ---------------------------------------------------------------------------
# Service fabric
# ---------------------------------------------------------------------------


class FabricError(ServiceError):
    """The sharded service fabric was misconfigured or misdriven."""
