"""Admission control: pricing queries by the paper's pin bound.

Section 6.3.3 prices a window of W in-flight complex objects at
``(N-1)*(W-1) + N`` pinned pages (N = template node count; the paper's
7-object template gives ``6*(W-1) + 7``).  The admission controller
treats that bound as each request's worst-case claim on the buffer pool
and keeps the sum of claims within a fixed page budget:

* a request that fits is **admitted** at its asked window size;
* a request that does not fit is **shrunk** — its window is reduced
  (halving, floor ``min_window``) until its bound fits the remaining
  budget;
* when even the minimum window does not fit, the request **waits** in
  a bounded FIFO queue;
* when the wait queue itself is full, the request is **rejected** with
  a typed :class:`~repro.errors.ServiceOverloadError` — load shedding,
  not an infinite backlog.

When the budget is backed by a real bounded
:class:`~repro.storage.buffer.BufferManager`, the controller mirrors
every grant into the buffer's reservation ledger so buffer accounting
and admission accounting cannot drift apart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.core.template import Template
from repro.core.tuning import pin_bound
from repro.errors import ServiceOverloadError, ServiceStateError
from repro.storage.buffer import BufferManager


@dataclass
class AdmissionTicket:
    """The outcome of one admission decision for one request.

    ``window_size`` is the *granted* window (possibly smaller than
    asked); ``pinned_budget`` is the page claim reserved for it, to be
    returned through :meth:`AdmissionController.release` when the
    request finishes.
    """

    request_id: int
    asked_window: int
    window_size: int
    pinned_budget: int
    #: set while the ticket waits in the queue.
    waiting: bool = False

    @property
    def shrunk(self) -> bool:
        """Was the window reduced to fit the budget?"""
        return self.window_size < self.asked_window


class AdmissionController:
    """Keeps concurrent queries' pin claims within a page budget.

    Parameters
    ----------
    budget_pages:
        Total pages grantable at once.  ``None`` means unlimited (every
        request admits immediately at its asked window).
    max_waiting:
        Wait-queue capacity; a request arriving with the queue full raises :class:`ServiceOverloadError`.
    min_window:
        Smallest window shrinking may produce.  Requests whose bound at
        ``min_window`` exceeds the *total* budget are rejected outright
        — they could never run.
    buffer:
        Optional bounded buffer manager to mirror grants into (via its
        ``reserve``/``unreserve`` ledger).
    """

    def __init__(
        self,
        budget_pages: Optional[int] = None,
        max_waiting: int = 16,
        min_window: int = 1,
        buffer: Optional[BufferManager] = None,
    ) -> None:
        if budget_pages is not None and budget_pages <= 0:
            raise ServiceStateError("budget_pages must be positive")
        if max_waiting < 0:
            raise ServiceStateError("max_waiting cannot be negative")
        if min_window <= 0:
            raise ServiceStateError("min_window must be positive")
        self.budget_pages = budget_pages
        self.max_waiting = max_waiting
        self.min_window = min_window
        self._buffer = buffer
        self._granted = 0
        self._queue: "Deque[tuple[AdmissionTicket, Template]]" = deque()
        #: admission outcomes, for metrics: admitted/shrunk/queued/rejected.
        self.admitted = 0
        self.shrunk = 0
        self.queued = 0
        self.rejected = 0
        self.cancelled = 0

    # -- introspection --------------------------------------------------------

    @property
    def granted_pages(self) -> int:
        """Pages currently granted to running requests."""
        return self._granted

    def waiting(self) -> int:
        """Requests parked in the wait queue."""
        return len(self._queue)

    def waiting_ids(self) -> List[int]:
        """Request ids parked in the wait queue, in arrival order."""
        return [ticket.request_id for ticket, _ in self._queue]

    # -- decisions ------------------------------------------------------------

    def _fits(self, pages: int) -> bool:
        return self.budget_pages is None or (
            self._granted + pages <= self.budget_pages
        )

    def _shrink_to_fit(
        self, asked_window: int, template: Template
    ) -> Optional[tuple[int, int]]:
        """Largest (window, bound) fitting the free budget, else None."""
        window = asked_window
        while window >= self.min_window:
            cost = pin_bound(window, template)
            if self._fits(cost):
                return window, cost
            window = max(
                self.min_window, window // 2
            ) if window > self.min_window else 0
        return None

    def _grant(self, ticket: AdmissionTicket) -> None:
        self._granted += ticket.pinned_budget
        if self._buffer is not None:
            self._buffer.reserve(ticket.pinned_budget)

    def submit(
        self,
        request_id: int,
        window_size: int,
        template: Template,
    ) -> AdmissionTicket:
        """Decide one incoming request: admit, shrink, queue or reject.

        Returns a ticket; ``ticket.waiting`` tells whether the request
        may run now or must wait for :meth:`release` to free budget.
        """
        if window_size <= 0:
            raise ServiceStateError("window_size must be positive")
        minimum_cost = pin_bound(self.min_window, template)
        if (
            self.budget_pages is not None
            and minimum_cost > self.budget_pages
        ):
            self.rejected += 1
            raise ServiceOverloadError(
                f"request {request_id}: even a window of {self.min_window} "
                f"pins {minimum_cost} pages > budget {self.budget_pages}"
            )
        fitted = self._shrink_to_fit(window_size, template)
        if fitted is not None:
            window, cost = fitted
            ticket = AdmissionTicket(
                request_id=request_id,
                asked_window=window_size,
                window_size=window,
                pinned_budget=cost,
            )
            self._grant(ticket)
            self.admitted += 1
            if ticket.shrunk:
                self.shrunk += 1
            return ticket
        if self.waiting() >= self.max_waiting:
            self.rejected += 1
            raise ServiceOverloadError(
                f"request {request_id}: buffer budget exhausted "
                f"({self._granted}/{self.budget_pages} pages granted) and "
                f"wait queue full ({self.max_waiting})"
            )
        ticket = AdmissionTicket(
            request_id=request_id,
            asked_window=window_size,
            window_size=window_size,
            pinned_budget=0,
            waiting=True,
        )
        self._queue.append((ticket, template))
        self.queued += 1
        return ticket

    def cancel_waiting(self, ticket: AdmissionTicket) -> None:
        """Remove a still-waiting ticket from the wait queue.

        Cancelling a waiting request frees no budget (none was
        granted), so nothing can start as a consequence — unlike
        :meth:`release`.  Raises :class:`ServiceStateError` if the
        ticket is not actually parked in the queue (already admitted
        tickets must go through :meth:`release` instead).
        """
        if not ticket.waiting:
            raise ServiceStateError(
                f"request {ticket.request_id} is not waiting; "
                "release() its granted budget instead"
            )
        queue = self._queue
        for index, (waiting, _template) in enumerate(queue):
            if waiting is ticket:
                del queue[index]
                ticket.waiting = False
                self.cancelled += 1
                return
        raise ServiceStateError(
            f"request {ticket.request_id} not found in the wait queue"
        )

    def release(self, ticket: AdmissionTicket) -> List[AdmissionTicket]:
        """Return a finished request's budget; admit waiting requests.

        Waiters are re-examined in FIFO order; each admitted waiter's
        ticket flips to ``waiting=False``
        (and may come back shrunk).  Returns the newly admitted
        tickets so the caller can start them.
        """
        if ticket.waiting:
            raise ServiceStateError(
                f"request {ticket.request_id} was never granted budget"
            )
        if ticket.pinned_budget > self._granted:
            raise ServiceStateError(
                f"request {ticket.request_id} releases more than granted"
            )
        self._granted -= ticket.pinned_budget
        if self._buffer is not None:
            self._buffer.unreserve(ticket.pinned_budget)
        ticket.pinned_budget = 0
        return self._drain_waiters()

    def _drain_waiters(self) -> List[AdmissionTicket]:
        started: List[AdmissionTicket] = []
        queue = self._queue
        while queue:
            ticket, template = queue[0]
            fitted = self._shrink_to_fit(ticket.asked_window, template)
            if fitted is None:
                break  # head-of-line blocks the queue (FIFO order)
            queue.popleft()
            ticket.window_size, ticket.pinned_budget = fitted
            ticket.waiting = False
            self._grant_waiter(ticket)
            started.append(ticket)
        return started

    def _grant_waiter(self, ticket: AdmissionTicket) -> None:
        self._grant(ticket)
        self.admitted += 1
        if ticket.shrunk:
            self.shrunk += 1
