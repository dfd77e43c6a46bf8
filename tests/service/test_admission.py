"""Admission control: pin-bound pricing, shrinking, queueing, shedding."""

import pytest

from repro.core.tuning import pin_bound
from repro.errors import ServiceOverloadError, ServiceStateError
from repro.service.admission import AdmissionController
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.workloads.acob import generate_acob, make_template


@pytest.fixture
def template():
    """The paper's 7-node assembly template."""
    return make_template(generate_acob(3, seed=1))


def test_pin_bound_is_the_paper_formula(template):
    # Section 6.3.3: 6*(W-1) + 7 for the 7-object template.
    assert pin_bound(1, template) == 7
    assert pin_bound(8, template) == 6 * 7 + 7


class TestAdmit:
    def test_admits_at_asked_window_when_it_fits(self, template):
        controller = AdmissionController(budget_pages=100)
        ticket = controller.submit(0, 8, template)
        assert ticket.window_size == 8
        assert not ticket.shrunk and not ticket.waiting
        assert ticket.pinned_budget == pin_bound(8, template)
        assert controller.granted_pages == ticket.pinned_budget

    def test_unlimited_budget_never_shrinks(self, template):
        controller = AdmissionController(budget_pages=None)
        for request_id in range(10):
            ticket = controller.submit(request_id, 64, template)
            assert ticket.window_size == 64 and not ticket.waiting

    def test_shrinks_window_to_fit(self, template):
        # W=8 costs 49 > 30; halving lands on W=4 (cost 25).
        controller = AdmissionController(budget_pages=30)
        ticket = controller.submit(0, 8, template)
        assert ticket.shrunk
        assert ticket.window_size == 4
        assert ticket.pinned_budget == pin_bound(4, template)
        assert controller.shrunk == 1


class TestQueueAndReject:
    def test_queues_when_nothing_fits(self, template):
        controller = AdmissionController(budget_pages=50)
        first = controller.submit(0, 8, template)
        assert not first.waiting  # 49 <= 50
        second = controller.submit(1, 8, template)
        assert second.waiting  # even W=1 needs 7 > 1 free
        assert controller.waiting() == 1
        assert controller.queued == 1

    def test_rejects_when_wait_queue_full(self, template):
        controller = AdmissionController(budget_pages=50, max_waiting=1)
        controller.submit(0, 8, template)
        controller.submit(1, 8, template)  # fills the queue
        with pytest.raises(ServiceOverloadError):
            controller.submit(2, 8, template)
        assert controller.rejected == 1

    def test_rejects_outright_when_it_could_never_run(self, template):
        # min window costs 7 pages; a 5-page budget can never serve it.
        controller = AdmissionController(budget_pages=5)
        with pytest.raises(ServiceOverloadError):
            controller.submit(0, 1, template)
        assert controller.waiting() == 0

    def test_release_admits_waiters_fifo(self, template):
        controller = AdmissionController(budget_pages=50)
        first = controller.submit(0, 8, template)
        second = controller.submit(1, 4, template)
        third = controller.submit(2, 4, template)
        assert second.waiting and third.waiting
        started = controller.release(first)
        # 50 free again: W=4 costs 25, so both waiters fit (25+25 = 50),
        # admitted in FIFO order.
        assert [t.request_id for t in started] == [1, 2]
        assert started[0].window_size == 4
        assert started[1].window_size == 4
        assert controller.granted_pages == 50


class TestBufferLedger:
    def test_grants_mirror_into_buffer_reservations(self, template):
        disk = SimulatedDisk()
        buffer = BufferManager(disk, capacity=100)
        controller = AdmissionController(budget_pages=100, buffer=buffer)
        ticket = controller.submit(0, 8, template)
        assert buffer.reserved_frames == pin_bound(8, template)
        controller.release(ticket)
        assert buffer.reserved_frames == 0


class TestValidation:
    def test_bad_parameters(self, template):
        with pytest.raises(ServiceStateError):
            AdmissionController(budget_pages=0)
        with pytest.raises(ServiceStateError):
            AdmissionController(max_waiting=-1)
        controller = AdmissionController()
        with pytest.raises(ServiceStateError):
            controller.submit(0, 0, template)

    def test_releasing_a_waiting_ticket_is_an_error(self, template):
        controller = AdmissionController(budget_pages=50)
        controller.submit(0, 8, template)
        waiter = controller.submit(1, 8, template)
        with pytest.raises(ServiceStateError):
            controller.release(waiter)
