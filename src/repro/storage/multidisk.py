"""Multiple physical devices (paper Section 7).

"The situation becomes more complex when the database is stored on
more than one physical device.  At present, the assembly operator can
only handle one device.  A possible solution could involve a
server-per-device architecture.  Each server would maintain a queue of
requests and would fetch objects on behalf of one or more assembly
operators."

:class:`MultiDeviceDisk` models an array of devices behind one page
address space: device ``d`` owns pages ``[d*S, (d+1)*S)`` where ``S``
is ``pages_per_device``.  Each device has its **own head**; a read
charges seek distance only against its device's head, so two devices
never interfere — the physical property that makes striping pay.

``allocate`` hands each extent wholly to one device, cycling devices
round-robin, so inter-object type clusters stripe naturally.  The
matching per-device request queues live in
:class:`repro.core.multidevice.MultiDeviceScheduler`.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.errors import DiskError, ExtentError
from repro.storage.disk import DiskStats, Extent, SimulatedDisk


def _record_device_read(
    device_stats: List[DiskStats],
    device: int,
    _start: int,
    seek: int,
    n_pages: int,
) -> None:
    """A :class:`MultiDeviceDisk`'s own read tap (over its
    ``device_stats``): mirror the read into its device."""
    stats = device_stats[device]
    stats.reads += 1
    stats.pages_read += n_pages
    if n_pages > 1:
        stats.run_reads += 1
    stats.read_seek_total += seek
    stats.read_seeks.append(seek)


class MultiDeviceDisk(SimulatedDisk):
    """An array of independent devices with one page address space."""

    def __init__(self, n_devices: int, pages_per_device: int) -> None:
        if n_devices <= 0:
            raise DiskError("need at least one device")
        if pages_per_device <= 0:
            raise DiskError("each device needs at least one page")
        super().__init__(n_pages=n_devices * pages_per_device)
        self.n_devices = n_devices
        self.pages_per_device = pages_per_device
        #: per-device stats (aggregate stats stay on ``self.stats``).
        self.device_stats: List[DiskStats] = []
        # Parks each head at its device's first page, fills device_stats.
        self.reset_stats()
        # Per-device allocation cursor and round-robin pointer.
        self._device_free: List[int] = list(self._heads)
        self._next_device = 0
        # The disk's own read tap holds the stats list, not the disk.
        self.add_read_tap(partial(_record_device_read, self.device_stats))

    # -- per-device accounting -----------------------------------------------

    def charge_busy(self, device: int, milliseconds: float) -> None:
        """Mirror engine-scheduled device time, per device too."""
        self.stats.busy_ms += milliseconds
        self.device_stats[device].busy_ms += milliseconds

    def write(self, page) -> None:
        """Write a page, mirroring the charge into its device's stats.

        The seek is charged against the owning device's head; recording
        it here too keeps the invariant that the per-device stats always
        sum to the aggregate — for writes exactly as for reads, and
        consistently across ``reset_stats``.
        """
        before = self.stats.write_seek_total
        super().write(page)
        stats = self.device_stats[page.page_id // self.pages_per_device]
        stats.writes += 1
        stats.write_seek_total += self.stats.write_seek_total - before

    # -- allocation -------------------------------------------------------------------

    def allocate(self, n_pages: int) -> Extent:
        """Allocate one extent wholly on the next device (round-robin).

        Devices that cannot fit the extent are skipped; when no device
        can, :class:`ExtentError` is raised.
        """
        if n_pages <= 0:
            raise ExtentError("extent must contain at least one page")
        for _attempt in range(self.n_devices):
            device = self._next_device
            self._next_device = (self._next_device + 1) % self.n_devices
            extent = self._try_allocate_on(device, n_pages)
            if extent is not None:
                return extent
        raise ExtentError(
            f"no device has {n_pages} contiguous free pages"
        )

    def _try_allocate_on(self, device: int, n_pages: int):
        start = self._device_free[device]
        end = start + n_pages
        device_end = (device + 1) * self.pages_per_device
        if end > device_end:
            return None
        self._device_free[device] = end
        return Extent(start=start, length=n_pages)

    # -- statistics -------------------------------------------------------------------------

    def reset_stats(self, head_to_zero: bool = True) -> None:
        """Also forgets the per-device stats."""
        super().reset_stats(head_to_zero=head_to_zero)
        # In place: the read tap holds this list.
        self.device_stats[:] = [DiskStats() for _ in range(self.n_devices)]
