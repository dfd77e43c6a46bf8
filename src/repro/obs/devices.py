"""Per-device I/O timelines distilled from the disk's read tap.

:class:`DeviceIOTimeline` attaches to the one read tap the simulated
disk has (:meth:`~repro.storage.disk.SimulatedDisk.add_read_tap` — any
number of taps can watch, none changes what the disk does).  Each read
becomes an :class:`IOSample` — clock stamp, device, start page, seek
distance, pages transferred — and, given a recorder, a zero-width
``device-io-sample`` span, so raw reads sit on the same trace as the
higher-level spans.  Attaching a timeline changes no accounting
anywhere.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.storage.disk import SimulatedDisk

from repro.obs.spans import SpanRecorder


@dataclass(frozen=True)
class IOSample:
    """One observed physical read."""

    #: clock stamp when the read was observed.
    at: float
    #: device the start page belongs to (0 on single-device disks).
    device: int
    #: first page of the (possibly multi-page) physical read.
    start_page: int
    #: seek distance charged, in pages.
    distance: int
    #: pages transferred.
    pages: int


class DeviceIOTimeline:
    """Observes physical reads into per-device timelines.

    Parameters
    ----------
    disk:
        The disk to observe; each sample carries its owning device.
    clock_fn:
        Stamp source (simulated clock).  ``None`` stamps each sample
        with the running count of observed reads — deterministic
        ordering without a time axis.
    spans:
        Optional recorder; each observed read is also added as a
        completed zero-width ``device-io-sample`` span, putting raw
        reads on the same trace as the higher-level spans.

    The timeline holds its disk through a weak reference (the tap
    rule, :meth:`~repro.storage.disk.SimulatedDisk.add_read_tap`): the
    attached disk holds the timeline's tap, so a timeline left attached
    is freed with its disk, and one that outlives its disk detaches as
    a no-op.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        clock_fn: Optional[Callable[[], float]] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self._disk = weakref.ref(disk)
        self._clock_fn = clock_fn
        self.spans = spans
        self.samples: List[IOSample] = []

    # -- attachment ----------------------------------------------------------

    def attach(self) -> "DeviceIOTimeline":
        """Start observing (idempotent); returns self for chaining."""
        disk = self._disk()
        if disk is not None:
            disk.add_read_tap(self._on_read)
        return self

    def detach(self) -> None:
        """Stop observing (idempotent)."""
        disk = self._disk()
        if disk is not None:
            disk.remove_read_tap(self._on_read)

    def __enter__(self) -> "DeviceIOTimeline":
        return self.attach()

    def __exit__(self, *_exc) -> None:
        self.detach()

    # -- capture -------------------------------------------------------------

    def _now(self) -> float:
        if self._clock_fn is not None:
            return float(self._clock_fn())
        return float(len(self.samples))

    def _on_read(
        self, device: int, start_page: int, distance: int, pages: int
    ) -> None:
        sample = IOSample(
            at=self._now(),
            device=device,
            start_page=start_page,
            distance=distance,
            pages=pages,
        )
        self.samples.append(sample)
        if self.spans is not None:
            self.spans.add(
                "device-io-sample",
                start=sample.at,
                end=sample.at,
                kind="device-io",
                device=device,
                page=start_page,
                seek=distance,
                pages=pages,
            )

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return f"DeviceIOTimeline(samples={len(self.samples)})"
