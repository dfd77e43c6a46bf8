"""Per-device I/O timelines distilled from the disk's read tap.

:class:`DeviceIOTimeline` attaches to the one read tap the simulated
disk has (:meth:`~repro.storage.disk.SimulatedDisk.add_read_tap` — any
number of taps can watch, none changes what the disk does).  Each read
becomes an :class:`IOSample` — clock stamp, device, start page, seek
distance, pages transferred — from which the timeline answers the
Section 6/7 questions the flat counters cannot: where did each device's
time go, how did seek distance evolve over the run, which device was
the utilization bottleneck.

Service times are read from the timeline's own
:class:`~repro.storage.costmodel.DeviceLedger`, never charged back to
the disk: attaching a timeline changes no accounting anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.storage.costmodel import CostModel, DeviceLedger
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
    cost_model:
        Pricing of the timeline's ledger, from which busy time and
        utilization are read (default: the A-9 period model).
    spans:
        Optional recorder; each observed read is also added as a
        completed zero-width ``device-io-sample`` span, putting raw
        reads on the same trace as the higher-level spans.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        clock_fn: Optional[Callable[[], float]] = None,
        cost_model: Optional[CostModel] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.disk = disk
        self._clock_fn = clock_fn
        #: fed by :meth:`_on_read`: exactly the sampled reads.
        self.ledger = DeviceLedger(disk, cost_model)
        self.cost_model = self.ledger.cost_model
        self.spans = spans
        self.samples: List[IOSample] = []

    # -- attachment ----------------------------------------------------------

    def attach(self) -> "DeviceIOTimeline":
        """Start observing (idempotent); returns self for chaining."""
        self.disk.add_read_tap(self._on_read)
        return self

    def detach(self) -> None:
        """Stop observing (idempotent)."""
        self.disk.remove_read_tap(self._on_read)

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
        self.ledger.record(device, start_page, distance, pages)
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

    # -- readout -------------------------------------------------------------

    def devices(self) -> List[int]:
        """Devices that served at least one read, ascending."""
        return sorted({sample.device for sample in self.samples})

    def seek_timeline(self, device: int) -> List[Tuple[float, int]]:
        """(stamp, seek distance) pairs of one device, in order."""
        return [
            (sample.at, sample.distance)
            for sample in self.samples
            if sample.device == device
        ]

    def busy_ms(self, device: Optional[int] = None) -> float:
        """Service time of the sampled reads, one device or all."""
        if device is None:
            return self.ledger.total
        return self.ledger.busy_until[device]

    def utilization(self, span_ms: Optional[float] = None) -> Dict[int, float]:
        """Per-device busy fraction over ``span_ms``.

        ``span_ms`` defaults to the observed clock span (last stamp
        minus first); with fewer than two samples, or a zero span, the
        fractions are reported against the summed busy time instead
        (each device's share of the total work).
        """
        if span_ms is not None and span_ms <= 0.0:
            raise ReproError("span_ms must be positive")
        per_device = {
            device: self.busy_ms(device) for device in self.devices()
        }
        if span_ms is None:
            stamps = [sample.at for sample in self.samples]
            span_ms = (max(stamps) - min(stamps)) if len(stamps) > 1 else 0.0
        if span_ms <= 0.0:
            total = sum(per_device.values())
            if total == 0.0:
                return {device: 0.0 for device in per_device}
            return {
                device: busy / total for device, busy in per_device.items()
            }
        return {device: busy / span_ms for device, busy in per_device.items()}

    def summary(self) -> Dict[int, Dict[str, object]]:
        """Per-device rollup: reads, pages, seeks, derived busy time."""
        out: Dict[int, Dict[str, object]] = {}
        utilization = self.utilization()
        for device in self.devices():
            samples = [s for s in self.samples if s.device == device]
            seek_total = sum(s.distance for s in samples)
            pages = sum(s.pages for s in samples)
            out[device] = {
                "reads": len(samples),
                "pages": pages,
                "seek_total": seek_total,
                "avg_seek": seek_total / pages if pages else 0.0,
                "busy_ms": self.busy_ms(device),
                "utilization": utilization[device],
            }
        return out

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (
            f"DeviceIOTimeline(samples={len(self.samples)}, "
            f"devices={self.devices()})"
        )
