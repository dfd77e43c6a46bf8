"""Tests for the disk read tap and per-device I/O timelines."""

from repro.obs.devices import DeviceIOTimeline, IOSample
from repro.obs.spans import SpanRecorder
from repro.storage.disk import SimulatedDisk
from repro.storage.multidisk import MultiDeviceDisk


class TestIoObserverTap:
    def test_observer_sees_start_distance_pages(self):
        disk = SimulatedDisk()
        seen = []
        disk.add_read_tap(lambda dev, s, d, n: seen.append((dev, s, d, n)))
        disk.read(5)
        disk.read_run(10, 3)
        assert seen == [(0, 5, 5, 1), (0, 10, 10 - 5, 3)]

    def test_observers_are_additive_and_removable(self):
        disk = SimulatedDisk()
        first, second = [], []
        disk.add_read_tap(lambda dev, s, d, n: first.append(s))
        drop = disk.add_read_tap(lambda dev, s, d, n: second.append(s))
        disk.read(1)
        disk.remove_read_tap(drop)
        disk.remove_read_tap(drop)  # idempotent
        disk.read(2)
        assert first == [1, 2] and second == [1]

    def test_observing_changes_no_accounting(self):
        bare, tapped = SimulatedDisk(), SimulatedDisk()
        tapped.add_read_tap(lambda dev, s, d, n: None)
        for disk in (bare, tapped):
            disk.read(7)
            disk.read_run(20, 4)
            disk.read(3)
        assert tapped.stats == bare.stats


class TestDeviceIOTimeline:
    def test_samples_single_device(self):
        disk = SimulatedDisk()
        timeline = DeviceIOTimeline(disk).attach()
        disk.read(5)
        disk.read(9)
        timeline.detach()
        disk.read(100)  # after detach: not sampled
        assert len(timeline.samples) == 2
        assert [s.device for s in timeline.samples] == [0, 0]
        assert timeline.samples[0] == IOSample(
            at=0.0, device=0, start_page=5, distance=5, pages=1
        )

    def test_multidevice_attribution_per_chunk(self):
        disk = MultiDeviceDisk(n_devices=2, pages_per_device=8)
        timeline = DeviceIOTimeline(disk).attach()
        # A run crossing the device boundary splits into per-device
        # chunks; the observer sees each chunk's own start page.
        disk.read_run(6, 4)
        assert [s.device for s in timeline.samples] == [0, 1]
        assert [s.start_page for s in timeline.samples] == [6, 8]
        assert [s.pages for s in timeline.samples] == [2, 2]

    def test_attach_detach_idempotent(self):
        disk = SimulatedDisk()
        timeline = DeviceIOTimeline(disk).attach().attach()
        disk.read(1)
        assert len(timeline.samples) == 1  # one tap, not two
        timeline.detach()
        timeline.detach()

    def test_clock_stamps_and_seek_timeline(self):
        disk = SimulatedDisk()
        clock = iter([10.0, 20.0])
        timeline = DeviceIOTimeline(disk, clock_fn=lambda: next(clock))
        timeline.attach()
        disk.read(3)
        disk.read(30)
        assert [(s.at, s.device, s.distance) for s in timeline.samples] == [
            (10.0, 0, 3),
            (20.0, 0, 27),
        ]

    def test_spans_tap_records_sample_spans(self):
        disk = SimulatedDisk()
        recorder = SpanRecorder()
        recorder.bind_clock(lambda: 1.0)
        timeline = DeviceIOTimeline(
            disk, clock_fn=lambda: 1.0, spans=recorder
        ).attach()
        disk.read(5)
        assert len(timeline.samples) == 1
        (span,) = recorder.of_kind("device-io")
        assert span.name == "device-io-sample"
        assert span.attrs == {"page": 5, "seek": 5, "pages": 1}
