"""Unit tests for the virtual clock and maintenance scheduler."""

import pytest

from repro.server import MaintenanceScheduler, VirtualClock


class FakeServer:
    def __init__(self):
        self.cycles = []
        self.refreshed = 0

    def run_midnight_cycle(self, day):
        self.cycles.append(day)
        return f"report-day-{day}"

    def refresh_cache(self):
        self.refreshed += 1


class TestVirtualClock:
    def test_days_partition_seconds(self):
        clock = VirtualClock(seconds_per_day=10.0)
        assert clock.day == 0
        clock.advance(25.0)
        assert clock.day == 2
        assert clock.seconds == 25.0

    def test_never_backwards(self):
        clock = VirtualClock(seconds_per_day=10.0)
        clock.advance_to(30.0)
        clock.advance_to(5.0)
        assert clock.seconds == 30.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            VirtualClock(seconds_per_day=0)


class TestScheduler:
    def test_no_cycle_within_a_day(self):
        server = FakeServer()
        sched = MaintenanceScheduler(server, clock=VirtualClock(10.0))
        assert sched.advance_to(9.9) == []
        assert server.cycles == []

    def test_one_cycle_per_crossed_boundary(self):
        server = FakeServer()
        sched = MaintenanceScheduler(server, clock=VirtualClock(10.0))
        actions = sched.advance_to(35.0)  # crosses days 1, 2, 3
        assert actions == ["midnight:1", "midnight:2", "midnight:3"]
        assert server.cycles == [1, 2, 3]
        assert sched.reports == ["report-day-1", "report-day-2", "report-day-3"]
        # advancing again within day 3 fires nothing more
        assert sched.advance_to(36.0) == []

    def test_advance_days_convenience(self):
        server = FakeServer()
        sched = MaintenanceScheduler(server, clock=VirtualClock(10.0))
        assert sched.advance_days(2) == ["midnight:1", "midnight:2"]

    def test_refresh_interval(self):
        server = FakeServer()
        sched = MaintenanceScheduler(
            server, clock=VirtualClock(100.0), refresh_interval_seconds=10.0
        )
        assert "refresh" in sched.advance_to(10.0)
        assert server.refreshed == 1
        sched.advance_to(15.0)  # only 5s since last refresh
        assert server.refreshed == 1
        sched.advance_to(20.0)
        assert server.refreshed == 2

    def test_snapshot(self):
        server = FakeServer()
        sched = MaintenanceScheduler(server, clock=VirtualClock(10.0))
        sched.advance_days(1)
        snap = sched.snapshot()
        assert snap["midnight_cycles"] == 1
        assert snap["virtual_day"] == 1
