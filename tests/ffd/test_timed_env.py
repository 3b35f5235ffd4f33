"""Unit tests for the timed environment underneath the fast-FD consensus."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.ffd.timed import TimedCrash, TimedEnvironment, TimedSpec
from repro.util.rng import RandomSource

SPEC = TimedSpec(n=4, D=50.0, d=1.0)


def env(crashes=()):
    e = TimedEnvironment(SPEC, list(crashes), RandomSource(1))
    delivered = []
    fd_events = []
    e.wire(on_deliver=delivered.append, on_fd=fd_events.append)
    return e, delivered, fd_events


class TestValidation:
    def test_duplicate_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            TimedEnvironment(
                SPEC,
                [TimedCrash(1, 0.0), TimedCrash(1, 1.0)],
                RandomSource(1),
            )

    def test_out_of_range_pid_rejected(self):
        with pytest.raises(ConfigurationError):
            TimedEnvironment(SPEC, [TimedCrash(9, 0.0)], RandomSource(1))

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ConfigurationError):
            TimedCrash(1, -0.5)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_crash_time_rejected(self, time):
        with pytest.raises(ConfigurationError, match="finite"):
            TimedCrash(1, time)


class TestTransport:
    def test_unicast_delay_within_bounds(self):
        e, delivered, _ = env()
        e.unicast(1, 2, "X", 42)
        end = e.queue.run()
        assert len(delivered) == 1
        assert SPEC.delta_min * SPEC.D <= end <= SPEC.D

    def test_delivery_to_crashed_dropped(self):
        e, delivered, _ = env([TimedCrash(2, 0.0)])
        e.unicast(1, 2, "X", 42)
        e.queue.run()
        assert delivered == []
        assert e.stats.async_sent == 1
        assert e.stats.async_delivered == 0


class TestDetector:
    def test_timestamped_reports_within_d(self):
        e, _, fd_events = env([TimedCrash(3, 5.0)])
        e.queue.run()
        assert set(fd_events) == {1, 2, 4}
        for observer in (1, 2, 4):
            view = e.detectors[observer]
            assert view.reports[3] == 5.0  # true crash time, not detect time
            assert view.crashed_by(3, 5.0)
            assert not view.crashed_by(3, 4.9)
        assert e.queue.now <= 5.0 + SPEC.d

    def test_crashed_observer_gets_no_reports(self):
        e, _, fd_events = env([TimedCrash(1, 0.0), TimedCrash(2, 0.1)])
        e.queue.run()
        assert 1 not in fd_events  # p1 was already dead when p2's report landed
        assert 2 not in e.detectors[1].reports or e.detectors[1].reports == {}


class TestTakeoverBroadcast:
    def test_complete_broadcast(self):
        e, delivered, _ = env()
        assert e.broadcast_takeover(1, "VAL", (1, "v"))
        e.queue.run()
        assert {m.dest for m in delivered} == {2, 3, 4}

    def test_partial_broadcast_crashes_sender(self):
        e, delivered, _ = env([TimedCrash(1, 0.0, takeover_subset=frozenset({3}))])
        assert not e.broadcast_takeover(1, "VAL", (1, "v"))
        e.queue.run()
        assert {m.dest for m in delivered} == {3}
        assert e.is_crashed(1)
