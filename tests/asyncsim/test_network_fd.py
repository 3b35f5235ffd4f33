"""Tests for delay models, the async network, and the simulated detector."""

from __future__ import annotations

import math

import pytest

from repro.asyncsim.events import EventQueue
from repro.asyncsim.failure_detector import DetectorSpec, SimulatedDiamondS
from repro.asyncsim.network import (
    AsyncNetwork,
    ConstantDelay,
    GstDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.errors import ConfigurationError
from repro.net.message import async_bits
from repro.util.rng import RandomSource


class TestDelayModels:
    def test_constant(self):
        assert ConstantDelay(2.0).delay(0.0, RandomSource(1)) == 2.0

    def test_constant_validates(self):
        with pytest.raises(ConfigurationError):
            ConstantDelay(-1.0)

    def test_uniform_bounds(self):
        m = UniformDelay(1.0, 2.0)
        for k in range(50):
            d = m.delay(0.0, RandomSource(k))
            assert 1.0 <= d <= 2.0

    def test_uniform_validates(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(2.0, 1.0)

    def test_lognormal_positive(self):
        m = LogNormalDelay()
        assert all(m.delay(0.0, RandomSource(k)) > 0 for k in range(20))

    def test_lognormal_validates(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            LogNormalDelay(sigma=-0.5)

    def test_gst_regimes(self):
        m = GstDelay(gst=10.0, wild=50.0, bound=1.0)
        late = [m.delay(11.0, RandomSource(k)) for k in range(50)]
        assert all(d <= 1.0 for d in late)

    def test_gst_validates(self):
        with pytest.raises(ConfigurationError):
            GstDelay(gst=-1)

    @pytest.mark.parametrize("model, field", [
        (ConstantDelay, "value"),
        (UniformDelay, "lo"),
        (UniformDelay, "hi"),
        (LogNormalDelay, "mu"),
        (LogNormalDelay, "sigma"),
        (GstDelay, "gst"),
        (GstDelay, "wild"),
        (GstDelay, "bound"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, model, field, value):
        with pytest.raises(ConfigurationError, match=rf"{field} must be finite"):
            model(**{field: value})


#: Every built-in, with the GST model on both sides of its stabilization.
DRAW_CASES = [
    (ConstantDelay(2.5), 0.0),
    (UniformDelay(0.5, 1.5), 0.0),
    (LogNormalDelay(mu=0.5, sigma=1.0), 0.0),
    (GstDelay(gst=10.0, wild=4.0, bound=1.0), 3.0),
    (GstDelay(gst=10.0, wild=4.0, bound=1.0), 10.0),
]


@pytest.mark.parametrize("k", [0, 1, 7])
@pytest.mark.parametrize(
    "model, now", DRAW_CASES,
    ids=["constant", "uniform", "lognormal", "gst-before", "gst-after"],
)
def test_draw_many_equals_repeated_delay(model, now, k):
    # broadcast draws a fan-out with draw_many and send draws one delay:
    # runs stay byte-identical only if the two consume the RNG alike.
    bulk_rng, loop_rng = RandomSource(11), RandomSource(11)
    bulk = model.draw_many(k, now, bulk_rng)
    loop = [model.delay(now, loop_rng) for _ in range(k)]
    assert bulk == loop
    assert bulk_rng.raw.getstate() == loop_rng.raw.getstate()


class TestAsyncNetwork:
    def test_delivery_after_delay(self):
        q = EventQueue()
        got = []
        net = AsyncNetwork(q, ConstantDelay(3.0), RandomSource(1), got.append)
        net.send(1, 2, 4, 0, "T")
        q.run()
        bits = async_bits(0)
        assert got == [(bits, 1, 2, 4, 0, "T")] and q.now == 3.0
        assert net.stats.async_sent == 1 and net.stats.bits_sent == bits

    def test_send_to_self_is_local(self):
        q = EventQueue()
        got = []
        rng = RandomSource(1)
        state = rng.raw.getstate()
        net = AsyncNetwork(q, UniformDelay(), rng, got.append)
        net.send(2, 2, 1, 7, "T")
        q.run()
        # zero delay, zero charged bits, no delay draw
        assert got == [(0, 2, 2, 1, 7, "T")] and q.now == 0.0
        assert net.stats.async_sent == 0
        assert rng.raw.getstate() == state

    def test_broadcast_equals_sends_in_destination_order(self):
        def run(fan_out):
            q = EventQueue()
            got = []
            net = AsyncNetwork(q, UniformDelay(), RandomSource(5), got.append)
            fan_out(net)
            q.run()
            return got, net.stats

        sent, sent_stats = run(
            lambda net: [net.send(3, dest, 2, "v", "EST") for dest in range(1, 6)]
        )
        cast, cast_stats = run(lambda net: net.broadcast(3, 5, "EST", "v", 2))
        assert cast == sent and cast_stats == sent_stats
        assert cast_stats.async_sent == 4


class TestSimulatedDiamondS:
    def test_completeness(self):
        # A crash is eventually reported to every observer.
        q = EventQueue()
        fd = SimulatedDiamondS(3, q, DetectorSpec(detection_latency=1.0), RandomSource(1))
        fd.notify_crash(2)
        q.run()
        assert fd.suspects(1, 2) and fd.suspects(3, 2)

    def test_latency_bound(self):
        q = EventQueue()
        fd = SimulatedDiamondS(3, q, DetectorSpec(detection_latency=1.0), RandomSource(1))
        q.schedule(5.0, lambda: fd.notify_crash(2))
        q.run()
        assert q.now <= 6.0  # detection within latency of the crash

    def test_accuracy_after_stabilization(self):
        # No churn configured: nothing but real crashes is ever suspected.
        q = EventQueue()
        fd = SimulatedDiamondS(4, q, DetectorSpec(), RandomSource(1))
        q.run()
        for obs in range(1, 5):
            assert fd.suspected(obs) == frozenset()

    def test_churn_produces_and_retracts_false_suspicions(self):
        q = EventQueue()
        changes = []
        fd = SimulatedDiamondS(
            4,
            q,
            DetectorSpec(
                stabilization_time=50.0,
                churn_rate=1.0,
                false_suspicion_duration=2.0,
            ),
            RandomSource(3),
            on_change=changes.append,
        )
        q.run(until=100.0)
        assert changes, "churn should have produced suspicion changes"
        # After stabilization + duration, all false suspicions retracted.
        for obs in range(1, 5):
            assert fd.suspected(obs) == frozenset()

    def test_on_change_fired_for_real_crash(self):
        q = EventQueue()
        changes = []
        fd = SimulatedDiamondS(
            3, q, DetectorSpec(detection_latency=0.5), RandomSource(1), changes.append
        )
        fd.notify_crash(3)
        q.run()
        assert set(changes) == {1, 2}

    def test_ground_truth_exposed(self):
        q = EventQueue()
        fd = SimulatedDiamondS(3, q, DetectorSpec(), RandomSource(1))
        fd.notify_crash(1)
        assert fd.ground_truth_crashed == frozenset({1})
