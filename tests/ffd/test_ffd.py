"""Tests for the fast-failure-detector model and consensus (E6 substrate)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ffd.consensus import FastFDConsensus, run_ffd_consensus
from repro.ffd.timed import TimedCrash, TimedEnvironment, TimedSpec
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource

SPEC = TimedSpec(n=5, D=100.0, d=1.0)


def props(n=5):
    return [100 + pid for pid in range(1, n + 1)]


class TestTimedSpec:
    def test_grid_must_fit_in_D(self):
        with pytest.raises(ConfigurationError):
            TimedSpec(n=5, D=4.0, d=1.0)  # n*d >= D

    def test_positive_parameters(self):
        with pytest.raises(ConfigurationError):
            TimedSpec(n=5, D=100.0, d=0.0)
        with pytest.raises(ConfigurationError):
            TimedSpec(n=1, D=100.0, d=1.0)

    def test_delta_min_bounds(self):
        with pytest.raises(ConfigurationError):
            TimedSpec(n=3, D=10.0, d=0.1, delta_min=1.5)


class TestFailureFree:
    def test_decides_p1_value_at_time_about_D(self):
        result = run_ffd_consensus(SPEC, props(), rng=RandomSource(1))
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {101}
        # Fast path: everyone decides by (L-1)d + d + D = d + D.
        assert result.max_decision_time <= SPEC.D + SPEC.d + 1e-9
        assert result.fired_slots == [1]

    def test_proposal_count_validated(self):
        with pytest.raises(ConfigurationError):
            run_ffd_consensus(SPEC, [1, 2, 3])


class TestCrashCascades:
    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_decision_time_D_plus_f_d(self, f):
        # The first f processes crash at time 0: slots 1..f never complete a
        # broadcast, slot f+1 broadcasts, everyone decides ~ D + f*d.
        crashes = [TimedCrash(pid, 0.0) for pid in range(1, f + 1)]
        result = run_ffd_consensus(SPEC, props(), crashes, rng=RandomSource(2))
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {100 + f + 1}
        bound = f * SPEC.d + SPEC.d + SPEC.D  # (L-1)d + d + D with L = f+1
        assert result.max_decision_time <= bound + 1e-9
        assert result.fired_slots[-1] == f + 1

    def test_partial_takeover_broadcast_fallback_is_uniform(self):
        # p1 crashes during its takeover broadcast (at its check instant,
        # slot+d), reaching only p3.  That crash lands exactly on slot 2's
        # boundary, so slot 2 fires and p2's complete broadcast dominates
        # p1's partial one under the max-fired-slot rule: every process must
        # converge on p2's value, and p3's relayed copy of 101 must lose
        # uniformly.
        crashes = [TimedCrash(1, 0.0, takeover_subset=frozenset({3}))]
        result = run_ffd_consensus(SPEC, props(), crashes, rng=RandomSource(3))
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {102}
        assert result.fired_slots == [1, 2]

    def test_partial_broadcast_to_nobody(self):
        # p1's broadcast reaches nobody: value 101 dies with it; survivors
        # must settle on something held (their own non-broadcast slots never
        # fired, so this exercises the deepest fallback).
        crashes = [TimedCrash(1, 0.0, takeover_subset=frozenset())]
        result = run_ffd_consensus(SPEC, props(), crashes, rng=RandomSource(4))
        assert check_consensus(result).violations == ()

    def test_late_crash_after_complete_broadcast(self):
        # p1 broadcasts fully, then dies: everyone still decides 101.
        crashes = [TimedCrash(1, 50.0)]
        result = run_ffd_consensus(SPEC, props(), crashes, rng=RandomSource(5))
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {101}

    def test_chained_partial_broadcasts(self):
        # p1 partial to {2}, p2 partial to {4}: relays + fallback must still
        # produce a single decision value.
        crashes = [
            TimedCrash(1, 0.0, takeover_subset=frozenset({2})),
            TimedCrash(2, 0.0, takeover_subset=frozenset({4})),
        ]
        result = run_ffd_consensus(SPEC, props(), crashes, rng=RandomSource(6))
        assert check_consensus(result).violations == ()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_uniform_consensus(self, data):
        n = data.draw(st.sampled_from([3, 5, 8]), label="n")
        spec = TimedSpec(n=n, D=100.0, d=1.0)
        f = data.draw(st.integers(0, n - 1), label="f")
        victims = data.draw(
            st.lists(st.integers(1, n), min_size=f, max_size=f, unique=True),
            label="victims",
        )
        crashes = []
        for pid in victims:
            kind = data.draw(st.integers(0, 2), label=f"kind{pid}")
            if kind == 0:
                crashes.append(
                    TimedCrash(pid, data.draw(st.floats(0.0, 150.0), label=f"t{pid}"))
                )
            else:
                subset = data.draw(
                    st.frozensets(st.integers(1, n), max_size=n), label=f"s{pid}"
                )
                crashes.append(TimedCrash(pid, 0.0, takeover_subset=subset - {pid}))
        seed = data.draw(st.integers(0, 2**32), label="seed")
        result = run_ffd_consensus(
            spec, props(n), crashes, rng=RandomSource(seed)
        )
        assert check_consensus(result).violations == (), (
            result.decisions,
            result.fired_slots,
            result.crashed,
        )


class TestFiredSlotsFastPath:
    """PR 3 rewrote fired_slots as a cached single pass; pin it against
    the definition (the quadratic pairwise scan over crashed_by)."""

    @staticmethod
    def _reference(proc):
        d = proc.env.spec.d
        view = proc.env.detectors[proc.pid]
        fired = []
        for i in range(1, proc.n + 1):
            slot_time = (i - 1) * d
            if view.crashed_by(i, slot_time):
                continue
            if all(view.crashed_by(j, slot_time) for j in range(1, i)):
                fired.append(i)
        return fired

    @given(data=st.data())
    def test_matches_reference_on_arbitrary_report_maps(self, data):
        n = data.draw(st.sampled_from([3, 6, 9]), label="n")
        spec = TimedSpec(n=n, D=100.0, d=1.0)
        env = TimedEnvironment(spec, [], RandomSource(0))
        proc = FastFDConsensus(n, n, 0, env)
        view = env.detectors[n]
        reported = data.draw(
            st.frozensets(st.integers(1, n), max_size=n), label="reported"
        )
        for pid in sorted(reported):
            view.reports[pid] = data.draw(
                st.floats(0.0, 3.0 * n), label=f"t{pid}"
            )
            view.version += 1
        assert proc.fired_slots() == self._reference(proc)

    def test_cache_invalidates_on_new_report(self):
        spec = TimedSpec(n=4, D=100.0, d=1.0)
        env = TimedEnvironment(spec, [], RandomSource(0))
        proc = FastFDConsensus(4, 4, 0, env)
        view = env.detectors[4]
        assert proc.fired_slots() == [1]
        first = proc.fired_slots()
        assert proc.fired_slots() is first  # cached between reports
        view.reports[1] = 0.0
        view.version += 1
        assert proc.fired_slots() == [2] == self._reference(proc)


class TestSettleTracking:
    """The run stops on the environment's unsettled set draining."""

    def test_run_stops_at_the_last_decision(self):
        crashes = [TimedCrash(1, 0.0)]
        result = run_ffd_consensus(SPEC, props(), crashes, rng=RandomSource(2))
        assert len(result.decisions) == SPEC.n - 1
        assert result.sim_time == result.max_decision_time

    def test_crash_and_decide_settle_their_pid(self):
        env = TimedEnvironment(SPEC, [TimedCrash(2, 1.0)], RandomSource(0))
        env.wire(on_deliver=lambda msg: None, on_fd=lambda observer: None)
        assert env.unsettled == {1, 2, 3, 4, 5}
        env.queue.run(until=1.0)
        assert env.unsettled == {1, 3, 4, 5}
        FastFDConsensus(4, SPEC.n, 104, env)._decide(104)
        assert env.unsettled == {1, 3, 5}
