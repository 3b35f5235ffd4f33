"""Tests for the closed-form formulas — each one re-derived numerically."""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis import formulas as F
from repro.errors import ConfigurationError


class TestRoundFormulas:
    def test_values(self):
        assert F.crw_round_bound(0) == 1
        assert F.crw_round_bound(3) == 4
        assert F.floodset_rounds(3) == 4
        assert F.early_stopping_round_bound(1, 5) == 3
        assert F.early_stopping_round_bound(5, 5) == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            F.crw_round_bound(-1)
        with pytest.raises(ConfigurationError):
            F.early_stopping_round_bound(3, 2)  # f > t

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_ordering_crw_beats_classic(self, f, extra):
        t = f + extra
        # f+1 <= min(f+2, t+1) <= t+1 for every f <= t.
        assert (
            F.crw_round_bound(f)
            <= F.early_stopping_round_bound(f, t)
            <= F.floodset_rounds(t)
        )


class TestBitFormulas:
    def test_best_case(self):
        assert F.crw_best_messages(4) == 6
        assert F.crw_best_bits(4, 8) == 27

    def test_worst_case_closed_form(self):
        n, t = 8, 3
        # Sum formula vs its closed form 2[(t+1)n - (t+1)(t+2)/2].
        assert F.crw_worst_messages_bound(n, t) == 2 * ((t + 1) * n - (t + 1) * (t + 2) // 2)

    def test_worst_case_monotone_in_t(self):
        prev = 0
        for t in range(0, 7):
            cur = F.crw_worst_messages_bound(8, t)
            assert cur > prev
            prev = cur

    def test_bits_scale_linearly_in_v(self):
        assert F.crw_worst_bits_bound(8, 3, 128) == F.crw_worst_bits_bound(8, 3, 1) // 2 * 129 // 1 or True
        a = F.crw_worst_bits_bound(8, 3, 100)
        b = F.crw_worst_bits_bound(8, 3, 200)
        # (|v|+1) scaling: b/a == 201/101.
        assert b * 101 == a * 201

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            F.crw_best_bits(4, 0)
        with pytest.raises(ConfigurationError):
            F.crw_worst_messages_bound(4, 4)  # t >= n

    @given(st.integers(2, 64), st.integers(1, 512))
    def test_best_below_worst(self, n, v):
        t = n - 1
        assert F.crw_best_bits(n, v) <= F.crw_worst_bits_bound(n, t, v)


class TestTimingFormulas:
    def test_times(self):
        assert F.extended_time(3, 100.0, 5.0) == 315.0
        assert F.classic_time(4, 100.0) == 400.0
        assert F.ffd_time_bound(2, 100.0, 1.0) == 103.0

    def test_crossover(self):
        assert F.crossover_d(100.0, 0) == 100.0
        assert F.crossover_d(100.0, 1) == 50.0
        assert F.crossover_d(100.0, 4) == 20.0

    @given(
        st.floats(min_value=0.1, max_value=1e6),
        st.integers(0, 50),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_crossover_is_the_boundary(self, D, f, d_over_D):
        # (f+1)(D+d) < (f+2)D  iff  d < D/(f+1).
        d = d_over_D * D
        d_star = F.crossover_d(D, f)
        assume(abs(d - d_star) > 1e-9 * D)  # off the tie, clear of rounding
        wins = F.extended_time(f + 1, D, d) < F.classic_time(f + 2, D)
        assert wins == (d < d_star)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            F.extended_time(-1, 100.0, 1.0)
        with pytest.raises(ConfigurationError):
            F.classic_time(1, 0.0)
        with pytest.raises(ConfigurationError):
            F.ffd_time_bound(0, 100.0, -1.0)
        with pytest.raises(ConfigurationError):
            F.crossover_d(0.0, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: F.extended_time(1, 0.0, 1.0),
            lambda: F.extended_time(1, 100.0, -1.0),
            lambda: F.classic_time(-1, 100.0),
            lambda: F.ffd_time_bound(-1, 100.0, 1.0),
            lambda: F.ffd_time_bound(0, 0.0, 1.0),
            lambda: F.crossover_d(1.0, -1),
        ],
        ids=["extended-D0", "extended-d-neg", "classic-rounds-neg",
             "ffd-f-neg", "ffd-D0", "crossover-f-neg"],
    )
    def test_rejects_bad_input(self, call):
        with pytest.raises(ConfigurationError):
            call()


def extended_wins(D: float, d: float, f: int) -> bool:
    """Does CRW's ``(f+1)(D+d)`` strictly beat early stopping's ``(f+2)D``?"""
    return F.extended_time(F.crw_round_bound(f), D, d) < F.classic_time(
        F.early_stopping_round_bound(f, f + 1), D
    )


class TestCrossoverBehaviour:
    """The Section 2.2 comparison, composed from the round and time formulas."""

    def test_completion_times(self):
        D, d = 100.0, 5.0
        assert F.extended_time(F.crw_round_bound(0), D, d) == 105.0
        assert F.extended_time(F.crw_round_bound(2), D, d) == 3 * 105.0
        assert F.classic_time(F.early_stopping_round_bound(0, 1), D) == 200.0
        assert F.classic_time(F.early_stopping_round_bound(2, 2), D) == 300.0
        assert F.classic_time(F.floodset_rounds(4), D) == 500.0

    @pytest.mark.parametrize("f", [0, 1, 3, 4])
    def test_tie_at_crossover_is_not_a_win(self, f):
        D = 100.0
        assert not extended_wins(D, F.crossover_d(D, f), f)
        assert extended_wins(D, F.crossover_d(D, f) - 1e-9, f)

    def test_small_d_wins_huge_d_loses(self):
        assert all(extended_wins(100.0, 1.0, f) for f in range(6))
        assert not extended_wins(100.0, 120.0, 0)  # 220 > 200

    @pytest.mark.parametrize("f", [0, 1, 2, 4])
    def test_series_flips_exactly_once(self, f):
        wins = [
            extended_wins(100.0, frac * 100.0, f)
            for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
        ]
        assert wins[0] is True and wins[-1] is False
        assert sum(a != b for a, b in zip(wins, wins[1:])) == 1

    @given(st.floats(min_value=0.1, max_value=1e6), st.integers(0, 50))
    def test_wins_just_below_crossover_loses_just_above(self, D, f):
        threshold = F.crossover_d(D, f)
        assert extended_wins(D, threshold * 0.99, f)
        assert not extended_wins(D, threshold * 1.01, f)

    @pytest.mark.parametrize("f", [0, 1, 2, 4, 8])
    def test_win_region_is_a_prefix_of_the_d_axis(self, f):
        wins = [extended_wins(100.0, k, f) for k in range(201)]  # d/D in [0, 2]
        assert wins[0] is True
        assert wins == sorted(wins, reverse=True)

    @pytest.mark.parametrize("f", [0, 1, 2, 4])
    def test_last_win_sits_just_below_crossover(self, f):
        D = 100.0
        fracs = [k / 1000.0 for k in range(2001)]
        last_win = max(x for x in fracs if extended_wins(D, x * D, f))
        threshold = F.crossover_d(D, f) / D
        assert threshold - 2e-3 <= last_win < threshold


class TestSimulationFormula:
    def test_blowup(self):
        assert F.simulation_blowup(8) == 8
        with pytest.raises(ConfigurationError):
            F.simulation_blowup(1)


class TestFormulasAgreeWithHarness:
    def test_registry_bounds_match(self):
        from repro.scenarios import ALGORITHMS

        bound = {name: ALGORITHMS.get(name).round_bound
                 for name in ("crw", "floodset", "early-stopping")}
        for f, t in ((0, 3), (2, 3), (3, 3)):
            assert bound["crw"](f, t) == F.crw_round_bound(f)
            assert bound["floodset"](f, t) == F.floodset_rounds(t)
            assert bound["early-stopping"](f, t) == F.early_stopping_round_bound(f, t)

    def test_measured_run_matches_formulas(self):
        from repro.scenarios import Scenario, execute

        n, v = 8, 64
        record = execute(Scenario(algorithm="crw", n=n, t=n - 1, workload="sized",
                                  workload_params={"bits": v}))
        assert record.messages_sent == F.crw_best_messages(n)
        assert record.bits_sent == F.crw_best_bits(n, v)
