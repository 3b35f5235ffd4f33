"""Tests for the vectorized timing grid (validated against the scalar model)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.timing.grid import crossover_curve, timing_grid
from repro.timing.model import RoundCost, crossover_d

np = pytest.importorskip("numpy")


class TestTimingGrid:
    def test_shapes(self):
        grid = timing_grid(100.0, [0.0, 0.5, 1.0], [0, 1])
        assert grid["crw"].shape == (2, 3)
        assert grid["extended_wins"].dtype == bool

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            timing_grid(0.0, [0.1], [0])
        with pytest.raises(ConfigurationError):
            timing_grid(1.0, [[0.1]], [0])
        with pytest.raises(ConfigurationError):
            timing_grid(1.0, [-0.1], [0])
        with pytest.raises(ConfigurationError):
            timing_grid(1.0, [0.1], [-1])

    @settings(max_examples=50, deadline=None)
    @given(
        D=st.floats(min_value=1.0, max_value=1e4),
        frac=st.floats(min_value=0.0, max_value=2.0),
        f=st.integers(0, 30),
    )
    def test_matches_scalar_model(self, D, frac, f):
        grid = timing_grid(D, [frac], [f])
        cost = RoundCost(D=D, d=frac * D)
        assert grid["crw"][0, 0] == pytest.approx(cost.crw_time(f))
        assert grid["early_stopping"][0, 0] == pytest.approx(cost.early_stopping_time(f))
        assert bool(grid["extended_wins"][0, 0]) == cost.extended_wins(f)

    def test_win_region_monotone(self):
        # For fixed f the win mask is a prefix of the d axis.
        grid = timing_grid(100.0, np.linspace(0, 2, 201), [0, 1, 2, 4, 8])
        wins = grid["extended_wins"]
        for row in wins:
            flips = np.sum(row[:-1] != row[1:])
            assert flips <= 1
            assert row[0]  # d=0 always wins

    def test_margin_sign_agrees_with_mask(self):
        grid = timing_grid(50.0, np.linspace(0, 1.5, 31), [0, 3])
        assert np.array_equal(grid["margin"] > 0, grid["extended_wins"])


class TestCrossoverCurve:
    def test_values(self):
        curve = crossover_curve(100.0, [0, 1, 4])
        assert np.allclose(curve, [1.0, 0.5, 0.2])

    def test_matches_scalar(self):
        for f in range(10):
            assert crossover_curve(77.0, [f])[0] == pytest.approx(
                crossover_d(77.0, f) / 77.0
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            crossover_curve(0.0, [1])
        with pytest.raises(ConfigurationError):
            crossover_curve(1.0, [-1])

    def test_grid_flip_happens_at_curve(self):
        # The last winning d/D along each row is just below 1/(f+1).
        fracs = np.linspace(0, 2, 2001)
        f_values = [0, 1, 2, 4]
        grid = timing_grid(100.0, fracs, f_values)
        curve = crossover_curve(100.0, f_values)
        for row, threshold in zip(grid["extended_wins"], curve):
            last_win = fracs[row][-1]
            assert threshold - 2e-3 <= last_win < threshold
