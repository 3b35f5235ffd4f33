"""Unit tests for the typed array columns (`repro.util.columns`).

The accessors dispatch on the column's concrete type, so the stdlib
``array`` fallback branches are testable directly — by handing them an
``array.array`` — even when numpy is installed.  The constructor
fallback (numpy absent at import) is pinned by the no-numpy CI job,
which re-runs this whole file under ``REPRO_NO_NUMPY=1``.
"""

from __future__ import annotations

from array import array

import pytest

from repro.errors import ConfigurationError
from repro.util.columns import (
    all_int64,
    any_at,
    assign_slice,
    bool_column,
    fill_slice,
    int64_fits,
    int_column,
    is_array_column,
    load_numpy,
    min_at,
    or_at,
    put,
    take,
    uint64_column,
)
from repro.util.tables import fill_column, refill_column

np = load_numpy()
needs_numpy = pytest.mark.skipif(np is None, reason="numpy not importable")


class TestEligibility:
    def test_plain_ints_fit(self):
        assert int64_fits(0)
        assert int64_fits(-(1 << 63))
        assert int64_fits((1 << 63) - 1)

    def test_out_of_range_ints_do_not_fit(self):
        assert not int64_fits(1 << 63)
        assert not int64_fits(-(1 << 63) - 1)

    def test_bool_is_excluded_despite_being_an_int(self):
        # bool payloads bit-size and serialize differently from ints, so
        # a True proposal must keep the run on the object/list path.
        assert not int64_fits(True)
        assert not int64_fits(False)

    def test_non_ints_do_not_fit(self):
        assert not int64_fits("7")
        assert not int64_fits(7.0)
        assert not int64_fits(None)

    def test_all_int64(self):
        assert all_int64([1, 2, 3])
        assert all_int64([])
        assert not all_int64([1, True, 3])
        assert not all_int64([1, "x"])


class TestConstructors:
    def test_int_column_roundtrip(self):
        col = int_column([5, -7, 9])
        assert list(col) == [5, -7, 9]
        assert is_array_column(col)

    def test_offset_slots_are_zeroed(self):
        col = int_column([5, -7], offset=1)
        assert len(col) == 3
        assert col[0] == 0
        assert list(col[1:]) == [5, -7]

    def test_bool_column(self):
        col = bool_column([True, False, True], offset=1)
        assert [bool(v) for v in col] == [False, True, False, True]

    def test_uint64_column_holds_full_width_masks(self):
        top = 1 << 63
        col = uint64_column([top, 0], offset=1)
        assert int(col[1]) == top
        assert int(col[2]) == 0

    def test_plain_lists_are_not_array_columns(self):
        assert not is_array_column([1, 2])
        assert not is_array_column((1, 2))


class TestAccessorsOnFallbackArrays:
    """Fallback branches, driven with explicit ``array.array`` columns."""

    def test_take_returns_python_ints(self):
        col = array("q", [10, 20, 30, 40])
        out = take(col, [3, 1])
        assert out == [40, 20]
        assert all(type(v) is int for v in out)

    def test_take_on_bool_fallback_returns_ints(self):
        # array("b") has no bool notion — callers needing bools convert.
        col = array("b", [0, 1, 0])
        assert take(col, [1, 2]) == [1, 0]

    def test_put_scatters_one_value(self):
        col = array("q", [0, 0, 0, 0])
        put(col, [1, 3], 9)
        assert list(col) == [0, 9, 0, 9]

    def test_put_empty_indices_is_a_noop(self):
        col = array("q", [1, 2])
        put(col, [], 5)
        assert list(col) == [1, 2]

    def test_min_any_or(self):
        col = array("q", [9, 4, 7, 2])
        assert min_at(col, [0, 2]) == 7
        assert any_at(array("b", [0, 0, 1]), [0, 1]) is False
        assert any_at(array("b", [0, 0, 1]), [0, 2]) is True
        assert or_at(array("Q", [1, 2, 4]), [0, 2]) == 5
        assert or_at(array("Q", [1, 2, 4]), []) == 0

    def test_assign_and_fill_slice(self):
        col = array("q", [0, 1, 2, 3])
        assign_slice(col, [7, 8, 9], offset=1)
        assert list(col) == [0, 7, 8, 9]
        fill_slice(col, 4, offset=2)
        assert list(col) == [0, 7, 4, 4]


@needs_numpy
class TestAccessorsOnNumpy:
    """The numpy branches must return *Python* scalars, never np scalars."""

    def test_take_returns_python_ints(self):
        col = int_column([10, 20, 30])
        out = take(col, [2, 0])
        assert out == [30, 10]
        assert all(type(v) is int for v in out)

    def test_take_on_bool_column_returns_python_bools(self):
        col = bool_column([True, False])
        out = take(col, [0, 1])
        assert out == [True, False]
        assert all(type(v) is bool for v in out)

    def test_put_with_empty_indices(self):
        col = int_column([1, 2])
        put(col, [], 9)  # numpy would reject an empty fancy-index assign
        assert list(col) == [1, 2]

    def test_reducers_return_builtin_scalars(self):
        col = int_column([9, 4, 7])
        assert type(min_at(col, [0, 2])) is int
        assert type(any_at(bool_column([True]), [0])) is bool
        assert type(or_at(uint64_column([3, 5]), [0, 1])) is int
        assert or_at(uint64_column([3, 5]), [0, 1]) == 7
        assert or_at(uint64_column([3]), []) == 0

    def test_fill_slice(self):
        col = int_column([1, 2, 3])
        fill_slice(col, 8, offset=1)
        assert list(col) == [1, 8, 8]


class TestRefillHelpersAcrossBackends:
    """`refill_column` / `fill_column` keep one contract on every backend."""

    @pytest.fixture(params=["list", "array", "numpy"])
    def column(self, request):
        if request.param == "list":
            return [0, 1, 2, 3]
        if request.param == "array":
            return array("q", [0, 1, 2, 3])
        if np is None:
            pytest.skip("numpy not importable")
        return np.array([0, 1, 2, 3], dtype=np.int64)

    def test_refill_rewrites_in_place(self, column):
        before = id(column)
        refill_column(column, [7, 8, 9], offset=1)
        assert id(column) == before
        assert list(column) == [0, 7, 8, 9]

    def test_refill_length_mismatch_raises(self, column):
        with pytest.raises(ConfigurationError, match="slots"):
            refill_column(column, [7, 8], offset=1)
        with pytest.raises(ConfigurationError, match="slots"):
            refill_column(column, [7, 8, 9, 10], offset=1)
        assert list(column) == [0, 1, 2, 3]  # untouched on error

    def test_fill_column_constant(self, column):
        fill_column(column, 5, offset=2)
        assert list(column) == [0, 1, 5, 5]
