"""Unit tests for the typed value columns (`repro.util.columns`).

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
from repro.net.payload import SizedValue
from repro.util.columns import (
    all_int64,
    any_at,
    assign_slice,
    at,
    bool_column,
    fill_slice,
    int64_fits,
    int_column,
    is_array_column,
    load_numpy,
    min_at,
    object_column,
    or_at,
    put,
    take,
    value_column,
)
from repro.util.tables import fill_column, refill_column, refill_value_column

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

    def test_object_column_holds_values_and_wide_masks(self):
        top = 1 << 100  # a bitmask past any machine word
        col = object_column([top, "x"], offset=1)
        assert col == [None, top, "x"]
        assert not is_array_column(col)

    def test_value_column_picks_its_kind_from_the_values(self):
        assert is_array_column(value_column([1, 2], offset=1))
        for values in ([1, True], [1.0, 2.0], ["a", "b"], [SizedValue(1, 8)],
                       [1 << 63]):
            col = value_column(values, offset=1)
            assert col == [None, *values]
            assert [type(v) for v in col[1:]] == [type(v) for v in values]

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
        assert at(col, 3) == 2 and type(at(col, 3)) is int
        assert any_at(array("b", [0, 0, 1]), [0, 1]) is False
        assert any_at(array("b", [0, 0, 1]), [0, 2]) is True


class TestAccessorsOnObjectColumns:
    def test_min_at_orders_by_key(self):
        col = [None, SizedValue(9, 8), SizedValue(4, 64), SizedValue(7, 8)]
        assert min_at(col, [1, 3], key=lambda v: v.value) == SizedValue(7, 8)
        assert min_at(col, [1, 2, 3], key=lambda v: v.value).bits == 64

    def test_or_at_on_wide_masks(self):
        col = [1, 1 << 70, 4]
        assert or_at(col, [0, 1]) == 1 | (1 << 70)
        assert or_at(col, []) == 0

    def test_at_take_put_keep_the_objects(self):
        value = SizedValue(3, 16)
        col = object_column([1, "a", 2.5], offset=1)
        put(col, [1, 3], value)
        assert at(col, 1) is value and at(col, 2) == "a"
        assert take(col, [3, 2]) == [value, "a"]

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
        assert type(at(col, 1)) is int and at(col, 1) == 4
        assert type(any_at(bool_column([True]), [0])) is bool

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


class TestRefillValueColumn:
    """`refill_value_column` keeps the column while its kind fits."""

    def test_same_kind_refills_in_place(self):
        col = value_column([1, 2], offset=1)
        assert refill_value_column(col, [3, 4], offset=1) is col
        assert list(col[1:]) == [3, 4]
        objects = value_column(["a", "b"], offset=1)
        assert refill_value_column(objects, ["c", True], offset=1) is objects
        assert objects == [None, "c", True]

    def test_kind_change_swaps_the_column(self):
        col = value_column([1, 2], offset=1)
        swapped = refill_value_column(col, [1.5, "x"], offset=1)
        assert swapped == [None, 1.5, "x"]
        back = refill_value_column(swapped, [5, 6], offset=1)
        assert is_array_column(back) and list(back[1:]) == [5, 6]

    def test_length_mismatch_raises_on_either_path(self):
        with pytest.raises(ConfigurationError, match="slots"):
            refill_value_column(value_column([1, 2], offset=1), [1.5], offset=1)
        with pytest.raises(ConfigurationError, match="slots"):
            refill_value_column(value_column([1, 2], offset=1), [1], offset=1)
