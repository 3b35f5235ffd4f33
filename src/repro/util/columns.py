"""Typed array columns: numpy when available, stdlib ``array`` fallback.

The columnar tables of PRs 3–5 hold per-process state in pid-indexed
Python *lists*.  This module provides the array-backed replacement the
vectorized tables build on: int64 / bool / uint64 columns that are numpy
arrays when numpy is importable and :class:`array.array` buffers when it
is not, plus a small set of element accessors (gather / scatter / reduce)
that dispatch on the column's concrete type.

Two properties every helper keeps, because the vectorized engine paths
are pinned byte-identical to the object paths:

* **Python scalars out.**  ``take`` / ``min_at`` / ``any_at`` /
  ``or_at`` return built-in ``int`` / ``bool`` values (``tolist`` on the
  numpy side), never numpy scalars — payloads and decisions feed the
  bit-accounting memo and JSON serialization, both of which are
  type-sensitive.
* **Backend equivalence.**  The numpy and fallback paths compute the
  same values; ``REPRO_NO_NUMPY=1`` forces the fallback so CI can pin
  the whole suite on it.

numpy is imported on first need, not with this module: the first vector
column built (or the first :func:`load_numpy` call) imports it.  Code
that never builds an array column — the service, the asynchronous
engines, the serial sweep — never pays numpy's import time or memory.  Until numpy is loaded no column can
be a numpy array, so the accessors' type dispatch needs no import.

Eligibility: the vectorized tables only engage when every value fits a
plain int64 (:func:`all_int64`); anything else — ``SizedValue``, strings,
service commands — falls back to the list-batched tables unchanged.
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import Any, Iterable, Sequence

__all__ = [
    "load_numpy",
    "is_ndarray",
    "int64_fits",
    "all_int64",
    "int_column",
    "bool_column",
    "uint64_column",
    "is_array_column",
    "assign_slice",
    "fill_slice",
    "take",
    "put",
    "min_at",
    "any_at",
    "or_at",
]

_UNRESOLVED = object()
_numpy: Any = _UNRESOLVED

#: ``numpy.ndarray`` once numpy loads; until then an empty tuple, which
#: no ``isinstance`` check matches.
_ndarray: Any = ()


def load_numpy():
    """The numpy module, imported on first call; None when unavailable.

    ``REPRO_NO_NUMPY=1`` pins the ``array`` fallback (the no-numpy CI
    job runs the whole suite this way).
    """
    global _numpy, _ndarray
    if _numpy is _UNRESOLVED:
        module = None
        if not os.environ.get("REPRO_NO_NUMPY"):
            try:
                import numpy as module
            except ImportError:
                module = None
        _numpy = module
        if module is not None:
            _ndarray = module.ndarray
    return _numpy


if "numpy" in sys.modules:
    load_numpy()  # already paid for: resolve now so foreign arrays dispatch


def is_ndarray(column: Any) -> bool:
    """Whether ``column`` is a numpy array (never imports numpy)."""
    return isinstance(column, _ndarray)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def int64_fits(value: Any) -> bool:
    """Whether ``value`` is a plain int representable as an int64.

    Exact-type check on purpose: ``bool`` is an ``int`` subclass but
    serializes (and bit-sizes) differently, so it does not qualify.
    """
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def all_int64(values: Iterable[Any]) -> bool:
    """Whether every value passes :func:`int64_fits` (vector eligibility)."""
    return all(int64_fits(v) for v in values)


# -- constructors -----------------------------------------------------------


def int_column(values: Sequence[int], *, offset: int = 0):
    """An int64 column: ``offset`` zeroed slots then ``values``.

    Synchronous tables are pid-indexed with slot 0 unused — they pass
    ``offset=1``.
    """
    np = load_numpy()
    if np is not None:
        col = np.zeros(len(values) + offset, dtype=np.int64)
        col[offset:] = values
        return col
    return array("q", bytes(8 * offset)) + array("q", values)


def bool_column(values: Sequence[bool], *, offset: int = 0):
    """A bool column (``b`` int8 0/1 in the fallback)."""
    np = load_numpy()
    if np is not None:
        col = np.zeros(len(values) + offset, dtype=np.bool_)
        col[offset:] = values
        return col
    return array("b", bytes(offset)) + array("b", [1 if v else 0 for v in values])


def uint64_column(values: Sequence[int], *, offset: int = 0):
    """A uint64 column (bitmask state, e.g. FloodSet value sets)."""
    np = load_numpy()
    if np is not None:
        col = np.zeros(len(values) + offset, dtype=np.uint64)
        col[offset:] = values
        return col
    return array("Q", bytes(8 * offset)) + array("Q", values)


def is_array_column(column: Any) -> bool:
    """Whether ``column`` is an array-backed column (numpy or ``array``)."""
    return isinstance(column, (array, _ndarray))


# -- whole-column writes (the refill path) ----------------------------------


def assign_slice(column: Any, values: Sequence[Any], *, offset: int = 0) -> None:
    """``column[offset:] = values`` for list, numpy, and ``array`` columns.

    The stdlib ``array`` only accepts a same-typecode array on slice
    assignment, and numpy handles any sequence natively; lists take the
    plain slice write.  Length checking is the caller's job
    (:func:`repro.util.tables.refill_column` fronts this with the
    dtype-aware check and error message).
    """
    if isinstance(column, array):
        column[offset:] = array(column.typecode, values)
    else:
        column[offset:] = values


def fill_slice(column: Any, value: Any, *, offset: int = 0) -> None:
    """``column[offset:] = [value] * k`` for list, numpy, and ``array``."""
    if isinstance(column, array):
        column[offset:] = array(column.typecode, [value]) * (len(column) - offset)
    elif isinstance(column, _ndarray):
        column[offset:] = value
    else:
        column[offset:] = [value] * (len(column) - offset)


# -- element accessors (gather / scatter / reduce) --------------------------


def take(column: Any, indices: Sequence[int]) -> list:
    """Gather ``column[i] for i in indices`` as Python scalars."""
    if isinstance(column, _ndarray):
        return column[indices].tolist()
    return [column[i] for i in indices]


def put(column: Any, indices: Sequence[int], value: Any) -> None:
    """Scatter one ``value`` into every slot named by ``indices``."""
    if isinstance(column, _ndarray):
        if indices:
            column[indices] = value
        return
    for i in indices:
        column[i] = value


def min_at(column: Any, indices: Sequence[int]) -> int:
    """``min(column[i] for i in indices)`` as a Python int."""
    if isinstance(column, _ndarray):
        return int(column[indices].min())
    return min(column[i] for i in indices)


def any_at(column: Any, indices: Sequence[int]) -> bool:
    """``any(column[i] for i in indices)`` as a Python bool."""
    if isinstance(column, _ndarray):
        return bool(column[indices].any())
    return any(column[i] for i in indices)


def or_at(column: Any, indices: Sequence[int]) -> int:
    """Bitwise OR over ``column[i] for i in indices`` as a Python int."""
    if isinstance(column, _ndarray):
        if not len(indices):
            return 0
        return int(_numpy.bitwise_or.reduce(column[indices]))
    out = 0
    for i in indices:
        out |= column[i]
    return out
