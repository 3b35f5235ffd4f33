"""Table utilities: report rendering and columnar-table refill helpers.

The benchmark harness prints every reproduced table with the rendering
helpers so the output can be pasted straight into Markdown documents (the
experiment record rendered by :mod:`repro.harness.report`, ``DESIGN.md``,
PRs).

The refill helpers serve a different kind of table: the pid-indexed
columnar process tables of the stepping engines
(:class:`repro.sync.api.VectorAlgorithm` /
:class:`repro.asyncsim.process.AsyncBatchedTable`).  Their ``refill``
implementations rewrite per-process state columns in place for a fresh
run of the same configuration — new proposals in, constants re-armed —
and every one of them needs the same moves, so they live here once:

* :func:`refill_column` — overwrite the per-pid slots from a 0-indexed
  value list (synchronous tables keep slot 0 unused, asynchronous tables
  are 0-indexed; ``offset`` covers both conventions);
* :func:`refill_value_column` — the same for a column of algorithm
  values, swapping the column's kind (int64 array or object list, see
  :func:`repro.util.columns.value_column`) when the new values need it;
* :func:`fill_column` — re-arm the per-pid slots with one constant.

Columns may be plain Python lists (object columns, the asynchronous
tables) or array-backed (numpy / :class:`array.array`, the int64 and
bool columns of :mod:`repro.util.columns`): the helpers dispatch on the
column's concrete type, keeping the length check and in-place-rewrite
contract identical across backends.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.errors import ConfigurationError
from repro.util.columns import (
    all_int64,
    assign_slice,
    fill_slice,
    is_array_column,
    value_column,
)

__all__ = [
    "Table",
    "render_ascii",
    "render_markdown",
    "refill_column",
    "refill_value_column",
    "fill_column",
]


def refill_column(column: Any, values: Sequence[Any], *, offset: int = 0) -> None:
    """Overwrite ``column[offset:]`` in place from the 0-indexed ``values``.

    The column object (and anything holding a reference to it) survives;
    only its per-pid slots change — which is the whole point of a table
    refill: no list, no table, no array, and no process objects are
    reallocated.  Works on list, numpy, and ``array.array`` columns; the
    length check runs up front for all of them (a bare numpy slice
    assignment would broadcast a scalar or raise a shape error with a
    less useful message, and an ``array`` slice assignment would silently
    resize).
    """
    _check_slots(column, values, offset)
    assign_slice(column, values, offset=offset)


def _check_slots(column: Any, values: Sequence[Any], offset: int) -> None:
    if len(column) - offset != len(values):
        raise ConfigurationError(
            f"column holds {len(column) - offset} slots but got "
            f"{len(values)} values"
        )


def refill_value_column(column: Any, values: Sequence[Any], *, offset: int = 0) -> Any:
    """Refill a :func:`~repro.util.columns.value_column`; return the column to keep.

    The column is rewritten in place while its kind still fits the
    values (int64 array for plain int64s, object list otherwise);
    otherwise a fresh column of the right kind replaces it.
    """
    if is_array_column(column) != all_int64(values):
        _check_slots(column, values, offset)
        return value_column(values, offset=offset)
    refill_column(column, values, offset=offset)
    return column


def fill_column(column: Any, value: Any, *, offset: int = 0) -> None:
    """Re-arm ``column[offset:]`` in place with a shared constant ``value``."""
    fill_slice(column, value, offset=offset)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Table:
    """A small column-typed table with ASCII and Markdown renderers.

    >>> t = Table(["n", "rounds"], title="demo")
    >>> t.add_row(4, 1)
    >>> print(t.to_markdown())   # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: str | None = None) -> None:
        if not columns:
            raise ConfigurationError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ConfigurationError(f"duplicate column names: {list(columns)}")
        self.columns: tuple[str, ...] = tuple(str(c) for c in columns)
        self.title = title
        self.rows: list[tuple[str, ...]] = []

    def add_row(self, *values: Any, **named: Any) -> None:
        """Append a row given positionally or by column name (not both)."""
        if values and named:
            raise ConfigurationError("pass row values positionally or by name, not both")
        if named:
            missing = set(self.columns) - set(named)
            extra = set(named) - set(self.columns)
            if missing or extra:
                raise ConfigurationError(
                    f"row keys mismatch: missing={sorted(missing)} extra={sorted(extra)}"
                )
            values = tuple(named[c] for c in self.columns)
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(tuple(_cell(v) for v in values))

    # -- rendering --------------------------------------------------------

    def _widths(self) -> list[int]:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def to_ascii(self) -> str:
        """Render with box-drawing-free ASCII (stable under any terminal)."""
        widths = self._widths()
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        out: list[str] = []
        if self.title:
            out.append(self.title)
        out.append(sep)
        out.append(
            "|" + "|".join(f" {c.ljust(w)} " for c, w in zip(self.columns, widths)) + "|"
        )
        out.append(sep)
        for row in self.rows:
            out.append(
                "|" + "|".join(f" {c.ljust(w)} " for c, w in zip(row, widths)) + "|"
            )
        out.append(sep)
        return "\n".join(out)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured Markdown table."""
        widths = self._widths()
        out: list[str] = []
        if self.title:
            out.append(f"**{self.title}**")
            out.append("")
        out.append(
            "| " + " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)) + " |"
        )
        out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in self.rows:
            out.append(
                "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
            )
        return "\n".join(out)

    def __len__(self) -> int:
        return len(self.rows)


def render_ascii(columns: Sequence[str], rows: Sequence[Sequence[Any]], title: str | None = None) -> str:
    """One-shot ASCII rendering of ``rows`` under ``columns``."""
    t = Table(columns, title=title)
    for row in rows:
        t.add_row(*row)
    return t.to_ascii()


def render_markdown(columns: Sequence[str], rows: Sequence[Sequence[Any]], title: str | None = None) -> str:
    """One-shot Markdown rendering of ``rows`` under ``columns``."""
    t = Table(columns, title=title)
    for row in rows:
        t.add_row(*row)
    return t.to_markdown()
