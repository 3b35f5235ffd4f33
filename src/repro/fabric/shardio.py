"""Per-shard columnar JSONL files: the one write loop, append,
stream-read, torn-tail healing.

Each shard owns one JSONL file in the sweep directory, written by
whichever worker executes the shard; the serial executor's single sweep
file uses the same format.  Every cell reaches a file through
:func:`run_cells`, the one loop the serial executor, the shard workers
and the dispatcher's probe all run.  The layout is columnar — one
``{"batch": <RecordBatch payload>}`` line per flushed chunk — and the
reader also accepts the retired writer's one-record-per-line
``{"record": <row>}`` layout, so old files still resume.

Durability discipline:

* appends are buffered per chunk and flushed once per chunk, so a kill
  loses at most the in-flight chunk;
* a kill **mid-write** leaves a torn final line; :func:`heal_torn_tail`
  turns the fragment into its own (skippable) line before any append, so
  the first fresh chunk after a resume can never be glued onto garbage;
* unreadable lines are skipped, and their cells simply re-run — the
  per-cell resume index is rebuilt from whatever decodes
  (:func:`load_shard_index`).

Reading is streaming, and there is one reader: :func:`iter_shard_lines`
decodes a file line by line and is the only place that decides which
lines count.  A batch line comes out with its cells factored per
configuration (a :class:`~repro.scenarios.scenario.CellColumn`), so the
consumers pay per configuration what does not vary per cell:

* :func:`load_shard_index` splices each cell's canonical key from a
  per-configuration head and tail, and builds a record per cell only
  because resume hands records back;
* :func:`iter_shard_records` yields records, one line at a time;
* the atlas (:mod:`repro.fabric.atlas`) folds the numeric columns
  straight into per-configuration aggregates and builds no record at
  all.

Because all three read through the same decoder, the atlas counts a
line exactly when the resume index accepts it.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from contextlib import nullcontext
from typing import IO, Callable, Container, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.execute import EngineLease, execute
from repro.scenarios.record import RecordBatch, RunRecord
from repro.scenarios.scenario import CellColumn, Scenario, scenario_key

__all__ = [
    "CellFailure",
    "append_batch",
    "heal_torn_tail",
    "iter_shard_lines",
    "iter_shard_records",
    "load_shard_index",
    "run_cells",
]


class CellFailure(Exception):
    """A cell raised inside :func:`run_cells`: the cell's index (counted
    from the caller's ``start``), the traceback the quarantine log keeps,
    and the exception itself."""

    def __init__(self, cell: int, tb: str, error: Exception) -> None:
        super().__init__(f"cell {cell} failed")
        self.cell = cell
        self.tb = tb
        self.error = error


def run_cells(
    path: str | None,
    cells: Sequence[Scenario],
    keys: Callable[[], Sequence[str]],
    lease: EngineLease,
    write: Callable[[IO[str] | None, list[RunRecord], list[int]], None],
    chunk_size: int,
    *,
    interval: float | None = None,
    start: int = 0,
    skip: Container[int] = (),
    check: Callable[[int], None] | None = None,
) -> tuple[list[RunRecord], int]:
    """Run ``cells`` into the shard file ``path``; return ``(records, executed)``.

    Loads the resume index and heals the torn tail first (``keys()`` is
    called only when the file held records).  Cells whose index,
    ``start`` + position, is in ``skip`` are left out, cells in the file
    resume, and the rest run through ``lease`` after ``check(index)``.
    Every ``chunk_size`` fresh records — and, with ``interval``, at
    least every ``interval`` seconds — go to ``write(fh, records,
    positions)``; ``fh`` is None when ``path`` is.  ``records`` are the
    resumed and fresh records in cell order.

    A cell that raises flushes the finished cells first.  A
    :class:`ConfigurationError` then propagates as is — a bad
    configuration ends the sweep on every path — and any other
    exception becomes a :class:`CellFailure`.
    """
    done: dict[str, RunRecord] = {}
    if path is not None:
        done = load_shard_index(path)
        heal_torn_tail(path)
    # Keys cost a splice per cell; a fresh file needs none.
    cell_keys = keys() if done else None
    records: list[RunRecord] = []
    buffer: list[RunRecord] = []
    positions: list[int] = []
    executed = 0

    def flush() -> None:
        if buffer:
            try:
                write(fh, buffer, positions)
            finally:
                buffer.clear()
                positions.clear()

    last_flush = time.monotonic()
    with open(path, "a", encoding="utf-8") if path is not None else nullcontext() as fh:
        try:
            for position, cell in enumerate(cells):
                index = start + position
                if index in skip:
                    continue
                if cell_keys is not None:
                    prior = done.get(cell_keys[position])
                    if prior is not None:
                        records.append(prior)
                        continue
                try:
                    if check is not None:
                        check(index)
                    # trace=False pins sweep cells to the engines' fast
                    # path; per-event traces of thousands of cells would
                    # be pure overhead (records are byte-identical).
                    record = execute(cell, trace=False, lease=lease).normalized()
                except ConfigurationError:
                    raise
                except Exception as exc:
                    raise CellFailure(index, traceback.format_exc(), exc) from None
                records.append(record)
                buffer.append(record)
                positions.append(position)
                executed += 1
                # Count-based flushing amortizes write+flush over fast
                # cells; the time trigger bounds how much work an
                # interrupted sweep of *slow* cells can lose.
                if len(buffer) >= chunk_size or (
                    interval is not None
                    and time.monotonic() - last_flush >= interval
                ):
                    flush()
                    last_flush = time.monotonic()
        finally:
            flush()  # finished cells persist whatever ended the loop
    return records, executed


def append_batch(
    fh: IO[str],
    records: list[RunRecord],
    base: dict | None = None,
    deltas: list[dict] | None = None,
) -> None:
    """Append one columnar batch line for ``records`` and flush it.

    ``base``/``deltas`` forward to :meth:`RecordBatch.to_payload` so a
    shard worker that already holds each cell's dispatched delta skips
    the per-cell :func:`~repro.scenarios.scenario.scenario_delta` pass.
    """
    if not records:
        return
    payload = RecordBatch.from_records(records).to_payload(base, deltas)
    fh.write(json.dumps({"batch": payload}, sort_keys=True) + "\n")
    fh.flush()


def heal_torn_tail(path: str) -> None:
    """Terminate a torn final line so appends start on a fresh line.

    A worker killed mid-``write`` leaves a partial line at the end of its
    shard file.  Appending straight after it would glue the next batch
    onto the fragment and lose *that* batch too on the following resume;
    a single newline quarantines the fragment as its own undecodable
    (hence skipped) line instead.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if not size:
        return
    with open(path, "rb") as fh:
        fh.seek(size - 1)
        torn = fh.read(1) != b"\n"
    if torn:
        with open(path, "ab") as fh:
            fh.write(b"\n")


#: What decoding a foreign or malformed line raises: wrong shapes (a list
#: where a dict belongs), missing keys, values that do not convert.
_UNDECODABLE = (
    AttributeError, ConfigurationError, IndexError, KeyError, TypeError, ValueError,
)


def iter_shard_lines(
    path: str,
) -> Iterator[RunRecord | tuple[CellColumn, RecordBatch]]:
    """Stream the decodable lines of one shard file, in file order.

    A legacy ``{"record": ...}`` line yields its :class:`RunRecord`; a
    ``{"batch": ...}`` line yields ``(cells, batch)`` from
    :meth:`RecordBatch.decode_payload`, the batch's ``scenarios`` column
    left for the caller to fill.  Torn, foreign, or incompatible lines
    are skipped (their cells are simply not listed as done).  The
    generator holds one line at a time.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError:
        return
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of an interrupted flush
            if not isinstance(entry, dict):
                continue
            row = entry.get("record")
            if isinstance(row, dict):
                try:
                    yield RunRecord.from_dict(row)
                except _UNDECODABLE:
                    pass
                continue
            payload = entry.get("batch")
            if isinstance(payload, dict):
                try:
                    decoded = RecordBatch.decode_payload(payload)
                except _UNDECODABLE:
                    continue  # foreign/incompatible batch line
                yield decoded


def iter_shard_records(path: str) -> Iterator[RunRecord]:
    """Stream the decodable records of one shard file, in file order."""
    for entry in iter_shard_lines(path):
        if isinstance(entry, RunRecord):
            yield entry
        else:
            cells, batch = entry
            batch.scenarios = cells.scenarios()
            yield from batch.to_records()


def load_shard_index(path: str) -> dict[str, RunRecord]:
    """Per-cell resume index of one shard file: canonical key → record.

    Batch lines key their cells per configuration
    (:meth:`CellColumn.keys <repro.scenarios.scenario.CellColumn.keys>`);
    a later line's record for a key replaces an earlier one's.
    """
    index: dict[str, RunRecord] = {}
    for entry in iter_shard_lines(path):
        if isinstance(entry, RunRecord):
            index[scenario_key(entry.scenario)] = entry
        else:
            cells, batch = entry
            batch.scenarios = cells.scenarios()
            index.update(zip(cells.keys(), batch.to_records()))
    return index
