"""Per-shard columnar JSONL files: append, stream-read, torn-tail healing.

Each shard owns one JSONL file in the sweep directory, written by
whichever worker executes the shard; the serial executor's single sweep
file uses the same format and the same functions.  The layout is
columnar — one ``{"batch": <RecordBatch payload>}`` line per flushed
chunk — and the reader also accepts the retired writer's
one-record-per-line ``{"record": <row>}`` layout, so old files still
resume.

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
from typing import IO, Iterator

from repro.errors import ConfigurationError
from repro.scenarios.record import RecordBatch, RunRecord
from repro.scenarios.scenario import CellColumn, scenario_key

__all__ = [
    "append_batch",
    "heal_torn_tail",
    "iter_shard_lines",
    "iter_shard_records",
    "load_shard_index",
]


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
