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

Reading is streaming: :func:`iter_shard_records` yields records line by
line, which is what lets the atlas layer reduce a million-cell sweep
without ever materializing it.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterator

from repro.errors import ConfigurationError
from repro.scenarios.record import RecordBatch, RunRecord
from repro.scenarios.scenario import scenario_key

__all__ = [
    "append_batch",
    "heal_torn_tail",
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


def iter_shard_records(path: str) -> Iterator[RunRecord]:
    """Stream the decodable records of one shard file, in file order.

    Both line layouts decode; torn, foreign, or incompatible lines are
    skipped (their cells are simply not listed as done).  The generator
    holds one line's records at a time.
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
                except (ConfigurationError, KeyError, TypeError, ValueError):
                    pass
                continue
            payload = entry.get("batch")
            if isinstance(payload, dict):
                try:
                    records = RecordBatch.from_payload(payload).to_records()
                except (ConfigurationError, IndexError, KeyError,
                        TypeError, ValueError):
                    continue  # foreign/incompatible batch line
                yield from records


def load_shard_index(path: str) -> dict[str, RunRecord]:
    """Per-cell resume index of one shard file: canonical key → record."""
    return {scenario_key(r.scenario): r for r in iter_shard_records(path)}
