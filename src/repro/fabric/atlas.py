"""Merge-on-read tradeoff atlases over a shard directory.

The point of a million-cell sweep is the paper's tradeoff surface —
rounds vs. messages vs. bits as synchronization messages (and faults)
are added — and the **atlas** is that surface as a regeneratable
artifact: one deterministic JSON document reduced from the per-shard
columnar files, the way zamlet's ``dse/`` sweeps are reduced by
``analyze_results.py``.

Nothing here materializes the sweep: shard files stream one line at a
time through :func:`repro.fabric.shardio.iter_shard_lines`, so working
memory is one batch line plus one accumulator per distinct cell group.
The reduction is a *column fold*: a batch line's cells arrive factored
per configuration (:class:`~repro.scenarios.scenario.CellColumn`), each
of the line's distinct configurations finds its
:class:`~repro.scenarios.sweep.CellGroups` accumulator once, and the
``last_decision_round``, ``messages_sent``, ``bits_sent``, ``spec_ok``
and ``sim_time`` columns are added straight in — no :class:`Scenario`
or :class:`RunRecord` per cell.  Legacy ``{"record": ...}`` lines feed
the same accumulators.  Cells are added in file order, so every sum —
the float ``sim_time`` one included — is the one
:func:`~repro.scenarios.sweep.summarize_records` computes over the same
records, and since the fold reads through the resume index's own
decoder, a line counts exactly when resume would accept it.
The artifact carries the manifest's grid hash, which makes "same grid,
same results" checkable byte-for-byte: an interrupted-and-resumed sweep
must produce an atlas identical to an uninterrupted run's (pinned by
``tests/fabric/test_sharded_durability.py``).

A directory whose sweep quarantined poison cells (see
:class:`repro.fabric.manifest.QuarantineLog`) still summarizes: shards
marked ``"quarantined"`` are complete except for the quarantined cells,
and the atlas reports the shortfall honestly — ``quarantined`` counts
the excluded cells and ``covered_cells`` is what the rows actually
aggregate over, so partial coverage can never masquerade as full.

``repro-consensus atlas summarize --dir DIR`` is the CLI face.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.fabric.manifest import QuarantineLog, ShardManifest
from repro.fabric.shardio import iter_shard_lines, iter_shard_records
from repro.scenarios.record import RunRecord
from repro.scenarios.sweep import CellGroups, CellSummary

__all__ = [
    "ATLAS_SCHEMA",
    "atlas_summaries",
    "build_atlas",
    "write_atlas",
    "iter_directory_records",
]

ATLAS_SCHEMA = 2

#: Row keys: the summary's fields (all scalars, so no ``asdict`` deep copy).
_ROW_FIELDS = tuple(f.name for f in fields(CellSummary))


def _shard_files(manifest: ShardManifest) -> list[str]:
    # "quarantined" shards are complete minus their quarantine.json
    # cells — their files hold every record that exists, so they merge.
    missing = [
        s.id for s in manifest.shards
        if s.status not in ("done", "quarantined")
    ]
    if missing:
        raise ConfigurationError(
            f"shard directory {manifest.directory!r} is incomplete: shards "
            f"{missing} are not done — rerun the sweep to resume them "
            f"before summarizing"
        )
    return [os.path.join(manifest.directory, s.file) for s in manifest.shards]


def iter_directory_records(
    directory: str | os.PathLike[str],
) -> Iterator[RunRecord]:
    """Stream every record of a completed shard directory, in grid order."""
    manifest = ShardManifest.load(os.fspath(directory))
    for path in _shard_files(manifest):
        yield from iter_shard_records(path)


def _fold(manifest: ShardManifest) -> list[CellSummary]:
    """Fold every shard file's columns into per-configuration summaries."""
    groups = CellGroups()
    for path in _shard_files(manifest):
        for entry in iter_shard_lines(path):
            if isinstance(entry, RunRecord):
                groups.add_record(entry)
                continue
            cells, batch = entry
            aggs = [groups.aggregate(config) for config in cells.configs]
            for c, rounds, messages, bits, ok, sim_time in zip(
                cells.config_of,
                batch.last_decision_round,
                batch.messages_sent,
                batch.bits_sent,
                batch.spec_ok,
                batch.sim_time,
            ):
                aggs[c].add(rounds, messages, bits, ok, sim_time)
    return groups.summaries()


def atlas_summaries(directory: str | os.PathLike[str]) -> list[CellSummary]:
    """Reduce a completed shard directory to per-cell summaries, streaming."""
    return _fold(ShardManifest.load(os.fspath(directory)))


def build_atlas(directory: str | os.PathLike[str]) -> dict[str, Any]:
    """The atlas document: grid identity + the rounds/messages/bits tables.

    A pure function of the shard files' record set — worker schedules,
    steal decisions, and kill/resume histories do not show up in it, so
    regenerating an atlas from a resumed sweep reproduces the
    uninterrupted run's bytes exactly.
    """
    directory = os.fspath(directory)
    manifest = ShardManifest.load(directory)
    quarantine = QuarantineLog.load(directory)
    rows = [
        {name: getattr(summary, name) for name in _ROW_FIELDS}
        for summary in _fold(manifest)
    ]
    return {
        "schema": ATLAS_SCHEMA,
        "cells": manifest.cells,
        "covered_cells": manifest.cells - len(quarantine),
        "quarantined": len(quarantine),
        "shards": len(manifest.shards),
        "grid_hash": manifest.grid,
        "rows": rows,
    }


def write_atlas(
    directory: str | os.PathLike[str], out_path: str | os.PathLike[str]
) -> dict[str, Any]:
    """Write the atlas artifact JSON (deterministic bytes); returns the doc."""
    doc = build_atlas(directory)
    with open(os.fspath(out_path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return doc
