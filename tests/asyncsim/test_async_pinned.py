"""Pinned bytes of the asynchronous backends.

The other async tests compare two paths of the current code with each
other (batched against per-object, refilled against fresh).  These pin
the runs themselves: a sha256 over the canonical JSON of every result in
a grid, so a change to delay draws, event ordering, accounting or the
records shows up here even when both stepping modes move together.

The digests were recorded before the network was cut down to one
tuple-carrying send path, and that change kept them.  To re-record after
a deliberate change of the run bytes, print ``_grid_digest(...)`` and
``_cells_digest(...)`` for each key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios import Scenario, execute

from tests.asyncsim.test_batched_async_parity import (
    ADVERSARIES,
    ALGORITHMS,
    DELAY_MODELS,
    _run,
)


def _digest(rows: list) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _grid_digest(algorithm: str, delay: str, batched: bool | None) -> str:
    """Every crash pattern × seeds 0–4 of one (algorithm, delay) cell."""
    rows = []
    for adversary in sorted(ADVERSARIES):
        for seed in range(5):
            result = _run(
                ALGORITHMS[algorithm],
                batched,
                seed=seed,
                crashes=ADVERSARIES[adversary],
                delay_model=DELAY_MODELS[delay],
            )
            rows.append(dataclasses.asdict(result))
    return _digest(rows)


def _cells_digest(algorithm: str) -> str:
    """``execute`` records of coordinator-killer cells, n ∈ {5, 7}, seeds 0–2."""
    delays = [None] if algorithm == "ffd" else [None, *sorted(DELAY_MODELS)]
    rows = []
    for delay in delays:
        for n in (5, 7):
            for seed in range(3):
                scenario = Scenario(
                    algorithm=algorithm, n=n, f=2 if n == 7 else 1,
                    adversary="coordinator-killer", seed=seed,
                    timing={} if delay is None else {"delay": delay},
                )
                rows.append(execute(scenario).to_dict())
    return _digest(rows)


GRID_DIGESTS = {
    ("chandra-toueg", "constant"):
        "2e32557162c50dda4108b24a550531cd5cc1cea2ad0942bf69b4774e5ae8a79c",
    ("chandra-toueg", "gst"):
        "7d2cbbe21bc9fb5a86b7e2cabf1902650bdf7f0a82d175e5c992003cef0d7931",
    ("chandra-toueg", "lognormal"):
        "e80fe113f3c557b013a99abd7088ab432ecae22126fefe1898754d6d9a33e45a",
    ("chandra-toueg", "uniform"):
        "176eac36404ee8fac9ca9a2e66cb9221ee8dc395f4c59ab06114327f3d112263",
    ("mr99", "constant"):
        "e2a7718dd5a71231c50b439bd6f1b29f1ea6c81f91dfaac117cb41bdbe7a3a06",
    ("mr99", "gst"):
        "a230cd14006d9e03d11b3b4222548324fd8f4e88019d491c3f37eb9bfec5d235",
    ("mr99", "lognormal"):
        "23b079c0e4d890d518ba23f3d49b748f63c950a1b04394f7dbafa78c0a128288",
    ("mr99", "uniform"):
        "2e9994c176798d27782bc989339c58e263565ea9235d79416c2ecb2e597eb562",
}

CELL_DIGESTS = {
    "chandra-toueg": "df32d4ae55d740ad4ab82dea7ee4fa8b044a5b84c8de301fd1458c46fb2a92d7",
    "ffd": "ae09350ad2598112809cbaadbd1fc55bba215eba59677cbe4fd0fb553a46788b",
    "mr99": "7421399637b698412356da3b16dfac9883cb2a1e4f7dd573e90247974a92470e",
}


@pytest.mark.parametrize("batched", [None, False], ids=["batched", "per-object"])
@pytest.mark.parametrize("algorithm, delay", sorted(GRID_DIGESTS))
def test_parity_grid_bytes_are_pinned(algorithm, delay, batched):
    assert _grid_digest(algorithm, delay, batched) == GRID_DIGESTS[algorithm, delay]


@pytest.mark.parametrize("algorithm", sorted(CELL_DIGESTS))
def test_execute_records_are_pinned(algorithm):
    assert _cells_digest(algorithm) == CELL_DIGESTS[algorithm]
