"""Pinned bytes of traced synchronous runs.

``test_fastpath_parity.py`` checks that a traced run and an untraced run
of the same scenario agree on the record and the counters; it cannot see
the trace itself change.  This file pins the trace: a sha256 over every
:class:`~repro.util.trace.TraceEvent` (round, kind, pid, detail) and
every :class:`~repro.net.accounting.MessageStats` counter of
``execute(..., trace=True)``, for every synchronous algorithm × its legal
adversaries × seeds {0, 1, 7} at n=6, f=2.

The digests were recorded while traced rounds still delivered through a
per-message copy of the delivery loop; the single delivery path with an
event pass kept them.  To re-record after a deliberate change of the
trace bytes, print ``_algorithm_digest(name)`` for each algorithm.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios import Scenario, execute

from tests.sync.test_fastpath_parity import SYNC_ALGORITHMS, _cells

SEEDS = (0, 1, 7)


def _event_row(event) -> list:
    return [event.round_no, event.kind, event.pid, [list(kv) for kv in event.detail]]


def _algorithm_digest(algorithm: str) -> str:
    rows = []
    for name, adversary in _cells():
        if name != algorithm:
            continue
        for seed in SEEDS:
            scenario = Scenario(
                algorithm=algorithm, n=6, f=2, adversary=adversary, seed=seed,
            )
            raw = execute(scenario, trace=True).raw
            rows.append([
                adversary,
                seed,
                [_event_row(e) for e in raw.trace],
                dataclasses.asdict(raw.stats),
            ])
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


TRACE_DIGESTS = {
    "crw": "64851a34b5a2293c6b1b33377fa3234bb09709fe08bfc506da646bc3a9c64aea",
    "eager-crw": "df0f80aeb8ce837a9d505c19c001494c39100af045492b7a4ed4265923da12e6",
    "early-stopping": "295d347dc48a9a19295a7ffb59b1715bc1f384754273d33f7a21496cc39ea6ba",
    "floodset": "c8e58f2f70d8cde7852d7432e985f0a17d6a839abcf9954a0ea971dd1f414711",
    "full-broadcast-crw": "8729eea95788827586d39ba3bb1e562025c155405e313480e5a3ce0855d5c769",
    "ic-consensus": "08957e5b6575437e3194452eb902a5b2c5d6564fc80d260c8c573f3d49a7b31d",
    "increasing-commit-crw": "a3dce032982fa16b35c9d7f32cd187faf11ffa2e083b4021f3f444d3263aa991",
    "interactive-consistency": "9572ab2e4e21295981114127f7f87de6b08b056665b0018a216d5b0444085db3",
    "truncated-crw": "64851a34b5a2293c6b1b33377fa3234bb09709fe08bfc506da646bc3a9c64aea",
}


def test_every_sync_algorithm_is_pinned():
    assert sorted(TRACE_DIGESTS) == SYNC_ALGORITHMS


@pytest.mark.parametrize("algorithm", SYNC_ALGORITHMS)
def test_trace_bytes_pinned(algorithm):
    assert _algorithm_digest(algorithm) == TRACE_DIGESTS[algorithm]
