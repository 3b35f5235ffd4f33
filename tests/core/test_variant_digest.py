"""Pinned bytes of the four Figure-1 ablations' runs.

``EagerCRW``, ``TruncatedCRW``, ``IncreasingCommitCRW`` and
``FullBroadcastCRW`` step under the default ``batched=None`` here.  This
file pins what they produce: a sha256 over ``execute(...).to_dict()``
and every :class:`~repro.net.accounting.MessageStats` counter, for each
variant × every synchronous adversary of the extended model × n ∈ {4,
7, 16} × four workloads × seeds {0, 1, 7}.

``t = f = n // 2``, so ``truncated-crw``'s default deadline
``k = max(t, 1)`` falls inside the crash-heavy runs and its forced
decisions are part of the bytes.

The digests were recorded while each variant still had a columnar
vector table; the per-process reference kept them.  To re-record after
a deliberate change of a variant's behaviour, print
``_variant_digest(name)`` for each variant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios import Scenario, execute

from tests.sync.test_fastpath_parity import EXTENDED_ADVERSARIES

VARIANTS = ("eager-crw", "full-broadcast-crw", "increasing-commit-crw", "truncated-crw")

#: ``random-classic`` is the classic engines' plan family.
ADVERSARIES = [name for name in EXTENDED_ADVERSARIES if name != "random-classic"]

SIZES = (4, 7, 16)

#: id -> Scenario workload fields.
WORKLOADS = {
    "distinct-ints": {"workload": "distinct-ints"},
    "sized": {"workload": "sized", "workload_params": {"bits": 16}},
    "binary": {"workload": "binary"},
    "identical": {"workload": "identical"},
}

SEEDS = (0, 1, 7)


def _variant_digest(algorithm: str) -> str:
    rows = []
    for adversary in ADVERSARIES:
        for n in SIZES:
            for workload, fields in WORKLOADS.items():
                for seed in SEEDS:
                    record = execute(Scenario(
                        algorithm=algorithm, n=n, t=n // 2, f=n // 2,
                        adversary=adversary, seed=seed, **fields,
                    ))
                    rows.append([
                        adversary, n, workload, seed,
                        record.to_dict(),
                        dataclasses.asdict(record.raw.stats),
                    ])
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


VARIANT_DIGESTS = {
    "eager-crw": "cfc3af6d80bc0d5d85f251e882b0cdad4b4a87142aa3a22bc49cc0d8ecdb2685",
    "full-broadcast-crw": "a32d15f1ff47d6bff8f47fdc953ffc1aa11b4824a00ccaa66182ef45ec3f97ff",
    "increasing-commit-crw": "998aee388e7afe3fab4dfea8381b59ccd7f517c2233a292bab0bcc0e533655a9",
    "truncated-crw": "9b851f3b0b5431d6586c26dab8353b54c9948d4839c9c96977283d0a7dec1ba3",
}


def test_grid_covers_every_extended_adversary():
    assert len(ADVERSARIES) == 7
    assert sorted(VARIANT_DIGESTS) == sorted(VARIANTS)


@pytest.mark.parametrize("algorithm", VARIANTS)
def test_variant_bytes_pinned(algorithm):
    assert _variant_digest(algorithm) == VARIANT_DIGESTS[algorithm]
