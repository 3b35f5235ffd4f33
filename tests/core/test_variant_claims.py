"""Each Figure-1 ablation against CRW itself, run for run.

The four ablations in :mod:`repro.core.variants` each drop one thing
the paper's algorithm relies on, and each docstring says what that
costs.  Here every claim is checked on the scenario grid: one CRW run
and one ablation run of the same cell (same adversary, workload and
seed), for every synchronous adversary of the extended model × sixteen
workload/seed cells at n=6, t=f=2.

* ``eager-crw`` may lose agreement, and nothing else: validity,
  termination and the ``f + 1`` bound hold, and a crash-free run is
  CRW's run.
* ``truncated-crw`` (deadline ``k = t``) decides by round ``k``; where
  CRW itself finished by ``k`` the two runs are the same run, and
  otherwise only agreement can break.
* ``increasing-commit-crw`` keeps uniform consensus on every cell
  (only the ``f + 1`` bound may break, and its spec has none); a
  crash-free run is CRW's run.
* ``full-broadcast-crw`` keeps uniform consensus, the ``f + 1`` bound,
  CRW's crashes and CRW's decision rounds, and never sends less.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ADVERSARIES, Scenario, execute

ADVERSARY_NAMES = sorted(
    name for name, adv in ADVERSARIES.items() if adv.make_sync is not None
)

#: id -> Scenario workload fields.
WORKLOAD_CASES = {
    "distinct-ints": {"workload": "distinct-ints"},
    "sized": {"workload": "sized", "workload_params": {"bits": 16}},
    "binary": {"workload": "binary"},
    "identical-str": {"workload": "identical", "workload_params": {"value": "v"}},
    "identical-float": {"workload": "identical", "workload_params": {"value": 2.5}},
    "identical": {"workload": "identical"},
}

#: Sixteen (workload, seed) cells: six seeds of distinct integers, two
#: seeds of every other value type.
CELLS = [("distinct-ints", seed) for seed in (0, 1, 2, 7, 13, 21)] + [
    (workload, seed)
    for workload in WORKLOAD_CASES if workload != "distinct-ints"
    for seed in (0, 7)
]

GRID = pytest.mark.parametrize("adversary", ADVERSARY_NAMES)
CELL = pytest.mark.parametrize("workload,seed", CELLS)

T = 2


def _runs(variant, adversary, workload, seed):
    """CRW's record and ``variant``'s record of one cell."""
    scenario = Scenario(algorithm="crw", n=6, t=T, f=T, adversary=adversary,
                        seed=seed, **WORKLOAD_CASES[workload])
    return execute(scenario), execute(scenario.with_(algorithm=variant))


def _same_run(crw, variant):
    """The two records differ in the algorithm's name only."""
    a, b = crw.to_dict(), variant.to_dict()
    assert a.pop("scenario").pop("algorithm") == "crw"
    b.pop("scenario").pop("algorithm")
    assert a == b
    assert crw.raw.stats == variant.raw.stats


def _only_agreement_breaks(record):
    assert all(v.startswith("uniform agreement: ") for v in record.violations), (
        record.violations
    )


def test_grid_covers_every_extended_adversary():
    assert len(ADVERSARY_NAMES) == 8
    assert len(CELLS) == 16


@GRID
@CELL
def test_eager_loses_agreement_only(adversary, workload, seed):
    crw, eager = _runs("eager-crw", adversary, workload, seed)
    assert crw.spec_ok
    _only_agreement_breaks(eager)
    if not crw.crashed:
        _same_run(crw, eager)


@GRID
@CELL
def test_truncated_decides_by_its_deadline(adversary, workload, seed):
    crw, truncated = _runs("truncated-crw", adversary, workload, seed)
    assert truncated.last_decision_round <= T
    _only_agreement_breaks(truncated)
    if crw.last_decision_round <= T:
        _same_run(crw, truncated)


@GRID
@CELL
def test_increasing_commit_keeps_uniform_consensus(adversary, workload, seed):
    crw, increasing = _runs("increasing-commit-crw", adversary, workload, seed)
    assert increasing.spec_ok, increasing.violations
    if not increasing.crashed:
        _same_run(crw, increasing)


@GRID
@CELL
def test_full_broadcast_keeps_rounds_and_adds_traffic(adversary, workload, seed):
    crw, full = _runs("full-broadcast-crw", adversary, workload, seed)
    assert full.spec_ok, full.violations
    assert full.crashed == crw.crashed
    assert full.to_dict()["decision_rounds"] == crw.to_dict()["decision_rounds"]
    assert full.messages_sent >= crw.messages_sent
    assert full.bits_sent >= crw.bits_sent
    if not crw.crashed:
        _same_run(crw, full)
