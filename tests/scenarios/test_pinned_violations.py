"""Records of spec-violating cells, pinned byte for byte.

The ablations that break uniform agreement (eager-crw deciding before the
commit, truncated-crw giving up after ``k`` coordinators) and an mr99 run
cut off by its time horizon are the cells whose ``violations`` texts reach
sweep files and atlases.  Their exact ``to_dict()`` output — violation
wording, pid order and dict key order included — is pinned here, so a
change to how the consensus check is written cannot silently reword them.
(truncated-crw with ``k=2`` survives ``commit-splitter`` at f=2 and is
pinned with its empty violations.)
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import Scenario, execute

_EAGER = (
    '{"backend": "extended", "decisions": {"3": 101, "2": 102}, '
    '"decision_rounds": {"3": 1, "2": 2}, "crashed": [1], "f_actual": 1, '
    '"rounds_executed": 2, "last_decision_round": 2, "messages_sent": 3, '
    '"bits_sent": 17, "spec_ok": false, "violations": ["uniform agreement: '
    'conflicting decisions (101 by [3]; 102 by [2])"], "sim_time": null}'
)
_TRUNCATED_K1 = (
    '{"backend": "extended", "decisions": {"2": 102, "3": 103, "4": 104, '
    '"5": 105}, "decision_rounds": {"2": 1, "3": 1, "4": 1, "5": 1}, '
    '"crashed": [1], "f_actual": 1, "rounds_executed": 1, '
    '"last_decision_round": 1, "messages_sent": 0, "bits_sent": 0, '
    '"spec_ok": false, "violations": ["uniform agreement: conflicting '
    'decisions (102 by [2]; 103 by [3]; 104 by [4]; 105 by [5])"], '
    '"sim_time": null}'
)
_TRUNCATED_K2_KILLER = (
    '{"backend": "extended", "decisions": {"3": 103, "4": 104, "5": 105}, '
    '"decision_rounds": {"3": 2, "4": 2, "5": 2}, "crashed": [1, 2], '
    '"f_actual": 2, "rounds_executed": 2, "last_decision_round": 2, '
    '"messages_sent": 0, "bits_sent": 0, "spec_ok": false, "violations": '
    '["uniform agreement: conflicting decisions (103 by [3]; 104 by [4]; '
    '105 by [5])"], "sim_time": null}'
)
_TRUNCATED_K2_SPLITTER = (
    '{"backend": "extended", "decisions": {"3": 102, "4": 102, "5": 102}, '
    '"decision_rounds": {"3": 2, "4": 2, "5": 2}, "crashed": [1, 2], '
    '"f_actual": 2, "rounds_executed": 2, "last_decision_round": 2, '
    '"messages_sent": 4, "bits_sent": 25, "spec_ok": true, "violations": [], '
    '"sim_time": null}'
)
_MR99_CUT = (
    '{"backend": "async", "decisions": {}, "decision_rounds": {}, '
    '"crashed": [1], "f_actual": 1, "rounds_executed": 0, '
    '"last_decision_round": 0, "messages_sent": 0, "bits_sent": 0, '
    '"spec_ok": false, "violations": ["termination: correct p2 never decided", '
    '"termination: correct p3 never decided", "termination: correct p4 never '
    'decided", "termination: correct p5 never decided"], "sim_time": 0.5}'
)

PINNED = [
    (
        dict(algorithm="eager-crw", n=3, f=1, adversary="coordinator-killer-subset"),
        _EAGER,
    ),
    (
        dict(algorithm="truncated-crw", n=5, f=2, adversary="coordinator-killer",
             params={"k": 1}),
        _TRUNCATED_K1,
    ),
    (
        dict(algorithm="truncated-crw", n=5, f=2, adversary="commit-splitter",
             params={"k": 1}),
        _TRUNCATED_K1,
    ),
    (
        dict(algorithm="truncated-crw", n=5, f=2, adversary="coordinator-killer",
             params={"k": 2}),
        _TRUNCATED_K2_KILLER,
    ),
    (
        dict(algorithm="truncated-crw", n=5, f=2, adversary="commit-splitter",
             params={"k": 2}),
        _TRUNCATED_K2_SPLITTER,
    ),
    (
        dict(algorithm="mr99", n=5, f=1, adversary="coordinator-killer",
             timing={"until": 0.5}),
        _MR99_CUT,
    ),
]


@pytest.mark.parametrize(
    "cell, expected", PINNED,
    ids=[f"{c['algorithm']}-{c['adversary']}-{c.get('params', c.get('timing'))}"
         for c, _ in PINNED],
)
def test_record_pinned(cell, expected):
    scenario = Scenario(**cell)
    record = execute(scenario)
    data = record.to_dict()
    assert data.pop("scenario") == scenario.to_dict()
    assert json.dumps(data) == expected
    assert record.violations == tuple(json.loads(expected)["violations"])
    # The sweep path normalizes records; the pinned bytes must survive it.
    assert record.normalized().to_dict() == record.to_dict()

