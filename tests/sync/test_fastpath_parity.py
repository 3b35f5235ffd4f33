"""Trace parity: trace-off runs must be byte-identical to traced runs.

The synchronous engines have one delivery path (``repro.sync.engine``):
it never builds message objects and charges
:class:`~repro.net.accounting.MessageStats` in bulk.  Tracing only adds
an event pass over the delivered round, recording every
``deliver.*``/``drop.*`` event.  This grid pins that tracing changes
nothing else observable: the full :class:`~repro.scenarios.RunRecord`
and every individual stats counter agree across all synchronous
algorithms × adversaries × seeds.  The trace bytes themselves are
pinned by ``test_trace_digest.py``.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ADVERSARIES, ALGORITHMS, Scenario, execute

#: Every registered synchronous algorithm (the extended/classic engines).
SYNC_ALGORITHMS = sorted(
    name
    for name in ALGORITHMS.names()
    if ALGORITHMS.get(name).backend in ("extended", "classic")
)

#: Adversaries with a synchronous plan.  The classic engines cannot take
#: control-step crash points, so classic algorithms pair with the
#: classic-legal subset (same mapping `execute` itself applies for
#: "random").
EXTENDED_ADVERSARIES = sorted(
    name for name, adv in ADVERSARIES.items() if adv.make_sync is not None
)
CLASSIC_ADVERSARIES = ["none", "staggered", "random"]


def _cells():
    for algorithm in SYNC_ALGORITHMS:
        backend = ALGORITHMS.get(algorithm).backend
        adversaries = (
            EXTENDED_ADVERSARIES if backend == "extended" else CLASSIC_ADVERSARIES
        )
        for adversary in adversaries:
            yield algorithm, adversary


@pytest.mark.parametrize("algorithm,adversary", list(_cells()))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_records_and_stats_identical(algorithm, adversary, seed):
    scenario = Scenario(
        algorithm=algorithm, n=6, f=2, adversary=adversary, seed=seed,
    )
    traced = execute(scenario, trace=True)
    fast = execute(scenario, trace=False)

    # The normalized record agrees field for field (to_dict drops `raw`,
    # which holds the engine-native result including the trace object).
    assert fast.to_dict() == traced.to_dict()

    # And the raw per-kind counters agree individually — messages_sent /
    # bits_sent alone could mask compensating errors between kinds or
    # between the sent and delivered sides.
    assert fast.raw.stats == traced.raw.stats

    # The traced run actually traced; the fast run recorded nothing.
    assert len(traced.raw.trace) > 0
    assert len(fast.raw.trace) == 0


@pytest.mark.parametrize("algorithm", SYNC_ALGORITHMS)
def test_failure_free_parity(algorithm):
    scenario = Scenario(algorithm=algorithm, n=5, f=0, adversary="none", seed=3)
    assert execute(scenario, trace=False).to_dict() == execute(
        scenario, trace=True
    ).to_dict()


def test_inboxes_identical_between_paths():
    """Beyond the record: per-round inbox contents match exactly."""
    from repro.sync.extended import ExtendedSynchronousEngine
    from repro.scenarios.registry import ADVERSARIES as ADVS
    from repro.util.rng import RandomSource

    def run(trace):
        rng = RandomSource(5)
        schedule = ADVS.get("coordinator-killer").make_sync(2).schedule(
            6, 5, rng.spawn("adversary")
        )
        procs = ALGORITHMS.get("crw").factory(6, 5, list(range(6)), {})
        # batched=False: this test compares materialized inboxes, which
        # the auto-detected vector mode (trace off) never builds.
        engine = ExtendedSynchronousEngine(
            procs, schedule, t=5, rng=rng.spawn("engine"), trace=trace,
            batched=False,
        )
        outcomes = []
        while engine.active_pids:
            outcomes.append(engine.step())
        return outcomes

    for fast, traced in zip(run(False), run(True), strict=True):
        assert fast.round_no == traced.round_no
        assert fast.new_decisions == traced.new_decisions
        assert set(fast.inboxes) == set(traced.inboxes)
        for pid, inbox in fast.inboxes.items():
            assert dict(inbox.data) == dict(traced.inboxes[pid].data)
            assert inbox.control == traced.inboxes[pid].control


def test_empty_inbox_is_read_only():
    """The shared empty inbox must reject mutation instead of leaking state."""
    from repro.sync.engine import _EMPTY_INBOX

    assert _EMPTY_INBOX.empty
    with pytest.raises(TypeError):
        _EMPTY_INBOX.data[1] = "oops"  # type: ignore[index]
