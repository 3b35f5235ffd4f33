"""Worst-case certificates: explicit runs realizing the bounds.

Three executable statements about the paper's bounds:

1. :func:`worst_case_schedule` / :func:`certify_f_plus_one` — the
   coordinator-cascade run that forces the Figure-1 algorithm to spend
   exactly ``f + 1`` rounds (tightness of Theorem 1, and the matching-run
   half of Theorem 5's optimality).
2. :func:`certify_no_run_exceeds` — exhaustively verifies (small ``n``)
   that *no* adversary, however it picks crash rounds, subsets, and
   prefixes, pushes the algorithm past ``f + 1`` rounds (the other half of
   Theorem 1).
3. :func:`refute_round_bound` — for a *claimed* ``k``-round algorithm
   (``k <= t``), finds a concrete violating run, which is what Theorems 3
   and 4 assert must exist.  Applied to ``TruncatedCRW(k)`` this turns the
   impossibility proof into a failing test case with a replayable
   schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.lowerbound.explorer import (
    ExplorationConfig,
    ExplorationReport,
    Explorer,
    LeafOutcome,
)
from repro.sync.api import SyncProcess
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.crash import Subset

__all__ = [
    "worst_case_schedule",
    "certify_f_plus_one",
    "certify_no_run_exceeds",
    "refute_round_bound",
    "Certificate",
]


@dataclass(frozen=True, slots=True)
class Certificate:
    """A verified statement plus the run(s) witnessing it."""

    statement: str
    holds: bool
    witness: LeafOutcome | None = None
    leaves_checked: int = 0


def worst_case_schedule(f: int) -> CrashSchedule:
    """The coordinator cascade: ``p_r`` dies in round ``r`` delivering
    nothing, for ``r = 1..f`` (the paper's Lemma-3 worst case)."""
    if f < 0:
        raise ConfigurationError("f must be >= 0")
    return CrashSchedule(
        CrashEvent(r, r, CrashPoint.DURING_DATA, data_policy=Subset.NONE)
        for r in range(1, f + 1)
    )


def certify_f_plus_one(
    factory: Callable[[], Sequence[SyncProcess]],
    f: int,
    *,
    t: int | None = None,
) -> Certificate:
    """Run the cascade and certify the decision lands exactly at ``f + 1``."""
    from repro.sync.extended import ExtendedSynchronousEngine
    from repro.sync.spec import check_consensus

    procs = list(factory())
    n = procs[0].n
    engine = ExtendedSynchronousEngine(
        procs, worst_case_schedule(f), t=t if t is not None else n - 1
    )
    result = engine.run()
    spec = check_consensus(result, require_early_stopping=True)
    tight = result.last_decision_round == f + 1 and result.f == f
    decisions, rounds = result.decisions, result.decision_rounds
    leaf = LeafOutcome(
        decisions=tuple(
            (pid, decisions[pid], rounds[pid]) for pid in sorted(decisions)
        ),
        crashed=tuple(sorted(result.crashed.items())),
        rounds=result.rounds_executed,
        completed=result.completed,
        schedule=tuple(worst_case_schedule(f).events.values()),
        violations=spec.violations,
    )
    return Certificate(
        statement=f"coordinator cascade forces last decision at round f+1 = {f + 1}",
        holds=spec.ok and tight,
        witness=leaf,
        leaves_checked=1,
    )


def certify_no_run_exceeds(
    factory: Callable[[], Mapping[int, SyncProcess]],
    *,
    max_crashes: int,
    max_crashes_per_round: int | None = None,
    max_rounds: int | None = None,
    node_budget: int = 2_000_000,
) -> Certificate:
    """Exhaustively verify ``last decision <= f + 1`` over *all* runs.

    ``f`` here is per-run (the leaf's actual crash count), so this is the
    early-stopping statement of Theorem 1, not just the ``t + 1`` one.
    """
    per_round = max_crashes_per_round or max_crashes
    config = ExplorationConfig(
        max_crashes=max_crashes,
        max_crashes_per_round=per_round,
        max_rounds=max_rounds if max_rounds is not None else max_crashes + 2,
        node_budget=node_budget,
    )
    report = Explorer(factory, config).explore()
    holds = report.ok and report.early_stopping_holds
    return Certificate(
        statement="no adversary pushes any decision past round f+1",
        holds=holds,
        witness=report.worst_excess_leaf or report.worst_leaf,
        leaves_checked=report.leaves,
    )


def refute_round_bound(
    factory: Callable[[], Mapping[int, SyncProcess]],
    *,
    max_crashes: int,
    max_rounds: int,
    one_crash_per_round: bool = True,
    node_budget: int = 2_000_000,
) -> Certificate:
    """Find a violating run of a claimed ``k``-round algorithm.

    Theorems 3/4 say such a run must exist whenever the claimed bound is
    at most ``t`` (resp. ``f``); the returned certificate carries the
    concrete crash schedule that exhibits it.
    """
    config = ExplorationConfig(
        max_crashes=max_crashes,
        max_crashes_per_round=1 if one_crash_per_round else max_crashes,
        max_rounds=max_rounds,
        node_budget=node_budget,
    )
    report = Explorer(factory, config).explore()
    witness = report.violating_leaves[0] if report.violating_leaves else None
    return Certificate(
        statement=(
            "a run violating uniform consensus exists for the claimed "
            f"{max_rounds}-round algorithm"
        ),
        holds=witness is not None,
        witness=witness,
        leaves_checked=report.leaves,
    )
