"""Exhaustive branching adversary over extended-model runs.

The lower-bound proofs (Theorems 3–5) quantify over *runs*: for every
algorithm that claims to decide within ``t`` rounds there exists a run —
built round by round by an adversary choosing who crashes, which subset of
data messages escapes, and how long the delivered control prefix is — that
breaks it.  For small systems the run tree is finite, so the quantifier is
checkable by enumeration.  This module walks that tree.

The explorer drives deep-copied process states through
:func:`repro.sync.engine.execute_round`, branching over every adversary
choice:

* which live processes crash this round (within a total budget ``t`` and a
  per-round cap — Theorem 3 uses "at most one crash per round");
* for each victim, every *distinct* resolved outcome: the data-subset
  lattice (all ``2^k`` subsets of the actually-planned destinations) and
  every control prefix ``0..len`` (both collapsed so that e.g.
  BEFORE_SEND and DURING_DATA-with-empty-subset are explored once).

Leaves are complete runs (everyone decided or crashed) or runs truncated
at ``max_rounds``.  Each leaf is checked against uniform consensus and the
observed decision rounds are aggregated, so one exploration answers both
"is there a violating run?" (with a replayable
:class:`~repro.sync.crash.CrashSchedule` certificate) and "what is the
worst-case decision round?".
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ConfigurationError, ExplorationBudgetExceeded
from repro.net.accounting import MessageStats
from repro.sync.api import SyncProcess
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.engine import execute_round
from repro.sync.result import RunResult
from repro.sync.spec import check_consensus
from repro.util.trace import Trace


def _instance_state(obj: Any) -> dict[str, Any]:
    """All instance attributes of ``obj``, whether dict- or slot-stored.

    Process classes may declare ``__slots__`` (the engines' fast path);
    the dedupe fingerprint must see their state either way.
    """
    state = dict(getattr(obj, "__dict__", None) or {})
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name not in state and hasattr(obj, name):
                state[name] = getattr(obj, name)
    return state

__all__ = ["ExplorationConfig", "LeafOutcome", "ExplorationReport", "Explorer"]


@dataclass(frozen=True)
class ExplorationConfig:
    """Adversary powers and exploration budgets.

    ``dedupe=True`` prunes configurations whose *observable state* (round,
    per-process internal state, decisions, crash budget used) has been
    visited before: identical states have identical subtrees, so pruning
    changes node counts and leaf multiplicities but not reachability of
    violations, decisions, or worst rounds (verified by the equivalence
    tests).  Leaf-count-sensitive consumers should keep the default.
    """

    max_crashes: int  # total crash budget (the model's t)
    max_crashes_per_round: int = 1  # Theorem 3's "at most one per round"
    max_rounds: int = 8
    node_budget: int = 2_000_000  # round-executions before giving up
    check_uniform: bool = True
    dedupe: bool = False

    def __post_init__(self) -> None:
        if self.max_crashes < 0 or self.max_crashes_per_round < 1:
            raise ConfigurationError("bad crash budgets")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")


@dataclass(frozen=True, slots=True)
class LeafOutcome:
    """One fully explored run."""

    decisions: tuple[tuple[int, Any, int], ...]  # (pid, value, round)
    crashed: tuple[tuple[int, int], ...]  # (pid, round)
    rounds: int
    completed: bool
    schedule: tuple[CrashEvent, ...]  # replayable adversary certificate
    violations: tuple[str, ...]

    @property
    def f(self) -> int:
        return len(self.crashed)

    @property
    def last_decision_round(self) -> int:
        return max((r for _, _, r in self.decisions), default=0)

    @property
    def decided_values(self) -> frozenset:
        return frozenset(v for _, v, _ in self.decisions)


@dataclass(slots=True)
class ExplorationReport:
    """Aggregate over every leaf of the run tree."""

    leaves: int = 0
    nodes: int = 0
    violating_leaves: list[LeafOutcome] = field(default_factory=list)
    worst_last_decision_round: int = 0
    worst_leaf: LeafOutcome | None = None
    # Early-stopping view: max of (last decision round) - (f + 1) per leaf,
    # i.e. > 0 iff some run decides later than its own crash count allows.
    worst_early_stopping_excess: int = -(10**9)
    worst_excess_leaf: LeafOutcome | None = None
    reachable_decisions: set = field(default_factory=set)
    incomplete_leaves: int = 0
    max_violations_kept: int = 10

    @property
    def ok(self) -> bool:
        """No violating leaf found anywhere in the tree."""
        return not self.violating_leaves and self.incomplete_leaves == 0

    @property
    def early_stopping_holds(self) -> bool:
        """Every run decided by round f + 1 (its own f)."""
        return self.worst_early_stopping_excess <= 0

    def absorb(self, leaf: LeafOutcome) -> None:
        self.leaves += 1
        self.reachable_decisions |= set(leaf.decided_values)
        if leaf.last_decision_round > self.worst_last_decision_round:
            self.worst_last_decision_round = leaf.last_decision_round
            self.worst_leaf = leaf
        if leaf.decisions:
            excess = leaf.last_decision_round - (leaf.f + 1)
            if excess > self.worst_early_stopping_excess:
                self.worst_early_stopping_excess = excess
                self.worst_excess_leaf = leaf
        if not leaf.completed:
            self.incomplete_leaves += 1
        if leaf.violations and len(self.violating_leaves) < self.max_violations_kept:
            self.violating_leaves.append(leaf)


@dataclass
class _Node:
    """Mutable exploration state (copied on branch)."""

    procs: dict[int, SyncProcess]
    active: set[int]
    crashed: dict[int, int]  # pid -> round
    decisions: dict[int, Any]  # pid -> value
    decision_rounds: dict[int, int]  # pid -> round
    round_no: int
    schedule: tuple[CrashEvent, ...]


class Explorer:
    """Exhaustive adversary search for one algorithm instantiation.

    ``factory`` builds a fresh ``{pid: process}`` mapping for the root; it
    is called once and the explorer deep-copies states along branches, so
    processes must be ``deepcopy``-able (all the library's are).
    """

    def __init__(
        self,
        factory: Callable[[], Mapping[int, SyncProcess]],
        config: ExplorationConfig,
    ) -> None:
        self.factory = factory
        self.config = config
        root = dict(factory())
        if not root:
            raise ConfigurationError("factory produced no processes")
        self.n = next(iter(root.values())).n
        if sorted(root) != list(range(1, self.n + 1)):
            raise ConfigurationError("factory pids must be 1..n")
        self._root = root
        # Proposals are fixed at construction; every leaf shares them.
        self._proposals = {
            pid: getattr(proc, "proposal", None) for pid, proc in root.items()
        }

    # -- adversary choice enumeration ---------------------------------------

    @staticmethod
    def _victim_actions(
        pid: int, round_no: int, planned_data: tuple[int, ...], planned_control: tuple[int, ...]
    ) -> Iterator[CrashEvent]:
        """Every observably distinct crash of ``pid`` in this round."""
        seen: set[tuple[frozenset[int], int]] = set()
        # Data-step crashes: all subsets, no control delivered.
        for k in range(len(planned_data) + 1):
            for combo in itertools.combinations(planned_data, k):
                key = (frozenset(combo), 0)
                if key not in seen:
                    seen.add(key)
                    yield CrashEvent(
                        pid,
                        round_no,
                        CrashPoint.DURING_DATA,
                        data_subset=frozenset(combo),
                    )
        # Control-step crashes: full data, every prefix (AFTER_SEND is the
        # full-prefix case but additionally suppresses nothing more, so it
        # is observationally the prefix == len case; both deliver all).
        for prefix in range(len(planned_control) + 1):
            key = (frozenset(planned_data), prefix)
            if key not in seen:
                seen.add(key)
                yield CrashEvent(
                    pid,
                    round_no,
                    CrashPoint.DURING_CONTROL,
                    control_prefix=prefix,
                )

    def _round_choices(
        self, node: _Node, plans: Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]
    ) -> Iterator[tuple[CrashEvent, ...]]:
        """Every crash combination for this round (including none)."""
        yield ()
        budget_left = self.config.max_crashes - len(node.crashed)
        if budget_left <= 0:
            return
        cap = min(self.config.max_crashes_per_round, budget_left)
        victims = sorted(node.active)
        for count in range(1, cap + 1):
            for group in itertools.combinations(victims, count):
                pools = [
                    list(
                        self._victim_actions(
                            pid, node.round_no + 1, plans[pid][0], plans[pid][1]
                        )
                    )
                    for pid in group
                ]
                for combo in itertools.product(*pools):
                    yield combo

    # -- tree walk -------------------------------------------------------------

    @staticmethod
    def _state_key(node: "_Node") -> tuple:
        """Observable-state fingerprint for dedupe pruning.

        Two nodes with equal keys have identical futures: the engine is
        deterministic in (process states, active set, round number), and
        the adversary's remaining power depends only on the crash budget
        used.  Decisions are part of the key because leaves report them.
        """
        procs_state = tuple(
            (pid, repr(sorted(_instance_state(node.procs[pid]).items())))
            for pid in sorted(node.procs)
        )
        return (
            node.round_no,
            frozenset(node.active),
            len(node.crashed),
            tuple(
                (pid, node.decisions[pid], node.decision_rounds[pid])
                for pid in sorted(node.decisions)
            ),
            procs_state,
        )

    def explore(self) -> ExplorationReport:
        """Walk the whole run tree; raises on budget exhaustion."""
        report = ExplorationReport()
        root = _Node(
            procs=copy.deepcopy(self._root),
            active=set(range(1, self.n + 1)),
            crashed={},
            decisions={},
            decision_rounds={},
            round_no=0,
            schedule=(),
        )
        stack = [root]
        seen: set[tuple] = set()
        while stack:
            node = stack.pop()
            if self.config.dedupe:
                key = self._state_key(node)
                if key in seen:
                    continue
                seen.add(key)
            if not node.active or node.round_no >= self.config.max_rounds:
                report.absorb(self._leaf(node))
                continue
            # Plans are a pure function of process state: compute once per
            # node on a scratch copy (send_phase must not mutate, but stay
            # defensive about future algorithms).
            scratch = copy.deepcopy(node.procs)
            plans = {}
            for pid in sorted(node.active):
                plan = scratch[pid].send_phase(node.round_no + 1)
                plan.validate(pid, self.n, allow_control=True)
                plans[pid] = (tuple(sorted(plan.data.keys())), plan.control)
            for crash_combo in self._round_choices(node, plans):
                report.nodes += 1
                if report.nodes > self.config.node_budget:
                    raise ExplorationBudgetExceeded(
                        f"node budget {self.config.node_budget} exceeded "
                        f"(leaves so far: {report.leaves})"
                    )
                child = _Node(
                    procs=copy.deepcopy(node.procs),
                    active=set(node.active),
                    crashed=dict(node.crashed),
                    decisions=dict(node.decisions),
                    decision_rounds=dict(node.decision_rounds),
                    round_no=node.round_no + 1,
                    schedule=node.schedule + crash_combo,
                )
                outcome = execute_round(
                    child.procs,
                    child.active,
                    child.round_no,
                    {ev.pid: ev for ev in crash_combo},
                    allow_control=True,
                    stats=MessageStats(),
                    trace=Trace(enabled=False),
                    rng=None,
                )
                for pid in outcome.resolved_crashes:
                    child.crashed[pid] = child.round_no
                    child.active.discard(pid)
                for pid, value in outcome.new_decisions.items():
                    child.decisions[pid] = value
                    child.decision_rounds[pid] = child.round_no
                    child.active.discard(pid)
                stack.append(child)
        return report

    # -- leaf evaluation ----------------------------------------------------------

    def _leaf(self, node: _Node) -> LeafOutcome:
        spec = check_consensus(
            self._as_run_result(node), uniform=self.config.check_uniform
        )
        decisions, rounds = node.decisions, node.decision_rounds
        return LeafOutcome(
            decisions=tuple(
                (pid, decisions[pid], rounds[pid]) for pid in sorted(decisions)
            ),
            crashed=tuple(sorted(node.crashed.items())),
            rounds=node.round_no,
            completed=not node.active,
            schedule=node.schedule,
            violations=spec.violations,
        )

    def _as_run_result(self, node: _Node) -> RunResult:
        """The leaf as a run result: the node's own ledgers, handed over."""
        return RunResult(
            n=self.n,
            t=self.config.max_crashes,
            model="extended",
            proposals=self._proposals,
            decisions=node.decisions,
            decision_rounds=node.decision_rounds,
            crashed=node.crashed,
            rounds_executed=node.round_no,
            completed=not node.active,
            stats=MessageStats(),
            trace=Trace(enabled=False),
        )
