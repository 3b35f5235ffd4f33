"""Run results for synchronous executions.

A :class:`RunResult` *is* the engine's ledgers: who proposed what, who
decided what and in which round, who crashed in which round.  The
continuous-time results (:class:`~repro.asyncsim.runner.AsyncRunResult`,
:class:`~repro.ffd.consensus.FFDRunResult`) carry the same four ledgers,
which is what lets one checker (:func:`repro.sync.spec.check_consensus`)
serve every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.accounting import MessageStats
from repro.util.trace import Trace

__all__ = ["RunResult"]


@dataclass(slots=True)
class RunResult:
    """Everything observable about one synchronous run.

    ``decisions`` and ``decision_rounds`` hold the processes that decided,
    in the order they decided; ``crashed`` maps each crashed pid to its
    crash round.  Halting after a decision is normal termination, not a
    crash, so the engines record a pid in ``decisions`` or ``crashed``
    (or neither, when the round budget ran out first), never both.
    """

    n: int
    t: int
    model: str  # "classic" | "extended"
    proposals: dict[int, Any]  # pid -> proposed value, every pid
    decisions: dict[int, Any]  # pid -> decided value
    decision_rounds: dict[int, int]  # pid -> round of decision
    crashed: dict[int, int]  # pid -> crash round
    rounds_executed: int
    completed: bool  # False iff max_rounds was hit with live undecided processes
    stats: MessageStats
    trace: Trace

    # -- derived views ------------------------------------------------------

    @property
    def f(self) -> int:
        """Actual number of crashes in the run (the paper's ``f``)."""
        return len(self.crashed)

    @property
    def crashed_pids(self) -> list[int]:
        """Ids of processes that crashed."""
        return sorted(self.crashed)

    @property
    def last_decision_round(self) -> int:
        """Largest decision round over all deciders (0 if nobody decided)."""
        return max(self.decision_rounds.values(), default=0)

    def summary(self) -> str:
        """One-line human summary (used in spec-violation messages)."""
        return (
            f"{self.model} run n={self.n} t={self.t} f={self.f} "
            f"rounds={self.rounds_executed} completed={self.completed} "
            f"decisions={dict(sorted(self.decisions.items()))} "
            f"crashed={self.crashed_pids}"
        )
