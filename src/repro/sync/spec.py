"""The consensus specification, written once for every backend.

The uniform consensus problem (paper, Section 3.1):

* **Termination** — every correct process eventually decides.
* **Validity** — a decided value was proposed by some process.
* **Uniform agreement** — no two processes (correct **or faulty**) decide
  different values.

Plain (non-uniform) agreement restricts the agreement clause to correct
processes; the library checks both so tests can demonstrate why uniformity
is the interesting property (a faulty process deciding differently violates
uniform but not plain agreement).

:func:`check_consensus` reads only the ledgers every result type carries —
``proposals``, ``decisions``, ``decision_rounds`` and ``crashed`` (keyed by
pid), plus ``completed`` — so the synchronous engines, the lower-bound
explorer, the asynchronous runner and the fast-failure-detector run all
share one checker and one wording.  Violations come in clause order, and
within a clause in pid order.  :func:`assert_consensus` raises
:class:`~repro.errors.SpecViolationError` with the run summary instead,
which is what the synchronous tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import SpecViolationError

if TYPE_CHECKING:
    from repro.sync.result import RunResult

__all__ = [
    "SpecReport", "check_consensus", "assert_consensus", "termination_violations",
]


@dataclass(frozen=True, slots=True)
class SpecReport:
    """Outcome of checking one run against the consensus spec."""

    violations: tuple[str, ...]
    early_stopping_bound: int  # the f+1 bound evaluated for this run
    last_decision_round: int

    @property
    def ok(self) -> bool:
        """True when no clause was violated."""
        return not self.violations


def termination_violations(result: Any) -> list[str]:
    """The termination clause alone: one violation per correct process
    that never decided, in pid order.

    Shared by :func:`check_consensus` and the specs that keep their own
    validity and agreement clauses (interactive consistency's vectors).
    """
    decisions, crashed = result.decisions, result.crashed
    return [
        f"termination: correct p{pid} never decided"
        for pid in sorted(result.proposals)
        if pid not in decisions and pid not in crashed
    ]


def check_consensus(
    result: Any,
    *,
    uniform: bool = True,
    round_bound: int | None = None,
    require_early_stopping: bool = False,
) -> SpecReport:
    """Check ``result``'s ledgers against the (uniform) consensus spec.

    ``result`` is any run result carrying the ledgers named in the module
    docstring: a synchronous :class:`~repro.sync.result.RunResult`, an
    :class:`~repro.asyncsim.runner.AsyncRunResult` or an
    :class:`~repro.ffd.consensus.FFDRunResult`.

    Parameters
    ----------
    uniform:
        Check uniform agreement (decisions of faulty processes count).
    round_bound:
        If given, additionally require ``last decision round <= round_bound``.
    require_early_stopping:
        If True, additionally require the paper's Theorem 1 bound: no
        process decides after round ``f + 1`` where ``f`` is the *actual*
        number of crashes in the run.
    """
    # Termination: every correct process decided, and the run completed.
    violations = termination_violations(result)
    if not result.completed:
        violations.append(
            "termination: run stopped at round budget with live undecided processes"
        )
    decisions, crashed = result.decisions, result.crashed

    # Validity: decided values were proposed.  Proposals may be unhashable
    # in principle; the library's values are ints/strs/SizedValue, all
    # hashable (the scenario layer rejects anything else up front).  The
    # same pid-ordered pass groups the deciders for agreement.
    proposed = set(result.proposals.values())
    distinct: dict[Any, list[int]] = {}
    for pid in sorted(decisions):
        value = decisions[pid]
        if value not in proposed:
            violations.append(
                f"validity: p{pid} decided {value!r} which nobody proposed"
            )
        if uniform or pid not in crashed:
            distinct.setdefault(value, []).append(pid)

    # Agreement.
    if len(distinct) > 1:
        kind = "uniform agreement" if uniform else "agreement"
        detail = "; ".join(
            f"{value!r} by {pids}" for value, pids in sorted(
                distinct.items(), key=lambda kv: str(kv[0])
            )
        )
        violations.append(f"{kind}: conflicting decisions ({detail})")

    # Round bounds.
    last = max(result.decision_rounds.values(), default=0)
    es_bound = len(crashed) + 1
    if round_bound is not None and last > round_bound:
        violations.append(
            f"round bound: last decision at round {last} > bound {round_bound}"
        )
    if require_early_stopping and last > es_bound:
        violations.append(
            f"early stopping: last decision at round {last} > f+1 = {es_bound}"
        )

    return SpecReport(
        violations=tuple(violations),
        early_stopping_bound=es_bound,
        last_decision_round=last,
    )


def assert_consensus(
    result: RunResult,
    *,
    uniform: bool = True,
    round_bound: int | None = None,
    require_early_stopping: bool = False,
) -> SpecReport:
    """Like :func:`check_consensus` but raises on any violation."""
    report = check_consensus(
        result,
        uniform=uniform,
        round_bound=round_bound,
        require_early_stopping=require_early_stopping,
    )
    if not report.ok:
        raise SpecViolationError(
            "; ".join(report.violations) + f" | {result.summary()}"
        )
    return report
