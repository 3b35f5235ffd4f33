"""Interactive consistency — the problem behind the paper's ``t+1`` citation.

The introduction's "any t-resilient consensus algorithm requires t+1
rounds" cites Fischer–Lynch [10], whose lower bound is stated for
*interactive consistency* (IC): every correct process must output the
**same vector** ``V`` with

* **validity** — ``V[j] = v_j`` for every correct ``p_j``, and
  ``V[j] ∈ {v_j, ⊥}`` for faulty ``p_j``;
* **agreement** — all deciders output the same vector (uniform here);
* **termination** — every correct process decides.

Under crash faults, flooding solves IC in ``t+1`` classic rounds: each
process relays every *(origin, value)* pair it learns (newly-learned pairs
only — the same silence optimisation as FloodSet); after a crash-free
round all live knowledge sets are equal and stay equal, and with at most
``t`` crashes one of ``t+1`` rounds is crash-free.

The classic reduction IC → consensus (decide a deterministic function of
the agreed vector, here the minimum entry) is provided by
:class:`ICConsensus` and tested against FloodSet — they are the same
flooding engine viewed through two outputs.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.floodset import value_key
from repro.errors import ConfigurationError
from repro.sync.api import NO_SEND, RoundInbox, SendPlan, SyncProcess
from repro.sync.result import RunResult
from repro.sync.spec import termination_violations

__all__ = [
    "BOTTOM",
    "InteractiveConsistency",
    "ICConsensus",
    "check_interactive_consistency",
]


class _Bottom:
    """The ⊥ vector entry for processes whose value never arrived."""

    _instance = None

    #: Protocol marker consumed by :func:`repro.scenarios.record.jsonable`
    #: (see :class:`repro.asyncsim.mr99._Bot` for the rationale).
    __consensus_bottom__ = True

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊥"

    def bit_size(self) -> int:
        return 1


BOTTOM = _Bottom()


class InteractiveConsistency(SyncProcess):
    """Flooding IC (classic model, ``t+1`` rounds); decides a tuple vector."""

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n:
            raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
        self.proposal = proposal
        self.t = t
        self.known: dict[int, Any] = {pid: proposal}  # origin -> value
        self._new: dict[int, Any] = {pid: proposal}

    @property
    def horizon(self) -> int:
        return self.t + 1

    def send_phase(self, round_no: int) -> SendPlan:
        if round_no > self.horizon or not self._new:
            return NO_SEND
        payload = tuple(sorted(self._new.items()))
        return SendPlan(
            data={j: payload for j in range(1, self.n + 1) if j != self.pid}
        )

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        incoming: dict[int, Any] = {}
        for pairs in inbox.data.values():
            for origin, value in pairs:
                incoming.setdefault(origin, value)
        self._new = {o: v for o, v in incoming.items() if o not in self.known}
        self.known.update(self._new)
        if round_no == self.horizon:
            vector = tuple(
                self.known.get(j, BOTTOM) for j in range(1, self.n + 1)
            )
            self.decide(vector)


class ICConsensus(InteractiveConsistency):
    """The IC → consensus reduction: decide the minimum vector entry."""

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        super().compute_phase(round_no, inbox)
        if self.decided:
            vector = self.decision
            values = [v for v in vector if v is not BOTTOM]
            # Replace the vector decision by the reduced scalar decision.
            self._decision = min(values, key=value_key)


def check_interactive_consistency(result: RunResult) -> list[str]:
    """IC spec violations for a run of :class:`InteractiveConsistency`."""
    violations: list[str] = []
    # Pid order, whatever order the processes decided in.
    decisions = dict(sorted(result.decisions.items()))
    proposals, crashed = result.proposals, result.crashed
    vectors = list(decisions.values())
    # Uniform vector agreement.
    if len(set(vectors)) > 1:
        violations.append(f"vector agreement: {set(vectors)}")
    # Termination: the consensus clause, word for word.
    violations += termination_violations(result)
    # Validity, entry by entry.
    for pid, vector in decisions.items():
        if len(vector) != result.n:
            violations.append(f"p{pid}: vector arity {len(vector)} != n")
            continue
        for j in range(1, result.n + 1):
            entry = vector[j - 1]
            expected = proposals[j]
            if j not in crashed:
                if entry != expected:
                    violations.append(
                        f"validity: p{pid} has V[{j}]={entry!r} but correct p{j} proposed {expected!r}"
                    )
            elif entry is not BOTTOM and entry != expected:
                violations.append(
                    f"validity: p{pid} has V[{j}]={entry!r} not in {{{expected!r}, ⊥}}"
                )
    return violations
