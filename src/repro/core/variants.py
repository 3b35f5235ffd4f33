"""Deliberately modified variants of the paper's algorithm.

These exist to make the *limit* half of the paper executable:

* :class:`EagerCRW` — decides on DATA alone, without waiting for COMMIT
  (drops the paper's line-8 guard).  A crash during the coordinator's data
  step then produces split brains: the sub-round the COMMIT step closes is
  exactly what eagerness gives up.  The lower-bound explorer finds uniform
  (indeed plain) agreement violations.
* :class:`TruncatedCRW` — behaves like the real algorithm but force-decides
  its current estimate at the end of round ``k``.  For ``k <= t`` this is
  "an algorithm that always decides within ``t`` rounds", the object
  Theorem 3 proves cannot exist; the explorer exhibits its bad runs.
* :class:`IncreasingCommitCRW` — identical to the real algorithm except the
  COMMIT sequence runs in *increasing* id order.  Safety survives (the
  value is still locked by a completed data step) but Lemma 3's case-1
  argument collapses: a prefix now covers a *bottom* id range, and runs
  exist where the last decision lands **after** round ``f + 1``.  This is
  the ablation showing the sending *order* carries real power, not just the
  extra message.
* :class:`FullBroadcastCRW` — sends DATA and COMMIT to every other
  process, not only to higher ids: the messages the paper's id ordering
  saves.
* :class:`SilentProcess` — proposes and never sends or decides; used to
  validate that the spec checker reports termination violations.

All of them step per process.  None has a vector table: the registry in
:mod:`repro.sync.api` is keyed by exact type, so a subclass of
:class:`~repro.core.crw.CRWConsensus` does not inherit its table, and
``batched=True`` rejects these classes.
"""

from __future__ import annotations

from typing import Any

from repro.core.crw import CRWConsensus
from repro.errors import ConfigurationError
from repro.sync.api import NO_SEND, RoundInbox, SendPlan, SyncProcess

__all__ = ["EagerCRW", "TruncatedCRW", "IncreasingCommitCRW", "FullBroadcastCRW", "SilentProcess"]


class EagerCRW(CRWConsensus):
    """Figure 1 without the COMMIT wait: decides as soon as DATA arrives.

    Still *sends* COMMITs as coordinator (they are simply never needed by
    receivers), so its message pattern matches the real algorithm and the
    only delta is the removed guard — a one-line ablation.
    """

    __slots__ = ()

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        if round_no == self.pid:
            self.decide(self.est)
            return
        coord = round_no
        if coord in inbox.data:
            self.est = inbox.data[coord]
            self.decide(self.est)  # eager: no COMMIT check


class TruncatedCRW(CRWConsensus):
    """Figure 1 with a hard decision deadline at round ``k``.

    Models "a (hypothetical) algorithm that always decides by round ``k``".
    Theorem 3 says no correct such algorithm exists for ``k <= t``; the
    explorer demonstrates it on this one.
    """

    __slots__ = ("k",)

    def __init__(self, pid: int, n: int, proposal: Any, k: int) -> None:
        if k < 1:
            raise ConfigurationError(
                f"truncated-crw parameter k (the decision deadline round) "
                f"must be >= 1, got {k}"
            )
        super().__init__(pid, n, proposal)
        self.k = k

    def send_phase(self, round_no: int) -> SendPlan:
        # Reuse the real protocol's sends while the deadline has not passed;
        # the base class guard (round > pid cannot happen) must be bypassed
        # because truncation lets non-decided processes outlive their own
        # coordinator round only when k < pid.
        if round_no < self.pid:
            return NO_SEND
        if round_no == self.pid:
            return SendPlan(
                data={j: self.est for j in range(self.pid + 1, self.n + 1)},
                control=tuple(range(self.n, self.pid, -1)),
            )
        return NO_SEND

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        coord = round_no
        if round_no == self.pid:
            self.decide(self.est)
            return
        if coord in inbox.data:
            self.est = inbox.data[coord]
        if coord in inbox.control:
            self.decide(self.est)
            return
        if round_no >= self.k:
            # Deadline: decide whatever we currently estimate.
            self.decide(self.est)


class IncreasingCommitCRW(CRWConsensus):
    """Figure 1 with the COMMIT sequence in increasing id order.

    The delivered prefix of a crashing coordinator then covers the *lowest*
    ids after the coordinator instead of the highest, so an early decider
    no longer implies that every higher id decided too — and the ``f + 1``
    early-stopping bound breaks (uniform agreement is unaffected).
    """

    __slots__ = ()

    def send_phase(self, round_no: int) -> SendPlan:
        plan = super().send_phase(round_no)
        if plan.control:
            return SendPlan(data=plan.data, control=tuple(sorted(plan.control)))
        return plan


class FullBroadcastCRW(CRWConsensus):
    """Figure 1 with DATA (and COMMIT) sent to *every* other process.

    The paper's coordinator addresses only higher ids, because every lower
    id has provably decided or crashed by round ``r`` (claim C2).  This
    ablation drops the optimisation: correctness and round counts are
    unchanged, but the message bill grows from ``2(n-r)`` to ``2(n-1)``
    per round — the E2/ablation benches quantify the waste the paper's
    id-ordering argument saves.
    """

    __slots__ = ()

    def send_phase(self, round_no: int) -> SendPlan:
        plan = super().send_phase(round_no)
        if round_no != self.pid:
            return plan
        others = [j for j in range(1, self.n + 1) if j != self.pid]
        # compute_phase is inherited unchanged: DATA still accompanies every
        # COMMIT (now for lower ids too), so the base-class line-8 invariant
        # holds as-is.
        return SendPlan(
            data={j: self.est for j in others},
            control=tuple(sorted(others, reverse=True)),
        )


class SilentProcess(SyncProcess):
    """Proposes a value, never communicates, never decides."""

    __slots__ = ("proposal",)

    def __init__(self, pid: int, n: int, proposal: Any) -> None:
        super().__init__(pid, n)
        self.proposal = proposal

    def send_phase(self, round_no: int) -> SendPlan:
        return NO_SEND

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        return None

