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
* :class:`SilentProcess` — proposes and never sends or decides; used to
  validate that the spec checker reports termination violations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Sequence

from repro.core.crw import CRWConsensus, CRWVectorTable, est_column
from repro.net.payload import bit_size
from repro.sync.api import (
    NO_SEND,
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_vector_table,
)
from repro.util.columns import at, put
from repro.util.tables import refill_value_column

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


# ---------------------------------------------------------------------------
# Vector tables.  The CRW-shaped variants subclass
# :class:`~repro.core.crw.CRWVectorTable` and override only their delta; the
# vector parity grid pins all of them against the per-process classes.
# SilentProcess, a spec-checker fixture, steps per process.
# ---------------------------------------------------------------------------


@register_vector_table(EagerCRW)
class _EagerCRWVectorTable(CRWVectorTable):
    """CRW vector table minus the line-8 COMMIT guard."""

    __slots__ = ()

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        if crash_free:
            # Crash-free rounds are indistinguishable from the real
            # algorithm: every DATA receiver also holds the COMMIT.
            return super().compute_phase_vector(
                round_no, receivers, receiver_order, sends, crash_free
            )
        est = self.est
        decisions: dict[int, Any] = {}
        if round_no in receivers:
            decisions[round_no] = at(est, round_no)
        if not sends:
            return decisions
        _sender, dests, value, _control, _bits = sends[0]
        got_data = receivers.intersection(dests)
        if got_data:
            deciders = sorted(got_data)
            put(est, deciders, value)
            decisions.update(dict.fromkeys(deciders, value))  # eager: DATA alone
        return decisions


@register_vector_table(IncreasingCommitCRW)
class _IncreasingCommitCRWVectorTable(CRWVectorTable):
    """CRW vector table with the COMMIT sequence ascending instead."""

    __slots__ = ()

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        sends = super().send_phase_vector(round_no, active)
        if sends:
            sender, data, value, _control, bits = sends[0]
            sends[0] = (sender, data, value, range(round_no + 1, self.n + 1), bits)
        return sends


@register_vector_table(FullBroadcastCRW)
class _FullBroadcastCRWVectorTable(CRWVectorTable):
    """CRW vector table with DATA and COMMIT addressed to every other pid.

    Only the send differs: active pids below the coordinator cannot exist
    (the inherited 'cannot happen' guard), so the extra low-id messages
    change the accounting, never the computation — compute is inherited
    (its destination intersections are shape-agnostic).
    """

    __slots__ = ()

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        sends = super().send_phase_vector(round_no, active)
        # p_n's round: the base table goes silent (nobody above), the
        # broadcast variant still addresses 1..n-1.
        if sends or (active and active[0] == round_no == self.n):
            value = at(self.est, round_no)
            others = tuple(j for j in range(1, self.n + 1) if j != round_no)
            sends = [(round_no, others, value, others[::-1], bit_size(value))]
        return sends


@register_vector_table(TruncatedCRW)
class _TruncatedCRWVectorTable(VectorAlgorithm):
    """Columnar TruncatedCRW: a value column ``est`` plus a uniform deadline.

    Only uniform-``k`` tables engage (one scalar deadline instead of a
    per-pid column keeps the whole-column round closed-form); mixed-``k``
    process sets step per process.
    """

    __slots__ = ("n", "est", "k")

    def __init__(self, n: int, est: Any, k: int) -> None:
        self.n = n
        self.est = est  # pid-indexed value column (slot 0 unused)
        self.k = k

    @classmethod
    def from_processes(
        cls, processes: Sequence[SyncProcess]
    ) -> "_TruncatedCRWVectorTable | None":
        k = processes[0].k
        if any(p.k != k for p in processes):
            return None
        return cls(processes[0].n, est_column(processes), k)

    supports_refill = True

    def refill(self, proposals: Sequence[Any]) -> bool:
        # The deadline ``k`` is configuration (params + t), fixed across
        # a lease; only the estimates vary run to run.
        self.est = refill_value_column(self.est, proposals, offset=1)
        return True

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        # No 'cannot happen' guard: truncation lets processes outlive their
        # own coordinator round (they just stay silent there).
        pos = bisect_left(active, round_no)
        if pos == len(active) or active[pos] != round_no:
            return []
        data = range(round_no + 1, self.n + 1)
        if not data:
            return []
        value = at(self.est, round_no)
        return [(round_no, data, value, range(self.n, round_no, -1), bit_size(value))]

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        est = self.est
        deadline = round_no >= self.k
        decisions: dict[int, Any] = {}
        if crash_free and sends:
            _sender, _dests, value, _control, _bits = sends[0]
            pos = bisect_right(receiver_order, round_no)
            followers = receiver_order[pos:]
            put(est, followers, value)
            for pid in receiver_order[:pos]:  # at/below the coordinator
                if pid == round_no or deadline:
                    decisions[pid] = at(est, pid)
            decisions.update(dict.fromkeys(followers, value))  # COMMIT held
            return decisions
        if not sends:
            # Dead coordinator (or p_n's empty round): only the coordinator
            # slot and the deadline can decide, on unchanged estimates.
            for pid in receiver_order:
                if pid == round_no or deadline:
                    decisions[pid] = at(est, pid)
            return decisions
        # Crash round with a (possibly truncated) coordinator send.
        _sender, dests, value, control, _bits = sends[0]
        got_data = receivers.intersection(dests)
        got_control = receivers.intersection(control)
        if got_data:
            put(est, sorted(got_data), value)
        for pid in receiver_order:
            if pid == round_no or pid in got_control or deadline:
                decisions[pid] = at(est, pid)  # post-adoption estimate
        return decisions
