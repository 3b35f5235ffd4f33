"""The paper's uniform consensus algorithm (Figure 1).

``CRWConsensus`` (Cao–Raynal–Wang–Wu) is a rotating-coordinator algorithm
for the **extended** synchronous model.  Pseudo-code for process ``p_i``
with proposal ``v_i`` (paper, Figure 1)::

    est := v_i
    when r = 1, 2, ... do
        case r = i:   for j in i+1..n:        send DATA(est) to p_j
                      for j in n, n-1, .., i+1: send COMMIT to p_j   # ordered!
                      return est                                     # decide
        case r < i:   if DATA(v) received from p_r:  est := v
                      if COMMIT received from p_r:   return est      # decide
        case r > i:   cannot happen

Key facts the implementation mirrors:

* **Round ``r`` is coordinated by ``p_r``.**  Since each coordinator either
  decides at its own round or crashes, a process never observes a round
  greater than its own id (the ``cannot happen`` branch raises).
* **COMMIT destinations are in decreasing id order** (``p_n`` first).  On a
  crash during the control step an ordered *prefix* is delivered, i.e. a
  contiguous *top* range of ids — exactly what Lemma 3's case 1 needs so
  that if the first correct process ``p_{f+1}`` decided early, every higher
  id decided with it.
* **COMMIT means "line 4 completed"**: the engine only enters the control
  step after the full data step, so receiving COMMIT implies every live
  process received DATA this round and the value is *locked* (Lemma 2).
* The coordinator decides in its round's computation phase, which is
  observably identical to the paper's decide-right-after-sending: a crash
  point of ``AFTER_SEND`` delivers everything but suppresses the decision,
  matching "crashes just after line 5".

Properties (Theorems 1 and 2): uniform consensus, decision by round
``f + 1`` where ``f`` is the number of crashes in the run, one round when
``p_1`` survives round 1, bit complexity between ``(n-1)(|v|+1)`` and
``Σ_{r=1..t+1} (n-r)(|v|+1)`` bits.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Sequence

from repro.errors import ModelViolationError
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
from repro.util.columns import at, put, value_column
from repro.util.tables import refill_value_column

__all__ = ["CRWConsensus", "CRWVectorTable", "est_column"]


class CRWConsensus(SyncProcess):
    """Process of the paper's Figure-1 algorithm (extended model only)."""

    __slots__ = ("proposal", "est")

    def __init__(self, pid: int, n: int, proposal: Any) -> None:
        super().__init__(pid, n)
        self.proposal = proposal
        self.est: Any = proposal  # the paper's est_i, initialised to v_i

    # -- round hooks --------------------------------------------------------

    def send_phase(self, round_no: int) -> SendPlan:
        if round_no > self.pid:
            raise ModelViolationError(
                f"p{self.pid} reached round {round_no} > own id; "
                "coordinators decide or crash at their own round (Figure 1: 'cannot happen')"
            )
        if round_no < self.pid:
            return NO_SEND
        # Coordinator: line 4 (DATA to higher ids) then line 5 (COMMIT in
        # decreasing id order).  The engine sends control strictly after all
        # data, and applies prefix-truncation on a control-step crash.
        higher = range(self.pid + 1, self.n + 1)
        return SendPlan(
            data={j: self.est for j in higher},
            control=tuple(range(self.n, self.pid, -1)),
        )

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        if round_no == self.pid:
            # Line 6: the coordinator decides its own estimate.  Reaching the
            # computation phase means the whole send phase completed.
            self.decide(self.est)
            return
        # round_no < self.pid: wait for the round's coordinator p_r.
        coord = round_no
        if coord in inbox.data:  # line 7: adopt the coordinator's estimate
            self.est = inbox.data[coord]
        if coord in inbox.control:  # line 8: value is locked -> decide
            if coord not in inbox.data:
                # COMMIT follows a *completed* data step over reliable
                # channels, so DATA must have arrived with it; anything else
                # is an engine bug worth failing loudly on.
                raise ModelViolationError(
                    f"p{self.pid}: COMMIT from p{coord} without its DATA in round {round_no}"
                )
            self.decide(self.est)


def est_column(processes: Sequence[SyncProcess]) -> Any:
    """The processes' ``est`` values as a pid-indexed value column.

    Slot 0 is unused.  Plain int64 estimates get an int64 column, any
    other value type an object column (:func:`repro.util.columns.value_column`).
    """
    est: list[Any] = [None] * processes[0].n
    for p in processes:
        est[p.pid - 1] = p.est
    return value_column(est, offset=1)


@register_vector_table(CRWConsensus)
class CRWVectorTable(VectorAlgorithm):
    """Columnar Figure-1 table: ``est`` as one value column.

    Round ``r`` is a single coordinator send — one :data:`VectorSend`
    with contiguous ``range`` destinations — and, crash-free, a closed
    form: every receiver above the coordinator adopts and decides the
    coordinator's value (one column write + one ``dict.fromkeys``).
    Crash rounds fall back to set arithmetic over the truncated
    destination subsets, still without per-pid plan or inbox objects.
    Subclassed by the ablation variants' vector tables.
    """

    __slots__ = ("n", "est")

    def __init__(self, n: int, est: Any) -> None:
        self.n = n
        self.est = est  # pid-indexed value column (slot 0 unused)

    @classmethod
    def from_processes(cls, processes: Sequence[SyncProcess]) -> "CRWVectorTable":
        return cls(processes[0].n, est_column(processes))

    def refill(self, proposals: Sequence[Any]) -> bool:
        # A fresh Figure-1 process is just est = proposal; the est column
        # is the table's only run-varying state (the ablation tables
        # reuse this — their extra behaviour lives in the hooks).
        self.est = refill_value_column(self.est, proposals, offset=1)
        return True

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        if active and active[0] < round_no:
            # Mirrors the per-process guard, raised for the same (lowest
            # active) pid the per-process loop would have reached first.
            raise ModelViolationError(
                f"p{active[0]} reached round {round_no} > own id; "
                "coordinators decide or crash at their own round (Figure 1: 'cannot happen')"
            )
        if not active or active[0] != round_no:
            return []  # coordinator already crashed; everyone else is silent
        data = range(round_no + 1, self.n + 1)
        control = range(self.n, round_no, -1)
        if not data:  # p_n's round: nobody above it to tell
            return []
        value = at(self.est, round_no)
        return [(round_no, data, value, control, bit_size(value))]

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        est = self.est
        decisions: dict[int, Any] = {}
        coord_alive = round_no in receivers
        if not sends:
            # Nothing escaped (dead coordinator, or p_n's empty round).
            if coord_alive:
                decisions[round_no] = at(est, round_no)  # line 6
            return decisions
        _sender, dests, value, control, _bits = sends[0]
        if crash_free:
            # Uniform round: every receiver above the coordinator got
            # DATA + COMMIT -> adopts and decides (lines 7-8); the
            # coordinator decides its own estimate (line 6).
            if coord_alive:
                decisions[round_no] = value
            followers = receiver_order[bisect_right(receiver_order, round_no):]
            put(est, followers, value)
            decisions.update(dict.fromkeys(followers, value))
            return decisions
        # Crash round: intersect the (possibly truncated) destination
        # subsets with the survivors.  Bounded by f rounds per run.
        got_data = receivers.intersection(dests)
        got_control = receivers.intersection(control)
        orphaned = got_control - got_data
        if orphaned:
            pid = min(orphaned)
            raise ModelViolationError(
                f"p{pid}: COMMIT from p{round_no} without its DATA in round {round_no}"
            )
        if coord_alive:
            decisions[round_no] = value
        if got_data:
            put(est, sorted(got_data), value)  # line 7 for every DATA receiver
        for pid in sorted(got_control):  # line 8: locked -> decide
            decisions[pid] = value
        return decisions
