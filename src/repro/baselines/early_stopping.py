"""Early-stopping flooding uniform consensus: ``min(f+2, t+1)`` rounds.

This is the classic-model comparison point of the paper's Section 2.2: the
best early-deciding uniform consensus in the traditional model needs
``f + 2`` rounds (Charron-Bost & Schiper 2004, Keidar & Rajsbaum 2003),
one more than the extended-model algorithm.

The implementation follows the standard counting scheme (Raynal's guided
tour, PRDC'02):

* every round, broadcast ``(est, early)`` where ``est`` is the minimum
  value seen and ``early`` says "I will decide right after this message";
* maintain ``nbr[r]`` = number of processes heard from in round ``r``
  (counting yourself), with ``nbr[0] = n``;
* if ``nbr[r] == nbr[r-1]``, no process died *visibly* between the two
  rounds, which implies you heard from **every** process that was alive at
  the start of round ``r`` — hence your ``est`` is the minimum estimate
  anywhere in the system: set ``early``;
* a received ``early`` flag is adopted (the flag's value accompanies it and
  is the global minimum, so adopting keeps est consistent);
* a process with ``early`` set broadcasts once more and decides; everyone
  reaching round ``t + 1`` decides there unconditionally.

Why ``f + 2``: per process, ``nbr`` can strictly decrease at most ``f``
times, so among the ``f + 1`` comparisons available by round ``f + 1`` one
is an equality; the extra broadcast round makes it ``f + 2``.  Why uniform:
an equality at ``p`` implies ``p``'s estimate is the global minimum (every
process alive at the start of the round delivered to ``p`` — a sender that
reached *anyone* without reaching ``p`` would have made the count drop), and
``p`` only decides after successfully re-broadcasting that minimum to all.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.baselines.floodset import value_key
from repro.net.payload import bit_size
from repro.sync.api import (
    BatchedAlgorithm,
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_batched_table,
    register_vector_table,
)
from repro.util.columns import (
    all_int64,
    any_at,
    bool_column,
    int_column,
    min_at,
    put,
    take,
)
from repro.util.tables import fill_column, refill_column

__all__ = ["EarlyStoppingConsensus"]


class EarlyStoppingConsensus(SyncProcess):
    """One early-stopping flooding process (classic model)."""

    __slots__ = ("proposal", "t", "est", "early", "_prev_nbr")

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n:
            raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
        self.proposal = proposal
        self.t = t
        self.est: Any = proposal
        self.early = False  # set -> broadcast (est, EARLY) next round, then decide
        self._prev_nbr = n  # nbr[0] = n

    def send_phase(self, round_no: int) -> SendPlan:
        payload = (self.est, self.early)
        return SendPlan(
            data={j: payload for j in range(1, self.n + 1) if j != self.pid}
        )

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        if self.early:
            # The EARLY broadcast of this round completed (we are computing,
            # hence we did not crash during the send phase): decide exactly
            # the value that was broadcast.
            self.decide(self.est)
            return

        nbr = len(inbox.data) + 1  # senders heard from, plus self
        flagged = False
        for est, early in inbox.data.values():
            if value_key(est) < value_key(self.est):
                self.est = est
            if early:
                flagged = True

        if round_no == self.t + 1:
            # Horizon: decide unconditionally (classic t+1 fallback).
            self.decide(self.est)
            return

        if flagged or nbr == self._prev_nbr:
            self.early = True
        self._prev_nbr = nbr


@register_batched_table(EarlyStoppingConsensus)
class _EarlyStoppingTable(BatchedAlgorithm):
    """Columnar early-stopping: ``est``/``early``/``nbr`` in parallel lists."""

    __slots__ = ("n", "horizon", "est", "early", "prev_nbr", "dests")

    def __init__(self, processes: Sequence[SyncProcess]) -> None:
        n = processes[0].n
        self.n = n
        self.horizon = [0] * (n + 1)
        self.est: list[Any] = [None] * (n + 1)
        self.early = [False] * (n + 1)
        self.prev_nbr = [0] * (n + 1)
        self.dests: list[tuple[int, ...]] = [()] * (n + 1)
        for p in processes:
            self.horizon[p.pid] = p.t + 1
            self.est[p.pid] = p.est
            self.early[p.pid] = p.early
            self.prev_nbr[p.pid] = p._prev_nbr
            self.dests[p.pid] = tuple(j for j in range(1, n + 1) if j != p.pid)

    @classmethod
    def from_processes(cls, processes: Sequence[SyncProcess]) -> "_EarlyStoppingTable":
        return cls(processes)

    supports_refill = True

    def refill(self, proposals: Sequence[Any]) -> bool:
        # Fresh state: est = proposal, early unset, nbr[0] = n; the horizon
        # and destination tuples are configuration, kept as-is.
        refill_column(self.est, proposals, offset=1)
        fill_column(self.early, False, offset=1)
        fill_column(self.prev_nbr, self.n, offset=1)
        return True

    def send_phase_all(self, round_no: int, active: Sequence[int]) -> dict[int, SendPlan]:
        est = self.est
        early = self.early
        dests = self.dests
        return {
            pid: SendPlan(data=dict.fromkeys(dests[pid], (est[pid], early[pid])))
            for pid in active
        }

    def compute_phase_all(
        self, round_no: int, inboxes: Mapping[int, RoundInbox]
    ) -> dict[int, Any]:
        est = self.est
        early = self.early
        prev_nbr = self.prev_nbr
        horizon = self.horizon
        decisions: dict[int, Any] = {}
        for pid, inbox in inboxes.items():
            if early[pid]:
                # The EARLY broadcast of this round completed: decide it.
                decisions[pid] = est[pid]
                continue
            data = inbox.data
            nbr = len(data) + 1
            flagged = False
            my_est = est[pid]
            my_key = value_key(my_est)
            for got, got_early in data.values():
                key = value_key(got)
                if key < my_key:
                    my_est = got
                    my_key = key
                if got_early:
                    flagged = True
            est[pid] = my_est
            if round_no == horizon[pid]:
                decisions[pid] = my_est
                continue
            if flagged or nbr == prev_nbr[pid]:
                early[pid] = True
            prev_nbr[pid] = nbr
        return decisions


@register_vector_table(EarlyStoppingConsensus)
class _EarlyStoppingVectorTable(VectorAlgorithm):
    """Array-columnar early-stopping: int64 ``est``/``nbr``, bool ``early``.

    Every round has a closed form the whole-column state makes one pass.
    The full broadcasts (every sender that did not crash mid-send, and
    every crashing one that still reached everybody) fold into one global
    minimum, one flag and one count: each non-early receiver is itself a
    full sender with its flag unset, and its own estimate cannot lower
    the minimum, so only the count drops by one for self.  A crash-free
    round is all full broadcasts; a crash round adds per-receiver fixups
    for the few receivers the truncated sends reached.  Values are plain
    int64s, so ``value_key`` is the identity and the minimum is
    order-free.  Requires plain-int proposals and a uniform horizon;
    anything else falls back to the list-batched table.
    """

    __slots__ = ("n", "horizon", "est", "early", "prev_nbr", "dests", "_payloads")

    def __init__(self, n: int, horizon: int, est: Any, early: Any, prev_nbr: Any) -> None:
        self.n = n
        self.horizon = horizon  # uniform t + 1
        self.est = est
        self.early = early
        self.prev_nbr = prev_nbr
        self.dests: list[tuple[int, ...]] = [
            tuple(j for j in range(1, n + 1) if j != pid) for pid in range(n + 1)
        ]
        # (est, early) -> (payload, bits), interned per run: estimates
        # converge on the minimum, so a run sends few distinct payloads.
        self._payloads: dict[tuple[int, bool], tuple[tuple[int, bool], int]] = {}

    @classmethod
    def from_processes(
        cls, processes: Sequence[SyncProcess]
    ) -> "_EarlyStoppingVectorTable | None":
        horizon = processes[0].t + 1
        if any(p.t + 1 != horizon for p in processes):
            return None
        if not all_int64([p.est for p in processes]):
            return None
        n = processes[0].n
        est = [0] * (n + 1)
        early = [False] * (n + 1)
        prev_nbr = [0] * (n + 1)
        for p in processes:
            est[p.pid] = p.est
            early[p.pid] = p.early
            prev_nbr[p.pid] = p._prev_nbr
        return cls(
            n, horizon, int_column(est), bool_column(early), int_column(prev_nbr)
        )

    supports_refill = True

    def refill(self, proposals: Sequence[Any]) -> bool:
        if not all_int64(proposals):
            return False
        refill_column(self.est, proposals, offset=1)
        fill_column(self.early, False, offset=1)
        fill_column(self.prev_nbr, self.n, offset=1)
        self._payloads.clear()
        return True

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        # Every active process broadcasts (est, early) to all others; the
        # payload tuples carry Python scalars (bit-accounting parity).
        dests = self.dests
        interned = self._payloads
        intern = self._intern
        entries = [
            interned.get(key) or intern(key)
            for key in zip(take(self.est, active), take(self.early, active))
        ]
        return [
            (pid, dests[pid], payload, (), bits)
            for pid, (payload, bits) in zip(active, entries)
        ]

    def _intern(self, key: tuple[int, Any]) -> tuple[tuple[int, bool], int]:
        """Intern the payload for ``(est, early)`` with its bit width.

        The fallback bool column yields 0/1, and ``(e, 1) == (e, True)``
        finds the same entry; a new entry always stores a real bool.
        """
        payload = (key[0], bool(key[1]))
        entry = self._payloads[payload] = (payload, bit_size(payload))
        return entry

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        est = self.est
        early = self.early
        prev_nbr = self.prev_nbr
        ro = receiver_order
        if not ro:
            return {}
        ests = take(est, ro)
        earlies = take(early, ro)
        # ``views``: receivers a truncated send reached, with their own
        # (estimate, flag, nbr); everyone else shares the folded one.
        views: dict[int, tuple[int, bool, int]] = {}
        if crash_free:
            # Senders == receivers, all full broadcasts.
            m = min(ests)
            flagged = any(earlies)
            nbr = len(ro)
        else:
            full = self.n - 1
            senders = []
            late: dict[int, list[tuple[int, bool]]] = {}
            for sender, dests, payload, _control, _bits in sends:
                if len(dests) == full:
                    senders.append(sender)
                else:
                    for d in dests:
                        if d in receivers:
                            late.setdefault(d, []).append(payload)
            # Every receiver is a full sender, so ``senders`` is nonempty.
            m = min_at(est, senders)
            flagged = any_at(early, senders)
            nbr = len(senders)  # heard from len - 1 others, plus self
            for pid, got in late.items():
                if not early[pid]:
                    views[pid] = (
                        min(m, min(e for e, _ in got)),
                        flagged or any(ey for _, ey in got),
                        nbr + len(got),
                    )
        decisions: dict[int, Any] = {}
        if round_no == self.horizon:
            # Everyone decides: early processes their broadcast value,
            # the rest their new estimate (ascending pid order).
            for pid, e, v in zip(ro, earlies, ests):
                if e:
                    decisions[pid] = v
                else:
                    view = views.get(pid)
                    decisions[pid] = m if view is None else view[0]
            return decisions
        if any(earlies):
            # The EARLY broadcasts of this round completed: decide them.
            decisions = {pid: v for pid, e, v in zip(ro, earlies, ests) if e}
        if decisions or views:
            stayers = [
                pid for pid, e in zip(ro, earlies) if not e and pid not in views
            ]
        else:
            stayers = ro
        put(est, stayers, m)
        if flagged:
            put(early, stayers, True)
        else:
            flips = [
                pid for pid, prev in zip(stayers, take(prev_nbr, stayers))
                if prev == nbr
            ]
            put(early, flips, True)
        put(prev_nbr, stayers, nbr)
        for pid, (my_est, my_flag, my_nbr) in views.items():
            est[pid] = my_est
            if my_flag or prev_nbr[pid] == my_nbr:
                early[pid] = True
            prev_nbr[pid] = my_nbr
        return decisions
