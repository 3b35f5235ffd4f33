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

from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.baselines.floodset import key_order, value_key
from repro.net.payload import bit_size
from repro.sync.api import (
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_vector_table,
)
from repro.util.columns import (
    any_at,
    bool_column,
    int_column,
    is_array_column,
    min_at,
    put,
    take,
    value_column,
)
from repro.util.tables import fill_column, refill_value_column

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


@register_vector_table(EarlyStoppingConsensus)
class _EarlyStoppingVectorTable(VectorAlgorithm):
    """Columnar early-stopping: value ``est``, int64 ``nbr``, bool ``early``.

    Every round has a closed form the whole-column state makes one pass.
    The full broadcasts (every sender that did not crash mid-send, and
    every crashing one that still reached everybody) fold into one global
    minimum, one flag and one count: each non-early receiver is itself a
    full sender with its flag unset, and its own estimate cannot lower
    the minimum, so only the count drops by one for self.  A crash-free
    round is all full broadcasts; a crash round adds per-receiver fixups
    for the few receivers the truncated sends reached.  Minima are
    taken by ``value_key``: on an int64 column that is the numeric
    minimum, and on an object column the values have passed
    :func:`~repro.baselines.floodset.key_order`, so equal keys mean
    indistinguishable values and the minimum is order-free.  Requires a
    uniform horizon; declines mixed horizons and ambiguous values.
    """

    __slots__ = (
        "n", "horizon", "est", "early", "prev_nbr", "dests", "_key", "_payloads",
    )

    def __init__(self, n: int, horizon: int, est: Any, early: Any, prev_nbr: Any) -> None:
        self.n = n
        self.horizon = horizon  # uniform t + 1
        self.est = est
        self._key = None if is_array_column(est) else value_key
        self.early = early
        self.prev_nbr = prev_nbr
        self.dests: list[tuple[int, ...]] = [
            tuple(j for j in range(1, n + 1) if j != pid) for pid in range(n + 1)
        ]
        # (est, early) -> (payload, bits), interned per run: estimates
        # converge on the minimum, so a run sends few distinct payloads.
        self._payloads: dict[tuple[Any, bool], tuple[tuple[Any, bool], int]] = {}

    @classmethod
    def from_processes(
        cls, processes: Sequence[SyncProcess]
    ) -> "_EarlyStoppingVectorTable | None":
        horizon = processes[0].t + 1
        if any(p.t + 1 != horizon for p in processes):
            return None
        n = processes[0].n
        est: list[Any] = [None] * n
        early = [False] * n
        prev_nbr = [0] * n
        for p in processes:
            est[p.pid - 1] = p.est
            early[p.pid - 1] = p.early
            prev_nbr[p.pid - 1] = p._prev_nbr
        if key_order(est) is None:
            return None
        return cls(
            n,
            horizon,
            value_column(est, offset=1),
            bool_column(early, offset=1),
            int_column(prev_nbr, offset=1),
        )

    def refill(self, proposals: Sequence[Any]) -> bool:
        if key_order(proposals) is None:
            return False  # factory + reset: the table declines these values
        self.est = refill_value_column(self.est, proposals, offset=1)
        self._key = None if is_array_column(self.est) else value_key
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

    def _intern(self, key: tuple[Any, Any]) -> tuple[tuple[Any, bool], int]:
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
        key = self._key
        ro = receiver_order
        if not ro:
            return {}
        ests = take(est, ro)
        earlies = take(early, ro)
        # ``views``: receivers a truncated send reached, with their own
        # (estimate, flag, nbr); everyone else shares the folded one.
        views: dict[int, tuple[Any, bool, int]] = {}
        if crash_free:
            # Senders == receivers, all full broadcasts.
            m = min(ests, key=key)
            flagged = any(earlies)
            nbr = len(ro)
        else:
            full = self.n - 1
            senders = []
            late: dict[int, list[tuple[Any, bool]]] = {}
            for sender, dests, payload, _control, _bits in sends:
                if len(dests) == full:
                    senders.append(sender)
                else:
                    for d in dests:
                        if d in receivers:
                            late.setdefault(d, []).append(payload)
            # Every receiver is a full sender, so ``senders`` is nonempty.
            m = min_at(est, senders, key=key)
            flagged = any_at(early, senders)
            nbr = len(senders)  # heard from len - 1 others, plus self
            for pid, got in late.items():
                if not early[pid]:
                    views[pid] = (
                        min([m, *(e for e, _ in got)], key=key),
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
