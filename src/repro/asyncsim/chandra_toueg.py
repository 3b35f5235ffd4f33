"""Chandra–Toueg ◇S consensus (the paper's reference [5]).

Chandra and Toueg's algorithm is the original rotating-coordinator
consensus for asynchronous systems augmented with an eventually strong
failure detector, and the source of the *value locking* vocabulary the
paper uses for its Lemma 2 ("some authors say the value is then locked
[5, 12]").  Implementing it next to MR99 makes the Section-4 comparison
three-way: one synchronous and two asynchronous realizations of the same
coordinator/lock pattern.

Round ``r`` (coordinator ``c = ((r-1) mod n) + 1``), requires ``t < n/2``:

1. **estimate** — every process sends ``EST(r, est, ts)`` to ``c``, where
   ``ts`` is the round in which ``est`` was last adopted;
2. **select** — ``c`` collects ``> n/2`` estimates, keeps one with the
   largest ``ts``, and broadcasts ``TRY(r, est_c)``;
3. **ack/nack** — every process waits for ``TRY(r)`` or suspicion of
   ``c``; on TRY it adopts (``est := est_c``, ``ts := r``) and sends
   ``ACK(r)``, otherwise ``NACK(r)``;
4. **lock** — ``c`` collects ``> n/2`` ACK/NACK votes; if all-but-nacks…
   precisely: if the ACKs alone exceed ``n/2`` the value is *locked* and
   ``c`` reliably broadcasts ``DECIDE(est_c)``; otherwise the round is
   lost and everyone moves on.

The timestamp rule gives the locking property: once a majority adopted
``v`` in round ``r``, every later coordinator's majority estimate set
intersects that majority, and the max-timestamp pick can only select
``v``.  Reliable broadcast is implemented as relay-on-first-receipt, so a
coordinator crashing mid-DECIDE cannot split the outcome.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from repro.asyncsim.failure_detector import SimulatedDiamondS
from repro.asyncsim.network import AsyncNetwork
from repro.asyncsim.process import AsyncBatchedTable, AsyncProcess, register_async_table
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.util.tables import fill_column, refill_column

__all__ = ["ChandraTouegConsensus", "ChandraTouegTable"]


class ChandraTouegConsensus(AsyncProcess):
    """One CT process (requires ``t < n/2``)."""

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n / 2:
            raise ConfigurationError(
                f"Chandra-Toueg needs a correct majority: t={t}, n={n}"
            )
        self.proposal = proposal
        self.t = t
        self.est: Any = proposal
        self.ts = 0  # round of last adoption
        self.r = 1
        self.phase = 1  # 1: send estimate / 2: wait TRY / handled per round
        self._sent_est: set[int] = set()
        self._sent_vote: set[int] = set()
        self._sent_try: set[int] = set()
        self._my_try: dict[int, Any] = {}  # rounds I coordinated -> value I proposed
        self._sent_decide = False
        # Coordinator-side buffers.
        self._estimates: dict[int, dict[int, tuple[Any, int]]] = defaultdict(dict)
        self._votes: dict[int, dict[int, bool]] = defaultdict(dict)  # sender -> ack?
        # Participant-side buffer.
        self._try: dict[int, Any] = {}
        self.rounds_executed = 0

    @staticmethod
    def coordinator(round_no: int, n: int) -> int:
        return ((round_no - 1) % n) + 1

    @property
    def _majority(self) -> int:
        return self.n // 2 + 1

    # -- wiring ---------------------------------------------------------------

    def on_start(self) -> None:
        self._progress()

    def on_fd_change(self) -> None:
        if not self.decided:
            self._progress()

    def on_message(self, msg: Message) -> None:
        if msg.tag == "DECIDE":
            self._on_decide(msg.payload, msg.round_no)
            return
        if self.decided:
            return
        if msg.tag == "EST":
            est, ts = msg.payload
            self._estimates[msg.round_no].setdefault(msg.sender, (est, ts))
        elif msg.tag == "TRY":
            if msg.sender == self.coordinator(msg.round_no, self.n):
                self._try.setdefault(msg.round_no, msg.payload)
        elif msg.tag == "ACK":
            self._votes[msg.round_no].setdefault(msg.sender, True)
        elif msg.tag == "NACK":
            self._votes[msg.round_no].setdefault(msg.sender, False)
        self._progress()

    def _on_decide(self, value: Any, round_no: int) -> None:
        """Decide ``value``; ``round_no`` is the original deciding round.

        Deciders pass their own current round, flood learners pass the
        round carried by the DECIDE message, and the relay propagates it
        unchanged — so every process records the same ``decision_round``
        (relayers used to stamp their own round, splitting the records).
        """
        if not self.decided:
            self.est = value
            self.decide(value, round_no=round_no)
            self.ctx.broadcast("DECIDE", value, round_no=round_no)  # reliable relay

    # -- state machine ------------------------------------------------------------

    def _check_lock(self) -> bool:
        """Step 4 for every round I coordinated: decide on an ACK majority.

        Votes trickle in after the coordinator has moved on to later
        rounds, so the quorum check must cover past rounds, not only the
        current one.
        """
        for r, value in self._my_try.items():
            votes = self._votes[r]
            acks = sum(1 for ack in votes.values() if ack)
            if acks >= self._majority and not self._sent_decide:
                self._sent_decide = True
                self._on_decide(value, self.r)
                return True
        return False

    def _progress(self) -> None:
        if self._check_lock():
            return
        while not self.decided:
            r = self.r
            c = self.coordinator(r, self.n)

            # Step 1: ship my estimate to the round's coordinator (once).
            if r not in self._sent_est:
                self._sent_est.add(r)
                self.ctx.send(c, "EST", (self.est, self.ts), round_no=r)

            # Coordinator: step 2 — select the freshest estimate, broadcast.
            if self.pid == c and r not in self._sent_try:
                ests = self._estimates[r]
                if len(ests) >= self._majority:
                    best_est, _best_ts = max(ests.values(), key=lambda pair: pair[1])
                    self._sent_try.add(r)
                    self._my_try[r] = best_est
                    self.ctx.broadcast("TRY", best_est, round_no=r)

            # Participant: step 3 — vote once per round.
            if r not in self._sent_vote:
                if r in self._try:
                    self.est = self._try[r]
                    self.ts = r
                    self._sent_vote.add(r)
                    self.ctx.send(c, "ACK", None, round_no=r)
                elif self.ctx.suspects(c):
                    self._sent_vote.add(r)
                    self.ctx.send(c, "NACK", None, round_no=r)
                else:
                    return  # wait for TRY or suspicion

            # Advance; past-round coordinator duties continue via buffers
            # and _check_lock on later events.
            self.rounds_executed += 1
            self.r += 1


# ---------------------------------------------------------------------------
# Columnar table: the batched fast path over the same state machine.
# ---------------------------------------------------------------------------


@register_async_table(ChandraTouegConsensus)
class ChandraTouegTable(AsyncBatchedTable):
    """All CT processes of one run, in pid-indexed parallel columns.

    Same discipline as :class:`repro.asyncsim.mr99.MR99Table`: buffer
    updates are applied straight to the columns, and the (mirrored)
    ``_progress`` state machine re-runs only when the event can satisfy
    the destination's current wait.  A blocked CT process is always at
    the vote-wait of its current round ``r`` (EST shipped, vote pending),
    so:

    * ``EST(ρ)``  wakes the coordinator of ``ρ`` iff ``ρ`` is its current
      round, TRY is unsent, and the arrival completes the majority;
    * ``TRY(ρ)``  wakes ``p`` iff ``ρ`` is ``p``'s current round;
    * ``ACK(ρ)``  wakes a past/present coordinator iff it completes an
      ACK majority for a round it coordinated (the lock step);
    * ``NACK`` never wakes anyone (it cannot complete an ACK majority);
    * a detector change wakes ``p`` iff it now suspects its current
      round's coordinator.

    Per-round ACK tallies are kept incrementally, so the lock check costs
    one integer compare per ACK instead of a vote-dict scan per event.
    """

    def __init__(
        self,
        processes: Sequence[ChandraTouegConsensus],
        network: AsyncNetwork,
        detector: SimulatedDiamondS,
    ) -> None:
        procs = sorted(processes, key=lambda p: p.pid)
        self.n = procs[0].n
        self.t = procs[0].t
        self.majority = self.n // 2 + 1
        self.network = network
        self.detector = detector
        self.procs = procs
        self.est: list[Any] = [p.est for p in procs]
        self.ts: list[int] = [p.ts for p in procs]
        self.r: list[int] = [p.r for p in procs]
        self.decided: list[bool] = [p.decided for p in procs]
        # Monotone "done through round" markers replace the per-object
        # sets — a CT process never revisits a round's send duties.
        self.est_sent: list[int] = [0] * self.n
        self.vote_sent: list[int] = [0] * self.n
        self.try_sent: list[int] = [0] * self.n
        self.sent_decide: list[bool] = [False] * self.n
        self.my_try: list[dict[int, Any]] = [{} for _ in procs]
        self.estimates: list[dict[int, dict[int, tuple[Any, int]]]] = [
            {} for _ in procs
        ]
        self.votes: list[dict[int, dict[int, bool]]] = [{} for _ in procs]
        self.ack_counts: list[dict[int, int]] = [{} for _ in procs]
        self.trybuf: list[dict[int, Any]] = [{} for _ in procs]
        self.rounds_executed: list[int] = [0] * self.n

    @classmethod
    def from_processes(
        cls,
        processes: Sequence[ChandraTouegConsensus],
        network: AsyncNetwork,
        detector: SimulatedDiamondS,
    ) -> "ChandraTouegTable":
        return cls(processes, network, detector)

    def refill(self, proposals: Sequence[Any]) -> bool:
        """Re-arm every column to the fresh-process state (est = proposal)."""
        refill_column(self.est, proposals)
        fill_column(self.ts, 0)
        fill_column(self.r, 1)
        fill_column(self.decided, False)
        fill_column(self.est_sent, 0)
        fill_column(self.vote_sent, 0)
        fill_column(self.try_sent, 0)
        fill_column(self.sent_decide, False)
        fill_column(self.rounds_executed, 0)
        for column in (
            self.my_try, self.estimates, self.votes, self.ack_counts, self.trybuf
        ):
            for buffered in column:
                buffered.clear()
        return True

    # -- event handlers ------------------------------------------------------

    def on_start(self, pid: int) -> None:
        self._progress(pid - 1)

    def deliver(self, entry: tuple) -> None:
        bits, sender, dest, round_no, payload, tag = entry
        if bits:  # wire delivery: charge in place (0 = local self-delivery)
            stats = self.stats
            stats.async_delivered += 1
            stats.bits_delivered += bits
        if dest in self.crashed:
            return  # delivered into the void
        i = dest - 1
        if tag == "DECIDE":
            self._decide(i, payload, round_no)
            return
        if self.decided[i]:
            return
        if tag == "EST":
            rounds = self.estimates[i]
            ests = rounds.get(round_no)
            if ests is None:
                ests = rounds[round_no] = {}
            if sender not in ests:
                ests[sender] = payload  # (est, ts) pair
                if (
                    round_no == self.r[i]
                    and dest == ((round_no - 1) % self.n) + 1
                    and self.try_sent[i] < round_no
                    and len(ests) >= self.majority
                ):
                    self._progress(i)
        elif tag == "TRY":
            if sender == ((round_no - 1) % self.n) + 1:
                trybuf = self.trybuf[i]
                if round_no not in trybuf:
                    trybuf[round_no] = payload
                    if round_no == self.r[i]:
                        self._progress(i)
        elif tag == "ACK":
            rounds = self.votes[i]
            votes = rounds.get(round_no)
            if votes is None:
                votes = rounds[round_no] = {}
            if sender not in votes:
                votes[sender] = True
                counts = self.ack_counts[i]
                count = counts.get(round_no, 0) + 1
                counts[round_no] = count
                if (
                    not self.sent_decide[i]
                    and round_no in self.my_try[i]
                    and count >= self.majority
                ):
                    self._progress(i)
        elif tag == "NACK":
            rounds = self.votes[i]
            votes = rounds.get(round_no)
            if votes is None:
                votes = rounds[round_no] = {}
            votes.setdefault(sender, False)
            # A NACK can never complete an ACK majority: no wake.

    def on_fd_change(self, observer: int) -> None:
        i = observer - 1
        if self.decided[i]:
            return
        r = self.r[i]
        if r in self.trybuf[i] or self.detector.suspects(
            observer, ((r - 1) % self.n) + 1
        ):
            self._progress(i)

    # -- state machine -------------------------------------------------------

    def _decide(self, i: int, value: Any, round_no: int) -> None:
        """Mirror of ``_on_decide``: record, mirror back, relay the round on."""
        if self.decided[i]:
            return
        self.decided[i] = True
        self.est[i] = value
        self.procs[i].decide(value, round_no=round_no)
        self.network.broadcast(i + 1, self.n, "DECIDE", value, round_no)

    def _check_lock(self, i: int) -> bool:
        """Step 4 for every round ``p_{i+1}`` coordinated (exact mirror)."""
        if self.sent_decide[i]:
            return False
        counts = self.ack_counts[i]
        majority = self.majority
        for r, value in self.my_try[i].items():
            if counts.get(r, 0) >= majority:
                self.sent_decide[i] = True
                self._decide(i, value, self.r[i])
                return True
        return False

    def _progress(self, i: int) -> None:
        """Drive ``p_{i+1}`` as far as current knowledge allows (exact mirror)."""
        if self._check_lock(i):
            return
        pid = i + 1
        n = self.n
        majority = self.majority
        detector = self.detector
        trybuf = self.trybuf[i]
        while not self.decided[i]:
            r = self.r[i]
            c = ((r - 1) % n) + 1

            # Step 1: ship my estimate to the round's coordinator (once).
            if self.est_sent[i] < r:
                self.est_sent[i] = r
                self.network.send(pid, c, r, (self.est[i], self.ts[i]), "EST")

            # Coordinator: step 2 — select the freshest estimate, broadcast.
            if pid == c and self.try_sent[i] < r:
                ests = self.estimates[i].get(r)
                if ests is not None and len(ests) >= majority:
                    best_est, _best_ts = max(
                        ests.values(), key=lambda pair: pair[1]
                    )
                    self.try_sent[i] = r
                    self.my_try[i][r] = best_est
                    self.network.broadcast(pid, n, "TRY", best_est, r)

            # Participant: step 3 — vote once per round.
            if self.vote_sent[i] < r:
                if r in trybuf:
                    self.est[i] = trybuf[r]
                    self.ts[i] = r
                    self.vote_sent[i] = r
                    self.network.send(pid, c, r, None, "ACK")
                elif detector.suspects(pid, c):
                    self.vote_sent[i] = r
                    self.network.send(pid, c, r, None, "NACK")
                else:
                    return  # wait for TRY or suspicion
            self.rounds_executed[i] += 1
            self.r[i] = r + 1
