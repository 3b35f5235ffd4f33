"""MR99: the ◇S-based asynchronous consensus of Mostéfaoui–Raynal (DISC'99).

Section 4 of the paper is an extended comparison between its synchronous
algorithm and MR99: each MR99 round is coordinated and has **two
communication steps**, and the paper's COMMIT message plays exactly the
role of MR99's second step — establishing that "everyone knows the
coordinator's estimate", i.e. that the value is locked.  This module makes
the bridge executable.

Round ``r`` (coordinator ``c = ((r-1) mod n) + 1``), for process ``p``:

1. **Step 1** — ``c`` broadcasts ``EST(r, est_c)``.  ``p`` waits until it
   receives it or its detector suspects ``c``; sets ``aux`` to the estimate
   or ``⊥``.
2. **Step 2** — ``p`` broadcasts ``AUX(r, aux)`` and waits for such
   messages from at least ``n - t`` processes ("as many as possible while
   preventing deadlock").  Let ``rec`` be the received values:

   * ``rec = {v}``      → decide ``v`` (and flood ``DECIDE(v)``);
   * ``v ∈ rec, v ≠ ⊥`` → adopt: ``est := v``;
   * ``rec = {⊥}``      → keep ``est``.

Safety needs ``t < n/2`` (quorum intersection: two ``n-t`` sets share a
process, and a process sends one ``aux`` per round); this is the "majority
of correct processes" requirement the paper quotes from [5].  The DECIDE
flood gives termination for processes lagging behind a decided one.

Messages carry their round number explicitly — the asynchronous cost the
paper contrasts with synchronous rounds — and the implementation buffers
early arrivals for future rounds, re-evaluating its wait conditions after
every event (message or detector change).
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

__all__ = ["MR99Consensus", "MR99Table", "BOT"]


class _Bot:
    """The ⊥ placeholder (a process saw no coordinator estimate)."""

    _instance = None

    #: Protocol marker consumed by :func:`repro.scenarios.record.jsonable`:
    #: ⊥ sentinels are recognized by this attribute, not by their repr, so
    #: a user payload that happens to print as "⊥" is never swallowed.
    __consensus_bottom__ = True

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊥"

    def bit_size(self) -> int:
        return 1


BOT = _Bot()


class MR99Consensus(AsyncProcess):
    """One MR99 process (requires ``t < n/2``)."""

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n / 2:
            raise ConfigurationError(
                f"MR99 needs a majority of correct processes: t={t}, n={n}"
            )
        self.proposal = proposal
        self.t = t
        self.est: Any = proposal
        self.r = 1
        self.phase = 1
        self._sent_est: set[int] = set()  # rounds for which (as coord) EST went out
        self._sent_aux: set[int] = set()
        self._est_from_coord: dict[int, Any] = {}  # round -> coordinator estimate
        self._aux: dict[int, dict[int, Any]] = defaultdict(dict)  # round -> sender -> aux
        self.rounds_executed = 0

    # -- protocol ------------------------------------------------------------

    @staticmethod
    def coordinator(round_no: int, n: int) -> int:
        """Rotating coordinator: rounds 1..n map to p_1..p_n, then wrap."""
        return ((round_no - 1) % n) + 1

    def on_start(self) -> None:
        self._progress()

    def on_message(self, msg: Message) -> None:
        if self.decided and msg.tag != "DECIDE":
            return  # decided processes only relay decisions
        if msg.tag == "EST":
            # Only the round's coordinator legitimately sends EST.
            if msg.sender == self.coordinator(msg.round_no, self.n):
                self._est_from_coord.setdefault(msg.round_no, msg.payload)
        elif msg.tag == "AUX":
            self._aux[msg.round_no].setdefault(msg.sender, msg.payload)
        elif msg.tag == "DECIDE":
            self._on_decide(msg.payload, msg.round_no)
            return
        self._progress()

    def on_fd_change(self) -> None:
        if not self.decided:
            self._progress()

    def _on_decide(self, value: Any, round_no: int) -> None:
        """Decide ``value``, crediting the round in which it was *first* decided.

        ``round_no`` is the original deciding round: a process deciding
        out of its own phase 2 passes its current round, a process
        learning through the DECIDE flood passes the round carried by the
        message.  The relayed flood propagates that same round onward, so
        every process — decider or flood learner — records the identical
        ``decision_round`` (previously relayers stamped their own current
        round, splitting the recorded rounds across learners).
        """
        if not self.decided:
            self.est = value
            self.decide(value, round_no=round_no)
            # Relay so every lagging process terminates (reliable flood).
            self.ctx.broadcast("DECIDE", value, round_no=round_no)

    def _progress(self) -> None:
        """Drive the state machine as far as current knowledge allows."""
        while not self.decided:
            c = self.coordinator(self.r, self.n)
            if self.phase == 1:
                if self.pid == c and self.r not in self._sent_est:
                    self._sent_est.add(self.r)
                    self.ctx.broadcast("EST", self.est, round_no=self.r)
                if self.r in self._est_from_coord:
                    aux = self._est_from_coord[self.r]
                elif self.ctx.suspects(c):
                    aux = BOT
                else:
                    return  # still waiting on the coordinator or the detector
                if self.r not in self._sent_aux:
                    self._sent_aux.add(self.r)
                    self.ctx.broadcast("AUX", aux, round_no=self.r)
                self.phase = 2

            # Phase 2: wait for n - t AUX values of the current round.
            received = self._aux[self.r]
            if len(received) < self.n - self.t:
                return
            rec = set(received.values())
            self.rounds_executed += 1
            if len(rec) == 1 and BOT not in rec:
                (value,) = rec
                self._on_decide(value, self.r)
                return
            non_bot = rec - {BOT}
            if non_bot:
                # All non-⊥ values in a round equal the coordinator's
                # estimate, so adoption is unambiguous.
                (value,) = non_bot
                self.est = value
            self.r += 1
            self.phase = 1


# ---------------------------------------------------------------------------
# Columnar table: the batched fast path over the same state machine.
# ---------------------------------------------------------------------------


@register_async_table(MR99Consensus)
class MR99Table(AsyncBatchedTable):
    """All MR99 processes of one run, in pid-indexed parallel columns.

    The per-object process re-runs ``_progress`` on *every* delivered
    message and detector change; the table applies the event to its
    columns first and re-evaluates the state machine only when the event
    can satisfy the destination's current wait:

    * ``EST(ρ)``  wakes ``p`` iff ``ρ`` is ``p``'s current round and
      ``p`` is in phase 1 (waiting on exactly that coordinator estimate);
    * ``AUX(ρ)``  wakes ``p`` iff ``ρ`` is current, ``p`` is in phase 2,
      and the arrival completes the ``n - t`` quorum;
    * a detector change wakes ``p`` iff ``p`` is in phase 1 and now
      suspects its round's coordinator;
    * ``DECIDE`` short-circuits into the decision/flood handler.

    Every skipped re-evaluation corresponds to a per-object ``_progress``
    call that provably returns without sending or mutating state (the
    blocked-state invariant: after any handler, a process is waiting
    either for its coordinator's EST/suspicion or for the AUX quorum), so
    table runs emit the identical event stream — byte-identical results,
    pinned by the async parity grid.
    """

    def __init__(
        self,
        processes: Sequence[MR99Consensus],
        network: AsyncNetwork,
        detector: SimulatedDiamondS,
    ) -> None:
        procs = sorted(processes, key=lambda p: p.pid)
        self.n = procs[0].n
        self.t = procs[0].t
        self.n_minus_t = self.n - self.t
        self.network = network
        self.detector = detector
        self.procs = procs
        # One column per scalar of per-process state; index = pid - 1.
        self.est: list[Any] = [p.est for p in procs]
        self.r: list[int] = [p.r for p in procs]
        self.phase: list[int] = [p.phase for p in procs]
        self.decided: list[bool] = [p.decided for p in procs]
        self.est_sent: list[int] = [0] * self.n  # last round EST went out (as coord)
        self.aux_sent: list[int] = [0] * self.n  # last round AUX went out
        self.est_from_coord: list[dict[int, Any]] = [{} for _ in procs]
        self.aux: list[dict[int, dict[int, Any]]] = [{} for _ in procs]
        self.rounds_executed: list[int] = [0] * self.n

    @classmethod
    def from_processes(
        cls,
        processes: Sequence[MR99Consensus],
        network: AsyncNetwork,
        detector: SimulatedDiamondS,
    ) -> "MR99Table":
        return cls(processes, network, detector)

    def refill(self, proposals: Sequence[Any]) -> bool:
        """Re-arm every column to the fresh-process state (est = proposal)."""
        refill_column(self.est, proposals)
        fill_column(self.r, 1)
        fill_column(self.phase, 1)
        fill_column(self.decided, False)
        fill_column(self.est_sent, 0)
        fill_column(self.aux_sent, 0)
        fill_column(self.rounds_executed, 0)
        for buffered in self.est_from_coord:
            buffered.clear()
        for buffered in self.aux:
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
        if self.decided[i]:
            return  # decided processes already relayed; everything is a no-op
        if tag == "AUX":
            rounds = self.aux[i]
            auxmap = rounds.get(round_no)
            if auxmap is None:
                auxmap = rounds[round_no] = {}
            if sender not in auxmap:
                auxmap[sender] = payload
                if (
                    round_no == self.r[i]
                    and self.phase[i] == 2
                    and len(auxmap) >= self.n_minus_t
                ):
                    self._progress(i)
        elif tag == "EST":
            # Only the round's coordinator legitimately sends EST.
            if sender == ((round_no - 1) % self.n) + 1:
                ests = self.est_from_coord[i]
                if round_no not in ests:
                    ests[round_no] = payload
                    if round_no == self.r[i] and self.phase[i] == 1:
                        self._progress(i)
        elif tag == "DECIDE":
            self._decide(i, payload, round_no)

    def on_fd_change(self, observer: int) -> None:
        i = observer - 1
        if self.decided[i] or self.phase[i] != 1:
            return  # phase 2 never consults the detector
        r = self.r[i]
        if r in self.est_from_coord[i] or self.detector.suspects(
            observer, ((r - 1) % self.n) + 1
        ):
            self._progress(i)

    # -- state machine -------------------------------------------------------

    def _decide(self, i: int, value: Any, round_no: int) -> None:
        """Mirror of ``_on_decide``: record, mirror back, flood the round on."""
        if self.decided[i]:
            return
        self.decided[i] = True
        self.est[i] = value
        # Mirror onto the process object: value, timestamp, round, settle
        # hook — runner results and user-held references stay true.
        self.procs[i].decide(value, round_no=round_no)
        self.network.broadcast(i + 1, self.n, "DECIDE", value, round_no)

    def _progress(self, i: int) -> None:
        """Drive ``p_{i+1}`` as far as current knowledge allows (exact mirror)."""
        pid = i + 1
        n = self.n
        quorum = self.n_minus_t
        detector = self.detector
        est_from_coord = self.est_from_coord[i]
        aux_rounds = self.aux[i]
        while not self.decided[i]:
            r = self.r[i]
            c = ((r - 1) % n) + 1
            if self.phase[i] == 1:
                if pid == c and self.est_sent[i] < r:
                    self.est_sent[i] = r
                    self.network.broadcast(pid, n, "EST", self.est[i], r)
                if r in est_from_coord:
                    aux = est_from_coord[r]
                elif detector.suspects(pid, c):
                    aux = BOT
                else:
                    return  # still waiting on the coordinator or the detector
                if self.aux_sent[i] < r:
                    self.aux_sent[i] = r
                    self.network.broadcast(pid, n, "AUX", aux, r)
                self.phase[i] = 2

            # Phase 2: wait for n - t AUX values of the current round.
            received = aux_rounds.get(r)
            if received is None or len(received) < quorum:
                return
            rec = set(received.values())
            self.rounds_executed[i] += 1
            if len(rec) == 1 and BOT not in rec:
                (value,) = rec
                self._decide(i, value, r)
                return
            non_bot = rec - {BOT}
            if non_bot:
                (value,) = non_bot
                self.est[i] = value
            self.r[i] = r + 1
            self.phase[i] = 1
