"""FloodSet: the textbook ``t+1``-round uniform consensus (classic model).

This is the flooding strategy the paper's footnote 5 describes as the basis
of "all the consensus algorithms for synchronous systems that we are aware
of": at every round each process relays the *new* values it learned in the
previous round; after ``t + 1`` rounds it decides a deterministic function
(here: the minimum) of its value set ``W``.

Correctness sketch (classic): with at most ``t`` crashes over ``t + 1``
rounds, some round is crash-free; after it all live processes hold equal
``W`` sets, and a set can only grow with values every live process already
has, so every process that completes round ``t + 1`` decides the same
minimum.  Uniform agreement holds because *any* decider (even one about to
crash later — there is no later) executed all ``t + 1`` rounds.

The algorithm never stops early: its round count is ``t + 1`` regardless of
``f``, which is exactly the comparison point of the paper's introduction
("when considering only t: any t-resilient consensus algorithm requires
t + 1 rounds").

Values must be totally ordered (ints, strings, or ``SizedValue`` wrapping a
comparable value — comparison uses the wrapped value).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.net.payload import SizedValue, bit_size
from repro.sync.api import (
    EMPTY_INBOX,
    NO_SEND,
    BatchedAlgorithm,
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_batched_table,
    register_vector_table,
)
from repro.util.columns import int64_fits, is_ndarray, or_at, take, uint64_column

#: Fallback-path mask clamp: ``~known`` on Python ints goes negative, the
#: ``array("Q")`` column only stores 64-bit non-negatives.
_MASK64 = (1 << 64) - 1

#: Width of an empty value set: a set payload costs this framing plus the
#: width of each element (:func:`repro.net.payload.bit_size`).
_SET_FRAMING_BITS = bit_size(frozenset())

#: Shared "learned nothing" value for the relay column: only ever tested for
#: emptiness or subtracted from, never mutated in place.
_NOTHING_NEW: frozenset[Any] = frozenset()

__all__ = ["FloodSetConsensus", "value_key"]


def value_key(value: Any) -> Any:
    """Total-order key used by flooding baselines to pick a decision."""
    if isinstance(value, SizedValue):
        return value.value
    return value


class FloodSetConsensus(SyncProcess):
    """One FloodSet process (classic synchronous model, ``t+1`` rounds)."""

    __slots__ = ("proposal", "t", "known", "_new")

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n:
            raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
        self.proposal = proposal
        self.t = t
        self.known: set[Any] = {proposal}  # W: every value seen so far
        self._new: set[Any] = {proposal}  # values learned last round (to relay)

    @property
    def horizon(self) -> int:
        """The fixed decision round, ``t + 1``."""
        return self.t + 1

    def send_phase(self, round_no: int) -> SendPlan:
        if round_no > self.horizon:
            return NO_SEND  # defensive; the process decides at the horizon
        if not self._new:
            return NO_SEND  # flooding optimisation: nothing new, stay silent
        payload = frozenset(self._new)
        return SendPlan(data={j: payload for j in range(1, self.n + 1) if j != self.pid})

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        incoming: set[Any] = set()
        for values in inbox.data.values():
            incoming.update(values)
        self._new = incoming - self.known
        self.known |= self._new
        if round_no == self.horizon:
            self.decide(min(self.known, key=value_key))


@register_batched_table(FloodSetConsensus)
class _FloodSetTable(BatchedAlgorithm):
    """Columnar FloodSet: ``known``/``new`` sets in pid-indexed lists.

    Every process broadcasts to the same (precomputed) destination tuple,
    so a round's plans are ``dict.fromkeys`` calls instead of per-process
    dict comprehensions behind a method dispatch.
    """

    __slots__ = ("n", "horizon", "known", "new", "dests")

    def __init__(self, processes: Sequence[SyncProcess]) -> None:
        n = processes[0].n
        self.n = n
        self.horizon = [0] * (n + 1)
        self.known: list[set[Any]] = [set() for _ in range(n + 1)]
        self.new: list[set[Any]] = [set() for _ in range(n + 1)]
        self.dests: list[tuple[int, ...]] = [()] * (n + 1)
        for p in processes:
            self.horizon[p.pid] = p.horizon
            self.known[p.pid] = set(p.known)
            self.new[p.pid] = set(p._new)
            self.dests[p.pid] = tuple(j for j in range(1, n + 1) if j != p.pid)

    @classmethod
    def from_processes(cls, processes: Sequence[SyncProcess]) -> "_FloodSetTable":
        return cls(processes)

    supports_refill = True

    def refill(self, proposals: Sequence[Any]) -> bool:
        # A fresh FloodSet process starts with W = new = {proposal}; the
        # horizon and destination tuples are configuration, kept as-is.
        known = self.known
        new = self.new
        for pid, proposal in enumerate(proposals, start=1):
            known[pid] = {proposal}
            new[pid] = {proposal}
        return True

    def send_phase_all(self, round_no: int, active: Sequence[int]) -> dict[int, SendPlan]:
        plans: dict[int, SendPlan] = {}
        horizon = self.horizon
        new = self.new
        dests = self.dests
        for pid in active:
            fresh = new[pid]
            if round_no > horizon[pid] or not fresh:
                plans[pid] = NO_SEND
            else:
                plans[pid] = SendPlan(
                    data=dict.fromkeys(dests[pid], frozenset(fresh))
                )
        return plans

    def compute_phase_all(
        self, round_no: int, inboxes: Mapping[int, RoundInbox]
    ) -> dict[int, Any]:
        known = self.known
        new = self.new
        horizon = self.horizon
        decisions: dict[int, Any] = {}
        for pid, inbox in inboxes.items():
            if inbox is EMPTY_INBOX:
                new[pid] = _NOTHING_NEW  # W unchanged; stay silent next round
            else:
                incoming: set[Any] = set()
                for values in inbox.data.values():
                    incoming.update(values)
                fresh = incoming - known[pid]
                new[pid] = fresh
                known[pid] |= fresh
            if round_no == horizon[pid]:
                decisions[pid] = min(known[pid], key=value_key)
        return decisions


@register_vector_table(FloodSetConsensus)
class _FloodSetVectorTable(VectorAlgorithm):
    """Bitmask FloodSet: each value set as one uint64 word per process.

    Eligible when the run's value universe is at most 64 distinct plain
    ints (and the horizon is uniform): value → bit position in ascending
    value order, so set union is bitwise OR, "learned nothing new" is
    ``incoming & ~known == 0``, and the horizon decision — the minimum of
    ``W`` — is the lowest set bit.  A round is one OR over the full
    broadcasts plus whole-column writes; only receivers a crashing
    sender's truncated send reached get a per-pid fixup.  Payloads decode
    back to the exact frozensets the object path sends (cached per mask
    with their bit width, so repeated relays cost a dict hit).  Once a
    round passes with no speaker nobody can learn anything again, so the
    table goes *quiet*: no sends, and only the horizon decision, until
    the next :meth:`refill`.
    """

    __slots__ = (
        "n", "horizon", "universe", "bit_of", "known", "new", "dests",
        "_widths", "_payloads", "_quiet",
    )

    def __init__(self, n: int, horizon: int, universe: list[int], known: Any, new: Any) -> None:
        self.n = n
        self.horizon = horizon  # uniform t + 1
        self.universe = universe  # bit -> value, ascending
        self.bit_of = {v: i for i, v in enumerate(universe)}
        self._widths = [bit_size(v) for v in universe]
        self.known = known
        self.new = new
        self.dests: list[tuple[int, ...]] = [
            tuple(j for j in range(1, n + 1) if j != pid) for pid in range(n + 1)
        ]
        self._payloads: dict[int, tuple[frozenset[int], int]] = {}
        self._quiet = False

    @classmethod
    def from_processes(cls, processes: Sequence[SyncProcess]) -> "_FloodSetVectorTable | None":
        horizon = processes[0].horizon
        if any(p.horizon != horizon for p in processes):
            return None
        values: set[Any] = set()
        for p in processes:
            values |= p.known
        if len(values) > 64 or not all(int64_fits(v) for v in values):
            return None
        universe = sorted(values)
        bit_of = {v: i for i, v in enumerate(universe)}
        n = processes[0].n
        known = [0] * (n + 1)
        new = [0] * (n + 1)
        for p in processes:
            for v in p.known:
                known[p.pid] |= 1 << bit_of[v]
            for v in p._new:
                new[p.pid] |= 1 << bit_of[v]
        return cls(n, horizon, universe, uint64_column(known), uint64_column(new))

    supports_refill = True

    def refill(self, proposals: Sequence[Any]) -> bool:
        values = set(proposals)
        if len(values) > 64 or not all(int64_fits(v) for v in values):
            return False  # universe outgrew the mask: factory + reset instead
        universe = sorted(values)
        if universe != self.universe:
            self.universe = universe
            self.bit_of = {v: i for i, v in enumerate(universe)}
            self._widths = [bit_size(v) for v in universe]
            self._payloads.clear()
        bit_of = self.bit_of
        masks = [1 << bit_of[v] for v in proposals]
        known = self.known
        new = self.new
        for pid, mask in enumerate(masks, start=1):
            known[pid] = mask
            new[pid] = mask
        self._quiet = False
        return True

    def _payload(self, mask: int) -> tuple[frozenset[int], int]:
        """The frozenset the object path would send for this ``new`` mask,
        with its bit width: a set's framing plus its elements' widths,
        each value sized once per universe."""
        cached = self._payloads.get(mask)
        if cached is None:
            universe = self.universe
            widths = self._widths
            values = []
            bits = _SET_FRAMING_BITS
            m = mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                values.append(universe[i])
                bits += widths[i]
                m ^= low
            cached = self._payloads[mask] = (frozenset(values), bits)
        return cached

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        if self._quiet or round_no > self.horizon:
            return []  # nothing left to relay (or defensive, like the object path)
        dests = self.dests
        payload = self._payload
        sends = []
        for pid, mask in zip(active, take(self.new, active)):
            if mask:
                values, bits = payload(mask)
                sends.append((pid, dests[pid], values, (), bits))
        return sends

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        known = self.known
        new = self.new
        ro = receiver_order
        if not sends:
            # Every active ``new`` was already empty and stays so: quiet
            # from here on (crashes only shrink the active set).
            self._quiet = True
        elif crash_free:
            # Every receiver hears every speaker.  A receiver's own relay
            # contributes only bits it already knows, so one global OR
            # serves everyone: fresh = total & ~known.  The payloads were
            # cut from the ``new`` column this very round, so the masks
            # come straight back out of it — no frozenset re-encoding.
            self._or_in(or_at(new, [s[0] for s in sends]), ro)
        else:
            # Fold the full broadcasts once; the truncated sends of the
            # crashing senders add per-receiver extras.  All masks are
            # read before any ``new`` is overwritten.
            full = self.n - 1
            total = 0
            extra: dict[int, int] = {}
            for sender, dests, _payload, _control, _bits in sends:
                mask = int(new[sender])
                if len(dests) == full:
                    total |= mask
                else:
                    for d in dests:
                        if d in receivers:
                            extra[d] = extra.get(d, 0) | mask
            if extra:
                self._or_in(total, [pid for pid in ro if pid not in extra])
                for pid, mask in extra.items():
                    k = int(known[pid])
                    fresh = (total | mask) & ~k
                    new[pid] = fresh
                    known[pid] = k | fresh
            else:
                self._or_in(total, ro)
        if round_no != self.horizon:
            return {}
        # Horizon: everyone decides min(W) — the lowest set bit.
        universe = self.universe
        return {
            pid: universe[(k & -k).bit_length() - 1]
            for pid, k in zip(ro, take(known, ro))
        }

    def _or_in(self, total: int, ro: list[int]) -> None:
        """``fresh = total & ~known; known |= fresh; new = fresh`` columnwise."""
        known = self.known
        new = self.new
        if is_ndarray(known):
            t = known.dtype.type(total)  # a numpy uint64 scalar
            k = known[ro]
            fresh = t & ~k
            new[ro] = fresh
            known[ro] = k | fresh
            return
        for pid in ro:
            k = known[pid]
            fresh = total & ~k & _MASK64
            new[pid] = fresh
            known[pid] = k | fresh
