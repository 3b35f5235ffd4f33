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

from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.net.payload import SizedValue, bit_size
from repro.sync.api import (
    NO_SEND,
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_vector_table,
)
from repro.util.columns import all_int64, object_column, or_at, take
from repro.util.tables import refill_column

#: Width of an empty value set: a set payload costs this framing plus the
#: width of each element (:func:`repro.net.payload.bit_size`).
_SET_FRAMING_BITS = bit_size(frozenset())

__all__ = ["FloodSetConsensus", "value_key", "key_order"]


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


def _indistinguishable(x: Any, y: Any) -> bool:
    """Whether ``x`` and ``y`` are the same value to every observer
    (``==`` alone equates ``1`` with ``True``, ``0.0`` with ``-0.0`` and
    ``(1,)`` with ``(True,)``)."""
    return x is y or (type(x) is type(y) and x == y and repr(x) == repr(y))


def key_order(values: Iterable[Any]) -> list[Any] | None:
    """The distinct ``values`` in ascending :func:`value_key` order.

    None when a columnar table must not stand in for the reference,
    whose choice would then depend on set iteration order or fail:

    * two values share a key but can be told apart — ``1``, ``True`` and
      ``1.0`` (equal, but different types), or ``SizedValue``s of one
      value and different widths;
    * keys that are not a strict total order (NaN, incomparable types,
      partial orders) or values that are unhashable.
    """
    values = list(values)
    if all_int64(values):
        return sorted(set(values))  # plain ints: each value is its own key
    first: dict[Any, Any] = {}
    try:
        for v in values:
            w = first.setdefault(value_key(v), v)
            if not _indistinguishable(w, v):
                return None
        universe = sorted(first.values(), key=value_key)
    except TypeError:
        return None
    keys = [value_key(v) for v in universe]
    if not all(a < b for a, b in zip(keys, keys[1:])):
        return None
    return universe


def _same_values(a: list[Any], b: list[Any]) -> bool:
    """Whether two universes hold indistinguishable values, slot by slot."""
    return len(a) == len(b) and all(map(_indistinguishable, a, b))


@register_vector_table(FloodSetConsensus)
class _FloodSetVectorTable(VectorAlgorithm):
    """Bitmask FloodSet: each value set as one Python-int mask per process.

    The run's value universe, ordered by :func:`value_key`, maps value →
    bit position, so set union is bitwise OR, "learned nothing new" is
    ``incoming & ~known == 0``, and the horizon decision — the minimum
    of ``W`` — is the lowest set bit.  Masks are Python ints in object
    columns, so the universe has no size cap.  A round is one OR over
    the full broadcasts plus one pass over the receivers; only receivers
    a crashing sender's truncated send reached get a per-pid fixup.
    Payloads decode back to the exact frozensets the object path sends
    (cached per mask with their bit width, so repeated relays cost a
    dict hit).  Once a round passes with no speaker nobody can learn
    anything again, so the table goes *quiet*: no sends, and only the
    horizon decision, until the next :meth:`refill`.  Declines on a
    non-uniform horizon and on universes :func:`key_order` rejects.
    """

    __slots__ = (
        "n", "horizon", "universe", "bit_of", "known", "new", "dests",
        "_widths", "_payloads", "_quiet",
    )

    def __init__(self, n: int, horizon: int, universe: list[Any]) -> None:
        self.n = n
        self.horizon = horizon  # uniform t + 1
        self.known = object_column([0] * n, offset=1)
        self.new = object_column([0] * n, offset=1)
        self.dests: list[tuple[int, ...]] = [
            tuple(j for j in range(1, n + 1) if j != pid) for pid in range(n + 1)
        ]
        self._payloads: dict[int, tuple[frozenset[Any], int]] = {}
        self._set_universe(universe)
        self._quiet = False

    def _set_universe(self, universe: list[Any]) -> None:
        self.universe = universe  # bit -> value, ascending value_key
        self.bit_of = {v: i for i, v in enumerate(universe)}
        self._widths = [bit_size(v) for v in universe]
        self._payloads.clear()

    @classmethod
    def from_processes(cls, processes: Sequence[SyncProcess]) -> "_FloodSetVectorTable | None":
        horizon = processes[0].horizon
        if any(p.horizon != horizon for p in processes):
            return None
        universe = key_order(v for p in processes for v in p.known)
        if universe is None:
            return None
        table = cls(processes[0].n, horizon, universe)
        bit_of = table.bit_of
        for p in processes:
            table.known[p.pid] = sum(1 << bit_of[v] for v in p.known)
            table.new[p.pid] = sum(1 << bit_of[v] for v in p._new)
        return table

    supports_refill = True

    def refill(self, proposals: Sequence[Any]) -> bool:
        universe = key_order(proposals)
        if universe is None:
            return False  # ambiguous order: factory + reset instead
        if not _same_values(universe, self.universe):
            self._set_universe(universe)
        self._quiet = False
        bit_of = self.bit_of
        masks = [1 << bit_of[v] for v in proposals]
        refill_column(self.known, masks, offset=1)
        refill_column(self.new, masks, offset=1)
        return True

    def _payload(self, mask: int) -> tuple[frozenset[Any], int]:
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
                mask = new[sender]
                if len(dests) == full:
                    total |= mask
                else:
                    for d in dests:
                        if d in receivers:
                            extra[d] = extra.get(d, 0) | mask
            if extra:
                self._or_in(total, [pid for pid in ro if pid not in extra])
                for pid, mask in extra.items():
                    self._or_in(total | mask, (pid,))
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

    def _or_in(self, total: int, pids: Sequence[int]) -> None:
        """``fresh = total & ~known; known |= fresh; new = fresh`` per pid."""
        known = self.known
        new = self.new
        for pid in pids:
            k = known[pid]
            fresh = total & ~k
            new[pid] = fresh
            known[pid] = k | fresh
