"""Asynchronous network: reliable channels with model-driven delays.

The asynchronous system of Section 4 has no bound on message delay; a
:class:`DelayModel` supplies per-message delays (the simulation equivalent
of an adversarial scheduler).  Channels stay reliable and, as in the rest
of the library, nothing is ever lost, duplicated, or altered — a crashed
recipient simply never processes what arrives after its crash.

A message travels as one plain ``(bits, sender, dest, round_no, payload,
tag)`` tuple: :meth:`AsyncNetwork.send` and :meth:`AsyncNetwork.broadcast`
schedule it, and the runner's ``deliver_entry`` callback receives it.  No
:class:`~repro.net.message.Message` is built on the send side; the
receiver either consumes the tuple directly (batched columnar tables) or
materializes one ``Message`` per *delivered* message (per-object mode —
messages bound for crashed destinations are never built).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.asyncsim.events import EventQueue
from repro.errors import ConfigurationError
from repro.net.accounting import MessageStats
from repro.net.message import async_bits
from repro.util.rng import RandomSource

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "LogNormalDelay",
    "GstDelay",
    "AsyncNetwork",
]


class DelayModel(abc.ABC):
    """Produces a delivery delay for each message sent at a given time."""

    #: Whether a fan-out's wire deliveries all land at the same instant
    #: (every draw from one ``draw_many`` call is the same value).  The
    #: network forwards this to ``EventQueue.schedule_fanout(grouped=...)``
    #: so constant-delay broadcasts collapse into one same-instant block
    #: heap entry; random models keep the scan-free per-entry path.
    same_instant_fanouts: bool = False

    @abc.abstractmethod
    def delay(self, now: float, rng: RandomSource) -> float:
        """Delay (>= 0) to apply to a message sent at time ``now``."""

    def draw_many(self, k: int, now: float, rng: RandomSource) -> list[float]:
        """``k`` consecutive delay draws for messages sent at ``now``.

        Behaviourally identical to ``k`` :meth:`delay` calls (the built-in
        overrides consume the RNG in exactly the same way — broadcast
        fan-outs lean on that for byte-identical runs).
        """
        delay = self.delay
        return [delay(now, rng) for _ in range(k)]


def _require_finite(model: Any) -> None:
    """Reject NaN/infinite fields of a numeric dataclass: the built-in
    delay models and :class:`~repro.asyncsim.failure_detector.DetectorSpec`."""
    for field in fields(model):
        value = getattr(model, field.name)
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{type(model).__name__}.{field.name} must be finite, got {value!r}"
            )


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every message takes exactly ``value`` time units."""

    same_instant_fanouts = True  # every fan-out draw is the same value

    value: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.value < 0:
            raise ConfigurationError("delay must be >= 0")

    def delay(self, now: float, rng: RandomSource) -> float:
        return self.value

    def draw_many(self, k: int, now: float, rng: RandomSource) -> list[float]:
        return [self.value] * k  # delay() never consumes the RNG


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniform delay in ``[lo, hi]``."""

    lo: float = 0.5
    hi: float = 1.5

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0 <= self.lo <= self.hi:
            raise ConfigurationError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def delay(self, now: float, rng: RandomSource) -> float:
        return rng.uniform(self.lo, self.hi)

    def draw_many(self, k: int, now: float, rng: RandomSource) -> list[float]:
        # Inlined stdlib uniform (`lo + (hi - lo) * random()`): identical
        # floats to delay(), two Python frames fewer per draw.
        r = rng.raw.random
        lo, width = self.lo, self.hi - self.lo
        return [lo + width * r() for _ in range(k)]


@dataclass(frozen=True)
class LogNormalDelay(DelayModel):
    """Heavy-tailed delays (LAN with rare stragglers)."""

    mu: float = 0.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.sigma < 0:
            raise ConfigurationError(f"need sigma >= 0, got {self.sigma}")

    def delay(self, now: float, rng: RandomSource) -> float:
        return rng.lognormal(self.mu, self.sigma)

    def draw_many(self, k: int, now: float, rng: RandomSource) -> list[float]:
        ln, mu, sigma = rng.lognormal, self.mu, self.sigma
        return [ln(mu, sigma) for _ in range(k)]


@dataclass(frozen=True)
class GstDelay(DelayModel):
    """Partial synchrony: arbitrary (bounded-by-``wild``) delays before the
    Global Stabilization Time, at most ``bound`` after it.

    This is the delay regime under which an eventually-accurate failure
    detector makes sense: timeouts are wrong before GST and right after.
    """

    gst: float = 10.0
    wild: float = 5.0
    bound: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.gst < 0 or self.wild <= 0 or self.bound <= 0:
            raise ConfigurationError("gst >= 0, wild > 0, bound > 0 required")

    def delay(self, now: float, rng: RandomSource) -> float:
        if now < self.gst:
            return rng.uniform(0.0, self.wild)
        return rng.uniform(self.bound * 0.1, self.bound)

    def draw_many(self, k: int, now: float, rng: RandomSource) -> list[float]:
        # One regime per instant: branch once, then inlined stdlib
        # uniform per draw (identical floats to delay()).
        r = rng.raw.random
        if now < self.gst:
            wild = self.wild
            return [0.0 + (wild - 0.0) * r() for _ in range(k)]
        lo = self.bound * 0.1
        width = self.bound - lo
        return [lo + width * r() for _ in range(k)]


class AsyncNetwork:
    """Routes message tuples through the event queue with per-message delays.

    ``deliver_entry`` is the action of every delivery event and receives
    ``(bits, sender, dest, round_no, payload, tag)`` tuples, so a send
    allocates no closure, no label string and no message object, and
    :meth:`broadcast` charges a whole fan-out's accounting in one bulk
    call.  The callback owns the delivered-side accounting: it must
    charge one delivered message of ``entry[0]`` bits when ``entry[0]``
    is nonzero (``bits`` is 0 for local self-deliveries, which are never
    charged) *before* any crash-drop check.  Flattening the charge into
    the receiver saves one Python frame per delivered message on the
    hottest path in the asynchronous simulator.
    """

    def __init__(
        self,
        queue: EventQueue,
        delay_model: DelayModel,
        rng: RandomSource,
        deliver_entry: Callable[[tuple], None],
        stats: MessageStats | None = None,
    ) -> None:
        self.queue = queue
        self.delay_model = delay_model
        self.rng = rng
        self._deliver_entry = deliver_entry
        self.stats = stats if stats is not None else MessageStats()

    def reset(self, rng: RandomSource, stats: MessageStats) -> None:
        """Point the network at a fresh run's RNG stream and stats ledger.

        Everything else — queue, delay model, delivery callback — is
        per-configuration state that a leased runner keeps across runs.
        """
        self.rng = rng
        self.stats = stats

    def set_deliver_entry(self, deliver_entry: Callable[[tuple], None]) -> None:
        """Swap the delivery action (runner wiring, per install).

        In batched mode the runner points this straight at the columnar
        table's ``deliver`` — one frame per delivered message; in
        per-object mode at its own Message-materializing dispatcher.
        """
        self._deliver_entry = deliver_entry

    def send(
        self, sender: int, dest: int, round_no: int, payload: Any, tag: str
    ) -> None:
        """Send ``(tag, payload)`` from ``sender`` to ``dest``.

        A send to self is local: it is delivered at zero delay with no
        delay draw and no accounting, but still deferred through the
        event queue — delivering synchronously would re-enter the
        protocol handler that is sending right now, and the outer frame
        would then resume with stale state.
        """
        if dest == sender:
            self.queue.schedule(
                0.0, self._deliver_entry, (0, sender, dest, round_no, payload, tag)
            )
            return
        bits = async_bits(payload)
        self.stats.bulk_async(1, bits)
        delay = self.delay_model.delay(self.queue.now, self.rng)
        if delay < 0:
            raise ConfigurationError(f"delay model produced negative delay {delay}")
        self.queue.schedule(
            delay, self._deliver_entry, (bits, sender, dest, round_no, payload, tag)
        )

    def broadcast(
        self, sender: int, n: int, tag: str, payload: Any, round_no: int
    ) -> None:
        """Send ``(tag, payload)`` to every process ``1..n`` from ``sender``.

        Behaviourally identical to :meth:`send` to each destination in
        order — delay draws and event sequence numbers are issued in
        exactly the same order, so runs are byte-identical to the loop —
        but the payload is sized once, the delays come from one
        ``draw_many`` call, and the whole fan-out's send accounting lands
        in one bulk call.  The sender's own copy is local, as in
        :meth:`send`.
        """
        queue = self.queue
        bits = async_bits(payload)
        delays = self.delay_model.draw_many(n - 1, queue.now, self.rng)
        if delays and min(delays) < 0:
            raise ConfigurationError(
                f"delay model produced negative delay {min(delays)}"
            )
        # The sender's own copy slots into its in-order position at zero
        # delay and zero charged bits (local, no wire).
        delays.insert(sender - 1, 0.0)
        entries = [
            (bits, sender, dest, round_no, payload, tag)
            if dest != sender
            else (0, sender, dest, round_no, payload, tag)
            for dest in range(1, n + 1)
        ]
        # The whole fan-out — self-delivery included — shares one action
        # and one scheduling call; constant-delay models additionally
        # collapse the same-instant wire run into one block heap entry.
        queue.schedule_fanout(
            self._deliver_entry, delays, entries,
            grouped=self.delay_model.same_instant_fanouts,
        )
        if n > 1:
            self.stats.bulk_async(n - 1, (n - 1) * bits)
