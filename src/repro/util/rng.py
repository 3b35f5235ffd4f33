"""Deterministic random-number plumbing.

Every stochastic component in the library (adversaries, delay models,
workload generators) draws from a :class:`RandomSource` handed to it by its
caller.  Sources form a tree: ``spawn(label)`` derives an independent child
stream whose state depends only on the parent seed and the label, never on
how many draws happened before.  This gives two properties the experiment
harness relies on:

* **Reproducibility** — a run is a pure function of ``(seed, parameters)``.
* **Insensitivity to refactoring** — adding a draw in one component does not
  perturb the stream seen by a sibling component.

The implementation uses :class:`random.Random` seeded through SHA-256 of the
``(seed, label-path)`` pair, so it has no third-party dependencies and is
stable across Python versions and platforms.

Streams are seeded on first draw, not on construction.  Deriving the
seed (one SHA-256) and seeding the Mersenne Twister cost about 11 µs, and
many spawned sources are never drawn from — a crash-free replicated-log
slot never touches its ``slot{k}`` stream.  Laziness cannot change a
stream: the seed depends only on ``(seed, path)``, and the first draw
sees exactly the generator construction would have built.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from typing import TypeVar

from repro.errors import ConfigurationError

__all__ = ["RandomSource", "derive_seed"]

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *labels: str) -> int:
    """Derive a 64-bit child seed from ``seed`` and a label path.

    The derivation is a SHA-256 hash of the decimal seed and the labels
    joined with ``/``; it is collision-resistant for any practical number of
    children and completely independent of call ordering.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") & _MASK64


class RandomSource:
    """A labelled, spawnable deterministic random stream.

    Parameters
    ----------
    seed:
        Root seed. Any Python int; reduced to 64 bits internally.
    path:
        Label path from the root (used in ``repr`` and child derivation).
    """

    __slots__ = ("_seed", "_path", "_rng")

    def __init__(self, seed: int, path: tuple[str, ...] = ()) -> None:
        if not isinstance(seed, int):
            raise ConfigurationError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed & _MASK64
        self._path = path
        # ``_rng`` stays unset until the first draw (see __getattr__).

    def __getattr__(self, name: str) -> random.Random:
        # Only reached while the ``_rng`` slot is unset: build the stream
        # on first use and store it, so later draws read the slot
        # directly with no indirection.
        if name != "_rng":
            raise AttributeError(name)
        rng = random.Random(derive_seed(self._seed, *self._path, "stream"))
        self._rng = rng
        return rng

    def __getstate__(self) -> tuple:
        # Read the slot through its descriptor, which skips __getattr__:
        # an undrawn source pickles (and copies) as undrawn, a drawn one
        # carries its generator state and continues the same stream.
        try:
            rng = RandomSource._rng.__get__(self)
        except AttributeError:
            rng = None
        return (self._seed, self._path, rng)

    def __setstate__(self, state: tuple) -> None:
        self._seed, self._path, rng = state
        if rng is not None:
            self._rng = rng

    # -- identity ---------------------------------------------------------

    @property
    def seed(self) -> int:
        """Root seed this source was derived from."""
        return self._seed

    @property
    def path(self) -> tuple[str, ...]:
        """Label path from the root source."""
        return self._path

    @property
    def drawn(self) -> bool:
        """Whether this stream was drawn from (or its generator handed out).

        A source seeds itself on its first draw, so an unset generator
        slot means nothing read the stream: whatever was built from it
        does not depend on the seed through it.  The scenario layer
        reuses a crash schedule across seeds on exactly that condition.
        """
        try:
            RandomSource._rng.__get__(self)
        except AttributeError:
            return False
        return True

    @property
    def raw(self) -> random.Random:
        """The underlying stdlib generator, for C-speed bulk draws.

        Hot paths (the asynchronous network's delay fan-outs) draw from
        it directly to skip the wrapper frame per draw; it is the same
        stream the wrapper methods consume, so interleaving is safe.
        Never reseed or replace it — that would break the labelled-stream
        determinism contract.
        """
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(seed={self._seed}, path={'/'.join(self._path) or '<root>'})"

    # -- spawning ---------------------------------------------------------

    def spawn(self, label: str) -> "RandomSource":
        """Return an independent child stream identified by ``label``.

        Spawning the same label twice returns streams with identical
        sequences; use distinct labels (e.g. ``f"proc{i}"``) for distinct
        streams.
        """
        return RandomSource(self._seed, self._path + (label,))

    # -- draws ------------------------------------------------------------

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        if lo > hi:
            raise ConfigurationError(f"empty integer range [{lo}, {hi}]")
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi]``."""
        return self._rng.uniform(lo, hi)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal draw (used by heavy-tailed delay models)."""
        return self._rng.lognormvariate(mu, sigma)

    def exponential(self, mean: float) -> float:
        """Exponential draw with the given mean."""
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be > 0, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        if not items:
            raise ConfigurationError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def shuffle(self, items: list[T]) -> list[T]:
        """Shuffle *a copy* of ``items`` and return it (input untouched)."""
        out = list(items)
        self._rng.shuffle(out)
        return out

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items (order randomised)."""
        if k < 0 or k > len(items):
            raise ConfigurationError(f"cannot sample {k} of {len(items)} items")
        return self._rng.sample(list(items), k)

    def subset(self, items: Sequence[T], p: float = 0.5) -> list[T]:
        """Independent-inclusion subset: each item kept with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"inclusion probability must be in [0,1], got {p}")
        return [x for x in items if self._rng.random() < p]

    def bool(self, p_true: float = 0.5) -> bool:
        """Bernoulli draw."""
        if not 0.0 <= p_true <= 1.0:
            raise ConfigurationError(f"probability must be in [0,1], got {p_true}")
        return self._rng.random() < p_true

    # -- bulk draws --------------------------------------------------------

    def randints(self, k: int, lo: int, hi: int) -> list[int]:
        """``k`` uniform integers in ``[lo, hi]`` — one call per vector.

        Stream-identical to ``k`` :meth:`randint` calls (same underlying
        draws, same order), so replacing a per-element loop with one bulk
        call never perturbs a seeded run.  The saving is the wrapper
        frame and argument validation per element — workload generators
        draw one value per process per cell, which a seed-dense sweep
        multiplies by millions.
        """
        if k < 0:
            raise ConfigurationError(f"draw count must be >= 0, got {k}")
        if lo > hi:
            raise ConfigurationError(f"empty integer range [{lo}, {hi}]")
        draw = self._rng.randint
        return [draw(lo, hi) for _ in range(k)]

    def bools(self, k: int, p_true: float = 0.5) -> list[bool]:
        """``k`` Bernoulli draws; stream-identical to ``k`` :meth:`bool` calls."""
        if k < 0:
            raise ConfigurationError(f"draw count must be >= 0, got {k}")
        if not 0.0 <= p_true <= 1.0:
            raise ConfigurationError(f"probability must be in [0,1], got {p_true}")
        draw = self._rng.random
        return [draw() < p_true for _ in range(k)]
