"""Every closed form the paper states, in one auditable place.

The experiment harness and the tests check *measured == formula* (or
``<= bound``); keeping the formulas in a single module makes the mapping
from the paper's statements to code reviewable at a glance, and the
formula tests double as documentation of each derivation.  The
registry's ``round_bound``s, the E1–E3 and E6 tables and
``examples/timing_tradeoff.py`` call these functions rather than
restating them.

All functions validate their inputs and raise
:class:`~repro.errors.ConfigurationError` on nonsense (negative ``f``,
``t >= n``, …), because a silent garbage-in bound would defeat the point.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = [
    "crw_round_bound",
    "floodset_rounds",
    "early_stopping_round_bound",
    "crw_best_messages",
    "crw_best_bits",
    "crw_worst_messages_bound",
    "crw_worst_bits_bound",
    "extended_time",
    "classic_time",
    "ffd_time_bound",
    "crossover_d",
    "simulation_blowup",
]


def _check(n: int | None = None, t: int | None = None, f: int | None = None) -> None:
    if n is not None and n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if t is not None:
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        if n is not None and t >= n:
            raise ConfigurationError(f"t must be < n, got t={t}, n={n}")
    if f is not None:
        if f < 0:
            raise ConfigurationError(f"f must be >= 0, got {f}")
        if t is not None and f > t:
            raise ConfigurationError(f"f must be <= t, got f={f}, t={t}")


# -- round complexity (Theorem 1 + the introduction's comparison table) -----


def crw_round_bound(f: int) -> int:
    """Theorem 1: no process decides after round ``f + 1``."""
    _check(f=f)
    return f + 1


def floodset_rounds(t: int) -> int:
    """FloodSet always runs ``t + 1`` rounds (no early stopping)."""
    _check(t=t)
    return t + 1


def early_stopping_round_bound(f: int, t: int) -> int:
    """Classic early-deciding uniform consensus: ``min(f + 2, t + 1)``."""
    _check(t=t, f=f)
    return min(f + 2, t + 1)


# -- bit complexity (Theorem 2) ----------------------------------------------


def crw_best_messages(n: int) -> int:
    """Failure-free: ``p_1`` sends ``n-1`` DATA plus ``n-1`` COMMIT."""
    _check(n=n)
    return 2 * (n - 1)


def crw_best_bits(n: int, v_bits: int) -> int:
    """Failure-free bits: ``(n-1)(|v| + 1)`` — each destination gets one
    ``|v|``-bit DATA and one 1-bit COMMIT."""
    _check(n=n)
    if v_bits < 1:
        raise ConfigurationError(f"|v| must be >= 1 bit, got {v_bits}")
    return (n - 1) * (v_bits + 1)


def _pair_sum(n: int, t: int) -> int:
    """``Σ_{r=1..t+1} (n - r)`` — the paper's worst-case per-kind count."""
    return sum(n - r for r in range(1, t + 2))


def crw_worst_messages_bound(n: int, t: int) -> int:
    """Theorem 2's worst-case message bound: ``Σ_{r=1..t+1} 2(n - r)``.

    Scenario: coordinator ``p_r`` sends its full ``n - r`` DATA messages
    and up to ``n - r`` COMMITs before crashing, for ``r = 1..t``, and
    ``p_{t+1}`` completes. The closed form equals
    ``2[(t+1)n - (t+1)(t+2)/2]``.
    """
    _check(n=n, t=t)
    return 2 * _pair_sum(n, t)


def crw_worst_bits_bound(n: int, t: int, v_bits: int) -> int:
    """Theorem 2's worst-case bit bound: ``Σ_{r=1..t+1} (n - r)(|v| + 1)``."""
    _check(n=n, t=t)
    if v_bits < 1:
        raise ConfigurationError(f"|v| must be >= 1 bit, got {v_bits}")
    return _pair_sum(n, t) * (v_bits + 1)


# -- timing (Section 2.2 / related work) ---------------------------------------


def extended_time(rounds: int, D: float, d: float) -> float:
    """``rounds × (D + d)``."""
    if rounds < 0 or D <= 0 or d < 0:
        raise ConfigurationError("need rounds >= 0, D > 0, d >= 0")
    return rounds * (D + d)


def classic_time(rounds: int, D: float) -> float:
    """``rounds × D``."""
    if rounds < 0 or D <= 0:
        raise ConfigurationError("need rounds >= 0, D > 0")
    return rounds * D


def ffd_time_bound(f: int, D: float, d_fd: float) -> float:
    """Fast-FD consensus decision-time bound ``D + (f + 1)·d_fd``
    (the paper's ``D + f·d`` plus our implementation's one-slot
    detector-settle offset)."""
    _check(f=f)
    if D <= 0 or d_fd < 0:
        raise ConfigurationError("need D > 0, d_fd >= 0")
    return D + (f + 1) * d_fd


def crossover_d(D: float, f: int) -> float:
    """Break-even ``d``: the extended algorithm beats classic
    early-stopping iff ``d < D / (f + 1)``."""
    _check(f=f)
    if D <= 0:
        raise ConfigurationError("D must be > 0")
    return D / (f + 1)


# -- cross-model simulation (Section 2.2) ----------------------------------------


def simulation_blowup(n: int) -> int:
    """Classic rounds per extended round in the adapter: one data round
    plus one round per control position, ``= n``."""
    _check(n=n)
    return n
