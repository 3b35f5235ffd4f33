"""Vectorized timing grids for fine-resolution crossover maps.

The scalar :mod:`repro.timing.model` is fine for tables; drawing the full
win/lose *map* over thousands of ``(d/D, f)`` cells calls for NumPy
broadcasting (one array expression instead of a Python double loop —
the optimisation the scientific-Python guides recommend once the scalar
version is correct and tested).

The grid is validated against the scalar implementation point-by-point in
the test suite, so the two can never drift apart silently.

numpy is imported inside the functions, not with the module: the
package itself has no dependencies, and ``import repro`` must work (and
stay numpy-free) where numpy is absent.  Calling either function without
numpy raises :class:`ImportError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["timing_grid", "crossover_curve"]


def timing_grid(
    D: float,
    d_fractions: np.ndarray | list[float],
    f_values: np.ndarray | list[int],
) -> dict[str, np.ndarray]:
    """Completion-time surfaces over a ``(f, d/D)`` grid.

    Returns arrays of shape ``(len(f_values), len(d_fractions))``:

    * ``crw``            — ``(f+1)(D+d)``
    * ``early_stopping`` — ``(f+2)D``  (broadcast along the d axis)
    * ``extended_wins``  — boolean strict-win mask
    * ``margin``         — classic minus extended time (positive = win)
    """
    import numpy as np

    if D <= 0:
        raise ConfigurationError("D must be > 0")
    d_frac = np.asarray(d_fractions, dtype=np.float64)
    f = np.asarray(f_values, dtype=np.int64)
    if d_frac.ndim != 1 or f.ndim != 1:
        raise ConfigurationError("d_fractions and f_values must be 1-D")
    if (d_frac < 0).any():
        raise ConfigurationError("d fractions must be >= 0")
    if (f < 0).any():
        raise ConfigurationError("f values must be >= 0")

    d = d_frac[None, :] * D  # (1, K)
    rounds_ext = (f + 1)[:, None].astype(np.float64)  # (F, 1)
    crw = rounds_ext * (D + d)  # broadcast -> (F, K)
    early = ((f + 2).astype(np.float64) * D)[:, None] * np.ones_like(d_frac)[None, :]
    margin = early - crw
    return {
        "crw": crw,
        "early_stopping": early,
        "extended_wins": margin > 0,
        "margin": margin,
    }


def crossover_curve(D: float, f_values: np.ndarray | list[int]) -> np.ndarray:
    """The break-even ``d/D`` per ``f``: ``1 / (f + 1)`` (vectorized)."""
    import numpy as np

    if D <= 0:
        raise ConfigurationError("D must be > 0")
    f = np.asarray(f_values, dtype=np.float64)
    if (f < 0).any():
        raise ConfigurationError("f values must be >= 0")
    return 1.0 / (f + 1.0)
