"""Round diagnostics of factor dispersion and alignment gain."""

from __future__ import annotations

import numpy as np

from .alignment import AlignmentTarget
from .errors import UsageError
from .lora import LoraAdapter
from .numerics import frobenius_norm, square

__all__ = ["factor_distances", "dispersion", "alignment_gain"]


def factor_distances(
    adapters: list[LoraAdapter], reference: LoraAdapter, target: AlignmentTarget
) -> list[float]:
    """Each adapter's ``|A_i - A_ref|_F`` (or the B analogue)."""
    ref = target.factor(reference)
    return [frobenius_norm(target.factor(ad) - ref) for ad in adapters]


def dispersion(distances: list[float]) -> float:
    """Mean squared factor distance ``(1/N) sum |A_i - A_ref|^2`` (or the B
    analogue), from the distances :func:`factor_distances` gives; ``inf``
    when a square overflows."""
    if not distances:
        raise UsageError("dispersion requires at least one adapter")
    return float(np.mean([square(d) for d in distances]))


def alignment_gain(phi_lambda: float, phi_zero: float) -> float:
    """Relative dispersion reduction ``1 - phi(lambda) / phi(0)``; NaN when
    the unaligned dispersion is zero (homogeneous clients)."""
    return 1.0 - phi_lambda / phi_zero if phi_zero > 0 else float("nan")
