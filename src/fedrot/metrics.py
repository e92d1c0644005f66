"""Theory-side diagnostics: dispersion, alignment gain, the gain
polynomial, the feasible soft-rotation range, and empirical estimation of
the assumption constants from a completed run.

All constants are *estimated diagnostics*, not assumptions fed into the
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentTarget
from .errors import EstimationError, UsageError
from .lora import LoraAdapter
from .numerics import frobenius_norm

__all__ = [
    "TheoryConstants",
    "factor_distances",
    "dispersion",
    "alignment_gain",
    "gamma",
    "feasible_lambda_range",
    "estimate_constants",
]


@dataclass(frozen=True)
class TheoryConstants:
    """Envelope and boundedness constants entering the gain polynomial."""

    c0: float  # linear lower envelope slope of the alignment gain
    kappa: float  # rotation-vs-drift dispersion bound
    delta_a: float  # A-factor heterogeneity floor
    delta_b: float  # B-factor heterogeneity floor
    tau: float  # factor-norm product bound
    g_b: float  # gradient-norm bound
    eta: float  # learning rate

    def __post_init__(self):
        for name in ("c0", "kappa", "delta_a", "delta_b", "tau", "g_b", "eta"):
            if getattr(self, name) <= 0:
                raise UsageError(f"theory constant {name} must be strictly positive")


def factor_distances(
    adapters: list[LoraAdapter], reference: LoraAdapter, target: AlignmentTarget
) -> list[float]:
    """Each adapter's ``|A_i - A_ref|_F`` (or the B analogue)."""
    ref = target.factor(reference)
    return [frobenius_norm(target.factor(ad) - ref) for ad in adapters]


def dispersion(distances: list[float]) -> float:
    """Mean squared factor distance ``(1/N) sum |A_i - A_ref|^2`` (or the B
    analogue), from the distances :func:`factor_distances` gives."""
    if not distances:
        raise UsageError("dispersion requires at least one adapter")
    return float(np.mean([d**2 for d in distances]))


def alignment_gain(phi_lambda: float, phi_zero: float) -> float:
    """Relative dispersion reduction ``1 - phi(lambda) / phi(0)``; NaN when
    the unaligned dispersion is zero (homogeneous clients)."""
    return 1.0 - phi_lambda / phi_zero if phi_zero > 0 else float("nan")


def gamma(lam: float, k: TheoryConstants) -> float:
    """Gain polynomial ``(c0 - 4 sqrt(tau) kappa eta g_b / delta_a) lam
    - 4 kappa^2 lam^2 tau``."""
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {lam}")
    slope = k.c0 - 4.0 * math.sqrt(k.tau) * k.kappa * k.eta * k.g_b / k.delta_a
    return slope * lam - 4.0 * k.kappa**2 * lam**2 * k.tau


def feasible_lambda_range(k: TheoryConstants) -> tuple[float, float] | None:
    """Open interval of soft-rotation strengths with strictly positive gain.

    Empty (``None``) when the learning rate is too large:
    ``eta >= c0 delta_a / (4 sqrt(tau) kappa g_b)``.  Otherwise
    ``(0, min(1, (c0 delta_a - 4 sqrt(tau) kappa eta g_b) / (4 kappa^2 tau delta_a)))``.
    """
    threshold = k.c0 * k.delta_a / (4.0 * math.sqrt(k.tau) * k.kappa * k.g_b)
    if k.eta >= threshold:
        return None
    upper = (k.c0 * k.delta_a - 4.0 * math.sqrt(k.tau) * k.kappa * k.eta * k.g_b) / (
        4.0 * k.kappa**2 * k.tau * k.delta_a
    )
    return (0.0, min(1.0, upper))


def estimate_constants(run, warmup_rounds: int = 5) -> TheoryConstants:
    """Estimate the assumption constants from a recorded trajectory.

    Rounds inside the warmup window are excluded from the envelope and
    heterogeneity estimates, where the reference model is still noisy.

    Raises
    ------
    EstimationError
        If any estimated quantity is degenerate (zero factor distances,
        no aligned rounds, non-positive envelope slope).
    """
    if len(run.rounds) < 2:
        raise UsageError("constant estimation requires at least 2 rounds")
    tau = max(r.tau_diag for r in run.rounds)
    g_b = max(r.grad_norm_max for r in run.rounds)
    eta = run.config.learning_rate
    usable = [r for r in run.rounds if r.round > warmup_rounds] or run.rounds
    delta_a = min(r.dist_a_min for r in usable)
    delta_b = min(r.dist_b_min for r in usable)
    failures = []
    if tau <= 0:
        failures.append("tau (all factor-norm products are zero)")
    if g_b <= 0:
        failures.append("g_b (no nonzero gradients observed)")
    if delta_a <= 0:
        failures.append("delta_a (a client matched the reference exactly)")
    if delta_b <= 0:
        failures.append("delta_b (a client matched the reference exactly)")
    kappa_obs = [r.kappa_max for r in usable if np.isfinite(r.kappa_max)]
    kappa = max(kappa_obs, default=0.0)
    if kappa <= 0:
        failures.append("kappa (no rotation deviations observed)")
    lam = run.config.lam
    gains = [
        r.alignment_gain / lam
        for r in usable
        if r.aligned and lam > 0 and np.isfinite(r.alignment_gain)
    ]
    c0 = min(gains, default=0.0)
    if c0 <= 0:
        failures.append("c0 (alignment gain not positive after warmup)")
    if failures:
        raise EstimationError("degenerate estimates: " + "; ".join(failures))
    return TheoryConstants(
        c0=c0, kappa=kappa, delta_a=delta_a, delta_b=delta_b, tau=tau, g_b=g_b, eta=eta
    )
