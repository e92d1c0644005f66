"""Server-side aggregation strategies and the aggregation-error metric."""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DivergenceError, NonFiniteError, UsageError
from .lora import LoraAdapter, semantic_update
from .numerics import frobenius_norm

__all__ = [
    "Strategy",
    "aggregate_factorwise",
    "aggregation_error",
    "lagrange_error_oracle",
    "frozen_factors",
    "server_step",
]


class Strategy(enum.Enum):
    FEDIT = "fedit"
    FFA_LORA = "ffa_lora"
    ROLORA = "rolora"
    FEDROT = "fedrot"
    SCALAR_RESCALE = "scalar_rescale"
    RANDOM_ROTATION = "random_rotation"


def _check_adapters(adapters: list[LoraAdapter]) -> None:
    if not adapters:
        raise UsageError("aggregation requires at least one adapter")
    first = adapters[0]
    for ad in adapters[1:]:
        if (ad.dims, ad.rank) != (first.dims, first.rank):
            raise UsageError(f"inconsistent adapter shapes: {ad.dims} rank {ad.rank} "
                             f"vs {first.dims} rank {first.rank}")


@np.errstate(over="ignore", invalid="ignore")
def aggregate_factorwise(adapters: list[LoraAdapter]) -> LoraAdapter:
    """Naive factor-wise mean ``(mean b_i, mean a_i)``; rank stays r.  A
    sum of finite factors that overflows raises :class:`NonFiniteError`."""
    _check_adapters(adapters)
    n = len(adapters)
    return LoraAdapter(sum(ad.b for ad in adapters) / n, sum(ad.a for ad in adapters) / n)


@np.errstate(over="ignore", invalid="ignore")
def aggregation_error(updates: list[np.ndarray], factorwise: LoraAdapter) -> float:
    """``|mean(b_i) mean(a_i) - (1/N) sum b_i a_i|_F`` for one LoRA layer.

    ``updates`` are the clients' products ``b_i a_i`` and ``factorwise`` is
    :func:`aggregate_factorwise` of their adapters.  An error of finite
    updates that is too large for a double is ``inf``.
    """
    diff = semantic_update(factorwise) - sum(updates) / len(updates)
    if diff.ndim == 2 and np.isfinite(diff).all():
        return frobenius_norm(diff)
    # A non-finite update leaves the difference non-finite too.
    if diff.ndim != 2 or not all(np.isfinite(u).all() for u in updates):
        raise UsageError("client updates must be finite matrices")
    return math.inf


def lagrange_error_oracle(adapters: list[LoraAdapter]) -> np.ndarray:
    """Pairwise double-sum form of the aggregation-error matrix.

    ``-(1/(2 N^2)) sum_i sum_j (b_i - b_j)(a_i - a_j)``; test oracle for
    :func:`aggregation_error`, kept independent of it.
    """
    _check_adapters(adapters)
    n = len(adapters)
    total = np.zeros(adapters[0].dims)
    for i in range(n):
        for j in range(n):
            total += (adapters[i].b - adapters[j].b) @ (adapters[i].a - adapters[j].a)
    return -total / (2.0 * n * n)


def frozen_factors(strategy: Strategy, round_index: int) -> tuple[bool, bool]:
    """(freeze_b, freeze_a): the factors a strategy keeps from the previous
    global model in this round, locally and at the server."""
    if strategy is Strategy.FFA_LORA:
        return False, True
    if strategy is Strategy.ROLORA:
        # Odd rounds train B (A frozen), even rounds train A (B frozen).
        if round_index % 2 == 1:
            return False, True
        return True, False
    return False, False


def server_step(
    adapters: list[LoraAdapter],
    updates: list[np.ndarray],
    prev: LoraAdapter,
    strategy: Strategy,
    round_index: int,
) -> tuple[LoraAdapter, float]:
    """Aggregate one round of client adapters into the next global adapter.

    The incoming adapters are already transformed client-side, so all
    rotational strategies reduce to factor-wise averaging here.  A factor
    that :func:`frozen_factors` freezes this round (FFA-LoRA's A, RoLoRA's
    alternating factor) is kept from the previous global ``prev``
    bit-for-bit.  Returns the new adapter and the aggregation error of the
    incoming adapters, from their products ``updates`` formed client-side.
    Finite client values whose factor mean or aggregation error overflows
    have diverged: that raises a :class:`DivergenceError` for ``round_index``.
    """
    try:
        averaged = aggregate_factorwise(adapters)
    except NonFiniteError as exc:  # dropped: its frames hold the round's adapters
        raise DivergenceError("non-finite factor mean at the server",
                              round_index=round_index) from exc.with_traceback(None)
    err = aggregation_error(updates, averaged)
    if not math.isfinite(err):
        raise DivergenceError("non-finite aggregation error at the server",
                              round_index=round_index)
    freeze_b, freeze_a = frozen_factors(strategy, round_index)
    b, a = prev.b if freeze_b else averaged.b, prev.a if freeze_a else averaged.a
    return LoraAdapter(b, a), err
