"""Low-rank adapter values and their basic transformations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .numerics import as_matrix

__all__ = [
    "LoraAdapter",
    "semantic_update",
    "init_adapter",
]


@dataclass(eq=False)
class LoraAdapter:
    """Low-rank update ``delta_w = b @ a``; ``b`` d_out x r and ``a`` r x d_in share rank r."""

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.b = as_matrix(self.b)
        self.a = as_matrix(self.a)
        if self.b.shape[1] != self.a.shape[0]:
            raise UsageError(
                f"factor shapes {self.b.shape} and {self.a.shape} do not share an inner dimension"
            )
        if self.rank > min(self.dims):
            raise UsageError(f"rank {self.rank} out of range for dims {self.dims}")

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def dims(self) -> tuple[int, int]:
        return self.b.shape[0], self.a.shape[1]


def semantic_update(ad: LoraAdapter) -> np.ndarray:
    """The update the adapter represents: ``b @ a``."""
    return ad.b @ ad.a


def init_adapter(d_out: int, d_in: int, rank: int, seed) -> LoraAdapter:
    """Server-side init: ``b = 0`` and Gaussian ``a`` with std 1/sqrt(d_in).

    The initial semantic update is therefore exactly zero.
    """
    if not 1 <= rank <= min(d_out, d_in):
        raise UsageError(f"rank {rank} out of range for dims ({d_out}, {d_in})")
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(rank, d_in))
    b = np.zeros((d_out, rank))
    return LoraAdapter(b, a)
