"""Small dense linear-algebra kernel, and the overflow-safe square of a float.

Callers pass 2-D ``float64`` matrices checked where they entered the
program.  Every function is pure: identical input bits give identical
output bits.  The SVD is LAPACK's (``np.linalg.svd``), factors unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError, NumericError, UsageError

__all__ = [
    "as_matrix",
    "frobenius_norm",
    "svd",
    "qr_orthonormal",
    "square",
]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array; NaN or Inf entries raise NonFiniteError."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise UsageError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise UsageError(f"expected a non-empty matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return m


@np.errstate(over="ignore")
def frobenius_norm(a) -> float:
    """``sqrt(sum(a * a))``.  Squares of a finite nonzero ``a`` that underflow
    to zero or overflow in sum are summed as ``a / max|a|`` and scaled back."""
    sq = np.sum(a * a)
    if 0.0 < sq < math.inf or not (a.any() and np.isfinite(a).all()):
        return float(np.sqrt(sq))
    scale = np.abs(a).max()
    a = a / scale
    return float(scale * np.sqrt(np.sum(a * a)))


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK thin SVD ``(u, sigma, vt)`` with ``a = u @ diag(sigma) @ vt``.

    ``u`` is m x k with orthonormal columns, ``sigma`` nonnegative and
    nonincreasing of length k = min(m, n), ``vt`` is k x n with
    orthonormal rows.  The sign of each singular pair is LAPACK's: every
    caller reads only ``sigma`` or products in which a paired flip of a
    column of ``u`` and its row of ``vt`` cancels exactly.

    Raises
    ------
    NumericError
        If LAPACK does not converge.
    """
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed for shape {a.shape}: {exc}") from exc


def qr_orthonormal(a) -> np.ndarray:
    """Orthogonal factor of the Householder QR of a square matrix.

    Column signs are fixed so that the diagonal of the triangular factor
    is nonnegative, the convention the Haar rotation sampler relies on.
    """
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def square(x: float) -> float:
    """``x ** 2`` of a Python float, ``inf`` where it overflows: ``**``
    raises there, and ``x * x`` rounds some finite squares differently."""
    try:
        return x**2
    except OverflowError:
        return math.inf
