"""Client-side factor transformations.

Covers the optimal orthogonal (Procrustes) alignment, its softened
interpolation, scalar rescaling, Haar-random rotations, the alignment
schedule, reference selection, and the dispersion and alignment gain
they are measured by.  All transformations preserve the semantic update
``b @ a`` up to floating-point rounding.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .lora import LoraAdapter
from .numerics import as_matrix, frobenius_norm, qr_orthonormal, square, svd

__all__ = [
    "Rotation",
    "AlignmentTarget",
    "ScheduleAblation",
    "ReferenceKind",
    "procrustes_rotation",
    "soft_rotation",
    "apply_alignment",
    "scalar_rescale_align",
    "haar_random_rotation",
    "select_reference",
    "alignment_schedule",
    "dispersion",
    "alignment_gain",
]

log = logging.getLogger(__name__)

_ORTHO_TOL = 1e-10


class AlignmentTarget(enum.Enum):
    FACTOR_A = "factor_a"
    FACTOR_B = "factor_b"

    def factor(self, adapter: LoraAdapter) -> np.ndarray:
        """The factor of ``adapter`` this target aligns: ``a`` or ``b``."""
        return adapter.a if self is AlignmentTarget.FACTOR_A else adapter.b


class ScheduleAblation(enum.Enum):
    ALTERNATE = "alternate"
    A_ONLY = "a_only"
    B_ONLY = "b_only"


@dataclass(eq=False)
class Rotation:
    """Special-orthogonal rank x rank matrix with verified invariants.  A
    square matrix that fails them is a :class:`NumericError`: the routine
    that computed it failed."""

    r: np.ndarray

    def __post_init__(self):
        self.r = as_matrix(self.r)
        n = self.r.shape[0]
        if self.r.shape[1] != n:
            raise UsageError(f"rotation must be square, got {self.r.shape}")
        dev = frobenius_norm(self.r.T @ self.r - np.eye(n))
        if dev > _ORTHO_TOL:
            raise NumericError(f"matrix is not orthogonal (|R^T R - I| = {dev:.3e})")
        det = float(np.linalg.det(self.r))
        if abs(det - 1.0) > _ORTHO_TOL:
            raise NumericError(f"rotation must have det +1, got {det!r}")

    @property
    def rank(self) -> int:
        return self.r.shape[0]

    @classmethod
    def identity(cls, rank: int) -> "Rotation":
        return cls(np.eye(rank))

    def is_identity(self) -> bool:
        return bool((self.r == np.eye(self.rank)).all())


def _project_so(u: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """``u @ diag(1, ..., 1, det(u vt)) @ vt`` -- nearest special-orthogonal
    matrix given the SVD factors of the input."""
    s = np.linalg.det(u @ vt)
    sign = 1.0 if s > 0 else -1.0
    u = u.copy()
    u[:, -1] *= sign
    return u @ vt


def procrustes_rotation(local, reference, target: AlignmentTarget) -> Rotation:
    """Optimal rotation aligning a local factor with the reference factor.

    For ``FACTOR_A`` (both r x d) the returned ``R`` minimizes
    ``|R^T local - reference|_F`` via the correlation matrix
    ``M = reference @ local^T``.  For ``FACTOR_B`` (both d x r) it
    minimizes ``|local R - reference|_F`` via ``M = reference^T @ local``.
    The minimization runs over special-orthogonal matrices only; when the
    correlation matrix wants a reflection the smallest singular direction
    is sign-corrected.

    A degenerate (zero) correlation matrix yields the identity rotation
    with a logged warning; this is the round-one situation where the
    broadcast factors are still ill-conditioned.  A correlation matrix that
    overflows is rejected before the SVD, with a :class:`NonFiniteError`.
    """
    local = as_matrix(local)
    reference = as_matrix(reference)
    if local.shape != reference.shape:
        raise UsageError(
            f"local/reference shape mismatch: {local.shape} vs {reference.shape}"
        )
    shape, layout = local.shape, "A must be rank x d"
    if target is AlignmentTarget.FACTOR_B:
        # B's problem is A's on the transposes; M is the same product.
        local, reference, layout = local.T, reference.T, "B must be d x rank"
    rank = local.shape[0]
    if local.shape[1] < rank:
        raise UsageError(f"factor {layout} with rank <= d, got {shape}")
    m = as_matrix(reference @ local.T)
    # Exact zero only: the squared norm of tiny nonzero entries underflows
    # to 0, yet those entries still determine the rotation.
    if not m.any():
        log.warning(
            "degenerate correlation matrix in Procrustes alignment; using identity"
        )
        return Rotation.identity(rank)
    u, _, vt = svd(m)
    # R = V diag(1, ..., det(U V^T)) U^T, the closed-form SO(r) maximizer
    # of tr(R M).
    return Rotation(_project_so(vt.T, u.T))


def soft_rotation(hard: Rotation, lam: float) -> Rotation:
    """Interpolate between identity and ``hard``, then reproject to SO(r).

    ``lam = 0`` returns the identity exactly; ``lam = 1`` returns ``hard``
    itself.  Intermediate values form ``(1 - lam) I + lam hard`` and
    take its nearest special-orthogonal matrix.
    """
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"soft rotation strength must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return Rotation.identity(hard.rank)
    if lam == 1.0:
        return hard
    blended = (1.0 - lam) * np.eye(hard.rank) + lam * hard.r
    u, sigma, vt = svd(blended)
    if sigma[-1] <= 1e-12 * max(sigma[0], 1.0):
        # Singular blend (measure-zero eigenvalue cancellation): nudge the
        # interpolation point and retry once.
        lam_adj = lam + 1e-9 if lam + 1e-9 <= 1.0 else lam - 1e-9
        blended = (1.0 - lam_adj) * np.eye(hard.rank) + lam_adj * hard.r
        u, _, vt = svd(blended)
    return Rotation(_project_so(u, vt))


def apply_alignment(ad: LoraAdapter, rot: Rotation) -> LoraAdapter:
    """Gauge transformation ``(b R, R^T a)``; the product ``b a`` is unchanged.
    The identity returns ``ad`` itself."""
    if rot.rank != ad.rank:
        raise UsageError(
            f"rotation rank {rot.rank} does not match adapter rank {ad.rank}"
        )
    if rot.is_identity():
        return ad
    return LoraAdapter(ad.b @ rot.r, rot.r.T @ ad.a)


def scalar_rescale_align(local, reference) -> float | None:
    """Closed-form scalar minimizing ``|c local - reference|_F``.

    ``c = <local, reference> / |local|_F^2``.  The caller applies ``c`` to
    the aligned factor and ``1/c`` to the complementary one.  A zero (or
    underflowing) ``|local|_F^2`` leaves ``c`` undefined, and a near-zero
    ``c`` would explode the complementary factor; for both it returns
    ``None``, and the caller leaves the factors as they are.
    """
    denom = float(np.sum(local * local))
    if denom == 0.0:
        return None
    c = float(np.sum(local * reference)) / denom
    return None if abs(c) <= 1e-12 else c


def haar_random_rotation(rank: int, seed) -> Rotation:
    """Haar-uniform sample from SO(rank).

    Gaussian matrix -> sign-canonical QR -> flip one column if the
    determinant is negative.  Any square draw has an orthogonal QR factor.
    """
    if rank < 1:
        raise UsageError(f"rank must be >= 1, got {rank}")
    q = qr_orthonormal(np.random.default_rng(seed).standard_normal((rank, rank)))
    if np.linalg.det(q) < 0.0:
        q[:, -1] *= -1.0
    return Rotation(q)


class ReferenceKind(enum.Enum):
    PREV_GLOBAL = "prev_global"
    OLDER_GLOBAL = "older_global"
    RANDOM_CLIENT = "random_client"


def select_reference(
    history: list[LoraAdapter],
    mode,
    client_snapshots: list[LoraAdapter],
    seed,
) -> LoraAdapter:
    """Pick the adapter clients align against this round.

    ``mode`` is the config's ``ReferenceMode``.  ``history`` holds the
    global adapters from the initial one up to the
    broadcast for this round; ``client_snapshots`` holds the previous
    round's client reports (may be empty in round one, in which case the
    random-client mode falls back to the previous global adapter).
    """
    if mode.kind is ReferenceKind.PREV_GLOBAL:
        return history[-1]
    if mode.kind is ReferenceKind.OLDER_GLOBAL:
        # history[-1] is the previous round's adapter (lag 1); until ``lag``
        # rounds exist, clamp to the earliest recorded adapter.
        idx = max(len(history) - mode.lag, 0)
        return history[idx]
    if not client_snapshots:
        return history[-1]
    rng = np.random.default_rng(seed)
    return client_snapshots[int(rng.integers(len(client_snapshots)))]


def alignment_schedule(round_index: int, ablation: ScheduleAblation) -> AlignmentTarget:
    """Factor to align this round: A on odd rounds, B on even rounds, unless
    a single-factor ablation pins the target.  Rounds count from 1."""
    if ablation is ScheduleAblation.A_ONLY:
        return AlignmentTarget.FACTOR_A
    if ablation is ScheduleAblation.B_ONLY:
        return AlignmentTarget.FACTOR_B
    return AlignmentTarget.FACTOR_A if round_index % 2 == 1 else AlignmentTarget.FACTOR_B


def dispersion(
    adapters: list[LoraAdapter], reference: LoraAdapter, target: AlignmentTarget
) -> float:
    """Mean squared factor distance ``(1/N) sum |A_i - A_ref|_F^2`` (or the
    B analogue); ``inf`` when a square overflows."""
    if not adapters:
        raise UsageError("dispersion requires at least one adapter")
    ref = target.factor(reference)
    return float(np.mean([square(frobenius_norm(target.factor(ad) - ref)) for ad in adapters]))


def alignment_gain(phi_lambda: float, phi_zero: float) -> float:
    """Relative dispersion reduction ``1 - phi(lambda) / phi(0)``; NaN when
    the unaligned dispersion is zero (homogeneous clients)."""
    return 1.0 - phi_lambda / phi_zero if phi_zero > 0 else float("nan")
