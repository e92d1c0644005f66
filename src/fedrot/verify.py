"""Fast built-in self-checks behind ``fedrot verify``.

Each check is independent, seeded, and compares the library against a
slower oracle: a grid search, a pairwise double sum, or a closed-form
bound.  The whole battery runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    Strategy,
    aggregate_factorwise,
    aggregation_error,
    lagrange_error_oracle,
)
from .alignment import (
    AlignmentTarget,
    haar_random_rotation,
    procrustes_rotation,
    soft_rotation,
)
from .config import FederationConfig, TaskSpec
from .federation import run_federation
from .lora import LoraAdapter, semantic_update
from .numerics import frobenius_norm
from .tasks import TaskKind

__all__ = [
    "CheckResult",
    "run_checks",
    "scalar_rounds_to_threshold",
    "scalar_toy_config",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def scalar_toy_config(strategy: Strategy) -> FederationConfig:
    """The three-client scalar benchmark: targets (0.5, 1.0, 1.5), 200 rounds
    of thirty local steps at rate 0.01, lambda 1, initial factors (0, 0.44),
    seed 0."""
    return FederationConfig(
        strategy=strategy,
        n_clients=3,
        rank=1,
        dims=(1, 1),
        rounds=200,
        local_steps=30,
        learning_rate=0.01,
        lam=1.0,
        task=TaskSpec(kind=TaskKind.SCALAR_TOY, targets=(0.5, 1.0, 1.5)),
        init_a_value=0.44,
    )


def scalar_rounds_to_threshold(result) -> int | None:
    """First round whose global product satisfies ``|b a - 1| < 0.05``."""
    for t, model in enumerate(result.history[1:], start=1):
        product = float(model.b[0, 0] * model.a[0, 0])
        if abs(product - 1.0) < 0.05:
            return t
    return None


def _check_scalar_toy_ordering() -> CheckResult:
    rounds = {}
    for strategy in (Strategy.FEDROT, Strategy.FEDIT, Strategy.FFA_LORA,
                     Strategy.ROLORA):
        result = run_federation(scalar_toy_config(strategy))
        rounds[strategy] = scalar_rounds_to_threshold(result)
    detail = ", ".join(f"{s.value}={rounds[s]}" for s in rounds)
    complete = all(r is not None for r in rounds.values())
    ordered = complete and (
        rounds[Strategy.FEDROT] <= rounds[Strategy.FEDIT]
        and rounds[Strategy.FFA_LORA] > rounds[Strategy.FEDROT]
        and rounds[Strategy.ROLORA] > rounds[Strategy.FEDROT]
    )
    return CheckResult("scalar_toy_ordering", ordered, f"rounds to |ba-1|<0.05: {detail}")


def _check_lagrange_identity() -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d_out, d_in = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        rank = int(rng.integers(1, min(d_out, d_in) + 1))
        adapters = [
            LoraAdapter(rng.standard_normal((d_out, rank)), rng.standard_normal((rank, d_in)))
            for _ in range(n)
        ]
        updates = [semantic_update(ad) for ad in adapters]
        direct = aggregation_error(updates, aggregate_factorwise(adapters))
        oracle = frobenius_norm(lagrange_error_oracle(adapters))
        worst = max(worst, abs(direct - oracle))
    return CheckResult(
        "lagrange_identity", worst <= 1e-10,
        f"max |direct - pairwise| = {worst:.3e} (tol 1e-10)",
    )


def _grid_best_r2(m: np.ndarray) -> float:
    """Max of tr(R(theta) m) over SO(2) via a grid of 200,000 angles."""
    theta = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    trace = (m[0, 0] + m[1, 1]) * np.cos(theta) + (m[0, 1] - m[1, 0]) * np.sin(theta)
    return float(trace.max())


def _check_procrustes_grid_r2() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(20):
        local = rng.standard_normal((2, 5))
        reference = rng.standard_normal((2, 5))
        rot = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A)
        m = reference @ local.T
        closed = float(np.trace(rot.r @ m))
        grid = _grid_best_r2(m)
        worst = max(worst, grid - closed)
    return CheckResult(
        "procrustes_grid_r2", worst <= 1e-6,
        f"max grid-over-closed-form objective gap = {worst:.3e} (tol 1e-6)",
    )


def _check_det_correction() -> CheckResult:
    # Correlation matrices whose unconstrained optimum is a reflection: the
    # SO(2) optimum exists only if the smallest singular direction is
    # sign-corrected.  Dropping that correction returns a det -1 matrix or
    # a suboptimal rotation, and this check fails.
    rng = np.random.default_rng(11)
    worst_gap = -math.inf
    worst_det = 0.0
    for _ in range(20):
        u = rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(u)
        sigma = np.diag([float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.1, 0.9))])
        reflect = np.array([[1.0, 0.0], [0.0, -1.0]])
        m = q @ sigma @ reflect @ q.T  # det(m) < 0 by construction
        # Recover a (local, reference) pair whose correlation matrix is m:
        # reference @ local.T = m @ pinv(local.T) @ local.T = m.
        local = rng.standard_normal((2, 6))
        reference = m @ np.linalg.pinv(local.T)
        rot = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A)
        m_actual = reference @ local.T
        det = float(np.linalg.det(rot.r))
        worst_det = max(worst_det, abs(det - 1.0))
        closed = float(np.trace(rot.r @ m_actual))
        worst_gap = max(worst_gap, _grid_best_r2(m_actual) - closed)
    passed = worst_det <= 1e-10 and worst_gap <= 1e-6
    return CheckResult(
        "det_correction", passed,
        f"max |det-1| = {worst_det:.3e}, max objective gap = {worst_gap:.3e}",
    )


def _check_soft_rotation_shrinkage() -> CheckResult:
    rng = np.random.default_rng(31)
    violations = 0
    worst = -math.inf
    for i in range(200):
        rank = int(rng.integers(2, 7))
        hard = haar_random_rotation(rank, seed=[31, i])
        lam = float(rng.uniform(0.0, 1.0))
        soft = soft_rotation(hard, lam)
        eye = np.eye(rank)
        lhs = frobenius_norm(soft.r - eye)
        rhs = 2.0 * lam * frobenius_norm(hard.r - eye)
        slack = lhs - rhs
        worst = max(worst, slack)
        if slack > 1e-10:
            violations += 1
    return CheckResult(
        "soft_rotation_shrinkage", violations == 0,
        f"violations = {violations}/200, max slack = {worst:.3e}",
    )


def run_checks() -> list[CheckResult]:
    return [
        _check_scalar_toy_ordering(),
        _check_lagrange_identity(),
        _check_procrustes_grid_r2(),
        _check_det_correction(),
        _check_soft_rotation_shrinkage(),
    ]
