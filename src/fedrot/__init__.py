"""Deterministic federated LoRA simulator with rotational client alignment."""

__version__ = "0.1.0"

from .aggregation import (
    Strategy,
    aggregate_factorwise,
    aggregation_error,
)
from .alignment import (
    AlignmentTarget,
    ReferenceKind,
    Rotation,
    ScheduleAblation,
    alignment_gain,
    apply_alignment,
    dispersion,
    haar_random_rotation,
    procrustes_rotation,
    soft_rotation,
)
from .config import FederationConfig, ReferenceMode, TaskSpec
from .errors import (
    ConfigError,
    DivergenceError,
    FedRotError,
    NumericError,
    UsageError,
)
from .federation import RunResult, run_federation, run_sweep
from .lora import LoraAdapter, init_adapter, semantic_update
from .tasks import TaskKind, dirichlet_partition

__all__ = [
    "__version__",
    "Strategy",
    "aggregate_factorwise",
    "aggregation_error",
    "AlignmentTarget",
    "ReferenceKind",
    "ReferenceMode",
    "Rotation",
    "ScheduleAblation",
    "apply_alignment",
    "haar_random_rotation",
    "procrustes_rotation",
    "soft_rotation",
    "ConfigError",
    "DivergenceError",
    "FedRotError",
    "NumericError",
    "UsageError",
    "FederationConfig",
    "RunResult",
    "TaskSpec",
    "run_federation",
    "run_sweep",
    "LoraAdapter",
    "init_adapter",
    "semantic_update",
    "alignment_gain",
    "dispersion",
    "TaskKind",
    "dirichlet_partition",
]
