"""Experiment-file parsing.

The on-disk dialect is YAML: an ``experiment`` mapping that corresponds
field-for-field to :class:`~fedrot.federation.FederationConfig` (with
nested ``reference`` and ``task`` mappings), plus an optional ``sweep``
mapping holding a parameter ``grid`` and a ``seeds`` list.  Unknown keys
are rejected with the offending line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .aggregation import Strategy
from .alignment import ReferenceKind, ReferenceMode, ScheduleAblation
from .errors import ConfigError, UsageError
from .federation import FederationConfig, TaskSpec
from .tasks import TaskKind

__all__ = ["SweepSpec", "ExperimentFile", "load_config", "config_to_dict"]


@dataclass(frozen=True)
class SweepSpec:
    grid: dict[str, list]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentFile:
    experiment: FederationConfig
    sweep: SweepSpec | None


_EXPERIMENT_KEYS = {
    "strategy",
    "n_clients",
    "rank",
    "dims",
    "rounds",
    "local_steps",
    "learning_rate",
    "lambda",
    "seed",
    "align_from_round",
    "batch_size",
    "init_a_value",
    "schedule",
    "dirichlet_alpha",
    "reference",
    "task",
}
_INTEGER_KEYS = {
    "n_clients",
    "rank",
    "rounds",
    "local_steps",
    "seed",
    "align_from_round",
}
_REFERENCE_KEYS = {"kind", "lag"}
_TASK_KEYS = {
    "kind",
    "targets",
    "true_rank",
    "heterogeneity",
    "n_features",
    "n_classes",
    "n_samples",
}
_SWEEP_KEYS = {"grid", "seeds"}
_SWEEP_PARAMS = {
    "lambda",
    "strategy",
    "schedule",
    "learning_rate",
    "local_steps",
    "rounds",
    "rank",
    "n_clients",
    "dirichlet_alpha",
    "align_from_round",
    "batch_size",
    "heterogeneity",
    "true_rank",
    "seed",
}


def _mark(node) -> tuple[int, int]:
    mark = node.start_mark
    return mark.line + 1, mark.column + 1


def _fail(node, message: str):
    line, column = _mark(node)
    raise ConfigError(message, line=line, column=column)


def _mapping_items(node, context: str) -> dict[str, tuple]:
    """Mapping node -> {key: (key_node, value_node)}; rejects duplicates."""
    if not isinstance(node, yaml.MappingNode):
        _fail(node, f"{context} must be a mapping")
    out = {}
    for key_node, value_node in node.value:
        key = str(key_node.value)
        if key in out:
            _fail(key_node, f"duplicate key {key!r} in {context}")
        out[key] = (key_node, value_node)
    return out


def _check_keys(items: dict, allowed: set[str], context: str) -> None:
    for key, (key_node, _) in items.items():
        if key not in allowed:
            _fail(
                key_node,
                f"unknown key {key!r} in {context} "
                f"(allowed: {', '.join(sorted(allowed))})",
            )


def _value(node):
    loader = yaml.SafeLoader("")
    try:
        return loader.construct_object(node, deep=True)
    except yaml.YAMLError as exc:
        _fail(node, f"malformed value: {exc}")


def _integer(node, key: str) -> int:
    raw = _value(node)
    # YAML booleans are Python ints; a count of ``true`` is a mistake.
    if not isinstance(raw, int) or isinstance(raw, bool):
        _fail(node, f"{key} must be an integer, got {raw!r}")
    return raw


def _enum(node, enum_cls, what: str):
    raw = _value(node)
    try:
        return enum_cls(raw)
    except ValueError:
        _fail(
            node,
            f"invalid {what} {raw!r} (one of: "
            f"{', '.join(m.value for m in enum_cls)})",
        )


def _reference(node) -> ReferenceMode:
    items = _mapping_items(node, "reference")
    _check_keys(items, _REFERENCE_KEYS, "reference")
    kwargs = {}
    if "kind" in items:
        kwargs["kind"] = _enum(items["kind"][1], ReferenceKind, "reference kind")
    if "lag" in items:
        kwargs["lag"] = int(_value(items["lag"][1]))
    try:
        return ReferenceMode(**kwargs)
    except UsageError as exc:
        _fail(node, str(exc))


def _task(node) -> TaskSpec:
    items = _mapping_items(node, "task")
    _check_keys(items, _TASK_KEYS, "task")
    if "kind" not in items:
        _fail(node, "task requires a 'kind' key")
    kwargs = {"kind": _enum(items["kind"][1], TaskKind, "task kind")}
    for key, (_, value_node) in items.items():
        if key == "kind":
            continue
        value = _value(value_node)
        if key == "targets":
            value = tuple(float(x) for x in value)
        kwargs[key] = value
    try:
        return TaskSpec(**kwargs)
    except (UsageError, TypeError, ValueError) as exc:
        _fail(node, str(exc))


def _experiment(node) -> FederationConfig:
    items = _mapping_items(node, "experiment")
    _check_keys(items, _EXPERIMENT_KEYS, "experiment")
    kwargs = {}
    for key, (_, value_node) in items.items():
        if key == "strategy":
            kwargs["strategy"] = _enum(value_node, Strategy, "strategy")
        elif key == "schedule":
            kwargs["schedule"] = _enum(value_node, ScheduleAblation, "schedule")
        elif key in _INTEGER_KEYS:
            kwargs[key] = _integer(value_node, key)
        elif key == "lambda":
            kwargs["lam"] = float(_value(value_node))
        elif key == "reference":
            kwargs["reference_mode"] = _reference(value_node)
        elif key == "task":
            kwargs["task"] = _task(value_node)
        elif key == "dims":
            dims = _value(value_node)
            if not (isinstance(dims, list) and len(dims) == 2):
                _fail(value_node, "dims must be a two-element list [d_out, d_in]")
            kwargs["dims"] = (int(dims[0]), int(dims[1]))
        else:
            kwargs[key] = _value(value_node)
    for required in ("strategy", "n_clients", "rank", "dims", "rounds",
                     "local_steps", "learning_rate"):
        wanted = "lam" if required == "lambda" else required
        if wanted not in kwargs:
            _fail(node, f"experiment is missing required key {required!r}")
    try:
        return FederationConfig(**kwargs)
    except (UsageError, TypeError, ValueError) as exc:
        _fail(node, str(exc))


def _sweep(node) -> SweepSpec:
    items = _mapping_items(node, "sweep")
    _check_keys(items, _SWEEP_KEYS, "sweep")
    if "grid" not in items:
        _fail(node, "sweep requires a 'grid' mapping")
    grid_items = _mapping_items(items["grid"][1], "sweep grid")
    grid = {}
    for key, (key_node, value_node) in grid_items.items():
        if key not in _SWEEP_PARAMS:
            _fail(
                key_node,
                f"unknown sweep parameter {key!r} "
                f"(allowed: {', '.join(sorted(_SWEEP_PARAMS))})",
            )
        values = _value(value_node)
        if not isinstance(values, list) or not values:
            _fail(value_node, f"sweep parameter {key!r} must be a non-empty list")
        grid[key] = values
    if not grid:
        _fail(items["grid"][1], "sweep grid must contain at least one parameter")
    seeds = (0,)
    if "seeds" in items:
        raw = _value(items["seeds"][1])
        if not isinstance(raw, list) or not raw:
            _fail(items["seeds"][1], "sweep seeds must be a non-empty list")
        seeds = tuple(int(s) for s in raw)
    return SweepSpec(grid=grid, seeds=seeds)


def load_config(path) -> ExperimentFile:
    """Parse and validate an experiment file."""
    try:
        with open(path, encoding="utf-8") as fh:
            root = yaml.compose(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(str(exc), line=mark.line + 1, column=mark.column + 1)
        raise ConfigError(str(exc))
    if root is None:
        raise ConfigError("config file is empty")
    items = _mapping_items(root, "config file")
    _check_keys(items, {"experiment", "sweep"}, "config file")
    if "experiment" not in items:
        _fail(root, "config file requires an 'experiment' section")
    experiment = _experiment(items["experiment"][1])
    sweep = _sweep(items["sweep"][1]) if "sweep" in items else None
    return ExperimentFile(experiment=experiment, sweep=sweep)


def config_to_dict(config: FederationConfig) -> dict:
    """Fully resolved config as plain JSON-serializable data."""
    return {
        "strategy": config.strategy.value,
        "n_clients": config.n_clients,
        "rank": config.rank,
        "dims": list(config.dims),
        "rounds": config.rounds,
        "local_steps": config.local_steps,
        "learning_rate": config.learning_rate,
        "lambda": config.lam,
        "reference": {
            "kind": config.reference_mode.kind.value,
            "lag": config.reference_mode.lag,
        },
        "schedule": config.schedule.value,
        "task": {
            "kind": config.task.kind.value,
            "targets": list(config.task.targets),
            "true_rank": config.task.true_rank,
            "heterogeneity": config.task.heterogeneity,
            "n_features": config.task.n_features,
            "n_classes": config.task.n_classes,
            "n_samples": config.task.n_samples,
        },
        "dirichlet_alpha": config.dirichlet_alpha,
        "seed": config.seed,
        "align_from_round": config.align_from_round,
        "batch_size": config.batch_size,
        "init_a_value": config.init_a_value,
    }
